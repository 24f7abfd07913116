#include "core/plan_executor.h"

#include "ops/constant.h"
#include "ops/gather.h"
#include "ops/pack.h"
#include "ops/prefix_sum.h"
#include "ops/scatter.h"
#include "schemes/model_fit.h"
#include "schemes/scheme.h"
#include "schemes/scheme_internal.h"
#include "util/string_util.h"

namespace recomp {

using internal::DispatchAnyColumn;
using internal::DispatchAnyTypeId;
using internal::DispatchUnsignedTypeId;

Result<const AnyColumn*> ResolvePartPath(const CompressedNode& node,
                                         const std::string& path) {
  const CompressedNode* current = &node;
  size_t begin = 0;
  while (true) {
    const size_t slash = path.find('/', begin);
    const std::string component = path.substr(
        begin, slash == std::string::npos ? std::string::npos : slash - begin);
    auto it = current->parts.find(component);
    if (it == current->parts.end()) {
      return Status::KeyError(
          StringFormat("no part '%s' along path '%s'", component.c_str(),
                       path.c_str()));
    }
    if (slash == std::string::npos) {
      if (!it->second.is_terminal()) {
        return Status::KeyError(StringFormat(
            "part path '%s' names a sub-envelope, not a column", path.c_str()));
      }
      return &*it->second.column;
    }
    if (it->second.is_terminal() || !it->second.sub) {
      return Status::KeyError(StringFormat(
          "part path '%s' descends into a terminal column", path.c_str()));
    }
    current = it->second.sub.get();
    begin = slash + 1;
  }
}

namespace {

Result<AnyColumn> EvalPrefixSum(const AnyColumn& in, bool inclusive) {
  return DispatchAnyColumn(in, [&](const auto& col) -> Result<AnyColumn> {
    if (inclusive) return AnyColumn(ops::PrefixSumInclusive(col));
    return AnyColumn(ops::PrefixSumExclusive(col));
  });
}

Result<AnyColumn> EvalPopBack(const AnyColumn& in) {
  return DispatchAnyColumn(in, [&](const auto& col) -> Result<AnyColumn> {
    return AnyColumn(ops::PopBack(col));
  });
}

Result<AnyColumn> EvalConstant(const PlanNode& node, uint64_t length) {
  return DispatchAnyTypeId(node.type_param, [&](auto tag) -> Result<AnyColumn> {
    using T = typename decltype(tag)::type;
    return AnyColumn(ops::Constant(static_cast<T>(node.imm), length));
  });
}

Result<AnyColumn> EvalIota(const PlanNode& node, uint64_t length) {
  return DispatchAnyTypeId(node.type_param, [&](auto tag) -> Result<AnyColumn> {
    using T = typename decltype(tag)::type;
    Column<T> out(length);
    for (uint64_t i = 0; i < length; ++i) {
      out[i] = static_cast<T>(node.imm + i);
    }
    return AnyColumn(std::move(out));
  });
}

Result<AnyColumn> EvalGather(const AnyColumn& values,
                             const AnyColumn& indices) {
  if (indices.is_packed() || indices.type() != TypeId::kUInt32) {
    return Status::InvalidArgument("Gather indices must be a uint32 column");
  }
  const Column<uint32_t>& idx = indices.As<uint32_t>();
  return DispatchAnyColumn(values, [&](const auto& vals) -> Result<AnyColumn> {
    RECOMP_ASSIGN_OR_RETURN(auto out, ops::Gather(vals, idx));
    return AnyColumn(std::move(out));
  });
}

Result<AnyColumn> EvalScatter(const AnyColumn& values, const AnyColumn& indices,
                              const AnyColumn& target) {
  if (indices.is_packed() || indices.type() != TypeId::kUInt32) {
    return Status::InvalidArgument("Scatter indices must be a uint32 column");
  }
  if (values.type() != target.type() || values.is_packed() ||
      target.is_packed()) {
    return Status::InvalidArgument(
        "Scatter values/target must be plain columns of one type");
  }
  const Column<uint32_t>& idx = indices.As<uint32_t>();
  return DispatchAnyColumn(target, [&](const auto& tgt) -> Result<AnyColumn> {
    using T = typename std::decay_t<decltype(tgt)>::value_type;
    auto out = tgt;  // Functional semantics: scatter into a copy.
    RECOMP_RETURN_NOT_OK(ops::ScatterInto(values.As<T>(), idx, &out));
    return AnyColumn(std::move(out));
  });
}

Result<AnyColumn> EvalElementwise(const PlanNode& node, const AnyColumn& a,
                                  const AnyColumn& b) {
  if (a.type() != b.type() || a.is_packed() || b.is_packed()) {
    return Status::InvalidArgument(
        "Elementwise operands must be plain columns of one type");
  }
  return DispatchAnyColumn(a, [&](const auto& lhs) -> Result<AnyColumn> {
    using T = typename std::decay_t<decltype(lhs)>::value_type;
    RECOMP_ASSIGN_OR_RETURN(auto out,
                            ops::Elementwise(node.bin_op, lhs, b.As<T>()));
    return AnyColumn(std::move(out));
  });
}

Result<AnyColumn> EvalElementwiseScalar(const PlanNode& node,
                                        const AnyColumn& a) {
  return DispatchAnyColumn(a, [&](const auto& lhs) -> Result<AnyColumn> {
    using T = typename std::decay_t<decltype(lhs)>::value_type;
    RECOMP_ASSIGN_OR_RETURN(
        auto out,
        ops::ElementwiseScalar(node.bin_op, lhs, static_cast<T>(node.imm)));
    return AnyColumn(std::move(out));
  });
}

Result<AnyColumn> EvalUnpack(const AnyColumn& in) {
  if (!in.is_packed()) {
    return Status::InvalidArgument("Unpack expects a packed column");
  }
  const PackedColumn& packed = in.packed();
  return DispatchUnsignedTypeId(
      TypeIdToUnsigned(packed.logical_type),
      [&](auto tag) -> Result<AnyColumn> {
        using T = typename decltype(tag)::type;
        RECOMP_ASSIGN_OR_RETURN(Column<T> out, ops::Unpack<T>(packed));
        return AnyColumn(std::move(out));
      });
}

Result<AnyColumn> EvalReplicate(const PlanNode& node, const AnyColumn& values) {
  if (node.imm == 0) {
    return Status::InvalidArgument("Replicate needs a segment length");
  }
  return DispatchAnyColumn(values, [&](const auto& vals) -> Result<AnyColumn> {
    using T = typename std::decay_t<decltype(vals)>::value_type;
    Column<T> out(node.imm2);
    for (uint64_t i = 0; i < node.imm2; ++i) {
      const uint64_t seg = i / node.imm;
      if (seg >= vals.size()) {
        return Status::OutOfRange("Replicate runs past its values column");
      }
      out[i] = vals[seg];
    }
    return AnyColumn(std::move(out));
  });
}

Result<AnyColumn> EvalPlinOp(const PlanNode& node, const AnyColumn& bases,
                             const AnyColumn& slopes) {
  if (slopes.is_packed() || slopes.type() != TypeId::kInt64) {
    return Status::InvalidArgument("EvalPlin slopes must be int64");
  }
  return DispatchUnsignedTypeId(
      TypeIdToUnsigned(bases.type()), [&](auto tag) -> Result<AnyColumn> {
        using T = typename decltype(tag)::type;
        if (bases.is_packed() || bases.type() != TypeIdOf<T>()) {
          return Status::InvalidArgument("EvalPlin bases must be unsigned");
        }
        internal::PlinFit<T> fit;
        fit.bases = bases.As<T>();
        fit.slopes = slopes.As<int64_t>();
        const uint64_t segments = bits::CeilDiv(node.imm2, node.imm);
        if (fit.bases.size() != segments || fit.slopes.size() != segments) {
          return Status::OutOfRange("EvalPlin arity mismatch");
        }
        return AnyColumn(internal::EvaluatePlin(fit, node.imm, node.imm2));
      });
}

/// Decode recodings by delegating to the scheme's reference decompression.
Result<AnyColumn> EvalSchemeDecode(SchemeKind kind, const std::string& part,
                                   const AnyColumn& in, uint64_t n,
                                   TypeId out_type) {
  PartsMap parts;
  parts.emplace(part, in);
  DecompressContext ctx;
  ctx.n = n;
  ctx.out_type = out_type;
  return GetScheme(kind)->Decompress(parts, SchemeDescriptor(kind), ctx);
}

Result<AnyColumn> ExecutePlanForNode(const Plan& plan,
                                     const CompressedNode& root) {
  RECOMP_RETURN_NOT_OK(plan.Validate());
  std::vector<AnyColumn> slots;
  slots.reserve(plan.nodes.size());

  for (const PlanNode& node : plan.nodes) {
    auto in = [&](int i) -> const AnyColumn& {
      return slots[static_cast<size_t>(node.inputs[static_cast<size_t>(i)])];
    };
    Result<AnyColumn> value = [&]() -> Result<AnyColumn> {
      switch (node.op) {
        case PlanOpKind::kInput: {
          RECOMP_ASSIGN_OR_RETURN(const AnyColumn* col,
                                  ResolvePartPath(root, node.input_path));
          return *col;
        }
        case PlanOpKind::kPrefixSumInclusive:
          return EvalPrefixSum(in(0), /*inclusive=*/true);
        case PlanOpKind::kPrefixSumExclusive:
          return EvalPrefixSum(in(0), /*inclusive=*/false);
        case PlanOpKind::kPopBack:
          return EvalPopBack(in(0));
        case PlanOpKind::kConstant:
          return EvalConstant(node,
                              node.inputs.empty() ? node.imm2 : in(0).size());
        case PlanOpKind::kIota:
          return EvalIota(node,
                          node.inputs.empty() ? node.imm2 : in(0).size());
        case PlanOpKind::kScatter:
          return EvalScatter(in(0), in(1), in(2));
        case PlanOpKind::kScatterConst: {
          return DispatchAnyTypeId(
              node.type_param, [&](auto tag) -> Result<AnyColumn> {
                using T = typename decltype(tag)::type;
                const AnyColumn& indices = in(0);
                if (indices.is_packed() ||
                    indices.type() != TypeId::kUInt32) {
                  return Status::InvalidArgument(
                      "ScatterConst indices must be uint32");
                }
                RECOMP_ASSIGN_OR_RETURN(
                    auto out,
                    ops::ScatterConstant(static_cast<T>(node.imm),
                                         indices.As<uint32_t>(), node.imm2));
                return AnyColumn(std::move(out));
              });
        }
        case PlanOpKind::kGather:
          return EvalGather(in(0), in(1));
        case PlanOpKind::kElementwise:
          return EvalElementwise(node, in(0), in(1));
        case PlanOpKind::kElementwiseScalar:
          return EvalElementwiseScalar(node, in(0));
        case PlanOpKind::kUnpack:
          return EvalUnpack(in(0));
        case PlanOpKind::kZigZagDecode:
          return EvalSchemeDecode(SchemeKind::kZigZag, "recoded", in(0),
                                  in(0).size(), node.type_param);
        case PlanOpKind::kVByteDecode:
          return EvalSchemeDecode(SchemeKind::kVByte, "stream", in(0),
                                  node.imm2, node.type_param);
        case PlanOpKind::kEvalPlin:
          return EvalPlinOp(node, in(0), in(1));
        case PlanOpKind::kReplicate:
          return EvalReplicate(node, in(0));
      }
      return Status::NotImplemented("unknown plan op");
    }();
    if (!value.ok()) {
      return Status(value.status().code(),
                    StringFormat("plan node '%s' (%s): %s", node.label.c_str(),
                                 PlanOpKindName(node.op),
                                 value.status().message().c_str()));
    }
    slots.push_back(std::move(*value));
  }
  return std::move(slots.back());
}

}  // namespace

Result<AnyColumn> ExecutePlan(const Plan& plan,
                              const CompressedColumn& compressed) {
  return ExecutePlanForNode(plan, compressed.root());
}

}  // namespace recomp
