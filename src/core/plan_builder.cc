#include "core/plan_builder.h"

#include "util/string_util.h"

namespace recomp {

namespace {

/// Emits operator sequences per scheme, walking the envelope tree.
class Builder {
 public:
  Result<Plan> Build(const CompressedNode& root) {
    RECOMP_ASSIGN_OR_RETURN(int out, EmitNode(root, "", "out"));
    (void)out;
    RECOMP_RETURN_NOT_OK(plan_.Validate());
    return std::move(plan_);
  }

 private:
  int Emit(PlanNode node) {
    plan_.nodes.push_back(std::move(node));
    return static_cast<int>(plan_.nodes.size() - 1);
  }

  int EmitInput(const std::string& path, const std::string& label) {
    PlanNode node;
    node.op = PlanOpKind::kInput;
    node.input_path = path;
    node.label = label;
    return Emit(std::move(node));
  }

  /// Returns the slot holding the materialized content of `part_name`:
  /// an Input node for terminal parts, or the sub-envelope's output.
  Result<int> EmitPart(const CompressedNode& node, const std::string& part_name,
                       const std::string& path_prefix,
                       const std::string& label) {
    auto it = node.parts.find(part_name);
    if (it == node.parts.end()) {
      return Status::Corruption(
          StringFormat("envelope lacks part '%s'", part_name.c_str()));
    }
    const std::string path =
        path_prefix.empty() ? part_name : path_prefix + "/" + part_name;
    if (it->second.is_terminal()) {
      return EmitInput(path, label);
    }
    return EmitNode(*it->second.sub, path, label);
  }

  /// Emits the decompression of `node`; returns the output slot, labeled
  /// `label`.
  Result<int> EmitNode(const CompressedNode& node,
                       const std::string& path_prefix,
                       const std::string& label) {
    switch (node.scheme.kind) {
      case SchemeKind::kId:
        return EmitPart(node, "data", path_prefix, label);

      case SchemeKind::kZigZag: {
        RECOMP_ASSIGN_OR_RETURN(
            int recoded, EmitPart(node, "recoded", path_prefix, "recoded"));
        PlanNode decode;
        decode.op = PlanOpKind::kZigZagDecode;
        decode.inputs = {recoded};
        decode.type_param = node.out_type;
        decode.label = label;
        return Emit(std::move(decode));
      }

      case SchemeKind::kNs: {
        RECOMP_ASSIGN_OR_RETURN(
            int packed, EmitPart(node, "packed", path_prefix, "packed"));
        PlanNode unpack;
        unpack.op = PlanOpKind::kUnpack;
        unpack.inputs = {packed};
        unpack.label = label;
        return Emit(std::move(unpack));
      }

      case SchemeKind::kVByte: {
        RECOMP_ASSIGN_OR_RETURN(
            int stream, EmitPart(node, "stream", path_prefix, "stream"));
        PlanNode decode;
        decode.op = PlanOpKind::kVByteDecode;
        decode.inputs = {stream};
        decode.imm2 = node.n;
        decode.type_param = node.out_type;
        decode.label = label;
        return Emit(std::move(decode));
      }

      case SchemeKind::kDelta: {
        // The paper's DELTA decompression: one inclusive PrefixSum. When
        // this node compresses RPE's positions part, this *is* Algorithm 1
        // line 1.
        RECOMP_ASSIGN_OR_RETURN(
            int deltas, EmitPart(node, "deltas", path_prefix, "deltas"));
        PlanNode scan;
        scan.op = PlanOpKind::kPrefixSumInclusive;
        scan.inputs = {deltas};
        scan.label = label;
        return Emit(std::move(scan));
      }

      case SchemeKind::kRpe: {
        // Algorithm 1, lines 3-8 (line 1 belongs to the DELTA child when
        // present; line 2 is the envelope's n).
        RECOMP_ASSIGN_OR_RETURN(
            int values, EmitPart(node, "values", path_prefix, "values"));
        RECOMP_ASSIGN_OR_RETURN(
            int positions,
            EmitPart(node, "positions", path_prefix, "run_positions"));
        PlanNode pop;
        pop.op = PlanOpKind::kPopBack;
        pop.inputs = {positions};
        pop.label = "run_positions'";
        const int starts = Emit(std::move(pop));

        PlanNode ones;
        ones.op = PlanOpKind::kConstant;
        ones.imm = 1;
        ones.inputs = {starts};  // length = |run_positions'|
        ones.label = "ones";
        const int ones_slot = Emit(std::move(ones));

        PlanNode zeros;
        zeros.op = PlanOpKind::kConstant;
        zeros.imm = 0;
        zeros.imm2 = node.n;
        zeros.label = "zeros";
        const int zeros_slot = Emit(std::move(zeros));

        PlanNode scatter;
        scatter.op = PlanOpKind::kScatter;
        scatter.inputs = {ones_slot, starts, zeros_slot};
        scatter.label = "pos_delta";
        const int pos_delta = Emit(std::move(scatter));

        PlanNode scan;
        scan.op = PlanOpKind::kPrefixSumInclusive;
        scan.inputs = {pos_delta};
        scan.label = "positions";
        const int run_ids = Emit(std::move(scan));

        PlanNode gather;
        gather.op = PlanOpKind::kGather;
        gather.inputs = {values, run_ids};
        gather.label = label;
        return Emit(std::move(gather));
      }

      case SchemeKind::kDict: {
        RECOMP_ASSIGN_OR_RETURN(
            int dictionary,
            EmitPart(node, "dictionary", path_prefix, "dictionary"));
        RECOMP_ASSIGN_OR_RETURN(int codes,
                                EmitPart(node, "codes", path_prefix, "codes"));
        PlanNode gather;
        gather.op = PlanOpKind::kGather;
        gather.inputs = {dictionary, codes};
        gather.label = label;
        return Emit(std::move(gather));
      }

      case SchemeKind::kStep: {
        RECOMP_ASSIGN_OR_RETURN(int refs,
                                EmitPart(node, "refs", path_prefix, "refs"));
        RECOMP_ASSIGN_OR_RETURN(
            int indices,
            EmitSegmentIndices(node.scheme.params.segment_length, node.n));
        PlanNode gather;
        gather.op = PlanOpKind::kGather;
        gather.inputs = {refs, indices};
        gather.label = label;
        return Emit(std::move(gather));
      }

      case SchemeKind::kPlin: {
        RECOMP_ASSIGN_OR_RETURN(int bases,
                                EmitPart(node, "bases", path_prefix, "bases"));
        RECOMP_ASSIGN_OR_RETURN(
            int slopes, EmitPart(node, "slopes", path_prefix, "slopes"));
        PlanNode eval;
        eval.op = PlanOpKind::kEvalPlin;
        eval.inputs = {bases, slopes};
        eval.imm = node.scheme.params.segment_length;
        eval.imm2 = node.n;
        eval.label = label;
        return Emit(std::move(eval));
      }

      case SchemeKind::kModeled: {
        if (node.scheme.args.size() != 1) {
          return Status::Corruption("MODELED envelope lacks its model");
        }
        const SchemeDescriptor& model = node.scheme.args[0];
        RECOMP_ASSIGN_OR_RETURN(
            int residual,
            EmitPart(node, "residual", path_prefix, "offsets"));
        int replicated;
        if (model.kind == SchemeKind::kStep) {
          // Algorithm 2: id generation, ÷ ells, Gather, then the final add.
          RECOMP_ASSIGN_OR_RETURN(int refs,
                                  EmitPart(node, "refs", path_prefix, "refs"));
          RECOMP_ASSIGN_OR_RETURN(
              int indices,
              EmitSegmentIndices(model.params.segment_length, node.n));
          PlanNode gather;
          gather.op = PlanOpKind::kGather;
          gather.inputs = {refs, indices};
          gather.label = "replicated";
          replicated = Emit(std::move(gather));
        } else if (model.kind == SchemeKind::kPlin) {
          RECOMP_ASSIGN_OR_RETURN(
              int bases, EmitPart(node, "bases", path_prefix, "bases"));
          RECOMP_ASSIGN_OR_RETURN(
              int slopes, EmitPart(node, "slopes", path_prefix, "slopes"));
          PlanNode eval;
          eval.op = PlanOpKind::kEvalPlin;
          eval.inputs = {bases, slopes};
          eval.imm = model.params.segment_length;
          eval.imm2 = node.n;
          eval.label = "line";
          replicated = Emit(std::move(eval));
        } else {
          return Status::Corruption("MODELED model kind is not a model");
        }
        PlanNode add;
        add.op = PlanOpKind::kElementwise;
        add.bin_op = ops::BinOp::kAdd;
        add.inputs = {replicated, residual};
        add.label = label;
        return Emit(std::move(add));
      }

      case SchemeKind::kPatched: {
        RECOMP_ASSIGN_OR_RETURN(int base,
                                EmitPart(node, "base", path_prefix, "base"));
        RECOMP_ASSIGN_OR_RETURN(
            int positions,
            EmitPart(node, "patch_positions", path_prefix, "patch_positions"));
        RECOMP_ASSIGN_OR_RETURN(
            int values,
            EmitPart(node, "patch_values", path_prefix, "patch_values"));
        PlanNode scatter;
        scatter.op = PlanOpKind::kScatter;
        scatter.inputs = {values, positions, base};
        scatter.label = label;
        return Emit(std::move(scatter));
      }
    }
    return Status::NotImplemented(
        StringFormat("no plan emission for scheme kind %d",
                     static_cast<int>(node.scheme.kind)));
  }

  /// Algorithm 2, lines 1-4: ones, (exclusive) prefix-sum ids, ells,
  /// elementwise division. We read the paper's `id <- PrefixSum(ones)` as an
  /// exclusive scan so ids are 0-based.
  Result<int> EmitSegmentIndices(uint64_t ell, uint64_t n) {
    if (ell == 0) {
      return Status::Corruption("model lacks a segment length");
    }
    if (n >= (uint64_t{1} << 32)) {
      return Status::OutOfRange("plans support columns below 2^32 rows");
    }
    PlanNode ones;
    ones.op = PlanOpKind::kConstant;
    ones.imm = 1;
    ones.imm2 = n;
    ones.label = "ones";
    const int ones_slot = Emit(std::move(ones));

    PlanNode scan;
    scan.op = PlanOpKind::kPrefixSumExclusive;
    scan.inputs = {ones_slot};
    scan.label = "id";
    const int id = Emit(std::move(scan));

    PlanNode ells;
    ells.op = PlanOpKind::kConstant;
    ells.imm = ell;
    ells.inputs = {id};
    ells.label = "ells";
    const int ells_slot = Emit(std::move(ells));

    PlanNode divide;
    divide.op = PlanOpKind::kElementwise;
    divide.bin_op = ops::BinOp::kDiv;
    divide.inputs = {id, ells_slot};
    divide.label = "ref_indices";
    return Emit(std::move(divide));
  }

  Plan plan_;
};

Result<Plan> BuildDecompressionPlanForNode(const CompressedNode& node) {
  Builder builder;
  return builder.Build(node);
}

}  // namespace

Result<Plan> BuildDecompressionPlan(const CompressedColumn& compressed) {
  return BuildDecompressionPlanForNode(compressed.root());
}

}  // namespace recomp
