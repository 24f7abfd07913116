// MODELED: the paper's additive decomposition `data = model(i) + residual[i]`
// (§II-B, "FOR ≡ STEPFUNCTION + NS"). The model argument is STEP or PLIN;
// the residual is a non-negative unsigned column (the fits choose minimal
// intercepts), typically composed with NS or PATCHED.
//
// When the model's segment length is left auto, compression tries a ladder
// of candidate lengths and keeps the one minimizing the estimated footprint
// of refs + packed residual — the knob the paper's L∞ discussion exposes.

#include "columnar/stats.h"
#include "schemes/all_schemes.h"
#include "schemes/model_fit.h"
#include "schemes/scheme_internal.h"

namespace recomp::internal {

namespace {

constexpr uint64_t kCandidateSegmentLengths[] = {64, 128, 256, 512, 1024, 4096};

/// Estimated bytes of a STEP-modeled column at segment length ell.
template <typename T>
uint64_t EstimateStepBytes(const Column<T>& col, uint64_t ell) {
  const uint64_t segments = bits::CeilDiv(col.size(), ell);
  const int width = StepResidualWidth(col, ell);
  return segments * sizeof(T) + bits::PackedByteSize(col.size(), width);
}

template <typename T>
Result<CompressOutput> CompressWithModel(const Column<T>& col,
                                         const SchemeDescriptor& model) {
  uint64_t ell = model.params.segment_length;
  if (ell == 0) {
    // Pick the candidate minimizing the estimated footprint. For PLIN the
    // exact fit is priced per candidate; for STEP a stats scan suffices.
    uint64_t best_bytes = ~uint64_t{0};
    for (const uint64_t candidate : kCandidateSegmentLengths) {
      uint64_t estimate;
      if (model.kind == SchemeKind::kStep) {
        estimate = EstimateStepBytes(col, candidate);
      } else {
        auto fit = FitPlin(col, candidate);
        if (!fit.ok()) continue;
        Column<T> eval = EvaluatePlin(*fit, candidate, col.size());
        uint64_t max_residual = 0;
        for (uint64_t i = 0; i < col.size(); ++i) {
          max_residual = std::max<uint64_t>(
              max_residual, static_cast<T>(col[i] - eval[i]));
        }
        const uint64_t segments = bits::CeilDiv(col.size(), candidate);
        estimate = segments * (sizeof(T) + sizeof(int64_t)) +
                   bits::PackedByteSize(col.size(),
                                        bits::BitWidth(max_residual));
      }
      if (estimate < best_bytes) {
        best_bytes = estimate;
        ell = candidate;
      }
    }
    if (ell == 0) {
      return Status::InvalidArgument("no feasible segment length for model");
    }
  }

  CompressOutput out;
  SchemeDescriptor resolved_model(model.kind);
  resolved_model.params.segment_length = ell;

  Column<T> eval;
  if (model.kind == SchemeKind::kStep) {
    Column<T> refs = FitStepRefs(col, ell);
    eval = EvaluateStep(refs, ell, col.size());
    out.parts.emplace("refs", std::move(refs));
  } else {
    RECOMP_ASSIGN_OR_RETURN(PlinFit<T> fit, FitPlin(col, ell));
    eval = EvaluatePlin(fit, ell, col.size());
    out.parts.emplace("bases", std::move(fit.bases));
    out.parts.emplace("slopes", std::move(fit.slopes));
  }

  Column<T> residual(col.size());
  for (uint64_t i = 0; i < col.size(); ++i) {
    residual[i] = static_cast<T>(col[i] - eval[i]);
  }
  out.parts.emplace("residual", std::move(residual));
  out.resolved = Modeled(std::move(resolved_model));
  return out;
}

class ModeledScheme final : public Scheme {
 public:
  SchemeKind kind() const override { return SchemeKind::kModeled; }

  std::vector<std::string> PartNames(
      const SchemeDescriptor& desc) const override {
    if (!desc.args.empty() && desc.args[0].kind == SchemeKind::kPlin) {
      return {"bases", "slopes", "residual"};
    }
    return {"refs", "residual"};
  }

  Result<CompressOutput> Compress(const AnyColumn& input,
                                  const SchemeDescriptor& desc) const override {
    if (desc.args.size() != 1 ||
        (desc.args[0].kind != SchemeKind::kStep &&
         desc.args[0].kind != SchemeKind::kPlin)) {
      return Status::InvalidArgument("MODELED requires a STEP or PLIN model");
    }
    return DispatchUnsignedColumn(
        input, [&](const auto& col) -> Result<CompressOutput> {
          return CompressWithModel(col, desc.args[0]);
        });
  }

  Result<AnyColumn> Decompress(const PartsMap& parts,
                               const SchemeDescriptor& desc,
                               const DecompressContext& ctx) const override {
    if (desc.args.size() != 1) {
      return Status::Corruption("MODELED descriptor lacks its model");
    }
    const SchemeDescriptor& model = desc.args[0];
    const uint64_t ell = model.params.segment_length;
    if (ell == 0) {
      return Status::Corruption("MODELED model lacks a segment length");
    }
    RECOMP_ASSIGN_OR_RETURN(const AnyColumn* residual_any,
                            GetPart(parts, "residual"));
    if (residual_any->size() != ctx.n) {
      return Status::Corruption(
          "MODELED residual length differs from envelope");
    }
    return DispatchUnsignedTypeId(
        ctx.out_type, [&](auto tag) -> Result<AnyColumn> {
          using T = typename decltype(tag)::type;
          if (residual_any->is_packed() ||
              residual_any->type() != TypeIdOf<T>()) {
            return Status::Corruption("MODELED residual has the wrong type");
          }
          const Column<T>& residual = residual_any->As<T>();

          Column<T> eval;
          if (model.kind == SchemeKind::kStep) {
            RECOMP_ASSIGN_OR_RETURN(const AnyColumn* refs_any,
                                    GetPart(parts, "refs"));
            if (refs_any->is_packed() || refs_any->type() != TypeIdOf<T>() ||
                refs_any->size() != bits::CeilDiv(ctx.n, ell)) {
              return Status::Corruption("MODELED 'refs' part is malformed");
            }
            eval = EvaluateStep(refs_any->As<T>(), ell, ctx.n);
          } else if (model.kind == SchemeKind::kPlin) {
            RECOMP_ASSIGN_OR_RETURN(const AnyColumn* bases_any,
                                    GetPart(parts, "bases"));
            RECOMP_ASSIGN_OR_RETURN(const AnyColumn* slopes_any,
                                    GetPart(parts, "slopes"));
            const uint64_t segments = bits::CeilDiv(ctx.n, ell);
            if (bases_any->is_packed() || bases_any->type() != TypeIdOf<T>() ||
                bases_any->size() != segments || slopes_any->is_packed() ||
                slopes_any->type() != TypeId::kInt64 ||
                slopes_any->size() != segments) {
              return Status::Corruption("MODELED PLIN parts are malformed");
            }
            PlinFit<T> fit;
            fit.bases = bases_any->As<T>();
            fit.slopes = slopes_any->As<int64_t>();
            eval = EvaluatePlin(fit, ell, ctx.n);
          } else {
            return Status::Corruption("MODELED model kind is not a model");
          }

          Column<T> out(ctx.n);
          for (uint64_t i = 0; i < ctx.n; ++i) {
            out[i] = static_cast<T>(eval[i] + residual[i]);
          }
          return AnyColumn(std::move(out));
        });
  }
};

}  // namespace

const Scheme* GetModeledScheme() {
  static const ModeledScheme scheme;
  return &scheme;
}

}  // namespace recomp::internal
