// PLIN: fixed-segment piecewise-linear functions — the paper's §II-B
// enrichment of the STEP model ("keep an offset from a diagonal line at some
// slope rather than the offset from a horizontal step"). Standalone PLIN is
// exact (residuals must be zero); MODELED(PLIN) is the useful pairing.

#include "schemes/all_schemes.h"
#include "schemes/model_fit.h"
#include "schemes/scheme_internal.h"

namespace recomp::internal {

namespace {

constexpr uint64_t kDefaultSegmentLength = 1024;

class PlinScheme final : public Scheme {
 public:
  SchemeKind kind() const override { return SchemeKind::kPlin; }

  std::vector<std::string> PartNames(const SchemeDescriptor&) const override {
    return {"bases", "slopes"};
  }

  Result<CompressOutput> Compress(const AnyColumn& input,
                                  const SchemeDescriptor& desc) const override {
    return DispatchUnsignedColumn(
        input, [&](const auto& col) -> Result<CompressOutput> {
          using T = typename std::decay_t<decltype(col)>::value_type;
          const uint64_t ell = desc.params.segment_length != 0
                                   ? desc.params.segment_length
                                   : kDefaultSegmentLength;
          RECOMP_ASSIGN_OR_RETURN(PlinFit<T> fit, FitPlin(col, ell));
          Column<T> eval = EvaluatePlin(fit, ell, col.size());
          for (uint64_t i = 0; i < col.size(); ++i) {
            if (col[i] != eval[i]) {
              return Status::InvalidArgument(
                  "column is not piecewise-linear at this segment length; "
                  "use MODELED(PLIN) for approximate data");
            }
          }
          CompressOutput out;
          out.resolved = SchemeDescriptor(SchemeKind::kPlin);
          out.resolved.params.segment_length = ell;
          out.parts.emplace("bases", std::move(fit.bases));
          out.parts.emplace("slopes", std::move(fit.slopes));
          return out;
        });
  }

  Result<AnyColumn> Decompress(const PartsMap& parts,
                               const SchemeDescriptor& desc,
                               const DecompressContext& ctx) const override {
    RECOMP_ASSIGN_OR_RETURN(const AnyColumn* bases_any,
                            GetPart(parts, "bases"));
    RECOMP_ASSIGN_OR_RETURN(const AnyColumn* slopes_any,
                            GetPart(parts, "slopes"));
    const uint64_t ell = desc.params.segment_length;
    if (ell == 0) {
      return Status::Corruption("PLIN descriptor lacks a segment length");
    }
    const uint64_t segments = bits::CeilDiv(ctx.n, ell);
    if (bases_any->size() != segments || slopes_any->size() != segments) {
      return Status::Corruption("PLIN part arity differs from envelope");
    }
    if (slopes_any->is_packed() || slopes_any->type() != TypeId::kInt64) {
      return Status::Corruption("PLIN 'slopes' must be an int64 column");
    }
    return DispatchUnsignedTypeId(
        ctx.out_type, [&](auto tag) -> Result<AnyColumn> {
          using T = typename decltype(tag)::type;
          if (bases_any->is_packed() || bases_any->type() != TypeIdOf<T>()) {
            return Status::Corruption("PLIN 'bases' part has the wrong type");
          }
          PlinFit<T> fit;
          fit.bases = bases_any->As<T>();
          fit.slopes = slopes_any->As<int64_t>();
          return AnyColumn(EvaluatePlin(fit, ell, ctx.n));
        });
  }
};

}  // namespace

const Scheme* GetPlinScheme() {
  static const PlinScheme scheme;
  return &scheme;
}

}  // namespace recomp::internal
