// ZIGZAG: bijective recoding that interleaves negative and non-negative
// values so small-magnitude data (typically DELTA residuals) becomes small
// unsigned data. Signed columns become their unsigned counterpart; unsigned
// columns are reinterpreted as signed first (making wrapped deltas small).

#include "schemes/all_schemes.h"
#include "schemes/scheme_internal.h"
#include "util/zigzag.h"

namespace recomp::internal {

namespace {

class ZigZagScheme final : public Scheme {
 public:
  SchemeKind kind() const override { return SchemeKind::kZigZag; }

  std::vector<std::string> PartNames(const SchemeDescriptor&) const override {
    return {"recoded"};
  }

  Result<CompressOutput> Compress(const AnyColumn& input,
                                  const SchemeDescriptor&) const override {
    return DispatchAnyColumn(
        input, [&](const auto& col) -> Result<CompressOutput> {
          using T = typename std::decay_t<decltype(col)>::value_type;
          using S = std::make_signed_t<T>;
          using U = std::make_unsigned_t<T>;
          Column<U> recoded(col.size());
          for (uint64_t i = 0; i < col.size(); ++i) {
            recoded[i] = zigzag::Encode(static_cast<S>(col[i]));
          }
          CompressOutput out;
          out.resolved = SchemeDescriptor(SchemeKind::kZigZag);
          out.parts.emplace("recoded", std::move(recoded));
          return out;
        });
  }

  Result<AnyColumn> Decompress(const PartsMap& parts, const SchemeDescriptor&,
                               const DecompressContext& ctx) const override {
    RECOMP_ASSIGN_OR_RETURN(const AnyColumn* recoded,
                            GetPart(parts, "recoded"));
    if (recoded->size() != ctx.n) {
      return Status::Corruption("ZIGZAG part length differs from envelope");
    }
    return DispatchAnyTypeId(ctx.out_type, [&](auto tag) -> Result<AnyColumn> {
      using T = typename decltype(tag)::type;
      using U = std::make_unsigned_t<T>;
      if (recoded->type() != TypeIdOf<U>() || recoded->is_packed()) {
        return Status::Corruption("ZIGZAG recoded part has the wrong type");
      }
      const Column<U>& in = recoded->As<U>();
      Column<T> out(in.size());
      for (uint64_t i = 0; i < in.size(); ++i) {
        out[i] = static_cast<T>(zigzag::Decode(in[i]));
      }
      return AnyColumn(std::move(out));
    });
  }
};

}  // namespace

const Scheme* GetZigZagScheme() {
  static const ZigZagScheme scheme;
  return &scheme;
}

}  // namespace recomp::internal
