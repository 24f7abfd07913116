// PATCHED: the paper's L0-metric decomposition (§II-B) — data that is
// "really" narrow except for occasional divergent elements splits into a
// `width`-bit base column (low bits of every value) plus a patch list
// holding the exceptions' positions and exact values. This is the
// exception mechanism of PFOR-style schemes.
//
// An auto width is chosen by exact cost minimization over the bit-width
// histogram: bytes(w) = packed_base(w) + patches(w) * (position + value),
// the rule the analyzer prices PATCHED with (ChoosePatchedWidth).

#include "columnar/stats.h"
#include "schemes/all_schemes.h"
#include "schemes/scheme_internal.h"
#include "util/bits.h"

namespace recomp::internal {

namespace {

class PatchedScheme final : public Scheme {
 public:
  SchemeKind kind() const override { return SchemeKind::kPatched; }

  std::vector<std::string> PartNames(const SchemeDescriptor&) const override {
    return {"base", "patch_positions", "patch_values"};
  }

  Result<CompressOutput> Compress(const AnyColumn& input,
                                  const SchemeDescriptor& desc) const override {
    return DispatchUnsignedColumn(
        input, [&](const auto& col) -> Result<CompressOutput> {
          using T = typename std::decay_t<decltype(col)>::value_type;
          if (col.size() >= (uint64_t{1} << 32)) {
            return Status::OutOfRange(
                "PATCHED supports columns below 2^32 rows");
          }
          int width = desc.params.width;
          if (width == 0) width = ChooseWidth(col);

          const uint64_t mask = bits::LowMask64(width);
          Column<T> base(col.size());
          Column<uint32_t> patch_positions;
          Column<T> patch_values;
          for (uint64_t i = 0; i < col.size(); ++i) {
            base[i] = static_cast<T>(static_cast<uint64_t>(col[i]) & mask);
            if ((static_cast<uint64_t>(col[i]) & ~mask) != 0) {
              patch_positions.push_back(static_cast<uint32_t>(i));
              patch_values.push_back(col[i]);
            }
          }
          CompressOutput out;
          out.resolved = SchemeDescriptor(SchemeKind::kPatched);
          out.resolved.params.width = width;
          out.parts.emplace("base", std::move(base));
          out.parts.emplace("patch_positions", std::move(patch_positions));
          out.parts.emplace("patch_values", std::move(patch_values));
          return out;
        });
  }

  Result<AnyColumn> Decompress(const PartsMap& parts,
                               const SchemeDescriptor& desc,
                               const DecompressContext& ctx) const override {
    RECOMP_ASSIGN_OR_RETURN(const AnyColumn* base_any, GetPart(parts, "base"));
    RECOMP_ASSIGN_OR_RETURN(const AnyColumn* positions_any,
                            GetPart(parts, "patch_positions"));
    RECOMP_ASSIGN_OR_RETURN(const AnyColumn* values_any,
                            GetPart(parts, "patch_values"));
    if (base_any->size() != ctx.n) {
      return Status::Corruption("PATCHED base length differs from envelope");
    }
    if (positions_any->is_packed() ||
        positions_any->type() != TypeId::kUInt32) {
      return Status::Corruption("PATCHED 'patch_positions' must be uint32");
    }
    const Column<uint32_t>& positions = positions_any->As<uint32_t>();
    if (positions.size() != values_any->size()) {
      return Status::Corruption("PATCHED patch arity mismatch");
    }
    const uint64_t mask = bits::LowMask64(desc.params.width);
    return DispatchUnsignedTypeId(
        ctx.out_type, [&](auto tag) -> Result<AnyColumn> {
          using T = typename decltype(tag)::type;
          if (base_any->is_packed() || base_any->type() != TypeIdOf<T>() ||
              values_any->is_packed() || values_any->type() != TypeIdOf<T>()) {
            return Status::Corruption("PATCHED parts have the wrong type");
          }
          Column<T> out = base_any->As<T>();
          const Column<T>& patch_values = values_any->As<T>();
          for (uint64_t p = 0; p < positions.size(); ++p) {
            if (positions[p] >= out.size()) {
              return Status::Corruption("PATCHED position exceeds column");
            }
            // A valid patch only restores high bits the mask removed.
            if ((static_cast<uint64_t>(patch_values[p]) & mask) !=
                static_cast<uint64_t>(out[positions[p]])) {
              return Status::Corruption("PATCHED patch disagrees with base");
            }
            out[positions[p]] = patch_values[p];
          }
          return AnyColumn(std::move(out));
        });
  }

 private:
  template <typename T>
  static int ChooseWidth(const Column<T>& col) {
    WidthHistogram histogram{};
    for (const T v : col) ++histogram[bits::BitWidth(static_cast<uint64_t>(v))];
    return ChoosePatchedWidth(histogram, sizeof(T)).width;
  }
};

}  // namespace

const Scheme* GetPatchedScheme() {
  static const PatchedScheme scheme;
  return &scheme;
}

}  // namespace recomp::internal
