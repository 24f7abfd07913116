// DICT: order-preserving dictionary encoding. The dictionary part is sorted
// ascending, so range predicates translate to code ranges (exploited by
// exec/selection.cc); the codes part is a plain uint32 column, typically
// composed with NS.

#include <algorithm>

#include "schemes/all_schemes.h"
#include "schemes/scheme_internal.h"

namespace recomp::internal {

namespace {

class DictScheme final : public Scheme {
 public:
  SchemeKind kind() const override { return SchemeKind::kDict; }

  std::vector<std::string> PartNames(const SchemeDescriptor&) const override {
    return {"codes", "dictionary"};
  }

  Result<CompressOutput> Compress(const AnyColumn& input,
                                  const SchemeDescriptor&) const override {
    return DispatchAnyColumn(
        input, [&](const auto& col) -> Result<CompressOutput> {
          using T = typename std::decay_t<decltype(col)>::value_type;
          Column<T> dictionary(col.begin(), col.end());
          std::sort(dictionary.begin(), dictionary.end());
          dictionary.erase(std::unique(dictionary.begin(), dictionary.end()),
                           dictionary.end());
          if (dictionary.size() >= (uint64_t{1} << 32)) {
            return Status::OutOfRange(
                "DICT supports below 2^32 distinct values");
          }
          Column<uint32_t> codes(col.size());
          for (uint64_t i = 0; i < col.size(); ++i) {
            codes[i] = static_cast<uint32_t>(
                std::lower_bound(dictionary.begin(), dictionary.end(), col[i]) -
                dictionary.begin());
          }
          CompressOutput out;
          out.resolved = SchemeDescriptor(SchemeKind::kDict);
          out.parts.emplace("codes", std::move(codes));
          out.parts.emplace("dictionary", std::move(dictionary));
          return out;
        });
  }

  Result<AnyColumn> Decompress(const PartsMap& parts, const SchemeDescriptor&,
                               const DecompressContext& ctx) const override {
    RECOMP_ASSIGN_OR_RETURN(const AnyColumn* codes_any,
                            GetPart(parts, "codes"));
    RECOMP_ASSIGN_OR_RETURN(const AnyColumn* dict_any,
                            GetPart(parts, "dictionary"));
    if (codes_any->is_packed() || codes_any->type() != TypeId::kUInt32) {
      return Status::Corruption("DICT 'codes' must be a uint32 column");
    }
    const Column<uint32_t>& codes = codes_any->As<uint32_t>();
    if (codes.size() != ctx.n) {
      return Status::Corruption("DICT codes length differs from envelope");
    }
    return DispatchAnyTypeId(ctx.out_type, [&](auto tag) -> Result<AnyColumn> {
      using T = typename decltype(tag)::type;
      if (dict_any->is_packed() || dict_any->type() != TypeIdOf<T>()) {
        return Status::Corruption("DICT 'dictionary' part has the wrong type");
      }
      const Column<T>& dictionary = dict_any->As<T>();
      // Range and extrema pushdowns (exec/) read codes as values' order.
      if (!std::is_sorted(dictionary.begin(), dictionary.end())) {
        return Status::Corruption("DICT dictionary is not sorted");
      }
      Column<T> out(codes.size());
      for (uint64_t i = 0; i < codes.size(); ++i) {
        if (codes[i] >= dictionary.size()) {
          return Status::Corruption("DICT code exceeds dictionary size");
        }
        out[i] = dictionary[codes[i]];
      }
      return AnyColumn(std::move(out));
    });
  }
};

}  // namespace

const Scheme* GetDictScheme() {
  static const DictScheme scheme;
  return &scheme;
}

}  // namespace recomp::internal
