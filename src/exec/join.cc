#include "exec/join.h"

#include <algorithm>
#include <vector>

#include "core/envelope.h"
#include "ops/pack.h"
#include "schemes/scheme_internal.h"
#include "util/bits.h"

namespace recomp::exec {

namespace {

bool KeySetContains(const Column<uint64_t>& keys, uint64_t value) {
  return std::binary_search(keys.begin(), keys.end(), value);
}

/// Any key inside [lo, hi]?
bool KeySetIntersects(const Column<uint64_t>& keys, uint64_t lo, uint64_t hi) {
  auto it = std::lower_bound(keys.begin(), keys.end(), lo);
  return it != keys.end() && *it <= hi;
}

template <typename T>
Result<SemiJoinResult> JoinRuns(const RunsView& runs, uint64_t n,
                                const Column<uint64_t>& keys) {
  AnyColumn values_storage, ends_storage;
  RECOMP_ASSIGN_OR_RETURN(const Column<T>* values,
                          runs.values.Read<T>(&values_storage));
  RECOMP_ASSIGN_OR_RETURN(const Column<uint32_t>* ends,
                          runs.ends.Read<uint32_t>(&ends_storage));
  SemiJoinResult result;
  result.strategy = Strategy::kRleRuns;
  result.probes = values->size();
  RECOMP_RETURN_NOT_OK(
      ForEachRun(*values, *ends, n, [&](uint64_t begin, uint64_t end, T v) {
        if (!KeySetContains(keys, static_cast<uint64_t>(v))) return;
        for (uint64_t i = begin; i < end; ++i) {
          result.positions.push_back(static_cast<uint32_t>(i));
        }
      }));
  return result;
}

template <typename T>
Result<SemiJoinResult> JoinDict(const DictView& dict,
                                const Column<uint64_t>& keys) {
  AnyColumn dict_storage, codes_storage;
  RECOMP_ASSIGN_OR_RETURN(const Column<T>* dictionary,
                          dict.dictionary.Read<T>(&dict_storage));
  RECOMP_ASSIGN_OR_RETURN(const Column<uint32_t>* codes,
                          dict.codes.Read<uint32_t>(&codes_storage));
  RECOMP_RETURN_NOT_OK(CheckDictionaryOrder(*dictionary));
  SemiJoinResult result;
  result.strategy = Strategy::kDictProbe;
  result.probes = dictionary->size();
  // One probe per dictionary entry, not per row.
  std::vector<bool> qualifies(dictionary->size());
  for (uint64_t d = 0; d < dictionary->size(); ++d) {
    qualifies[d] =
        KeySetContains(keys, static_cast<uint64_t>((*dictionary)[d]));
  }
  for (uint64_t i = 0; i < codes->size(); ++i) {
    const uint32_t code = (*codes)[i];
    if (code >= qualifies.size()) {
      return Status::Corruption("DICT code exceeds dictionary");
    }
    if (qualifies[code]) result.positions.push_back(static_cast<uint32_t>(i));
  }
  return result;
}

template <typename T>
Result<SemiJoinResult> JoinStepPruned(const EnvelopeView& view, uint64_t n,
                                      const Column<uint64_t>& keys) {
  const PackedColumn& packed = *view.packed;
  const Column<T>& refs = view.refs->As<T>();
  const uint64_t mask = bits::LowMask64(packed.bit_width);
  SemiJoinResult result;
  result.strategy = Strategy::kStepPruned;
  Column<T> buffer(std::min(view.ell, n));  // Sized by rows: ell is input.
  for (uint64_t seg = 0; seg < refs.size(); ++seg) {
    const uint64_t begin = seg * view.ell;
    const uint64_t end = std::min<uint64_t>(begin + view.ell, n);
    const T ref = refs[seg];
    const uint64_t lo = static_cast<uint64_t>(ref);
    if (!ForWindowWraps<T>(lo, mask) &&
        !KeySetIntersects(keys, lo, lo + mask)) {
      continue;  // Segment skipped.
    }
    RECOMP_RETURN_NOT_OK(ops::UnpackRange(packed, begin, end, buffer.data()));
    result.probes += end - begin;
    for (uint64_t i = begin; i < end; ++i) {
      const T v = static_cast<T>(ref + buffer[i - begin]);
      if (KeySetContains(keys, static_cast<uint64_t>(v))) {
        result.positions.push_back(static_cast<uint32_t>(i));
      }
    }
  }
  return result;
}

SemiJoinResult JoinValues(const AnyColumn& column,
                          const Column<uint64_t>& keys) {
  SemiJoinResult result;
  result.strategy = Strategy::kDecompressScan;
  result.probes = column.size();
  column.VisitPlain([&](const auto& values) {
    for (uint64_t i = 0; i < values.size(); ++i) {
      if (KeySetContains(keys, static_cast<uint64_t>(values[i]))) {
        result.positions.push_back(static_cast<uint32_t>(i));
      }
    }
  });
  return result;
}

}  // namespace

Result<SemiJoinResult> SemiJoinCompressed(const CompressedColumn& compressed,
                                          const Column<uint64_t>& sorted_keys) {
  for (uint64_t i = 1; i < sorted_keys.size(); ++i) {
    if (sorted_keys[i] <= sorted_keys[i - 1]) {
      return Status::InvalidArgument(
          "semi-join keys must be sorted and deduplicated");
    }
  }
  const CompressedNode& node = compressed.root();
  if (node.n >= (uint64_t{1} << 32)) {
    return Status::OutOfRange("semi-join supports columns below 2^32 rows");
  }
  if (!TypeIdIsUnsigned(node.out_type)) {
    return Status::InvalidArgument("semi-join requires an unsigned column");
  }
  RECOMP_ASSIGN_OR_RETURN(const EnvelopeView view, ViewEnvelope(node));
  if (view.runs || view.dict || view.shape == FusedShape::kFor) {
    return internal::DispatchUnsignedTypeId(
        node.out_type, [&](auto tag) -> Result<SemiJoinResult> {
          using T = typename decltype(tag)::type;
          if (view.runs) return JoinRuns<T>(*view.runs, node.n, sorted_keys);
          if (view.dict) return JoinDict<T>(*view.dict, sorted_keys);
          return JoinStepPruned<T>(view, node.n, sorted_keys);
        });
  }
  RECOMP_ASSIGN_OR_RETURN(const AnyColumn column, FusedDecompressNode(node));
  return JoinValues(column, sorted_keys);
}

}  // namespace recomp::exec
