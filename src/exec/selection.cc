#include "exec/selection.h"

#include <algorithm>
#include <limits>

#include "core/envelope.h"
#include "exec/scan.h"
#include "ops/pack.h"
#include "schemes/scheme_internal.h"
#include "util/bits.h"
#include "util/string_util.h"

namespace recomp::exec {

std::string ChunkedSelectionStats::ToString() const {
  std::string out = StringFormat(
      "chunks total=%llu pruned=%llu full=%llu executed=%llu "
      "values_decoded=%llu",
      static_cast<unsigned long long>(chunks_total),
      static_cast<unsigned long long>(chunks_pruned),
      static_cast<unsigned long long>(chunks_full),
      static_cast<unsigned long long>(chunks_executed),
      static_cast<unsigned long long>(values_decoded));
  bool any = false;
  for (int s = 0; s < kNumStrategies; ++s) {
    if (strategy_chunks[s] == 0) continue;
    out += StringFormat("%s%s=%llu", any ? " " : " [",
                        StrategyName(static_cast<Strategy>(s)),
                        static_cast<unsigned long long>(strategy_chunks[s]));
    any = true;
  }
  if (any) out += "]";
  return out;
}

namespace {

/// Filters a plain column, tagging the result with how the values were
/// obtained: decompressed (fallback) or read in place (ID fast path).
SelectionResult ScanValues(const AnyColumn& data, const RangePredicate& pred,
                           Strategy strategy) {
  SelectionResult result;
  result.stats.strategy = strategy;
  result.stats.values_decoded = data.size();
  data.VisitPlain([&](const auto& values) {
    ForEachMatch(values, pred, [&](uint64_t i, uint64_t) {
      result.positions.push_back(static_cast<uint32_t>(i));
    });
  });
  return result;
}

/// RPE / RLE: filter run values, expand qualifying runs.
template <typename T>
Result<SelectionResult> SelectRuns(const RunsView& runs, uint64_t n,
                                   const RangePredicate& pred) {
  AnyColumn values_storage, ends_storage;
  RECOMP_ASSIGN_OR_RETURN(const Column<T>* values,
                          runs.values.Read<T>(&values_storage));
  RECOMP_ASSIGN_OR_RETURN(const Column<uint32_t>* ends,
                          runs.ends.Read<uint32_t>(&ends_storage));
  SelectionResult result;
  result.stats.strategy = Strategy::kRleRuns;
  result.stats.runs_examined = values->size();
  RECOMP_RETURN_NOT_OK(
      ForEachRun(*values, *ends, n, [&](uint64_t begin, uint64_t end, T v) {
        if (!pred.Matches(static_cast<uint64_t>(v))) return;
        for (uint64_t i = begin; i < end; ++i) {
          result.positions.push_back(static_cast<uint32_t>(i));
        }
      }));
  return result;
}

/// DICT: translate the value range into a code range (order-preserving
/// dictionary), then filter codes.
template <typename T>
Result<SelectionResult> SelectDict(const DictView& dict,
                                   const RangePredicate& pred) {
  AnyColumn dict_storage, codes_storage;
  RECOMP_ASSIGN_OR_RETURN(const Column<T>* dictionary,
                          dict.dictionary.Read<T>(&dict_storage));
  RECOMP_ASSIGN_OR_RETURN(const Column<uint32_t>* codes,
                          dict.codes.Read<uint32_t>(&codes_storage));
  RECOMP_RETURN_NOT_OK(CheckDictionaryOrder(*dictionary));
  SelectionResult result;
  result.stats.strategy = Strategy::kDictCodes;
  result.stats.values_decoded = codes->size();
  // First code whose value >= lo; one past the last code whose value <= hi.
  const uint64_t max = std::numeric_limits<T>::max();
  const uint64_t lo_code =
      std::lower_bound(dictionary->begin(), dictionary->end(),
                       static_cast<T>(std::min(pred.lo, max))) -
      dictionary->begin();
  const uint64_t hi_code =
      pred.lo > max
          ? lo_code
          : static_cast<uint64_t>(
                std::upper_bound(dictionary->begin(), dictionary->end(),
                                 static_cast<T>(std::min(pred.hi, max))) -
                dictionary->begin());
  for (uint64_t i = 0; i < codes->size(); ++i) {
    const uint32_t code = (*codes)[i];
    if (code >= dictionary->size()) {
      return Status::Corruption("DICT code exceeds dictionary");
    }
    if (code >= lo_code && code < hi_code) {
      result.positions.push_back(static_cast<uint32_t>(i));
    }
  }
  return result;
}

/// MODELED(STEP) with an NS residual: prune whole segments by the model's
/// L∞ bound [ref, ref + (2^w - 1)] before touching any packed bits.
template <typename T>
Result<SelectionResult> SelectStepPruned(const EnvelopeView& view, uint64_t n,
                                         const RangePredicate& pred) {
  const PackedColumn& packed = *view.packed;
  const Column<T>& refs = view.refs->As<T>();
  const uint64_t mask = bits::LowMask64(packed.bit_width);
  SelectionResult result;
  result.stats.strategy = Strategy::kStepPruned;
  result.stats.segments_total = refs.size();
  Column<T> buffer(std::min(view.ell, n));  // Sized by rows: ell is input.
  for (uint64_t seg = 0; seg < refs.size(); ++seg) {
    const uint64_t begin = seg * view.ell;
    const uint64_t end = std::min<uint64_t>(begin + view.ell, n);
    const T ref = refs[seg];
    const uint64_t seg_lo = static_cast<uint64_t>(ref);
    const uint64_t seg_hi = seg_lo + mask;
    const bool bounded = !ForWindowWraps<T>(seg_lo, mask);
    if (bounded && (seg_hi < pred.lo || seg_lo > pred.hi)) {
      ++result.stats.segments_skipped;
      continue;
    }
    if (bounded && seg_lo >= pred.lo && seg_hi <= pred.hi) {
      ++result.stats.segments_full;
      for (uint64_t i = begin; i < end; ++i) {
        result.positions.push_back(static_cast<uint32_t>(i));
      }
      continue;
    }
    ++result.stats.segments_partial;
    result.stats.values_decoded += end - begin;
    RECOMP_RETURN_NOT_OK(ops::UnpackRange(packed, begin, end, buffer.data()));
    for (uint64_t i = begin; i < end; ++i) {
      if (pred.Matches(static_cast<T>(ref + buffer[i - begin]))) {
        result.positions.push_back(static_cast<uint32_t>(i));
      }
    }
  }
  return result;
}

}  // namespace

Result<SelectionResult> SelectCompressed(const CompressedColumn& compressed,
                                         const RangePredicate& predicate) {
  const CompressedNode& node = compressed.root();
  if (node.n >= (uint64_t{1} << 32)) {
    return Status::OutOfRange("selections support columns below 2^32 rows");
  }
  if (!TypeIdIsUnsigned(node.out_type)) {
    return Status::InvalidArgument(
        "range selection over compressed data requires an unsigned column");
  }
  RECOMP_ASSIGN_OR_RETURN(const EnvelopeView view, ViewEnvelope(node));
  if (view.runs || view.dict || view.shape == FusedShape::kFor) {
    return internal::DispatchUnsignedTypeId(
        node.out_type, [&](auto tag) -> Result<SelectionResult> {
          using T = typename decltype(tag)::type;
          if (view.runs) return SelectRuns<T>(*view.runs, node.n, predicate);
          if (view.dict) return SelectDict<T>(*view.dict, predicate);
          return SelectStepPruned<T>(view, node.n, predicate);
        });
  }
  // Terminal plain data (the streaming store's uncompressed tail chunks):
  // scan in place, no decompress copy.
  if (view.stored_plain != nullptr) {
    return ScanValues(*view.stored_plain, predicate, Strategy::kPlainScan);
  }
  RECOMP_ASSIGN_OR_RETURN(const AnyColumn column, FusedDecompressNode(node));
  return ScanValues(column, predicate, Strategy::kDecompressScan);
}

Result<ChunkedSelectionResult> SelectCompressed(
    const ChunkedCompressedColumn& chunked, const RangePredicate& predicate,
    const ExecContext& ctx) {
  // A one-filter scan: the shared driver (exec/scan.cc) owns the chunk
  // loop — zone-map classification, parallel per-chunk execution, ordered
  // merge — and returns the same positions and counters this overload
  // historically produced.
  ScanSpec spec;
  spec.Filter(predicate);
  RECOMP_ASSIGN_OR_RETURN(ScanResult scan, Scan(chunked, spec, ctx));
  ChunkedSelectionResult result;
  result.positions = std::move(scan.positions);
  result.stats = std::move(scan.filters[0].stats);
  return result;
}

}  // namespace recomp::exec
