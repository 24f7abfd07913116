#include "exec/selection.h"

#include "exec/scan.h"
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

Result<SelectionResult> SelectCompressed(const CompressedColumn& compressed,
                                         const RangePredicate& predicate) {
  return FilterCompressed(compressed, predicate);
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
