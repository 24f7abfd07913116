// Semi-join evaluated directly on compressed columns.
//
// The paper's §II-B notes the model view "can be used to speed up selections
// (e.g. range queries) and joins". A semi-join against a sorted key set
// (the typical FK ⋉ dimension probe) is a selection whose predicate is the
// key set (KeySetPredicate, exec/selection.h), so it pushes down through
// the same per-shape filter selections use: DICT probes each *dictionary
// entry* once instead of each row, RPE probes each *run value* once,
// MODELED(STEP) skips segments whose [ref, ref + 2^w) window contains no key
// at all, and stored-plain data is probed in place.

#ifndef RECOMP_EXEC_JOIN_H_
#define RECOMP_EXEC_JOIN_H_

#include <cstdint>

#include "core/compressed.h"
#include "exec/strategy.h"
#include "util/result.h"

namespace recomp::exec {

/// Result of a semi-join probe.
struct SemiJoinResult {
  /// Ascending positions whose value appears in the key set.
  Column<uint32_t> positions;
  /// kDictProbe, kRleRuns, kStepPruned, kPlainScan, or kDecompressScan.
  Strategy strategy = Strategy::kDecompressScan;
  /// Number of key-set membership probes actually performed (rows for the
  /// scans; dictionary entries / runs / decoded values for pushdowns).
  uint64_t probes = 0;
};

/// Positions of rows whose value occurs in `sorted_keys` (ascending,
/// deduplicated; validated). Always equals the decompress-then-probe
/// reference.
Result<SemiJoinResult> SemiJoinCompressed(const CompressedColumn& compressed,
                                          const Column<uint64_t>& sorted_keys);

}  // namespace recomp::exec

#endif  // RECOMP_EXEC_JOIN_H_
