// Strategy: how an exec operator answered a query over a compressed column.
//
// Every pushdown operator (selection, aggregation, point access, semi-join)
// reports which access path ran so tests, benchmarks, and callers can see
// whether a query was served from the compressed form or fell back to
// decompress-and-scan. The names are stable strings (StrategyName) used in
// golden output; the enum keeps call sites typo-proof.

#ifndef RECOMP_EXEC_STRATEGY_H_
#define RECOMP_EXEC_STRATEGY_H_

namespace recomp::exec {

/// The access path an operator used.
enum class Strategy : int {
  kDecompressScan = 0,  ///< Fallback: materialize, then scan.
  kRleRuns = 1,         ///< RPE/RLE: operate on runs instead of rows.
  kDictCodes = 2,       ///< DICT range filter: test each dictionary
                        ///< entry once, then look codes up.
  kStepPruned = 3,      ///< MODELED(STEP): prune segments by the L∞ bound.
  kRleDot = 4,          ///< RLE aggregate: lengths · values.
  kStepMass = 5,        ///< FOR aggregate: Σ ref·|segment| + residual mass.
  kDictSum = 6,         ///< DICT sum: per-row dictionary lookups.
  kDictExtrema = 7,     ///< DICT min/max: dictionary lookup of code extrema.
  kNsDirect = 8,        ///< NS point access: in-place bit extraction.
  kForDirect = 9,       ///< FOR point access: ref + one residual extraction.
  kRpeBinarySearch = 10,///< RPE point access: binary search over positions.
  kDictProbe = 11,      ///< DICT point access; the DICT filter under a
                        ///< key set (semi-join), one probe per entry.
  kZoneMapOnly = 12,    ///< Chunked: answered from zone maps alone.
  kPlainScan = 13,      ///< ID: operate on the stored plain column in place
                        ///< (the streaming store's uncompressed tail chunks).
};

/// Number of strategies.
inline constexpr int kNumStrategies = 14;

/// Stable display name, e.g. "rle-runs" (matches the historical strings).
const char* StrategyName(Strategy s);

}  // namespace recomp::exec

#endif  // RECOMP_EXEC_STRATEGY_H_
