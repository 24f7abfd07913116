// Aggregates evaluated directly on compressed columns.
//
// SUM over RLE is lengths · values; SUM over FOR is Σ ref·|segment| plus the
// residual mass; MIN/MAX over DICT are dictionary lookups of code extrema.
// Each pushdown is validated against decompress-then-aggregate.

#ifndef RECOMP_EXEC_AGGREGATE_H_
#define RECOMP_EXEC_AGGREGATE_H_

#include "core/chunked.h"
#include "core/compressed.h"
#include "exec/strategy.h"
#include "util/result.h"

namespace recomp::exec {

/// The aggregate folds a scan can apply to a column.
enum class AggregateOp : int { kSum = 0, kMin, kMax, kCount };

/// Stable display name: "sum", "min", "max", "count".
const char* AggregateOpName(AggregateOp op);

/// An aggregate value plus how it was computed.
struct AggregateResult {
  uint64_t value = 0;  ///< Sum (mod 2^64) or min/max as uint64.
  Strategy strategy = Strategy::kDecompressScan;
};

/// Folds sum, min or max over a whole compressed column by its pushdown
/// strategy. Σ wraps mod 2^64 and is 0 on an empty column; min/max fail on
/// one, and count is refused (row counts need no payload).
Result<AggregateResult> AggregateCompressed(const CompressedColumn& compressed,
                                            AggregateOp op);

/// Folds sum, min or max over a plain unsigned column as uint64, the way
/// every fallback does (decoded values, a stored-plain chunk in place, a
/// scan's gathered rows). Min/max need a nonempty column.
uint64_t FoldColumn(const AnyColumn& values, AggregateOp op);

/// Σ column, wrapping mod 2^64. Empty columns sum to 0.
Result<AggregateResult> SumCompressed(const CompressedColumn& compressed);

/// Minimum value; fails on empty columns.
Result<AggregateResult> MinCompressed(const CompressedColumn& compressed);

/// Maximum value; fails on empty columns.
Result<AggregateResult> MaxCompressed(const CompressedColumn& compressed);

/// An aggregate over a chunked column plus chunk-level execution counts.
struct ChunkedAggregateResult {
  uint64_t value = 0;            ///< Sum (mod 2^64) or min/max as uint64.
  uint64_t chunks_total = 0;
  uint64_t chunks_pruned = 0;    ///< Answered from the zone map alone.
  uint64_t chunks_executed = 0;  ///< Dispatched to a per-chunk strategy.
  /// Executed chunks served per strategy, indexed by Strategy; zone-map
  /// answers count under kZoneMapOnly.
  uint64_t strategy_chunks[kNumStrategies] = {};
};

/// Chunked Σ: per-chunk pushdown sums merged mod 2^64. Empty columns sum
/// to 0. Chunks execute concurrently under `ctx`, each into its own slot;
/// partials fold in chunk order, so the value and every counter match the
/// sequential path bit-for-bit regardless of thread count. (A thin wrapper
/// over a one-aggregate exec::Scan — see exec/scan.h — as are Min/Max.)
Result<ChunkedAggregateResult> SumCompressed(
    const ChunkedCompressedColumn& chunked, const ExecContext& ctx = {});

/// Chunked minimum: chunks with zone maps are answered without touching
/// their payloads; the rest dispatch per-chunk (concurrently under `ctx`).
/// Fails on empty columns.
Result<ChunkedAggregateResult> MinCompressed(
    const ChunkedCompressedColumn& chunked, const ExecContext& ctx = {});

/// Chunked maximum; see MinCompressed.
Result<ChunkedAggregateResult> MaxCompressed(
    const ChunkedCompressedColumn& chunked, const ExecContext& ctx = {});

}  // namespace recomp::exec

#endif  // RECOMP_EXEC_AGGREGATE_H_
