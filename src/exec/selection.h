// Range selection evaluated directly on compressed columns.
//
// "There is no clear distinction between decompression and analytic query
// execution" (paper, Lessons 1): the same columnar view that yields
// decompression plans lets predicates push *into* the compressed form —
// filtering runs instead of rows (RPE/RLE), comparing codes instead of
// values (DICT), and pruning whole segments via the model's L∞ bound
// (MODELED(STEP) — the paper's "speed up selections" claim for FOR).

#ifndef RECOMP_EXEC_SELECTION_H_
#define RECOMP_EXEC_SELECTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/chunked.h"
#include "core/compressed.h"
#include "exec/strategy.h"
#include "util/result.h"

namespace recomp::exec {

/// An inclusive range predicate lo <= v <= hi over unsigned values.
struct RangePredicate {
  uint64_t lo = 0;
  uint64_t hi = ~uint64_t{0};

  /// True iff this band accepts every value `other` accepts and the two
  /// differ — the containment order cross-query predicate subsumption is
  /// built on (exec/scan_batch.h): B's selection is then a subset of A's,
  /// so B can re-filter A's matches instead of the whole chunk. Equal bands
  /// are the *same* predicate and belong to the selection cache instead.
  bool StrictlyContains(const RangePredicate& other) const {
    return lo <= other.lo && other.hi <= hi && !(*this == other);
  }

  bool operator==(const RangePredicate& other) const {
    return lo == other.lo && hi == other.hi;
  }

  bool Matches(uint64_t v) const { return v >= lo && v <= hi; }
};

/// The range-filter loop over plain values: calls emit(i, v) for every
/// index whose value v lies inside `pred`, in index order. Selection's
/// scans and the batch scan's shared-chunk and subsumption filters all
/// run through it.
template <typename T, typename Emit>
void ForEachMatch(const Column<T>& values, const RangePredicate& pred,
                  Emit&& emit) {
  // Locals, not members: `emit` writes through references the compiler
  // cannot prove disjoint from `values` and `pred`, so it would reload them.
  const T* data = values.data();
  const uint64_t n = values.size();
  const uint64_t lo = pred.lo;
  const uint64_t hi = pred.hi;
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t v = static_cast<uint64_t>(data[i]);
    if (v >= lo && v <= hi) emit(i, v);
  }
}

/// How a selection was executed, for inspection and benchmarks.
struct SelectionStats {
  Strategy strategy = Strategy::kDecompressScan;
  uint64_t runs_examined = 0;     ///< rle-runs strategy.
  uint64_t segments_total = 0;    ///< step-pruned strategy.
  uint64_t segments_skipped = 0;  ///< Disjoint from the predicate: no work.
  uint64_t segments_full = 0;     ///< Contained in the predicate: no decode.
  uint64_t segments_partial = 0;  ///< Overlapping: decoded and tested.
  uint64_t values_decoded = 0;    ///< Residual/code values actually decoded.
};

/// The matching positions plus execution statistics.
struct SelectionResult {
  Column<uint32_t> positions;
  SelectionStats stats;
};

/// Evaluates the predicate over the compressed column, pushing down where
/// the shape allows and falling back to decompress-and-scan otherwise. The
/// positions always equal the decompress-then-filter reference.
Result<SelectionResult> SelectCompressed(const CompressedColumn& compressed,
                                         const RangePredicate& predicate);

/// The per-chunk stats of one executed chunk of a chunked selection.
struct ChunkSelectionStats {
  uint64_t chunk_index = 0;
  SelectionStats stats;
};

/// How a chunked selection was executed: zone-map pruning counts plus how
/// many chunks each per-chunk strategy served.
struct ChunkedSelectionStats {
  uint64_t chunks_total = 0;
  uint64_t chunks_pruned = 0;    ///< Zone map disjoint: chunk never touched.
  uint64_t chunks_full = 0;      ///< Zone map contained: emitted, no decode.
  uint64_t chunks_executed = 0;  ///< Dispatched to a per-chunk strategy.
  /// Executed chunks served per strategy, indexed by Strategy.
  uint64_t strategy_chunks[kNumStrategies] = {};
  /// Values decoded across executed chunks.
  uint64_t values_decoded = 0;
  /// Full stats of each executed chunk, in chunk order.
  std::vector<ChunkSelectionStats> per_chunk;

  /// One-line human-readable rendering, e.g.
  /// "chunks total=8 pruned=5 full=1 executed=2 values_decoded=4096
  ///  [step-pruned=2]" (strategies with zero chunks are omitted).
  std::string ToString() const;
};

/// The matching global positions plus chunk-level execution statistics.
struct ChunkedSelectionResult {
  Column<uint32_t> positions;
  ChunkedSelectionStats stats;
};

/// Chunked overload: prunes whole chunks via their zone maps, dispatches the
/// per-chunk pushdown strategies above only for overlapping chunks, and
/// merges the position lists (offset by each chunk's row_begin). Overlapping
/// chunks execute concurrently under `ctx`, each into its own slot; the
/// merge walks chunks in order, so positions stay sorted and every stats
/// counter matches the sequential path bit-for-bit regardless of thread
/// count. Always equals the whole-column reference.
///
/// This is a thin wrapper over a one-filter exec::Scan (exec/scan.h), which
/// owns the chunk loop; multi-column and filter+gather+aggregate queries
/// should use Scan directly.
Result<ChunkedSelectionResult> SelectCompressed(
    const ChunkedCompressedColumn& chunked, const RangePredicate& predicate,
    const ExecContext& ctx = {});

}  // namespace recomp::exec

#endif  // RECOMP_EXEC_SELECTION_H_
