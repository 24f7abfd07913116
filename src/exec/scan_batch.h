// Scanning a batch of specs at once: the one scan executor, and the chunks
// its queries share.
//
// exec::Scan is a batch of one spec. A batch of many (the query service's
// window, after "Main-Memory Scan Sharing For Multi-Core CPUs", PAPERS.md)
// first plans every query from the zone maps alone, each query pruning
// independently, and marks a (column, chunk) *shared* when two or more
// queries need it: as a filter chunk the zone maps could neither prune nor
// contain, or as a projected or aggregated column over a live row range.
//
//   * A chunk one query needs runs that query's pushdown strategy
//     (SelectCompressed) and is gathered by point access, exactly as solo;
//     it never reads or enters a retained cache.
//   * A shared filter chunk runs the lone chunk's filter (FilterCompressed)
//     once per band, and keeps the band's chunk-local positions across
//     batches in the SelectionVectorCache while the table version stands.
//     Only a shape without a pushdown filters the chunk's decoded buffer,
//     fused-decoded once into the DecodedChunkCache; shared gathers read it.
//   * There, a band strictly inside another band of the batch on the same
//     column re-filters the containing band's positions instead: a row
//     passing the narrow band passed the wide one. It reads their rows
//     through ReadChunkRows, from the decoded buffer while it is cached,
//     else by NS direct access; a shape with no direct path is decoded
//     into the buffer, once per batch. Chains compose, also across batches.
//
// Outputs equal solo exec::Scan's (ScanOutputsEqual), and a shared filter
// chunk reports the strategy solo reports. Results are deterministic for
// any thread count.

#ifndef RECOMP_EXEC_SCAN_BATCH_H_
#define RECOMP_EXEC_SCAN_BATCH_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "columnar/any_column.h"
#include "exec/scan.h"
#include "exec/selection.h"
#include "exec/versioned_cache.h"
#include "obs/service_metrics.h"

namespace recomp::exec {

/// Identity of one cached per-chunk selection: which chunk of which column,
/// filtered by which inclusive range.
struct SelectionKey {
  uint64_t column = 0;
  uint64_t chunk = 0;
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool operator==(const SelectionKey& other) const {
    return column == other.column && chunk == other.chunk && lo == other.lo &&
           hi == other.hi;
  }
};

struct SelectionKeyHash {
  size_t operator()(const SelectionKey& key) const {
    // FNV-1a over the four words: cheap and good enough for a cache map.
    uint64_t h = 1469598103934665603ull;
    for (const uint64_t w : {key.column, key.chunk, key.lo, key.hi}) {
      h = (h ^ w) * 1099511628211ull;
    }
    return static_cast<size_t>(h);
  }
};

/// Cached per-chunk selections (SelectionResult: the matching chunk-local
/// positions and how they were found) cost one entry each. An entry stays
/// valid while its table version stands: every append bumps the version,
/// while sealing and recompression rewrite the representation only
/// (store/table.h).
struct SelectionTraits {
  using Key = SelectionKey;
  using Hash = SelectionKeyHash;
  using Value = SelectionResult;
  static uint64_t Cost(const SelectionResult&) { return 1; }
  static CacheCounters Counters() {
    return {nullptr, nullptr,
            obs::ServiceMetrics::Get().selection_cache_invalidations};
  }
};

/// (version, column, chunk, predicate) → selection; the budget is an entry
/// count (a byte budget shared with the other caches is open, ROADMAP.md).
using SelectionVectorCache = VersionedCache<SelectionTraits>;

/// Decoded chunks, keyed (column << 32) | chunk, cost their bytes.
struct DecodedChunkTraits {
  using Key = uint64_t;
  using Hash = std::hash<uint64_t>;
  using Value = AnyColumn;
  static uint64_t Cost(const AnyColumn& values) { return values.ByteSize(); }
  static CacheCounters Counters() { return {}; }
};

/// (version, column, chunk) → decoded values; the budget is bytes.
using DecodedChunkCache = VersionedCache<DecodedChunkTraits>;

/// Work accounting of one batch, over its shared chunks only:
/// chunk_evaluations / chunks_decoded is how many filter evaluations each
/// shared decode served. A chunk one query needs shows in that query's
/// per-filter stats instead.
struct BatchStats {
  /// Chunks fused-decoded into shared buffers: shared filter chunks without
  /// a pushdown, and shared gathered chunks.
  uint64_t chunks_decoded = 0;
  /// Filter-chunk evaluations of shared chunks.
  uint64_t chunk_evaluations = 0;
  /// Shared evaluations answered by a retained selection cache.
  uint64_t selection_cache_hits = 0;
  /// Shared evaluations of a shape without a pushdown answered by
  /// re-filtering a containing band's selection instead of the chunk.
  uint64_t subsumed_evaluations = 0;
  /// Container positions those subsumed evaluations re-read: the work that
  /// replaced full-chunk scans.
  uint64_t subsumption_values_examined = 0;
};

/// Executes every spec in `specs` against `snapshot` as one batch;
/// results[i] is query i's outcome, and a failing query fails only its own
/// slot. One spec fans its chunk work out over `ctx`; several fan out one
/// task per query, each running its chunks in sequence (the pool is never
/// nested). `selection_cache` and `decoded_cache` keep shared chunks'
/// selections and decodes across batches; a null one is a batch-local
/// instance (and a null selection cache counts no hits). The batch only
/// adds to them: the caller sheds them with EvictToBudget() when done.
/// `stats`, when non-null, receives the batch's accounting, which also
/// folds into the service.* registry metrics. `subsume_predicates` enables
/// the containment lattice.
std::vector<Result<ScanResult>> ExecuteBatch(
    const store::TableSnapshot& snapshot,
    const std::vector<const ScanSpec*>& specs, const ExecContext& ctx,
    SelectionVectorCache* selection_cache, DecodedChunkCache* decoded_cache,
    BatchStats* stats = nullptr, bool subsume_predicates = true);

/// Single-column convenience: the same batch over one chunked column,
/// addressed by the empty name, with batch-local caches and no lattice.
std::vector<Result<ScanResult>> ExecuteBatch(
    const ChunkedCompressedColumn& column,
    const std::vector<const ScanSpec*>& specs, const ExecContext& ctx = {});

}  // namespace recomp::exec

#endif  // RECOMP_EXEC_SCAN_BATCH_H_
