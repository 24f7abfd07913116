// Shared-scan batch execution: many queries, one pass over the data.
//
// The query service's core bet (after "Main-Memory Scan Sharing For
// Multi-Core CPUs" and the cooperative-scans line of work, PAPERS.md): when
// thousands of clients scan the same table, the dominant cost — fused
// decompression of the surviving chunks — is identical work repeated per
// query. A batch executor runs every query of a window through the factored
// scan driver (exec::ScanWithPipeline), substituting a SharedScanPipeline
// that serves all of them from one decoded copy of each chunk:
//
//   * zone-map planning stays *per query* (each query prunes independently,
//     so a selective query never pays for a broad one's chunks);
//   * a chunk needed by any query is fused-decoded exactly once per batch —
//     and, via the DecodedChunkCache, at most once per table version while
//     it stays within the byte budget;
//   * each query's predicate then evaluates against the shared decoded
//     buffer, and per-chunk selection vectors are recycled across queries
//     and batches through the SelectionVectorCache;
//   * nested predicates subsume: the batch builds a containment lattice
//     over the window's filter bands, and a band strictly inside another
//     band on the same column evaluates by re-filtering the containing
//     band's cached (position, value) pairs — no decode, no full scan —
//     because a row passing the narrow band necessarily passed the wide
//     one. Chains compose (each band leans on its narrowest strict
//     container), and the cached values let the reuse span windows even
//     after the decoded chunks were evicted.
//
// Outputs are bit-identical to running each query through solo exec::Scan
// (exec::ScanOutputsEqual); only the execution stats differ — a shared
// chunk reports decompress-scan instead of whatever pushdown strategy the
// solo path would have picked. Results are deterministic for any thread
// count: each query writes its own slot, and within a query the factored
// driver keeps its usual index-order merges.

#ifndef RECOMP_SERVICE_SHARED_SCAN_H_
#define RECOMP_SERVICE_SHARED_SCAN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "columnar/any_column.h"
#include "exec/scan.h"
#include "service/selection_cache.h"
#include "service/service_cache.h"
#include "store/table.h"

namespace recomp::service {

/// Decoded chunks, keyed (column << 32) | chunk, cost their bytes. Shared by
/// every query in a batch and kept warm across batching windows while the
/// table version stands; a chunk decodes once per version while it stays
/// within the byte budget, however many queries race for it.
struct DecodedChunkTraits {
  using Key = uint64_t;
  using Hash = std::hash<uint64_t>;
  using Value = AnyColumn;
  static uint64_t Cost(const AnyColumn& values) { return values.ByteSize(); }
  static CacheCounters Counters() { return {}; }
};

/// (version, column, chunk) → decoded values; the budget is bytes.
using DecodedChunkCache = ServiceCache<DecodedChunkTraits>;

/// Work accounting of one executed batch. The sharing ratio is
/// chunk_evaluations / chunks_decoded: how many per-query evaluations each
/// physical decode served (1 ≈ no sharing, N ≈ perfect sharing across an
/// N-query batch).
struct BatchStats {
  uint64_t queries = 0;
  uint64_t chunks_decoded = 0;      ///< FusedDecompress calls this batch.
  uint64_t chunk_evaluations = 0;   ///< Per-query chunk filter evaluations.
  uint64_t selection_cache_hits = 0;
  /// Evaluations answered by re-filtering a containing band's selection
  /// instead of scanning the chunk.
  uint64_t subsumed_evaluations = 0;
  /// Cached (position, value) pairs those subsumed evaluations examined —
  /// the work that replaced full-chunk scans.
  uint64_t subsumption_values_examined = 0;
};

/// Executes every spec in `specs` against `snapshot` as one shared-scan
/// batch: queries fan out over `ctx` (each driver running sequentially
/// inside its task — the pool is never nested), per-chunk work routes
/// through the shared pipeline. results[i] is query i's outcome; a failing
/// query (bad column name, unsupported type) fails only its own slot.
///
/// A chunk and a (band, chunk) selection are each computed once per batch.
/// `selection_cache` and `decoded_cache` keep them across batches; a null
/// one is replaced by a batch-local instance, which keeps nothing past the
/// batch (and a null selection cache counts no hits). The batch only adds
/// to the caller's caches: the caller sheds them to their budgets with
/// EvictToBudget() once it is done with the batch (QueryService does so
/// after delivering each window's answers). `stats`, when non-null,
/// receives this batch's accounting; the same numbers also fold into the
/// service.* registry metrics. `subsume_predicates` enables the containment
/// lattice; off, no band leans on a containing band.
std::vector<Result<exec::ScanResult>> ExecuteBatch(
    const store::TableSnapshot& snapshot,
    const std::vector<const exec::ScanSpec*>& specs, const ExecContext& ctx,
    SelectionVectorCache* selection_cache, DecodedChunkCache* decoded_cache,
    BatchStats* stats = nullptr, bool subsume_predicates = true);

}  // namespace recomp::service

#endif  // RECOMP_SERVICE_SHARED_SCAN_H_
