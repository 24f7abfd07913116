// The composable scan: one API for filter → gather → aggregate over
// compressed columns and row-aligned table snapshots.
//
// The paper's "no clear distinction between decompression and query
// execution" stops at single operators unless the operators compose: a real
// query filters on one column, gathers a second, and aggregates a third,
// all over one consistent snapshot. ScanSpec describes that pipeline
// declaratively; exec::Scan executes it chunk-parallel, intersecting
// zone-map pruning across every filter column (a chunk any predicate
// prunes is never touched for *any* column), evaluating surviving
// predicates with the same per-chunk pushdown strategies the free
// functions use (including the kPlainScan ID fast path over live tails),
// intersecting selection vectors, and only then late-materializing the
// projected and aggregated columns — the filter-then-materialize pattern
// of "Revisiting Data Compression in Column-Stores" (PAPERS.md). A gather
// reads the selected uint32 row ids straight into a column of the gathered
// column's own type, one run per touched chunk (exec/point_access.h).
//
// Scan is the batch scan of exec/scan_batch.h run over one spec: with no
// companion query, no chunk is shared, so every chunk runs its pushdown
// strategy and every gathered run comes off its chunk's point-access path.
//
// The per-operator free functions (SelectCompressed, Sum/Min/MaxCompressed)
// remain as thin wrappers over one-filter / one-aggregate specs and return
// bit-identical results; new code should prefer Scan.

#ifndef RECOMP_EXEC_SCAN_H_
#define RECOMP_EXEC_SCAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/chunked.h"
#include "exec/aggregate.h"
#include "exec/point_access.h"
#include "exec/selection.h"
#include "exec/strategy.h"
#include "util/result.h"

namespace recomp::store {
// Forward declaration (store/table.h): keeps the exec headers — which the
// rest of the exec layer includes — from depending on the store subsystem;
// only scan.cc and callers scanning snapshots need the full definition.
class TableSnapshot;
}  // namespace recomp::store

namespace recomp::exec {

/// A declarative scan over one column or a row-aligned snapshot: up to N
/// conjunctive range filters, a projection list, aggregate folds, and a row
/// limit. Built fluently:
///
///   ScanSpec spec;
///   spec.Filter("date", {lo, hi})
///       .Filter("amount", {0, 999})
///       .Project({"customer"})
///       .Aggregate("amount", AggregateOp::kSum)
///       .Limit(1000);
///
/// The single-column Scan overload addresses its column with the empty
/// name; the nameless Filter/Project/Aggregate overloads spell that.
class ScanSpec {
 public:
  /// No limit: every matching row is returned.
  static constexpr uint64_t kNoLimit = ~uint64_t{0};

  struct FilterSpec {
    std::string column;
    RangePredicate predicate;
  };
  struct AggregateSpec {
    std::string column;
    AggregateOp op = AggregateOp::kSum;
  };

  /// Adds a conjunctive predicate on `column`: a row qualifies only if every
  /// filter accepts it. Filters evaluate in insertion order.
  ScanSpec& Filter(std::string column, RangePredicate predicate) {
    filters_.push_back({std::move(column), predicate});
    return *this;
  }
  ScanSpec& Filter(RangePredicate predicate) {
    return Filter(std::string(), predicate);
  }

  /// Requests the values of `columns` at the selected rows, late-
  /// materialized after all filters ran. Appends to any earlier projection.
  ScanSpec& Project(const std::vector<std::string>& columns) {
    projections_.insert(projections_.end(), columns.begin(), columns.end());
    return *this;
  }
  ScanSpec& Project() { return Project({std::string()}); }

  /// Requests `op` folded over `column` at the selected rows.
  ScanSpec& Aggregate(std::string column, AggregateOp op) {
    aggregates_.push_back({std::move(column), op});
    return *this;
  }
  ScanSpec& Aggregate(AggregateOp op) { return Aggregate(std::string(), op); }

  /// Caps the scan at the first `max_rows` matching rows (in row order).
  /// Projections and aggregates see only those rows. The cap bounds result
  /// size and materialization work; filter evaluation still runs per chunk.
  ScanSpec& Limit(uint64_t max_rows) {
    limit_ = max_rows;
    return *this;
  }

  const std::vector<FilterSpec>& filters() const { return filters_; }
  const std::vector<std::string>& projections() const { return projections_; }
  const std::vector<AggregateSpec>& aggregates() const { return aggregates_; }
  uint64_t limit() const { return limit_; }

 private:
  std::vector<FilterSpec> filters_;
  std::vector<std::string> projections_;
  std::vector<AggregateSpec> aggregates_;
  uint64_t limit_ = kNoLimit;
};

/// How one filter column executed: the same counters the standalone chunked
/// selection reports (zone-map pruning, per-strategy chunk counts, per-chunk
/// stats), each chunk counted at most once. Under a multi-filter spec the
/// counters reflect the intersected pruning: a chunk counts as pruned only
/// for the filters whose zone maps were disjoint, and a chunk whose rows
/// were all pruned away by *other* filters' zone maps records nothing here
/// (its payload was never touched).
struct ScanFilterStats {
  std::string column;
  ChunkedSelectionStats stats;
};

/// How a gather (late materialization) executed: rows per access path and
/// the number of distinct chunks touched. Each touched chunk's rows are read
/// as one run by one path, decoding the chunk at most once however many rows
/// land in it.
struct GatherStats {
  uint64_t rows = 0;
  uint64_t chunks_touched = 0;
  /// Rows served per access path, indexed by Strategy: each chunk's run
  /// counts under the one strategy that served it.
  uint64_t strategy_rows[kNumStrategies] = {};

  /// One-line human-readable rendering, e.g.
  /// "rows=1000 chunks_touched=3 [ns-direct=800 decompress-scan=200]"
  /// (strategies that served zero rows are omitted).
  std::string ToString() const;
};

/// One projected column: the selected rows' values in row order, in the
/// column's native type.
struct ScanProjection {
  std::string column;
  AnyColumn values;
  GatherStats gather;
};

/// One aggregate output. `agg.value` is the fold; `rows` is how many rows
/// were folded. Without filters (and without an effective limit) the fold
/// pushes down into the compressed chunks and `agg`'s chunk counters match
/// the standalone chunked aggregate bit for bit; with filters the fold runs
/// over gathered values and `gather` reports the access paths instead.
struct ScanAggregate {
  std::string column;
  AggregateOp op = AggregateOp::kSum;
  uint64_t rows = 0;
  ChunkedAggregateResult agg;
  GatherStats gather;

  uint64_t value() const { return agg.value; }
};

/// The outputs of one executed scan.
struct ScanResult {
  /// Rows in the scanned snapshot/column.
  uint64_t rows_scanned = 0;
  /// Rows passing every filter, before the limit. Equals rows_scanned when
  /// the spec has no filters.
  uint64_t rows_matched = 0;
  /// The matching global row ids in row order, truncated to the limit.
  /// Populated only when the spec has filters; a filterless scan selects
  /// every row implicitly and leaves this empty.
  Column<uint32_t> positions;
  /// Per-filter execution stats, in spec order.
  std::vector<ScanFilterStats> filters;
  /// Projected columns, in spec order.
  std::vector<ScanProjection> projections;
  /// Aggregates, in spec order.
  std::vector<ScanAggregate> aggregates;
};

/// Executes `spec` over a row-aligned table snapshot. Filter, projection,
/// and aggregate columns are looked up by name (KeyError on unknown names).
/// Execution is chunk-parallel under `ctx` over row ranges refined from the
/// filter columns' chunk boundaries; per range, zone-map pruning intersects
/// across all filter columns before any payload is touched, surviving
/// predicates run the per-chunk pushdown strategies, and selection vectors
/// intersect in spec order with short-circuiting. Results — positions,
/// values, aggregates, and every stats counter — are bit-identical for any
/// thread count.
Result<ScanResult> Scan(const store::TableSnapshot& snapshot,
                        const ScanSpec& spec, const ExecContext& ctx = {});

/// Single-column convenience: the same execution over one chunked column,
/// addressed by the empty name ("" — the nameless ScanSpec overloads).
Result<ScanResult> Scan(const ChunkedCompressedColumn& column,
                        const ScanSpec& spec, const ExecContext& ctx = {});

/// True iff two scan results carry the same *outputs*: scanned/matched row
/// counts, positions, projected values, and aggregate values. Execution
/// stats (strategy counters, chunks pruned/decoded, gather paths) are
/// deliberately excluded — a shared chunk gathered from its decoded buffer
/// reports decompress-scan where solo reports its point-access path, and a
/// nested band's re-filter counts the container's rows it re-read where
/// solo counts the chunk's values, while both must produce identical
/// outputs. This is the equality the service tests and bench_e18 assert.
bool ScanOutputsEqual(const ScanResult& a, const ScanResult& b);

/// The canonical identity of a spec's *outputs*: two specs with the same
/// key produce ScanOutputsEqual results against the same snapshot. Filters
/// are order-normalized (a conjunction commutes; the driver intersects, so
/// filter order never changes positions, projections, or aggregates) while
/// projections, aggregates, and the limit keep their order — each is part
/// of the output shape. Column names are length-prefixed so no name can
/// collide with the key's own delimiters. This is the result cache's key
/// (service/result_cache.h).
std::string CanonicalSpecKey(const ScanSpec& spec);

}  // namespace recomp::exec

#endif  // RECOMP_EXEC_SCAN_H_
