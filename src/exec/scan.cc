#include "exec/scan.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <iterator>
#include <memory>
#include <numeric>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/fused.h"
#include "exec/point_access.h"
#include "exec/scan_batch.h"
#include "obs/metrics.h"
#include "obs/service_metrics.h"
#include "obs/trace.h"
#include "schemes/scheme_internal.h"
#include "store/table.h"
#include "util/string_util.h"

namespace recomp::exec {

std::string GatherStats::ToString() const {
  std::string out =
      StringFormat("rows=%llu chunks_touched=%llu",
                   static_cast<unsigned long long>(rows),
                   static_cast<unsigned long long>(chunks_touched));
  bool any = false;
  for (int s = 0; s < kNumStrategies; ++s) {
    if (strategy_rows[s] == 0) continue;
    out += StringFormat("%s%s=%llu", any ? " " : " [",
                        StrategyName(static_cast<Strategy>(s)),
                        static_cast<unsigned long long>(strategy_rows[s]));
    any = true;
  }
  if (any) out += "]";
  return out;
}

namespace {

using internal::DispatchUnsignedTypeId;

/// Resolves spec column names to indices into the bound column list.
using Lookup = std::function<Result<uint64_t>(const std::string&)>;

/// The columns a batch scans, each `rows` long, cut at table version
/// `version` (which keys the retained caches).
struct Bound {
  std::vector<const ChunkedCompressedColumn*> columns;
  Lookup lookup;
  uint64_t rows = 0;
  uint64_t version = 0;
};

struct ResolvedFilter {
  uint64_t column = 0;
  RangePredicate predicate;
};

/// What one filter's zone map decided for one chunk of its column.
enum class ChunkAction : uint8_t {
  kNotReached,  ///< Empty, or every owning range was pruned by other filters.
  kPruned,      ///< Zone map disjoint from the predicate: never touched.
  kFull,        ///< Zone map contained in the predicate: no decode.
  kExecute,     ///< Needs the per-chunk pushdown strategy, exactly once.
};

/// Scan metrics, resolved once. Per-strategy counters are split by unit:
/// scan.strategy.* counts filter *chunks* served per pushdown path,
/// gather.strategy.* counts materialized *rows* per point-access path.
struct ScanMetrics {
  obs::Counter* queries;
  obs::Counter* rows_scanned;
  obs::Counter* rows_matched;
  obs::Counter* chunks_pruned;
  obs::Counter* chunks_full;
  obs::Counter* chunks_executed;
  obs::Counter* values_decoded;
  obs::Counter* filter_strategy[kNumStrategies];
  obs::Counter* gather_rows;
  obs::Counter* gather_chunks;
  obs::Counter* gather_strategy[kNumStrategies];
  obs::Histogram* selectivity_permille;

  static const ScanMetrics& Get() {
    static const ScanMetrics metrics = [] {
      ScanMetrics m;
      obs::Registry& registry = obs::Registry::Get();
      m.queries = &registry.GetCounter("scan.queries");
      m.rows_scanned = &registry.GetCounter("scan.rows_scanned");
      m.rows_matched = &registry.GetCounter("scan.rows_matched");
      m.chunks_pruned = &registry.GetCounter("scan.chunks_pruned");
      m.chunks_full = &registry.GetCounter("scan.chunks_full");
      m.chunks_executed = &registry.GetCounter("scan.chunks_executed");
      m.values_decoded = &registry.GetCounter("scan.values_decoded");
      m.gather_rows = &registry.GetCounter("gather.rows");
      m.gather_chunks = &registry.GetCounter("gather.chunks_touched");
      for (int s = 0; s < kNumStrategies; ++s) {
        const char* name = StrategyName(static_cast<Strategy>(s));
        m.filter_strategy[s] =
            &registry.GetCounter(std::string("scan.strategy.") + name);
        m.gather_strategy[s] =
            &registry.GetCounter(std::string("gather.strategy.") + name);
      }
      m.selectivity_permille =
          &registry.GetHistogram("scan.selectivity_permille");
      return m;
    }();
    return metrics;
  }
};

Column<uint32_t> IntersectSorted(const Column<uint32_t>& a,
                                 const Column<uint32_t>& b) {
  Column<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// The unfiltered aggregate: zone maps answer what they can (min/max of
/// chunks with min/max, count of everything), payload chunks fan out over
/// `ctx`, and partials fold in chunk order — the exact execution (values and
/// counters) the standalone chunked Sum/Min/MaxCompressed historically ran,
/// now the one copy both Scan and those wrappers share.
Result<ChunkedAggregateResult> AggregateWholeColumn(
    const ChunkedCompressedColumn& chunked, AggregateOp op,
    const ExecContext& ctx) {
  ChunkedAggregateResult result;
  const uint64_t num_chunks = chunked.num_chunks();
  result.chunks_total = num_chunks;

  if (op == AggregateOp::kCount) {
    // Row counts live in the zone maps; no payload is ever touched.
    result.value = chunked.size();
    for (uint64_t i = 0; i < num_chunks; ++i) {
      if (chunked.chunk(i).zone.row_count == 0) continue;
      ++result.chunks_pruned;
      ++result.strategy_chunks[static_cast<int>(Strategy::kZoneMapOnly)];
    }
    return result;
  }
  if (op != AggregateOp::kSum && chunked.size() == 0) {
    return Status::InvalidArgument("min/max of an empty column");
  }

  // Which chunks need their payload? Min/max of a chunk with a zone map is
  // the zone map; only SUM (and chunks lacking min/max) touch payloads.
  std::vector<uint64_t> to_execute;
  for (uint64_t i = 0; i < num_chunks; ++i) {
    const CompressedChunk& chunk = chunked.chunk(i);
    if (chunk.zone.row_count == 0) continue;
    if (op != AggregateOp::kSum && chunk.zone.has_minmax) continue;
    to_execute.push_back(i);
  }

  std::vector<AggregateResult> slots;
  RECOMP_RETURN_NOT_OK(VisitIndicesInto(
      ctx, to_execute, &slots, [&](uint64_t i) -> Result<AggregateResult> {
        return AggregateCompressed(chunked.chunk(i).column, op);
      }));

  // Every nonempty chunk's partial, in chunk order, folds like any column.
  Column<uint64_t> partials;
  uint64_t slot = 0;
  for (uint64_t i = 0; i < num_chunks; ++i) {
    const CompressedChunk& chunk = chunked.chunk(i);
    if (chunk.zone.row_count == 0) continue;
    if (op != AggregateOp::kSum && chunk.zone.has_minmax) {
      partials.push_back(op == AggregateOp::kMin ? chunk.zone.min
                                                 : chunk.zone.max);
      ++result.chunks_pruned;
      ++result.strategy_chunks[static_cast<int>(Strategy::kZoneMapOnly)];
      continue;
    }
    const AggregateResult& sub = slots[slot++];
    partials.push_back(sub.value);
    ++result.chunks_executed;
    ++result.strategy_chunks[static_cast<int>(sub.strategy)];
  }
  result.value = FoldColumn(AnyColumn(std::move(partials)), op);
  return result;
}

/// Prefixes an error with "<role> column '<name>': " so a multi-column spec
/// reports *which* reference failed and in what role. Empty names — the
/// single-column API — pass through untouched, keeping the per-operator
/// wrappers' messages byte-identical to the historical ones.
Status NameColumnError(const char* role, const std::string& name,
                       Status status) {
  if (status.ok() || name.empty()) return status;
  return Status(status.code(), std::string(role) + " column '" + name +
                                   "': " + status.message());
}

/// One query's plan, from names and zone maps alone: no payload is touched.
struct Plan {
  std::vector<ResolvedFilter> filters;
  std::vector<uint64_t> projections;
  std::vector<std::pair<uint64_t, AggregateOp>> aggregates;
  /// Range r is rows [bounds[r], bounds[r + 1]).
  std::vector<uint64_t> bounds;
  /// owner[f][r]: the chunk of filter f's column owning range r.
  std::vector<std::vector<uint64_t>> owner;
  /// dead[r]: some filter's zone map prunes range r.
  std::vector<char> dead;
  /// chunk_action[f][c]: what filter f's zone map decided for chunk c.
  std::vector<std::vector<ChunkAction>> chunk_action;
  /// The kExecute (filter, chunk) pairs; slot_of[f][c] indexes them.
  std::vector<std::pair<size_t, uint64_t>> exec_pairs;
  std::vector<std::vector<size_t>> slot_of;
  /// Rows projections and aggregates see at most; a filterless aggregate
  /// over all of them pushes down per chunk instead of gathering.
  uint64_t take = 0;
  bool pushdown_aggregates = false;
  /// The columns gathered at the selected rows (a column may repeat).
  std::vector<uint64_t> gathered;

  uint64_t num_ranges() const {
    return bounds.size() < 2 ? 0 : bounds.size() - 1;
  }
};

/// Resolves `spec` against `bound`, then plans its filters from the zone
/// maps alone.
Result<Plan> PlanScan(const Bound& bound, const ScanSpec& spec) {
  if (spec.filters().empty() && spec.projections().empty() &&
      spec.aggregates().empty()) {
    return Status::InvalidArgument(
        "empty scan spec: add a filter, projection, or aggregate");
  }
  const std::vector<const ChunkedCompressedColumn*>& columns = bound.columns;
  Plan plan;

  // Resolve every referenced column up front, naming the role and column in
  // every error so a failing multi-column spec says which reference broke;
  // for the empty-name single-column API the messages stay exactly what the
  // per-operator free functions historically reported.
  const auto resolve = [&](const char* role, const std::string& name,
                           const char* operation) -> Result<uint64_t> {
    Result<uint64_t> resolved = bound.lookup(name);
    if (!resolved.ok()) return NameColumnError(role, name, resolved.status());
    if (!TypeIdIsUnsigned(columns[*resolved]->type())) {
      return NameColumnError(
          role, name,
          Status::InvalidArgument(std::string(operation) +
                                  " requires an unsigned column"));
    }
    return resolved;
  };
  std::vector<ResolvedFilter>& filters = plan.filters;
  for (const ScanSpec::FilterSpec& f : spec.filters()) {
    RECOMP_ASSIGN_OR_RETURN(
        const uint64_t idx,
        resolve("filter", f.column, "range selection over compressed data"));
    filters.push_back({idx, f.predicate});
  }
  for (const std::string& name : spec.projections()) {
    RECOMP_ASSIGN_OR_RETURN(const uint64_t idx,
                            resolve("projection", name, "point access"));
    plan.projections.push_back(idx);
  }
  for (const ScanSpec::AggregateSpec& a : spec.aggregates()) {
    RECOMP_ASSIGN_OR_RETURN(
        const uint64_t idx,
        resolve("aggregate", a.column, "compressed aggregation"));
    plan.aggregates.push_back({idx, a.op});
  }
  if ((!filters.empty() || !plan.projections.empty()) &&
      bound.rows >= (uint64_t{1} << 32)) {
    return Status::OutOfRange("selections support columns below 2^32 rows");
  }

  plan.take = std::min(spec.limit(), bound.rows);
  plan.pushdown_aggregates = filters.empty() && plan.take == bound.rows;
  plan.gathered = plan.projections;
  for (const auto& [column, op] : plan.aggregates) {
    if (!plan.pushdown_aggregates && op != AggregateOp::kCount) {
      plan.gathered.push_back(column);
    }
  }
  // A gather lists its rows as uint32, a filterless one [0, take).
  if (!plan.gathered.empty() && plan.take >= (uint64_t{1} << 32)) {
    return Status::OutOfRange("selections support columns below 2^32 rows");
  }
  if (filters.empty()) return plan;

  // Row-range partition: the finest refinement of every filter column's
  // chunk boundaries. Each range lies inside exactly one chunk of every
  // filter column, so a chunk zone map speaks for the whole range; with
  // one filter (or boundary-aligned columns) ranges are exactly the
  // nonempty chunks, which keeps the wrappers bit-identical to the
  // historical per-operator loops.
  std::vector<uint64_t>& bounds = plan.bounds;
  bounds.push_back(0);
  bounds.push_back(bound.rows);
  for (const ResolvedFilter& f : filters) {
    for (const auto& chunk : columns[f.column]->chunks()) {
      bounds.push_back(chunk->zone.row_begin);
    }
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  const uint64_t num_ranges = plan.num_ranges();

  // For each filter, the chunk of its column owning each range.
  std::vector<std::vector<uint64_t>>& owner = plan.owner;
  owner.assign(filters.size(), std::vector<uint64_t>(num_ranges, 0));
  for (size_t f = 0; f < filters.size(); ++f) {
    const auto& chunks = columns[filters[f].column]->chunks();
    uint64_t ci = 0;
    for (uint64_t r = 0; r < num_ranges; ++r) {
      while (ci + 1 < chunks.size() &&
             chunks[ci]->zone.row_begin + chunks[ci]->zone.row_count <=
                 bounds[r]) {
        ++ci;
      }
      owner[f][r] = ci;
    }
  }

  // A range is dead when any filter's owning chunk is disjoint from its
  // predicate — zone-map pruning intersected across all filter columns, so
  // a chunk any predicate prunes is never touched for *any* column. From
  // the live ranges, classify each filter's chunks: a (filter, chunk) pair
  // needs its payload only when the chunk overlaps the predicate without
  // being contained AND owns at least one live range — and each needed
  // pair executes exactly once, no matter how many ranges the chunk spans
  // under misaligned boundaries.
  std::vector<char>& dead = plan.dead;
  dead.assign(num_ranges, 0);
  for (uint64_t r = 0; r < num_ranges; ++r) {
    for (size_t f = 0; f < filters.size(); ++f) {
      const ZoneMap& zone =
          columns[filters[f].column]->chunk(owner[f][r]).zone;
      if (zone.DisjointFrom(filters[f].predicate.lo,
                            filters[f].predicate.hi)) {
        dead[r] = 1;
        break;
      }
    }
  }
  plan.chunk_action.resize(filters.size());
  plan.slot_of.resize(filters.size());
  for (size_t f = 0; f < filters.size(); ++f) {
    const ChunkedCompressedColumn& column = *columns[filters[f].column];
    std::vector<ChunkAction>& action = plan.chunk_action[f];
    action.assign(column.num_chunks(), ChunkAction::kNotReached);
    plan.slot_of[f].assign(column.num_chunks(), ~size_t{0});
    for (uint64_t r = 0; r < num_ranges; ++r) {
      const uint64_t c = owner[f][r];
      const ZoneMap& zone = column.chunk(c).zone;
      if (zone.DisjointFrom(filters[f].predicate.lo,
                            filters[f].predicate.hi)) {
        action[c] = ChunkAction::kPruned;
      } else if (!dead[r] && action[c] == ChunkAction::kNotReached) {
        action[c] = zone.ContainedIn(filters[f].predicate.lo,
                                     filters[f].predicate.hi)
                        ? ChunkAction::kFull
                        : ChunkAction::kExecute;
      }
    }
    for (uint64_t c = 0; c < column.num_chunks(); ++c) {
      if (action[c] == ChunkAction::kExecute) {
        plan.slot_of[f][c] = plan.exec_pairs.size();
        plan.exec_pairs.push_back({f, c});
      }
    }
  }
  return plan;
}

/// Chunk `chunk` of column `column` as one key: columns are few and chunk
/// indices fit 32 bits (rows < 2^32).
uint64_t ChunkKey(uint64_t column, uint64_t chunk) {
  return (column << 32) | chunk;
}

/// The chunks `plan` reads, as sorted, distinct ChunkKeys: its filter
/// chunks the zone maps could neither prune nor contain, and every chunk of
/// a gathered column over a live row range.
std::vector<uint64_t> ChunksRead(const Bound& bound, const Plan& plan) {
  std::vector<uint64_t> keys;
  for (const auto& [f, c] : plan.exec_pairs) {
    keys.push_back(ChunkKey(plan.filters[f].column, c));
  }
  std::vector<std::pair<uint64_t, uint64_t>> live;  // Merged [begin, end).
  if (plan.filters.empty() && plan.take > 0) live.push_back({0, plan.take});
  for (uint64_t r = 0; r < plan.num_ranges(); ++r) {
    if (plan.dead[r]) continue;
    if (!live.empty() && live.back().second == plan.bounds[r]) {
      live.back().second = plan.bounds[r + 1];
    } else {
      live.push_back({plan.bounds[r], plan.bounds[r + 1]});
    }
  }
  for (const uint64_t column : plan.gathered) {
    const ChunkedCompressedColumn& chunked = *bound.columns[column];
    for (const auto& [begin, end] : live) {
      const uint64_t last = chunked.ChunkIndexOf(end - 1);
      for (uint64_t c = chunked.ChunkIndexOf(begin); c <= last; ++c) {
        keys.push_back(ChunkKey(column, c));
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

/// Keeps the entries of `values` inside `pred`, with each kept entry's
/// chunk row: rows[i] for entry i, or i itself when `rows` is null.
CachedSelection FilterSelection(const AnyColumn& values,
                                const Column<uint32_t>* rows,
                                const RangePredicate& pred) {
  CachedSelection out;
  out.selection.stats.strategy = Strategy::kDecompressScan;
  Column<uint32_t>& positions = out.selection.positions;
  values.VisitPlain([&](const auto& col) {
    using T = typename std::decay_t<decltype(col)>::value_type;
    Column<T> kept;
    ForEachMatch(col, pred, [&](uint64_t i, uint64_t v) {
      positions.push_back(rows != nullptr ? (*rows)[i]
                                          : static_cast<uint32_t>(i));
      kept.push_back(static_cast<T>(v));
    });
    out.values = AnyColumn(std::move(kept));
  });
  return out;
}

/// What the queries of one batch share: the chunks two or more of them
/// read, and for those the decoded buffers, the selections and the
/// containment lattice over the batch's filter bands. Pool workers running
/// different queries call in at once: the counters are atomics, and the
/// rest is read-only after construction.
class SharedChunks {
 public:
  /// `selections` and `chunks` are the caller's retained caches, or null for
  /// batch-local ones; only a retained selection cache counts hits.
  SharedChunks(const Bound& bound, const std::vector<Result<Plan>>& plans,
               SelectionVectorCache* selections, DecodedChunkCache* chunks,
               bool subsume)
      : bound_(bound),
        selections_(selections),
        count_hits_(selections != nullptr),
        chunks_(chunks) {
    if (plans.size() < 2) return;  // A lone query shares nothing.
    std::unordered_map<uint64_t, uint32_t> uses;
    for (const Result<Plan>& plan : plans) {
      if (!plan.ok()) continue;
      for (const uint64_t key : ChunksRead(bound, *plan)) {
        if (++uses[key] == 2) shared_.insert(key);
      }
    }
    if (shared_.empty()) return;
    if (selections_ == nullptr) selections_ = &local_selections_.emplace(0);
    if (chunks_ == nullptr) chunks_ = &local_chunks_.emplace(0);
    if (subsume) BuildLattice(plans);
  }

  bool Shared(uint64_t column, uint64_t chunk) const {
    return !shared_.empty() && shared_.count(ChunkKey(column, chunk)) != 0;
  }

  /// A shared filter chunk's selection, computed once per batch.
  Result<std::shared_ptr<const SelectionResult>> Select(
      uint64_t column, uint64_t chunk, const RangePredicate& pred) {
    evaluations_.fetch_add(1, std::memory_order_relaxed);
    RECOMP_ASSIGN_OR_RETURN(std::shared_ptr<const CachedSelection> entry,
                            EvalBand(column, chunk, pred));
    // Aliases the cache entry: the selection lives as long as the entry.
    const SelectionResult* selection = &entry->selection;
    return std::shared_ptr<const SelectionResult>(std::move(entry),
                                                  selection);
  }

  /// A shared chunk's values, decoded once per version while the decoded
  /// chunk cache holds them, however many queries race for them.
  Result<std::shared_ptr<const AnyColumn>> Decoded(uint64_t column,
                                                   uint64_t chunk) {
    return chunks_->GetOrCompute(bound_.version, ChunkKey(column, chunk), [&] {
      decodes_.fetch_add(1, std::memory_order_relaxed);
      obs::ServiceMetrics::Get().chunks_decoded->Increment();
      return FusedDecompress(bound_.columns[column]->chunk(chunk).column);
    });
  }

  /// The batch's accounting, folded into the service.* registry metrics.
  BatchStats Fold() const {
    const BatchStats batch{.chunks_decoded = decodes_,
                           .chunk_evaluations = evaluations_,
                           .selection_cache_hits = hits_,
                           .subsumed_evaluations = subsumed_,
                           .subsumption_values_examined = values_examined_};
    if (!shared_.empty()) {
      const obs::ServiceMetrics& metrics = obs::ServiceMetrics::Get();
      metrics.chunk_evaluations->Add(batch.chunk_evaluations);
      metrics.subsumed_evaluations->Add(batch.subsumed_evaluations);
      metrics.subsumption_values_examined->Add(
          batch.subsumption_values_examined);
    }
    return batch;
  }

 private:
  /// Maps every band of the batch to its *narrowest strict container* on
  /// the same column (absent = a maximal band that must scan). Narrowest
  /// wins because a tighter parent leaves fewer pairs to re-filter; chains
  /// resolve recursively, so the widest band of a nest scans once and each
  /// tier below it filters its parent's survivors.
  void BuildLattice(const std::vector<Result<Plan>>& plans) {
    std::unordered_map<uint64_t, std::vector<RangePredicate>> bands;
    for (const Result<Plan>& plan : plans) {
      if (!plan.ok()) continue;
      for (const ResolvedFilter& filter : plan->filters) {
        std::vector<RangePredicate>& column_bands = bands[filter.column];
        if (std::find(column_bands.begin(), column_bands.end(),
                      filter.predicate) == column_bands.end()) {
          column_bands.push_back(filter.predicate);
        }
      }
    }
    for (const auto& [column, column_bands] : bands) {
      for (const RangePredicate& band : column_bands) {
        const RangePredicate* best = nullptr;
        for (const RangePredicate& candidate : column_bands) {
          if (!candidate.StrictlyContains(band)) continue;
          if (best == nullptr ||
              candidate.hi - candidate.lo < best->hi - best->lo ||
              (candidate.hi - candidate.lo == best->hi - best->lo &&
               candidate.lo < best->lo)) {
            best = &candidate;
          }
        }
        if (best != nullptr) {
          parents_.emplace(SelectionKey{column, 0, band.lo, band.hi}, *best);
        }
      }
    }
  }

  /// One band's selection over one shared chunk, computed once per batch
  /// and kept across batches while the selection cache holds it: by
  /// re-filtering its narrowest containing band's selection (itself found
  /// the same way) when the lattice offers one, else by scanning the shared
  /// decoded buffer. Entries carry the matched values so callers one tier
  /// down can do the same.
  Result<std::shared_ptr<const CachedSelection>> EvalBand(
      uint64_t column, uint64_t chunk, const RangePredicate& pred) {
    const SelectionKey key{column, chunk, pred.lo, pred.hi};
    const auto compute = [&] { return ComputeBand(column, chunk, pred); };
    bool reused = false;
    Result<std::shared_ptr<const CachedSelection>> entry =
        selections_->GetOrCompute(bound_.version, key, compute, &reused);
    if (count_hits_) {
      const obs::ServiceMetrics& metrics = obs::ServiceMetrics::Get();
      if (reused) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        metrics.selection_cache_hits->Increment();
      } else {
        metrics.selection_cache_misses->Increment();
      }
    }
    return entry;
  }

  Result<CachedSelection> ComputeBand(uint64_t column, uint64_t chunk,
                                      const RangePredicate& pred) {
    // Strict containment is acyclic, so the nested lookup never waits on a
    // computation that waits on this one.
    const auto parent =
        parents_.find(SelectionKey{column, 0, pred.lo, pred.hi});
    if (parent != parents_.end()) {
      RECOMP_ASSIGN_OR_RETURN(
          const std::shared_ptr<const CachedSelection> base,
          EvalBand(column, chunk, parent->second));
      subsumed_.fetch_add(1, std::memory_order_relaxed);
      values_examined_.fetch_add(base->values.size(),
                                 std::memory_order_relaxed);
      return FilterSelection(base->values, &base->selection.positions, pred);
    }
    RECOMP_ASSIGN_OR_RETURN(const std::shared_ptr<const AnyColumn> values,
                            Decoded(column, chunk));
    CachedSelection entry = FilterSelection(*values, nullptr, pred);
    entry.selection.stats.values_decoded = values->size();
    return entry;
  }

  const Bound& bound_;
  SelectionVectorCache* selections_;
  const bool count_hits_;
  DecodedChunkCache* chunks_;
  std::optional<SelectionVectorCache> local_selections_;
  std::optional<DecodedChunkCache> local_chunks_;
  /// ChunkKeys of the chunks two or more queries read.
  std::unordered_set<uint64_t> shared_;
  /// Band → its narrowest strict container on the same column. Keyed with
  /// chunk 0: a band's container is the same on every chunk.
  std::unordered_map<SelectionKey, RangePredicate, SelectionKeyHash> parents_;
  std::atomic<uint64_t> decodes_{0};
  std::atomic<uint64_t> evaluations_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> subsumed_{0};
  std::atomic<uint64_t> values_examined_{0};
};

/// One late-materialization pass over a column: the selected rows' values
/// in the column's own type, and the gather counters.
struct GatherResult {
  AnyColumn values;
  GatherStats stats;
};

/// Gathers `column` at the ascending global `rows`, one touched chunk per
/// task under `ctx`: a shared chunk's rows come from its decoded buffer, any
/// other chunk's through its point-access path.
Result<GatherResult> Gather(const Bound& bound, uint64_t column,
                            const Column<uint32_t>& rows,
                            const ExecContext& ctx, SharedChunks& shared) {
  const ChunkedCompressedColumn& chunked = *bound.columns[column];
  const auto runs = ChunkRuns(chunked, rows.size(),
                              [&](uint64_t k) -> uint64_t { return rows[k]; });
  GatherResult gather;
  RECOMP_ASSIGN_OR_RETURN(
      gather.values,
      DispatchUnsignedTypeId(chunked.type(), [&](auto t) -> Result<AnyColumn> {
        return AnyColumn(Column<typename decltype(t)::type>(rows.size()));
      }));
  std::vector<Strategy> served(runs.size());
  RECOMP_RETURN_NOT_OK(ParallelForOk(ctx, runs.size(), [&](uint64_t g) {
    std::shared_ptr<const AnyColumn> decoded;
    if (shared.Shared(column, runs[g].chunk)) {
      RECOMP_ASSIGN_OR_RETURN(decoded, shared.Decoded(column, runs[g].chunk));
    }
    RECOMP_ASSIGN_OR_RETURN(
        served[g], ReadChunkRows(chunked, runs[g], rows.data(),
                                 decoded.get(), &gather.values));
    return Status::OK();
  }));
  gather.stats.rows = rows.size();
  gather.stats.chunks_touched = runs.size();
  for (size_t g = 0; g < runs.size(); ++g) {
    gather.stats.strategy_rows[static_cast<int>(served[g])] +=
        runs[g].end - runs[g].begin;
  }
  return gather;
}

/// Executes one planned query: its filter chunks (pushdown, or the shared
/// path for shared chunks) fan out over `ctx`, then selections stitch,
/// columns gather and aggregates fold.
Result<ScanResult> RunQuery(const Bound& bound, const ScanSpec& spec,
                            const Plan& plan, const ExecContext& ctx,
                            SharedChunks& shared) {
  const std::vector<const ChunkedCompressedColumn*>& columns = bound.columns;
  const std::vector<ResolvedFilter>& filters = plan.filters;
  ScanResult result;
  result.rows_scanned = bound.rows;

  if (!filters.empty()) {
    const obs::Span filter_span("scan.filter");
    // Run the per-chunk evaluations for the needed pairs, concurrently
    // under ctx, each into its own slot.
    std::vector<std::shared_ptr<const SelectionResult>> slots;
    RECOMP_RETURN_NOT_OK(VisitIndicesInto(
        ctx, static_cast<uint64_t>(plan.exec_pairs.size()), &slots,
        [&](uint64_t p) -> Result<std::shared_ptr<const SelectionResult>> {
          const auto [f, c] = plan.exec_pairs[p];
          const uint64_t column = filters[f].column;
          if (shared.Shared(column, c)) {
            return shared.Select(column, c, filters[f].predicate);
          }
          RECOMP_ASSIGN_OR_RETURN(
              SelectionResult selection,
              SelectCompressed(columns[column]->chunk(c).column,
                               filters[f].predicate));
          return std::make_shared<const SelectionResult>(std::move(selection));
        }));

    // Stats, per filter in chunk order — each chunk counted once, so
    // pruned + full + executed never exceeds chunks_total, and the
    // single-filter wrapper reproduces the historical counters exactly.
    result.filters.resize(filters.size());
    for (size_t f = 0; f < filters.size(); ++f) {
      result.filters[f].column = spec.filters()[f].column;
      ChunkedSelectionStats& stats = result.filters[f].stats;
      stats.chunks_total = columns[filters[f].column]->num_chunks();
      for (uint64_t c = 0; c < plan.chunk_action[f].size(); ++c) {
        switch (plan.chunk_action[f][c]) {
          case ChunkAction::kNotReached:
            break;
          case ChunkAction::kPruned:
            ++stats.chunks_pruned;
            break;
          case ChunkAction::kFull:
            ++stats.chunks_full;
            break;
          case ChunkAction::kExecute: {
            const SelectionResult& sub = *slots[plan.slot_of[f][c]];
            ++stats.chunks_executed;
            ++stats.strategy_chunks[static_cast<int>(sub.stats.strategy)];
            stats.values_decoded += sub.stats.values_decoded;
            stats.per_chunk.push_back({c, sub.stats});
            break;
          }
        }
      }
    }

    // Sequentially, in range order: intersect the chunk hits, clipped to
    // each live range, in spec order — positions stay sorted and every byte
    // of this result is identical for any thread count.
    const uint64_t limit = spec.limit();
    for (uint64_t r = 0; r < plan.num_ranges(); ++r) {
      if (plan.dead[r]) continue;
      const uint64_t begin = plan.bounds[r];
      const uint64_t end = plan.bounds[r + 1];
      Column<uint32_t> sel;
      bool constrained = false;  // sel a strict subset of the range?
      for (size_t f = 0; f < filters.size(); ++f) {
        const uint64_t c = plan.owner[f][r];
        if (plan.chunk_action[f][c] == ChunkAction::kFull) continue;
        if (constrained && sel.empty()) break;
        const SelectionResult& cached = *slots[plan.slot_of[f][c]];
        const uint64_t base =
            columns[filters[f].column]->chunk(c).zone.row_begin;
        // The chunk's hits are sorted and chunk-local: binary-search the
        // sub-range belonging to [begin, end) and lift it to global rows.
        const auto first = std::lower_bound(
            cached.positions.begin(), cached.positions.end(),
            static_cast<uint32_t>(begin - base));
        const auto last = std::lower_bound(
            first, cached.positions.end(), static_cast<uint32_t>(end - base));
        Column<uint32_t> hits;
        hits.reserve(last - first);
        for (auto it = first; it != last; ++it) {
          hits.push_back(static_cast<uint32_t>(base + *it));
        }
        if (!constrained) {
          sel = std::move(hits);
          constrained = true;
        } else {
          sel = IntersectSorted(sel, hits);
        }
      }
      if (!constrained) {
        // Every filter was contained: the whole range qualifies. Count it
        // whole and materialize identity positions only up to the limit.
        result.rows_matched += end - begin;
        for (uint64_t row = begin;
             row < end && result.positions.size() < limit; ++row) {
          result.positions.push_back(static_cast<uint32_t>(row));
        }
        continue;
      }
      result.rows_matched += sel.size();
      for (const uint32_t p : sel) {
        if (result.positions.size() >= limit) break;
        result.positions.push_back(p);
      }
    }
  } else {
    result.rows_matched = bound.rows;
  }

  // The rows projections and aggregates see: the (limited) selection, or —
  // with no filters — the identity prefix [0, take).
  Column<uint32_t> prefix;
  if (filters.empty() && !plan.gathered.empty()) {
    prefix.resize(plan.take);
    std::iota(prefix.begin(), prefix.end(), uint32_t{0});
  }
  const Column<uint32_t>& rows = filters.empty() ? prefix : result.positions;
  const uint64_t selected =
      filters.empty() ? plan.take : result.positions.size();

  // Late materialization, one gather per distinct column even when it is
  // both projected and aggregated. The span closes at function exit, so the
  // materialize phase covers aggregates, projections, and the metric fold.
  const obs::Span materialize_span("scan.materialize");
  std::unordered_map<uint64_t, GatherResult> gathers;
  auto gather_for = [&](uint64_t col) -> Result<GatherResult*> {
    auto it = gathers.find(col);
    if (it != gathers.end()) return &it->second;
    RECOMP_ASSIGN_OR_RETURN(GatherResult gather,
                            Gather(bound, col, rows, ctx, shared));
    return &gathers.emplace(col, std::move(gather)).first->second;
  };

  for (size_t a = 0; a < plan.aggregates.size(); ++a) {
    const auto [col, op] = plan.aggregates[a];
    ScanAggregate out;
    out.column = spec.aggregates()[a].column;
    out.op = op;
    if (plan.pushdown_aggregates) {
      RECOMP_ASSIGN_OR_RETURN(out.agg,
                              AggregateWholeColumn(*columns[col], op, ctx));
      out.rows = bound.rows;
    } else {
      out.rows = selected;
      if (op == AggregateOp::kCount) {
        out.agg.value = selected;
      } else if (selected > 0) {
        RECOMP_ASSIGN_OR_RETURN(const GatherResult* gather, gather_for(col));
        out.gather = gather->stats;
        out.agg.value = FoldColumn(gather->values, op);
      }
      // Min/max of an empty selection stays 0 with rows == 0: a filtered
      // scan that matches nothing is an answer, not an error (unlike the
      // whole-column min/max of an empty column, which keeps failing).
    }
    result.aggregates.push_back(std::move(out));
  }

  // Aggregates have folded their gathers, so a column's last projection
  // takes its gathered values and only an earlier one copies them.
  for (size_t p = 0; p < plan.projections.size(); ++p) {
    const uint64_t col = plan.projections[p];
    ScanProjection out;
    out.column = spec.projections()[p];
    RECOMP_ASSIGN_OR_RETURN(GatherResult* gather, gather_for(col));
    out.gather = gather->stats;
    const auto later = plan.projections.begin() + p + 1;
    const bool last =
        std::find(later, plan.projections.end(), col) == plan.projections.end();
    out.values = last ? std::move(gather->values) : gather->values;
    result.projections.push_back(std::move(out));
  }

  // Fold this query's counters into the process-wide registry — and, when
  // the calling thread carries a ScanProfile, into that profile. Gather
  // stats are folded from the dedup map, not the result entries, so a
  // column both projected and aggregated counts once.
  if (obs::Enabled()) {
    const ScanMetrics& metrics = ScanMetrics::Get();
    metrics.queries->Increment();
    metrics.rows_scanned->Add(result.rows_scanned);
    metrics.rows_matched->Add(result.rows_matched);
    uint64_t chunks_pruned = 0;
    uint64_t chunks_executed = 0;
    uint64_t values_decoded = 0;
    for (const ScanFilterStats& f : result.filters) {
      chunks_pruned += f.stats.chunks_pruned;
      chunks_executed += f.stats.chunks_executed;
      values_decoded += f.stats.values_decoded;
      metrics.chunks_full->Add(f.stats.chunks_full);
      for (int s = 0; s < kNumStrategies; ++s) {
        metrics.filter_strategy[s]->Add(f.stats.strategy_chunks[s]);
      }
    }
    metrics.chunks_pruned->Add(chunks_pruned);
    metrics.chunks_executed->Add(chunks_executed);
    metrics.values_decoded->Add(values_decoded);
    uint64_t gather_rows = 0;
    for (const auto& entry : gathers) {
      const GatherStats& gather_stats = entry.second.stats;
      gather_rows += gather_stats.rows;
      metrics.gather_chunks->Add(gather_stats.chunks_touched);
      for (int s = 0; s < kNumStrategies; ++s) {
        metrics.gather_strategy[s]->Add(gather_stats.strategy_rows[s]);
      }
    }
    metrics.gather_rows->Add(gather_rows);
    if (!result.filters.empty() && result.rows_scanned > 0) {
      metrics.selectivity_permille->Record(result.rows_matched * 1000 /
                                           result.rows_scanned);
    }
    if (obs::ScanProfile* profile = obs::CurrentProfile()) {
      profile->AddCounter("rows_scanned", result.rows_scanned);
      profile->AddCounter("rows_matched", result.rows_matched);
      profile->AddCounter("chunks_pruned", chunks_pruned);
      profile->AddCounter("chunks_executed", chunks_executed);
      profile->AddCounter("values_decoded", values_decoded);
      profile->AddCounter("gather_rows", gather_rows);
    }
  }

  return result;
}

/// The one scan executor: plans every query of `specs` from the zone maps,
/// marks the chunks two or more of them read as shared, then runs each
/// query. A lone query fans its chunk work out over `ctx`; a batch fans out
/// one task per query, each running its chunks in sequence inside it —
/// nesting a fan-out on the shared pool would deadlock a saturated
/// fixed-size pool, and cross-query parallelism already covers the batch.
std::vector<Result<ScanResult>> RunBatch(
    const Bound& bound, const std::vector<const ScanSpec*>& specs,
    const ExecContext& ctx, SelectionVectorCache* selection_cache = nullptr,
    DecodedChunkCache* decoded_cache = nullptr, BatchStats* stats = nullptr,
    bool subsume = false) {
  std::vector<Result<Plan>> plans;
  plans.reserve(specs.size());
  for (const ScanSpec* spec : specs) plans.push_back(PlanScan(bound, *spec));
  SharedChunks shared(bound, plans, selection_cache, decoded_cache, subsume);
  std::vector<Result<ScanResult>> results(
      specs.size(), Status::InvalidArgument("query not executed"));
  const auto run = [&](uint64_t q, const ExecContext& query_ctx) {
    results[q] = plans[q].ok()
                     ? RunQuery(bound, *specs[q], *plans[q], query_ctx, shared)
                     : plans[q].status();
  };
  if (specs.size() == 1) {
    run(0, ctx);
  } else {
    ParallelFor(ctx, specs.size(), [&](uint64_t q) { run(q, ExecContext{}); });
  }
  const BatchStats batch = shared.Fold();
  if (stats != nullptr) *stats = batch;
  return results;
}

Bound BindSnapshot(const store::TableSnapshot& snapshot) {
  Bound bound;
  bound.columns.reserve(snapshot.num_columns());
  for (uint64_t i = 0; i < snapshot.num_columns(); ++i) {
    bound.columns.push_back(&snapshot.column(i).chunked());
  }
  bound.lookup = [&snapshot](const std::string& name) -> Result<uint64_t> {
    return snapshot.column_index(name);
  };
  bound.rows = snapshot.rows();
  bound.version = snapshot.version();
  return bound;
}

}  // namespace

Result<ScanResult> Scan(const store::TableSnapshot& snapshot,
                        const ScanSpec& spec, const ExecContext& ctx) {
  return std::move(RunBatch(BindSnapshot(snapshot), {&spec}, ctx)[0]);
}

Result<ScanResult> Scan(const ChunkedCompressedColumn& column,
                        const ScanSpec& spec, const ExecContext& ctx) {
  return std::move(ExecuteBatch(column, {&spec}, ctx)[0]);
}

std::vector<Result<ScanResult>> ExecuteBatch(
    const ChunkedCompressedColumn& column,
    const std::vector<const ScanSpec*>& specs, const ExecContext& ctx) {
  Bound bound;
  bound.columns = {&column};
  bound.lookup = [](const std::string& name) -> Result<uint64_t> {
    if (name.empty()) return uint64_t{0};
    return Status::KeyError("no column named '" + name +
                            "': a single-column scan addresses its column "
                            "with the empty name");
  };
  bound.rows = column.size();
  return RunBatch(bound, specs, ctx);
}

std::vector<Result<ScanResult>> ExecuteBatch(
    const store::TableSnapshot& snapshot,
    const std::vector<const ScanSpec*>& specs, const ExecContext& ctx,
    SelectionVectorCache* selection_cache, DecodedChunkCache* decoded_cache,
    BatchStats* stats, bool subsume_predicates) {
  return RunBatch(BindSnapshot(snapshot), specs, ctx, selection_cache,
                  decoded_cache, stats, subsume_predicates);
}

bool ScanOutputsEqual(const ScanResult& a, const ScanResult& b) {
  if (a.rows_scanned != b.rows_scanned || a.rows_matched != b.rows_matched ||
      a.positions != b.positions) {
    return false;
  }
  if (a.projections.size() != b.projections.size() ||
      a.aggregates.size() != b.aggregates.size()) {
    return false;
  }
  for (size_t i = 0; i < a.projections.size(); ++i) {
    const ScanProjection& pa = a.projections[i];
    const ScanProjection& pb = b.projections[i];
    if (pa.column != pb.column || !(pa.values == pb.values)) return false;
  }
  for (size_t i = 0; i < a.aggregates.size(); ++i) {
    const ScanAggregate& aa = a.aggregates[i];
    const ScanAggregate& ab = b.aggregates[i];
    if (aa.column != ab.column || aa.op != ab.op || aa.rows != ab.rows ||
        aa.agg.value != ab.agg.value) {
      return false;
    }
  }
  return true;
}

std::string CanonicalSpecKey(const ScanSpec& spec) {
  // Length-prefix every column name ("<len>:<name>") so a crafted name
  // containing the section markers cannot forge another spec's key.
  const auto append_name = [](std::string* key, const std::string& name) {
    key->append(std::to_string(name.size()));
    key->push_back(':');
    key->append(name);
  };
  // Filters sort by (column, lo, hi): the driver intersects selections, so
  // any permutation of the same conjunction yields identical outputs.
  std::vector<const ScanSpec::FilterSpec*> filters;
  filters.reserve(spec.filters().size());
  for (const ScanSpec::FilterSpec& f : spec.filters()) filters.push_back(&f);
  std::sort(filters.begin(), filters.end(),
            [](const ScanSpec::FilterSpec* a, const ScanSpec::FilterSpec* b) {
              if (a->column != b->column) return a->column < b->column;
              if (a->predicate.lo != b->predicate.lo) {
                return a->predicate.lo < b->predicate.lo;
              }
              return a->predicate.hi < b->predicate.hi;
            });
  std::string key;
  for (const ScanSpec::FilterSpec* f : filters) {
    key.push_back('f');
    append_name(&key, f->column);
    key.push_back('[');
    key.append(std::to_string(f->predicate.lo));
    key.push_back(',');
    key.append(std::to_string(f->predicate.hi));
    key.push_back(']');
  }
  for (const std::string& column : spec.projections()) {
    key.push_back('p');
    append_name(&key, column);
  }
  for (const ScanSpec::AggregateSpec& agg : spec.aggregates()) {
    key.push_back('a');
    append_name(&key, agg.column);
    key.append(AggregateOpName(agg.op));
  }
  key.push_back('l');
  key.append(std::to_string(spec.limit()));
  return key;
}

uint64_t CanonicalSpecHash(const ScanSpec& spec) {
  const std::string key = CanonicalSpecKey(spec);
  uint64_t h = 1469598103934665603ull;
  for (const char c : key) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return h;
}

}  // namespace recomp::exec
