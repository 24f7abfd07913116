#include "exec/scan.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <unordered_map>
#include <utility>

#include "exec/point_access.h"
#include "obs/metrics.h"
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

const char* AggregateOpName(AggregateOp op) {
  switch (op) {
    case AggregateOp::kSum:
      return "sum";
    case AggregateOp::kMin:
      return "min";
    case AggregateOp::kMax:
      return "max";
    case AggregateOp::kCount:
      return "count";
  }
  return "unknown";
}

namespace {

using internal::DispatchUnsignedTypeId;

/// Resolves spec column names to indices into the bound column list.
using Lookup = std::function<Result<uint64_t>(const std::string&)>;

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

/// Per-chunk aggregate dispatch (the whole-column pushdown strategies).
Result<AggregateResult> AggregateChunk(const CompressedColumn& column,
                                       AggregateOp op) {
  switch (op) {
    case AggregateOp::kSum:
      return SumCompressed(column);
    case AggregateOp::kMin:
      return MinCompressed(column);
    case AggregateOp::kMax:
      return MaxCompressed(column);
    case AggregateOp::kCount:
      break;
  }
  return Status::InvalidArgument("count needs no per-chunk dispatch");
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
        return AggregateChunk(chunked.chunk(i).column, op);
      }));

  if (op == AggregateOp::kMin) result.value = ~uint64_t{0};
  uint64_t slot = 0;
  for (uint64_t i = 0; i < num_chunks; ++i) {
    const CompressedChunk& chunk = chunked.chunk(i);
    if (chunk.zone.row_count == 0) continue;
    if (op != AggregateOp::kSum && chunk.zone.has_minmax) {
      const uint64_t v =
          op == AggregateOp::kMin ? chunk.zone.min : chunk.zone.max;
      result.value = op == AggregateOp::kMin ? std::min(result.value, v)
                                             : std::max(result.value, v);
      ++result.chunks_pruned;
      ++result.strategy_chunks[static_cast<int>(Strategy::kZoneMapOnly)];
      continue;
    }
    const AggregateResult& sub = slots[slot++];
    ++result.chunks_executed;
    ++result.strategy_chunks[static_cast<int>(sub.strategy)];
    if (op == AggregateOp::kSum) {
      result.value += sub.value;
    } else {
      result.value = op == AggregateOp::kMin
                         ? std::min(result.value, sub.value)
                         : std::max(result.value, sub.value);
    }
  }
  return result;
}

/// The default per-chunk execution: the same pushdown strategies the
/// per-operator free functions run. SelectChunk dispatches the chunk's
/// compressed payload; GatherRows is chunk-grouped batch point access — one
/// decompress per touched chunk.
class DefaultChunkPipeline final : public ChunkPipeline {
 public:
  explicit DefaultChunkPipeline(
      const std::vector<const ChunkedCompressedColumn*>& columns)
      : columns_(columns) {}

  Result<std::shared_ptr<const SelectionResult>> SelectChunk(
      uint64_t column, uint64_t chunk,
      const RangePredicate& predicate) override {
    RECOMP_ASSIGN_OR_RETURN(
        SelectionResult selection,
        SelectCompressed(columns_[column]->chunk(chunk).column, predicate));
    return std::make_shared<const SelectionResult>(std::move(selection));
  }

  Result<GatherResult> GatherRows(uint64_t column,
                                  const std::vector<uint64_t>& rows,
                                  const ExecContext& ctx) override {
    GatherResult gather;
    RECOMP_ASSIGN_OR_RETURN(
        gather.points,
        GetAtBatch(*columns_[column], rows, ctx, &gather.stats.chunks_touched));
    gather.stats.rows = rows.size();
    for (const PointResult& point : gather.points) {
      ++gather.stats.strategy_rows[static_cast<int>(point.strategy)];
    }
    return gather;
  }

 private:
  const std::vector<const ChunkedCompressedColumn*>& columns_;
};

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

/// The scan driver over an already-bound column list. `rows` is the shared
/// row count (every bound column has exactly this many rows). Per-chunk
/// filtering and materialization route through `pipeline`.
Result<ScanResult> ScanColumns(
    const std::vector<const ChunkedCompressedColumn*>& columns,
    const Lookup& lookup, uint64_t rows, const ScanSpec& spec,
    const ExecContext& ctx, ChunkPipeline& pipeline) {
  if (spec.filters().empty() && spec.projections().empty() &&
      spec.aggregates().empty()) {
    return Status::InvalidArgument(
        "empty scan spec: add a filter, projection, or aggregate");
  }

  // Resolve every referenced column up front, naming the role and column in
  // every error so a failing multi-column spec says which reference broke;
  // for the empty-name single-column API the messages stay exactly what the
  // per-operator free functions historically reported.
  std::vector<ResolvedFilter> filters;
  for (const ScanSpec::FilterSpec& f : spec.filters()) {
    Result<uint64_t> resolved = lookup(f.column);
    if (!resolved.ok()) {
      return NameColumnError("filter", f.column, resolved.status());
    }
    const uint64_t idx = *resolved;
    if (!TypeIdIsUnsigned(columns[idx]->type())) {
      return NameColumnError(
          "filter", f.column,
          Status::InvalidArgument("range selection over compressed data "
                                  "requires an unsigned column"));
    }
    filters.push_back({idx, f.predicate});
  }
  std::vector<uint64_t> projections;
  for (const std::string& name : spec.projections()) {
    Result<uint64_t> resolved = lookup(name);
    if (!resolved.ok()) {
      return NameColumnError("projection", name, resolved.status());
    }
    const uint64_t idx = *resolved;
    if (!TypeIdIsUnsigned(columns[idx]->type())) {
      return NameColumnError(
          "projection", name,
          Status::InvalidArgument("point access requires an unsigned column"));
    }
    projections.push_back(idx);
  }
  std::vector<std::pair<uint64_t, AggregateOp>> aggregates;
  for (const ScanSpec::AggregateSpec& a : spec.aggregates()) {
    Result<uint64_t> resolved = lookup(a.column);
    if (!resolved.ok()) {
      return NameColumnError("aggregate", a.column, resolved.status());
    }
    const uint64_t idx = *resolved;
    if (!TypeIdIsUnsigned(columns[idx]->type())) {
      return NameColumnError(
          "aggregate", a.column,
          Status::InvalidArgument(
              "compressed aggregation requires an unsigned column"));
    }
    aggregates.push_back({idx, a.op});
  }
  if ((!filters.empty() || !projections.empty()) &&
      rows >= (uint64_t{1} << 32)) {
    return Status::OutOfRange("selections support columns below 2^32 rows");
  }

  ScanResult result;
  result.rows_scanned = rows;

  if (!filters.empty()) {
    const obs::Span filter_span("scan.filter");
    // Row-range partition: the finest refinement of every filter column's
    // chunk boundaries. Each range lies inside exactly one chunk of every
    // filter column, so a chunk zone map speaks for the whole range; with
    // one filter (or boundary-aligned columns) ranges are exactly the
    // nonempty chunks, which keeps the wrappers bit-identical to the
    // historical per-operator loops.
    std::vector<uint64_t> bounds;
    bounds.push_back(0);
    bounds.push_back(rows);
    for (const ResolvedFilter& f : filters) {
      for (const auto& chunk : columns[f.column]->chunks()) {
        bounds.push_back(chunk->zone.row_begin);
      }
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    const uint64_t num_ranges = bounds.size() < 2 ? 0 : bounds.size() - 1;

    // For each filter, the chunk of its column owning each range.
    std::vector<std::vector<uint64_t>> owner(
        filters.size(), std::vector<uint64_t>(num_ranges, 0));
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

    // Phase 1 (zone maps only): a range is dead when any filter's owning
    // chunk is disjoint from its predicate — zone-map pruning intersected
    // across all filter columns, so a chunk any predicate prunes is never
    // touched for *any* column. From the live ranges, classify each
    // filter's chunks: a (filter, chunk) pair needs its payload only when
    // the chunk overlaps the predicate without being contained AND owns at
    // least one live range — and each needed pair executes exactly once, no
    // matter how many ranges the chunk spans under misaligned boundaries.
    std::vector<char> dead(num_ranges, 0);
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
    std::vector<std::vector<ChunkAction>> chunk_action(filters.size());
    std::vector<std::vector<size_t>> slot_of(filters.size());
    std::vector<std::pair<size_t, uint64_t>> exec_pairs;
    for (size_t f = 0; f < filters.size(); ++f) {
      const ChunkedCompressedColumn& column = *columns[filters[f].column];
      chunk_action[f].assign(column.num_chunks(), ChunkAction::kNotReached);
      slot_of[f].assign(column.num_chunks(), ~size_t{0});
      for (uint64_t r = 0; r < num_ranges; ++r) {
        const uint64_t c = owner[f][r];
        const ZoneMap& zone = column.chunk(c).zone;
        if (zone.DisjointFrom(filters[f].predicate.lo,
                              filters[f].predicate.hi)) {
          chunk_action[f][c] = ChunkAction::kPruned;
        } else if (!dead[r] &&
                   chunk_action[f][c] == ChunkAction::kNotReached) {
          chunk_action[f][c] = zone.ContainedIn(filters[f].predicate.lo,
                                                filters[f].predicate.hi)
                                   ? ChunkAction::kFull
                                   : ChunkAction::kExecute;
        }
      }
      for (uint64_t c = 0; c < column.num_chunks(); ++c) {
        if (chunk_action[f][c] == ChunkAction::kExecute) {
          slot_of[f][c] = exec_pairs.size();
          exec_pairs.push_back({f, c});
        }
      }
    }

    // Phase 2: run the per-chunk strategies for the needed pairs,
    // concurrently under ctx, each into its own slot.
    std::vector<std::shared_ptr<const SelectionResult>> slots;
    RECOMP_RETURN_NOT_OK(VisitIndicesInto(
        ctx, static_cast<uint64_t>(exec_pairs.size()), &slots,
        [&](uint64_t p) -> Result<std::shared_ptr<const SelectionResult>> {
          const auto [f, c] = exec_pairs[p];
          return pipeline.SelectChunk(filters[f].column, c,
                                      filters[f].predicate);
        }));

    // Stats, per filter in chunk order — each chunk counted once, so
    // pruned + full + executed never exceeds chunks_total, and the
    // single-filter wrapper reproduces the historical counters exactly.
    result.filters.resize(filters.size());
    for (size_t f = 0; f < filters.size(); ++f) {
      result.filters[f].column = spec.filters()[f].column;
      ChunkedSelectionStats& stats = result.filters[f].stats;
      stats.chunks_total = columns[filters[f].column]->num_chunks();
      for (uint64_t c = 0; c < chunk_action[f].size(); ++c) {
        switch (chunk_action[f][c]) {
          case ChunkAction::kNotReached:
            break;
          case ChunkAction::kPruned:
            ++stats.chunks_pruned;
            break;
          case ChunkAction::kFull:
            ++stats.chunks_full;
            break;
          case ChunkAction::kExecute: {
            const SelectionResult& sub = *slots[slot_of[f][c]];
            ++stats.chunks_executed;
            ++stats.strategy_chunks[static_cast<int>(sub.stats.strategy)];
            stats.values_decoded += sub.stats.values_decoded;
            stats.per_chunk.push_back({c, sub.stats});
            break;
          }
        }
      }
    }

    // Phase 3 (sequential, range order): intersect the cached chunk hits,
    // clipped to each live range, in spec order — positions stay sorted and
    // every byte of this result is identical for any thread count.
    const uint64_t limit = spec.limit();
    for (uint64_t r = 0; r < num_ranges; ++r) {
      if (dead[r]) continue;
      const uint64_t begin = bounds[r];
      const uint64_t end = bounds[r + 1];
      Column<uint32_t> sel;
      bool constrained = false;  // sel a strict subset of the range?
      for (size_t f = 0; f < filters.size(); ++f) {
        const uint64_t c = owner[f][r];
        if (chunk_action[f][c] == ChunkAction::kFull) continue;
        if (constrained && sel.empty()) break;
        const SelectionResult& cached = *slots[slot_of[f][c]];
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
    result.rows_matched = rows;
  }

  // The rows projections and aggregates see: the (limited) selection, or —
  // with no filters — an identity prefix. A filterless, unlimited aggregate
  // skips the selection entirely and pushes down per chunk.
  const uint64_t take = std::min(spec.limit(), rows);
  const bool pushdown_aggregates = filters.empty() && take == rows;
  std::vector<uint64_t> sel;
  if (!filters.empty()) {
    sel.assign(result.positions.begin(), result.positions.end());
  } else if (!projections.empty() ||
             (!aggregates.empty() && !pushdown_aggregates)) {
    sel.resize(take);
    for (uint64_t i = 0; i < take; ++i) sel[i] = i;
  }

  // Late materialization, one gather per distinct column even when it is
  // both projected and aggregated. The span closes at function exit, so the
  // materialize phase covers projections, aggregates, and the metric fold.
  const obs::Span materialize_span("scan.materialize");
  std::unordered_map<uint64_t, GatherResult> gathers;
  auto gather_for = [&](uint64_t col) -> Result<const GatherResult*> {
    auto it = gathers.find(col);
    if (it != gathers.end()) return &it->second;
    RECOMP_ASSIGN_OR_RETURN(GatherResult gather,
                            pipeline.GatherRows(col, sel, ctx));
    return &gathers.emplace(col, std::move(gather)).first->second;
  };

  for (size_t p = 0; p < projections.size(); ++p) {
    ScanProjection out;
    out.column = spec.projections()[p];
    RECOMP_ASSIGN_OR_RETURN(const GatherResult* gather, gather_for(projections[p]));
    out.gather = gather->stats;
    RECOMP_ASSIGN_OR_RETURN(
        out.values,
        DispatchUnsignedTypeId(
            columns[projections[p]]->type(),
            [&](auto tag) -> Result<AnyColumn> {
              using T = typename decltype(tag)::type;
              Column<T> values(gather->points.size());
              for (size_t i = 0; i < gather->points.size(); ++i) {
                values[i] = static_cast<T>(gather->points[i].value);
              }
              return AnyColumn(std::move(values));
            }));
    result.projections.push_back(std::move(out));
  }

  for (size_t a = 0; a < aggregates.size(); ++a) {
    const auto [col, op] = aggregates[a];
    ScanAggregate out;
    out.column = spec.aggregates()[a].column;
    out.op = op;
    if (pushdown_aggregates) {
      RECOMP_ASSIGN_OR_RETURN(out.agg, AggregateWholeColumn(*columns[col], op, ctx));
      out.rows = rows;
    } else {
      out.rows = sel.size();
      if (op == AggregateOp::kCount) {
        out.agg.value = sel.size();
      } else if (!sel.empty()) {
        RECOMP_ASSIGN_OR_RETURN(const GatherResult* gather, gather_for(col));
        out.gather = gather->stats;
        uint64_t acc = op == AggregateOp::kMin ? ~uint64_t{0} : 0;
        for (const PointResult& point : gather->points) {
          switch (op) {
            case AggregateOp::kSum:
              acc += point.value;
              break;
            case AggregateOp::kMin:
              acc = std::min(acc, point.value);
              break;
            case AggregateOp::kMax:
              acc = std::max(acc, point.value);
              break;
            case AggregateOp::kCount:
              break;
          }
        }
        out.agg.value = acc;
      }
      // Min/max of an empty selection stays 0 with rows == 0: a filtered
      // scan that matches nothing is an answer, not an error (unlike the
      // whole-column min/max of an empty column, which keeps failing).
    }
    result.aggregates.push_back(std::move(out));
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

}  // namespace

Result<ScanResult> Scan(const store::TableSnapshot& snapshot,
                        const ScanSpec& spec, const ExecContext& ctx) {
  std::vector<const ChunkedCompressedColumn*> columns;
  columns.reserve(snapshot.num_columns());
  for (uint64_t i = 0; i < snapshot.num_columns(); ++i) {
    columns.push_back(&snapshot.column(i).chunked());
  }
  const Lookup lookup = [&](const std::string& name) -> Result<uint64_t> {
    return snapshot.column_index(name);
  };
  DefaultChunkPipeline pipeline(columns);
  return ScanColumns(columns, lookup, snapshot.rows(), spec, ctx, pipeline);
}

Result<ScanResult> Scan(const ChunkedCompressedColumn& column,
                        const ScanSpec& spec, const ExecContext& ctx) {
  const std::vector<const ChunkedCompressedColumn*> columns{&column};
  const Lookup lookup = [&](const std::string& name) -> Result<uint64_t> {
    if (name.empty()) return uint64_t{0};
    return Status::KeyError("no column named '" + name +
                            "': a single-column scan addresses its column "
                            "with the empty name");
  };
  DefaultChunkPipeline pipeline(columns);
  return ScanColumns(columns, lookup, column.size(), spec, ctx, pipeline);
}

Result<ScanResult> ScanWithPipeline(const store::TableSnapshot& snapshot,
                                    const ScanSpec& spec,
                                    const ExecContext& ctx,
                                    ChunkPipeline& pipeline) {
  std::vector<const ChunkedCompressedColumn*> columns;
  columns.reserve(snapshot.num_columns());
  for (uint64_t i = 0; i < snapshot.num_columns(); ++i) {
    columns.push_back(&snapshot.column(i).chunked());
  }
  const Lookup lookup = [&](const std::string& name) -> Result<uint64_t> {
    return snapshot.column_index(name);
  };
  return ScanColumns(columns, lookup, snapshot.rows(), spec, ctx, pipeline);
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
