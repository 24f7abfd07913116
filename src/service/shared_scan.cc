#include "service/shared_scan.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "core/fused.h"
#include "obs/service_metrics.h"

namespace recomp::service {

namespace {

/// Keeps the entries of `values` inside `pred`, with each kept entry's
/// chunk row: rows[i] for entry i, or i itself when `rows` is null.
CachedSelection FilterSelection(const AnyColumn& values,
                                const Column<uint32_t>* rows,
                                const exec::RangePredicate& pred) {
  CachedSelection out;
  out.selection.stats.strategy = exec::Strategy::kDecompressScan;
  Column<uint32_t>& positions = out.selection.positions;
  values.VisitPlain([&](const auto& col) {
    using T = typename std::decay_t<decltype(col)>::value_type;
    Column<T> kept;
    exec::ForEachMatch(col, pred, [&](uint64_t i, uint64_t v) {
      positions.push_back(rows != nullptr ? (*rows)[i]
                                          : static_cast<uint32_t>(i));
      kept.push_back(static_cast<T>(v));
    });
    out.values = AnyColumn(std::move(kept));
  });
  return out;
}

/// The shared per-chunk execution: one pipeline instance serves every query
/// of a batch concurrently. SelectChunk answers from the selection cache
/// when it can, re-filters a containing band's selection when the batch's
/// containment lattice offers one, and only otherwise scans the shared
/// decoded buffer; GatherRows reads the shared buffers directly. All
/// counters are atomics — pool workers running different queries call in
/// simultaneously.
class SharedScanPipeline final : public exec::ChunkPipeline {
 public:
  /// `count_hits` is false when `selections` is the batch's own instance.
  SharedScanPipeline(const store::TableSnapshot& snapshot,
                     const std::vector<const exec::ScanSpec*>& specs,
                     SelectionVectorCache* selections, bool count_hits,
                     DecodedChunkCache* chunks, bool subsume_predicates)
      : version_(snapshot.version()),
        selections_(selections),
        count_hits_(count_hits),
        chunks_(chunks),
        subsume_(subsume_predicates) {
    columns_.reserve(snapshot.num_columns());
    for (uint64_t i = 0; i < snapshot.num_columns(); ++i) {
      columns_.push_back(&snapshot.column(i).chunked());
    }
    if (subsume_) BuildLattice(snapshot, specs);
  }

  Result<std::shared_ptr<const exec::SelectionResult>> SelectChunk(
      uint64_t column, uint64_t chunk,
      const exec::RangePredicate& predicate) override {
    chunk_evaluations_.fetch_add(1, std::memory_order_relaxed);
    RECOMP_ASSIGN_OR_RETURN(std::shared_ptr<const CachedSelection> entry,
                            EvalBand(column, chunk, predicate));
    // Aliases the cache entry: the selection lives as long as the entry.
    const exec::SelectionResult* selection = &entry->selection;
    return std::shared_ptr<const exec::SelectionResult>(std::move(entry),
                                                        selection);
  }

  Result<exec::GatherResult> GatherRows(uint64_t column,
                                        const std::vector<uint64_t>& rows,
                                        const ExecContext& ctx) override {
    (void)ctx;  // Buffers are already decoded; nothing to fan out.
    const ChunkedCompressedColumn& chunked = *columns_[column];
    exec::GatherResult out;
    out.stats.rows = rows.size();
    out.points.resize(rows.size());
    // Rows arrive ascending (the driver gathers its sorted selection), so
    // each touched chunk is looked up and decoded once per run of its rows.
    for (size_t i = 0; i < rows.size();) {
      if (rows[i] >= chunked.size()) {
        return Status::OutOfRange("row out of range");
      }
      const uint64_t chunk = chunked.ChunkIndexOf(rows[i]);
      const ZoneMap& zone = chunked.chunk(chunk).zone;
      RECOMP_ASSIGN_OR_RETURN(const std::shared_ptr<const AnyColumn> values,
                              Decoded(column, chunk));
      ++out.stats.chunks_touched;
      // One typed visit reads the whole run.
      i = values->VisitPlain([&](const auto& col) {
        size_t k = i;
        for (; k < rows.size() && rows[k] >= zone.row_begin &&
               rows[k] - zone.row_begin < zone.row_count;
             ++k) {
          out.points[k] = {static_cast<uint64_t>(col[rows[k] - zone.row_begin]),
                           exec::Strategy::kDecompressScan};
        }
        return k;
      });
    }
    out.stats.strategy_rows[static_cast<int>(
        exec::Strategy::kDecompressScan)] = rows.size();
    return out;
  }

  uint64_t decodes() const { return decodes_.load(std::memory_order_relaxed); }
  uint64_t chunk_evaluations() const {
    return chunk_evaluations_.load(std::memory_order_relaxed);
  }
  uint64_t selection_hits() const {
    return selection_hits_.load(std::memory_order_relaxed);
  }
  uint64_t subsumed_evaluations() const {
    return subsumed_.load(std::memory_order_relaxed);
  }
  uint64_t subsumption_values_examined() const {
    return values_examined_.load(std::memory_order_relaxed);
  }

 private:
  /// Identity of one filter band on one (snapshot-indexed) column.
  struct BandKey {
    uint64_t column = 0;
    uint64_t lo = 0;
    uint64_t hi = 0;

    bool operator==(const BandKey& other) const {
      return column == other.column && lo == other.lo && hi == other.hi;
    }
  };
  struct BandKeyHash {
    size_t operator()(const BandKey& key) const {
      uint64_t h = 1469598103934665603ull;
      for (const uint64_t w : {key.column, key.lo, key.hi}) {
        h = (h ^ w) * 1099511628211ull;
      }
      return static_cast<size_t>(h);
    }
  };

  /// Maps every band of the batch to its *narrowest strict container* on
  /// the same column (absent = a maximal band that must scan). Narrowest
  /// wins because a tighter parent leaves fewer pairs to re-filter; chains
  /// resolve recursively, so the widest band of a nest scans once and each
  /// tier below it filters its parent's survivors.
  void BuildLattice(const store::TableSnapshot& snapshot,
                    const std::vector<const exec::ScanSpec*>& specs) {
    std::unordered_map<uint64_t, std::vector<exec::RangePredicate>> bands;
    for (const exec::ScanSpec* spec : specs) {
      for (const exec::ScanSpec::FilterSpec& filter : spec->filters()) {
        // A name the snapshot cannot resolve fails that query in its own
        // slot later; it contributes nothing to the lattice.
        const Result<uint64_t> column = snapshot.column_index(filter.column);
        if (!column.ok()) continue;
        std::vector<exec::RangePredicate>& column_bands = bands[*column];
        if (std::find(column_bands.begin(), column_bands.end(),
                      filter.predicate) == column_bands.end()) {
          column_bands.push_back(filter.predicate);
        }
      }
    }
    for (const auto& [column, column_bands] : bands) {
      for (const exec::RangePredicate& band : column_bands) {
        const exec::RangePredicate* best = nullptr;
        for (const exec::RangePredicate& candidate : column_bands) {
          if (!candidate.StrictlyContains(band)) continue;
          if (best == nullptr ||
              candidate.hi - candidate.lo < best->hi - best->lo ||
              (candidate.hi - candidate.lo == best->hi - best->lo &&
               candidate.lo < best->lo)) {
            best = &candidate;
          }
        }
        if (best != nullptr) {
          parents_.emplace(BandKey{column, band.lo, band.hi}, *best);
        }
      }
    }
  }

  const exec::RangePredicate* FindParent(uint64_t column,
                                         const exec::RangePredicate& band)
      const {
    const auto it = parents_.find(BandKey{column, band.lo, band.hi});
    return it == parents_.end() ? nullptr : &it->second;
  }

  /// One band's selection over one chunk, computed once per batch and kept
  /// across batches while the selection cache holds it: by re-filtering its
  /// narrowest containing band's selection (itself found the same way) when
  /// the lattice offers one, else by scanning the shared decoded buffer.
  /// Entries carry the matched values so callers one tier down can do the
  /// same.
  Result<std::shared_ptr<const CachedSelection>> EvalBand(
      uint64_t column, uint64_t chunk, const exec::RangePredicate& pred) {
    const SelectionKey key{column, chunk, pred.lo, pred.hi};
    const auto compute = [&] { return ComputeBand(column, chunk, pred); };
    bool reused = false;
    Result<std::shared_ptr<const CachedSelection>> entry =
        selections_->GetOrCompute(version_, key, compute, &reused);
    if (count_hits_) {
      const obs::ServiceMetrics& metrics = obs::ServiceMetrics::Get();
      if (reused) {
        selection_hits_.fetch_add(1, std::memory_order_relaxed);
        metrics.selection_cache_hits->Increment();
      } else {
        metrics.selection_cache_misses->Increment();
      }
    }
    return entry;
  }

  Result<CachedSelection> ComputeBand(uint64_t column, uint64_t chunk,
                                      const exec::RangePredicate& pred) {
    // Strict containment is acyclic, so the nested lookup never waits on a
    // computation that waits on this one.
    const exec::RangePredicate* parent =
        subsume_ ? FindParent(column, pred) : nullptr;
    if (parent != nullptr) {
      RECOMP_ASSIGN_OR_RETURN(
          const std::shared_ptr<const CachedSelection> base,
          EvalBand(column, chunk, *parent));
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

  Result<std::shared_ptr<const AnyColumn>> Decoded(uint64_t column,
                                                   uint64_t chunk) {
    // Columns are few and chunk indices fit 32 bits (rows < 2^32).
    return chunks_->GetOrCompute(version_, (column << 32) | chunk, [&] {
      decodes_.fetch_add(1, std::memory_order_relaxed);
      obs::ServiceMetrics::Get().chunks_decoded->Increment();
      return FusedDecompress(columns_[column]->chunk(chunk).column);
    });
  }

  const uint64_t version_;
  std::vector<const ChunkedCompressedColumn*> columns_;
  SelectionVectorCache* const selections_;
  const bool count_hits_;
  DecodedChunkCache* const chunks_;
  const bool subsume_;
  /// Read-only after construction: band → narrowest strict container.
  std::unordered_map<BandKey, exec::RangePredicate, BandKeyHash> parents_;
  std::atomic<uint64_t> decodes_{0};
  std::atomic<uint64_t> chunk_evaluations_{0};
  std::atomic<uint64_t> selection_hits_{0};
  std::atomic<uint64_t> subsumed_{0};
  std::atomic<uint64_t> values_examined_{0};
};

}  // namespace

std::vector<Result<exec::ScanResult>> ExecuteBatch(
    const store::TableSnapshot& snapshot,
    const std::vector<const exec::ScanSpec*>& specs, const ExecContext& ctx,
    SelectionVectorCache* selection_cache, DecodedChunkCache* decoded_cache,
    BatchStats* stats, bool subsume_predicates) {
  // Without a caller-retained cache, compute-once still holds within the
  // batch via a batch-local one, gone with the batch.
  SelectionVectorCache local_selections(0);
  DecodedChunkCache local_chunks(0);
  SelectionVectorCache* selections =
      selection_cache != nullptr ? selection_cache : &local_selections;
  DecodedChunkCache* chunks =
      decoded_cache != nullptr ? decoded_cache : &local_chunks;

  SharedScanPipeline pipeline(snapshot, specs, selections,
                              selection_cache != nullptr, chunks,
                              subsume_predicates);
  std::vector<Result<exec::ScanResult>> results(
      specs.size(),
      Result<exec::ScanResult>(Status::InvalidArgument("query not executed")));
  ParallelFor(ctx, specs.size(), [&](uint64_t q) {
    // Each query's driver runs sequentially inside its own task: nesting a
    // fan-out on the shared pool would deadlock a saturated fixed-size pool,
    // and cross-query parallelism already covers the batch.
    results[q] = exec::ScanWithPipeline(snapshot, *specs[q], ExecContext{},
                                        pipeline);
  });

  BatchStats batch;
  batch.queries = specs.size();
  batch.chunks_decoded = pipeline.decodes();
  batch.chunk_evaluations = pipeline.chunk_evaluations();
  batch.selection_cache_hits = pipeline.selection_hits();
  batch.subsumed_evaluations = pipeline.subsumed_evaluations();
  batch.subsumption_values_examined = pipeline.subsumption_values_examined();
  const obs::ServiceMetrics& metrics = obs::ServiceMetrics::Get();
  metrics.chunk_evaluations->Add(batch.chunk_evaluations);
  metrics.subsumed_evaluations->Add(batch.subsumed_evaluations);
  metrics.subsumption_values_examined->Add(batch.subsumption_values_examined);
  if (stats != nullptr) *stats = batch;
  return results;
}

}  // namespace recomp::service
