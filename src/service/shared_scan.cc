#include "service/shared_scan.h"

#include <algorithm>
#include <utility>

#include "core/fused.h"
#include "obs/service_metrics.h"

namespace recomp::service {

namespace {

/// The shared per-chunk execution: one pipeline instance serves every query
/// of a batch concurrently. SelectChunk answers from the selection cache
/// when it can, re-filters a containing band's cached selection when the
/// batch's containment lattice offers one, and only otherwise scans the
/// shared decoded buffer; GatherRows reads the shared buffers directly. All
/// counters are atomics — pool workers running different queries call in
/// simultaneously.
class SharedScanPipeline final : public exec::ChunkPipeline {
 public:
  SharedScanPipeline(const store::TableSnapshot& snapshot,
                     const std::vector<const exec::ScanSpec*>& specs,
                     SelectionVectorCache* selection_cache,
                     DecodedChunkCache* decoded_cache, bool subsume_predicates)
      : version_(snapshot.version()),
        selection_cache_(selection_cache),
        decoded_cache_(decoded_cache),
        subsume_(subsume_predicates) {
    columns_.reserve(snapshot.num_columns());
    for (uint64_t i = 0; i < snapshot.num_columns(); ++i) {
      columns_.push_back(&snapshot.column(i).chunked());
    }
    if (subsume_) BuildLattice(snapshot, specs);
  }

  Result<exec::SelectionResult> SelectChunk(
      uint64_t column, uint64_t chunk,
      const exec::RangePredicate& predicate) override {
    chunk_evaluations_.fetch_add(1, std::memory_order_relaxed);
    RECOMP_ASSIGN_OR_RETURN(const std::shared_ptr<const CachedSelection> entry,
                            EvalBand(column, chunk, predicate));
    return entry->selection;
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

  /// Evaluates one band over one chunk, preferring (in order) the
  /// cross-batch selection cache, the batch-local memo, a containing band's
  /// selection (recursively), and only last a scan of the shared decoded
  /// buffer. Returns the positions *and* the matched values so callers one
  /// tier down can do the same.
  Result<std::shared_ptr<const CachedSelection>> EvalBand(
      uint64_t column, uint64_t chunk, const exec::RangePredicate& pred) {
    const SelectionKey key{column, chunk, pred.lo, pred.hi};
    if (selection_cache_ != nullptr) {
      CachedSelection cached;
      if (selection_cache_->Lookup(version_, key, &cached)) {
        selection_hits_.fetch_add(1, std::memory_order_relaxed);
        return std::make_shared<const CachedSelection>(std::move(cached));
      }
    }
    if (subsume_) {
      MutexLock lock(&memo_mu_);
      const auto it = memo_.find(key);
      if (it != memo_.end()) return it->second;
    }
    std::shared_ptr<CachedSelection> entry = std::make_shared<CachedSelection>();
    entry->selection.stats.strategy = exec::Strategy::kDecompressScan;
    const exec::RangePredicate* parent =
        subsume_ ? FindParent(column, pred) : nullptr;
    if (parent != nullptr) {
      RECOMP_ASSIGN_OR_RETURN(
          const std::shared_ptr<const CachedSelection> base,
          EvalBand(column, chunk, *parent));
      subsumed_.fetch_add(1, std::memory_order_relaxed);
      values_examined_.fetch_add(base->values.size(),
                                 std::memory_order_relaxed);
      exec::ForEachMatch(base->values, pred, [&](uint64_t i, uint64_t v) {
        entry->selection.positions.push_back(base->selection.positions[i]);
        entry->values.push_back(v);
      });
    } else {
      RECOMP_ASSIGN_OR_RETURN(const std::shared_ptr<const AnyColumn> values,
                              Decoded(column, chunk));
      entry->selection.stats.values_decoded = values->size();
      values->VisitPlain([&](const auto& col) {
        exec::ForEachMatch(col, pred, [&](uint64_t i, uint64_t v) {
          entry->selection.positions.push_back(static_cast<uint32_t>(i));
          entry->values.push_back(v);
        });
      });
    }
    if (selection_cache_ != nullptr) {
      selection_cache_->Insert(version_, key, *entry);
    }
    if (subsume_) {
      MutexLock lock(&memo_mu_);
      memo_.emplace(key, entry);  // First computation wins; dups are equal.
    }
    return std::shared_ptr<const CachedSelection>(std::move(entry));
  }

  Result<std::shared_ptr<const AnyColumn>> Decoded(uint64_t column,
                                                   uint64_t chunk) {
    return decoded_cache_->GetOrDecode(
        version_, column, chunk, columns_[column]->chunk(chunk).column);
  }

  const uint64_t version_;
  std::vector<const ChunkedCompressedColumn*> columns_;
  SelectionVectorCache* const selection_cache_;
  DecodedChunkCache* const decoded_cache_;
  const bool subsume_;
  /// Read-only after construction: band → narrowest strict container.
  std::unordered_map<BandKey, exec::RangePredicate, BandKeyHash> parents_;
  /// Batch-local memo so a band evaluates once per chunk even with the
  /// selection cache disabled (and so parent selections stay shared).
  Mutex memo_mu_;
  std::unordered_map<SelectionKey, std::shared_ptr<const CachedSelection>,
                     SelectionKeyHash>
      memo_ RECOMP_GUARDED_BY(memo_mu_);
  std::atomic<uint64_t> chunk_evaluations_{0};
  std::atomic<uint64_t> selection_hits_{0};
  std::atomic<uint64_t> subsumed_{0};
  std::atomic<uint64_t> values_examined_{0};
};

}  // namespace

void DecodedChunkCache::PurgeIfStaleLocked(uint64_t version) {
  if (version <= version_) return;
  cells_.clear();
  fifo_.clear();
  settled_bytes_.clear();
  bytes_ = 0;
  version_ = version;
}

Result<std::shared_ptr<const AnyColumn>> DecodedChunkCache::GetOrDecode(
    uint64_t version, uint64_t column, uint64_t chunk,
    const CompressedColumn& compressed) {
  std::shared_ptr<Cell> cell;
  bool decoder = false;
  {
    MutexLock lock(&mu_);
    PurgeIfStaleLocked(version);
    if (version == version_) {
      const uint64_t key = Key(column, chunk);
      const auto it = cells_.find(key);
      if (it != cells_.end()) {
        cell = it->second;
      } else {
        cell = std::make_shared<Cell>();
        cells_.emplace(key, cell);
        fifo_.push_back(key);
        decoder = true;
      }
    }
  }
  if (cell == nullptr) {
    // A version older than the cache's (a straggling batch): decode without
    // caching — stale data must never enter the map.
    decodes_.fetch_add(1, std::memory_order_relaxed);
    obs::ServiceMetrics::Get().chunks_decoded->Increment();
    RECOMP_ASSIGN_OR_RETURN(AnyColumn decoded, FusedDecompress(compressed));
    return std::make_shared<const AnyColumn>(std::move(decoded));
  }
  if (decoder) {
    decodes_.fetch_add(1, std::memory_order_relaxed);
    obs::ServiceMetrics::Get().chunks_decoded->Increment();
    Result<AnyColumn> decoded = FusedDecompress(compressed);
    uint64_t added_bytes = 0;
    {
      MutexLock lock(&cell->mu);
      if (decoded.ok()) {
        cell->values = std::make_shared<const AnyColumn>(
            std::move(decoded).ValueUnsafe());
        added_bytes = cell->values->ByteSize();
      } else {
        cell->status = std::move(decoded).status();
      }
      cell->done = true;
    }
    cell->cv.NotifyAll();
    {
      // Settle the accounting only if this cell is still the mapped one: a
      // version purge may have dropped it while we decoded, and charging a
      // dropped cell's bytes would leak them forever (nothing could ever
      // evict them back out). A failed decode settles at 0 bytes so the
      // dead cell stays evictable.
      MutexLock lock(&mu_);
      const auto it = cells_.find(Key(column, chunk));
      if (it != cells_.end() && it->second == cell) {
        settled_bytes_[Key(column, chunk)] = added_bytes;
        bytes_ += added_bytes;
      }
    }
  } else {
    MutexLock lock(&cell->mu);
    while (!cell->done) cell->cv.Wait(lock);
  }
  MutexLock lock(&cell->mu);
  if (!cell->status.ok()) return cell->status;
  return cell->values;
}

void DecodedChunkCache::EvictToBudget() {
  MutexLock lock(&mu_);
  // An unsettled key is a decode still in flight: evicting it would strand
  // its eventual bytes with no owner (the decoder would charge a cell no
  // longer in the map — or, with the identity check, never charge it, and
  // waiters would re-decode a chunk we just paid for). Skip it; it keeps
  // its place in eviction order for the next pass.
  std::vector<uint64_t> in_flight;
  while (bytes_ > max_bytes_ && !fifo_.empty()) {
    const uint64_t key = fifo_.front();
    fifo_.pop_front();
    const auto it = cells_.find(key);
    if (it == cells_.end()) continue;
    const auto settled = settled_bytes_.find(key);
    if (settled == settled_bytes_.end()) {
      in_flight.push_back(key);
      continue;
    }
    bytes_ -= std::min(bytes_, settled->second);
    settled_bytes_.erase(settled);
    cells_.erase(it);
  }
  // Back at the front: a skipped cell keeps its oldest-first priority.
  fifo_.insert(fifo_.begin(), in_flight.begin(), in_flight.end());
}

uint64_t DecodedChunkCache::size() const {
  MutexLock lock(&mu_);
  return cells_.size();
}

uint64_t DecodedChunkCache::bytes() const {
  MutexLock lock(&mu_);
  return bytes_;
}

std::vector<Result<exec::ScanResult>> ExecuteBatch(
    const store::TableSnapshot& snapshot,
    const std::vector<const exec::ScanSpec*>& specs, const ExecContext& ctx,
    SelectionVectorCache* selection_cache, DecodedChunkCache* decoded_cache,
    BatchStats* stats, bool subsume_predicates) {
  // Without a caller-retained working set, decode-once still holds within
  // the batch via a batch-local cache.
  DecodedChunkCache local_cache(0);
  DecodedChunkCache* cache =
      decoded_cache != nullptr ? decoded_cache : &local_cache;
  const uint64_t decodes_before = cache->decodes();

  SharedScanPipeline pipeline(snapshot, specs, selection_cache, cache,
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
  batch.chunks_decoded = cache->decodes() - decodes_before;
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
