#include "store/appendable_column.h"

#include <algorithm>
#include <utility>

#include "core/serialize.h"
#include "obs/metrics.h"
#include "schemes/scheme_internal.h"
#include "util/string_util.h"

namespace recomp::store {

namespace {

/// Seal-path metrics, resolved once. The backlog gauge counts slots still
/// serving their stored-plain form: +1 when a tail rolls, -1 when either a
/// seal job or a recompression seals the slot.
struct StoreMetrics {
  obs::Histogram* seal_ns;
  obs::Counter* seal_completed;
  obs::Counter* seal_cas_lost;
  obs::Counter* seal_failed;
  obs::Gauge* stored_plain_backlog;

  static const StoreMetrics& Get() {
    static const StoreMetrics metrics = [] {
      StoreMetrics m;
      obs::Registry& registry = obs::Registry::Get();
      m.seal_ns = &registry.GetHistogram("store.seal_ns");
      m.seal_completed = &registry.GetCounter("store.seal.completed");
      m.seal_cas_lost = &registry.GetCounter("store.seal.cas_lost");
      m.seal_failed = &registry.GetCounter("store.seal.failed");
      m.stored_plain_backlog =
          &registry.GetGauge("store.stored_plain_backlog");
      return m;
    }();
    return metrics;
  }
};

Result<AnyColumn> EmptyColumnOfType(TypeId type) {
  return internal::DispatchAnyTypeId(type, [](auto tag) -> Result<AnyColumn> {
    using T = typename decltype(tag)::type;
    return AnyColumn(Column<T>{});
  });
}

/// Wraps plain rows as a stored-plain ID envelope without copying them:
/// exactly the node Compress(rows, Id()) builds (IdScheme stores the input
/// as the terminal "data" part; CompressNode records scheme/n/out_type),
/// minus that path's copy of the rows.
CompressedColumn WrapPlainAsId(AnyColumn rows) {
  CompressedNode node;
  node.scheme = SchemeDescriptor(SchemeKind::kId);
  node.n = rows.size();
  node.out_type = rows.type();
  CompressedPart part;
  part.column = std::move(rows);
  node.parts.emplace("data", std::move(part));
  return CompressedColumn(std::move(node));
}

}  // namespace

AppendableColumn::AppendableColumn(TypeId type, IngestOptions options,
                                   ExecContext ctx)
    : type_(type), options_(std::move(options)), ctx_(ctx) {
  if (options_.chunk_rows == 0) {
    seal_status_ = Status::InvalidArgument("chunk_rows must be positive");
    return;
  }
  if (options_.descriptor.has_value()) {
    const Status valid = options_.descriptor->Validate();
    if (!valid.ok()) {
      seal_status_ = valid;
      return;
    }
  } else if (!TypeIdIsUnsigned(type)) {
    // The analyzer only searches over unsigned data, so without a pinned
    // descriptor every seal job would fail later, async. Fail here instead;
    // signed columns work with an explicit composition (e.g. ZIGZAG).
    seal_status_ = Status::InvalidArgument(
        StringFormat("%s columns need an explicit descriptor (the analyzer "
                     "handles unsigned data only); pin one, e.g. ZIGZAG",
                     TypeIdName(type)));
    return;
  }
  auto tail = EmptyColumnOfType(type);
  if (tail.ok()) {
    tail_ = std::move(*tail);
  } else {
    seal_status_ = tail.status();
  }
}

AppendableColumn::~AppendableColumn() = default;  // TaskGroup waits.

uint64_t AppendableColumn::size() const {
  MutexLock lock(&mu_);
  return tail_begin_ + tail_.size();
}

uint64_t AppendableColumn::num_chunks() const {
  MutexLock lock(&mu_);
  return slots_.size();
}

uint64_t AppendableColumn::sealed_chunks() const {
  MutexLock lock(&mu_);
  return sealed_count_;
}

uint64_t AppendableColumn::pending_seals() const {
  return seal_jobs_.pending();
}

Status AppendableColumn::status() const {
  MutexLock lock(&mu_);
  return SlotAwareStatusLocked();
}

Status AppendableColumn::Append(uint64_t value) {
  // The per-row path stays allocation-free: one dispatch, one locked push.
  std::vector<SealJob> jobs;
  Status status =
      internal::DispatchUnsignedTypeId(type_, [&](auto tag) -> Status {
        using T = typename decltype(tag)::type;
        if (static_cast<uint64_t>(static_cast<T>(value)) != value) {
          return Status::InvalidArgument(
              StringFormat("value %llu does not fit a %s column",
                           static_cast<unsigned long long>(value),
                           TypeIdName(type_)));
        }
        MutexLock lock(&mu_);
        RECOMP_RETURN_NOT_OK(SlotAwareStatusLocked());
        tail_.As<T>().push_back(static_cast<T>(value));
        if (tail_.size() == options_.chunk_rows) {
          RECOMP_RETURN_NOT_OK(RollTailLocked(&jobs));
        }
        return Status::OK();
      });
  ScheduleSealJobs(std::move(jobs));
  return status;
}

Status AppendableColumn::AppendBatch(const AnyColumn& rows) {
  if (rows.is_packed()) {
    return Status::InvalidArgument("appends require a plain column");
  }
  if (rows.type() != type_) {
    return Status::InvalidArgument(
        StringFormat("append type %s differs from column type %s",
                     TypeIdName(rows.type()), TypeIdName(type_)));
  }
  std::vector<SealJob> jobs;
  Status status =
      internal::DispatchAnyTypeId(type_, [&](auto tag) -> Status {
        using T = typename decltype(tag)::type;
        const Column<T>& src = rows.As<T>();
        MutexLock lock(&mu_);
        RECOMP_RETURN_NOT_OK(SlotAwareStatusLocked());
        uint64_t i = 0;
        while (i < src.size()) {
          // Re-fetched each round: RollTailLocked replaces tail_.
          Column<T>& tail = tail_.As<T>();
          const uint64_t take = std::min<uint64_t>(
              options_.chunk_rows - tail.size(), src.size() - i);
          tail.insert(tail.end(), src.begin() + i, src.begin() + i + take);
          i += take;
          if (tail.size() == options_.chunk_rows) {
            RECOMP_RETURN_NOT_OK(RollTailLocked(&jobs));
          }
        }
        return Status::OK();
      });
  // Chunks rolled before a failure are still valid: always schedule.
  ScheduleSealJobs(std::move(jobs));
  return status;
}

Status AppendableColumn::Seal() {
  std::vector<SealJob> jobs;
  Status status;
  {
    MutexLock lock(&mu_);
    RECOMP_RETURN_NOT_OK(SlotAwareStatusLocked());
    if (tail_.size() > 0) status = RollTailLocked(&jobs);
  }
  ScheduleSealJobs(std::move(jobs));
  return status;
}

void AppendableColumn::WaitForSeals() { seal_jobs_.Wait(); }

Status AppendableColumn::Flush() {
  // Wait even when Seal() reports the sticky failure: Flush must always
  // leave the column quiescent (no job still mutating slots_).
  const Status sealed = Seal();
  WaitForSeals();
  RECOMP_RETURN_NOT_OK(sealed);
  MutexLock lock(&mu_);
  return SlotAwareStatusLocked();
}

Result<ColumnSnapshot> AppendableColumn::Snapshot() const {
  ColumnSnapshot snap;
  AnyColumn tail_copy;
  uint64_t tail_begin = 0;
  bool with_tail_chunk = false;
  {
    // The critical section is the row copy alone; the tail's zone map and
    // ID envelope are built after unlocking so appenders never wait behind
    // a reader's O(chunk_rows) work.
    MutexLock lock(&mu_);
    RECOMP_RETURN_NOT_OK(SlotAwareStatusLocked());
    for (uint64_t i = 0; i < slots_.size(); ++i) {
      RECOMP_RETURN_NOT_OK(snap.view_.AppendChunk(slots_[i]));
      // The access statistic the recompression policy reads: how many
      // snapshots included this chunk.
      ++slot_states_[i].access_count;
    }
    snap.sealed_ = sealed_count_;
    snap.unsealed_ = slots_.size() - sealed_count_;
    // A nonempty tail becomes one stored-plain chunk; an empty column
    // yields one empty chunk so the view is well-typed (CompressChunked's
    // convention).
    with_tail_chunk = tail_.size() > 0 || slots_.empty();
    if (with_tail_chunk) {
      tail_copy = tail_;
      tail_begin = tail_begin_;
    }
  }
  if (with_tail_chunk) {
    const ZoneMap zone = ComputeZoneMap(tail_copy, tail_begin);
    RECOMP_RETURN_NOT_OK(snap.view_.AppendChunk(
        CompressedChunk{zone, WrapPlainAsId(std::move(tail_copy))}));
    if (zone.row_count > 0) ++snap.unsealed_;
  }
  return snap;
}

Result<std::vector<uint8_t>> AppendableColumn::Serialize() {
  RECOMP_RETURN_NOT_OK(Flush());
  RECOMP_ASSIGN_OR_RETURN(ColumnSnapshot snap, Snapshot());
  return recomp::Serialize(snap.chunked());
}

Status AppendableColumn::RollTailLocked(std::vector<SealJob>* jobs) {
  SealJob job;
  job.slot = slots_.size();
  const ZoneMap zone = ComputeZoneMap(tail_, tail_begin_);
  // Until the seal job lands, the chunk is served as a stored-plain ID
  // envelope — same rows, zero decode work, real zone map. The tail moves
  // into the envelope; the job compresses from that shared immutable copy.
  AnyColumn rows = std::move(tail_);
  RECOMP_ASSIGN_OR_RETURN(tail_, EmptyColumnOfType(type_));
  job.source = std::make_shared<const CompressedChunk>(
      CompressedChunk{zone, WrapPlainAsId(std::move(rows))});
  tail_begin_ += zone.row_count;
  slots_.push_back(job.source);
  slot_states_.emplace_back();
  StoreMetrics::Get().stored_plain_backlog->Add(1);
  jobs->push_back(std::move(job));
  return Status::OK();
}

AppendableColumn::ChunkInfo AppendableColumn::InfoLocked(uint64_t slot) const {
  const SlotState& state = slot_states_[slot];
  ChunkInfo info;
  info.slot = slot;
  info.chunk = slots_[slot];
  info.sealed = state.sealed;
  info.recompress_pending = state.recompress_pending;
  info.age_chunks = slots_.size() - slot - 1;
  info.snapshot_accesses = state.access_count;
  info.recompress_count = state.recompress_count;
  info.judged_under = state.judged_under;
  return info;
}

std::vector<AppendableColumn::ChunkInfo> AppendableColumn::ChunkInfos() const {
  std::vector<ChunkInfo> infos;
  MutexLock lock(&mu_);
  infos.reserve(slots_.size());
  for (uint64_t i = 0; i < slots_.size(); ++i) infos.push_back(InfoLocked(i));
  return infos;
}

std::optional<AppendableColumn::ChunkInfo>
AppendableColumn::TryBeginRecompress(uint64_t slot) {
  MutexLock lock(&mu_);
  if (slot >= slots_.size() || slot_states_[slot].recompress_pending) {
    return std::nullopt;
  }
  slot_states_[slot].recompress_pending = true;
  return InfoLocked(slot);
}

bool AppendableColumn::CompleteRecompress(
    uint64_t slot, const std::shared_ptr<const CompressedChunk>& expected,
    CompressedChunk replacement,
    const std::optional<AnalyzerOptions>& judged_under) {
  // Built outside the lock: the swap itself is O(1) pointer work.
  auto chunk =
      std::make_shared<const CompressedChunk>(std::move(replacement));
  MutexLock lock(&mu_);
  SlotState& state = slot_states_[slot];
  state.recompress_pending = false;
  bool swapped = false;
  if (slots_[slot] == expected) {
    slots_[slot] = std::move(chunk);
    if (!state.sealed) {
      // A stored-plain backlog chunk just got its compression: it is sealed
      // from here on (its late seal job, if any, will observe the pointer
      // changed and drop its result).
      state.sealed = true;
      ++sealed_count_;
      StoreMetrics::Get().stored_plain_backlog->Subtract(1);
    }
    state.judged_under = judged_under;
    ++state.recompress_count;
    swapped = true;
  }
  // Else: the original seal job landed between the claim and here; its
  // result is as correct as ours, so first-lander wins and we drop this
  // one. Either way the slot is sealed now: a seal failure parked on it is
  // healed, and the column-wide mirror is recomputed from what remains.
  if (!state.seal_failure.ok()) {
    state.seal_failure = Status::OK();
    slot_failure_status_ = Status::OK();
    for (const SlotState& other : slot_states_) {
      if (!other.seal_failure.ok()) {
        slot_failure_status_ = other.seal_failure;
        break;
      }
    }
  }
  return swapped;
}

void AppendableColumn::AbortRecompress(
    uint64_t slot, const std::optional<AnalyzerOptions>& judged_under) {
  MutexLock lock(&mu_);
  // Any parked seal failure stays parked (the slot is still unsealed and
  // slot_failure_status_ already surfaces it); only the claim is released.
  slot_states_[slot].recompress_pending = false;
  if (judged_under.has_value()) slot_states_[slot].judged_under = judged_under;
}

void AppendableColumn::ScheduleSealJobs(std::vector<SealJob> jobs) {
  for (SealJob& job : jobs) {
    seal_jobs_.Run(ctx_, [this, job = std::move(job)]() {
      const StoreMetrics& metrics = StoreMetrics::Get();
      const uint64_t start_ns = obs::MonotonicNanos();
      // The expensive part — scheme search + compression — runs without the
      // lock; only the slot swap takes it.
      Result<CompressedChunk> compressed =
          SealChunk(*StoredPlainData(job.source->column.root()),
                    job.source->zone, options_.descriptor, options_.analyzer);
      metrics.seal_ns->Record(obs::MonotonicNanos() - start_ns);
      MutexLock lock(&mu_);
      SlotState& state = slot_states_[job.slot];
      if (compressed.ok()) {
        if (slots_[job.slot] == job.source) {
          slots_[job.slot] =
              std::make_shared<const CompressedChunk>(std::move(*compressed));
          state.sealed = true;
          // A pinned seal is no analyzer's judgement: a policy that may
          // override the pin still prices the chunk.
          if (!options_.descriptor.has_value()) {
            state.judged_under = options_.analyzer;
          }
          ++sealed_count_;
          metrics.stored_plain_backlog->Subtract(1);
          metrics.seal_completed->Increment();
        } else {
          // A recompression drained this slot while the job was queued or
          // running; the slot is already sealed with an equivalent (or
          // better) envelope, so the late result is dropped.
          metrics.seal_cas_lost->Increment();
        }
      } else {
        metrics.seal_failed->Increment();
        if (!state.sealed) {
          // The slot keeps serving the stored-plain form (still correct);
          // the failure surfaces on the next append/seal/snapshot — parked
          // per slot so a recompression that later seals this chunk heals
          // the column instead of leaving it poisoned forever.
          state.seal_failure = compressed.status();
          if (slot_failure_status_.ok()) {
            slot_failure_status_ = compressed.status();
          }
        }
        // Else: a recompression already sealed the slot; the stale failure
        // is moot.
      }
    });
  }
}

}  // namespace recomp::store
