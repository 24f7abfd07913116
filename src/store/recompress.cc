#include "store/recompress.h"

#include <optional>
#include <utility>

#include "core/chunked.h"
#include "core/fused.h"
#include "obs/metrics.h"
#include "util/string_util.h"

namespace recomp::store {

Status RecompressionPolicy::Validate() const {
  if (min_gain < 1.0) {
    return Status::InvalidArgument(
        "RecompressionPolicy::min_gain must be >= 1.0 (a swap must not "
        "grow the chunk)");
  }
  return Status::OK();
}

void RecompressionReport::MergeFrom(const RecompressionReport& other) {
  chunks_examined += other.chunks_examined;
  chunks_scheduled += other.chunks_scheduled;
  chunks_reswapped += other.chunks_reswapped;
  stored_plain_drained += other.stored_plain_drained;
  chunks_kept += other.chunks_kept;
  chunks_failed += other.chunks_failed;
  bytes_before += other.bytes_before;
  bytes_after += other.bytes_after;
  swaps.insert(swaps.end(), other.swaps.begin(), other.swaps.end());
}

std::string RecompressionReport::ToString() const {
  std::string out = StringFormat(
      "recompression: examined=%llu scheduled=%llu reswapped=%llu "
      "(backlog=%llu) kept=%llu failed=%llu, %s -> %s (saved %s)\n",
      static_cast<unsigned long long>(chunks_examined),
      static_cast<unsigned long long>(chunks_scheduled),
      static_cast<unsigned long long>(chunks_reswapped),
      static_cast<unsigned long long>(stored_plain_drained),
      static_cast<unsigned long long>(chunks_kept),
      static_cast<unsigned long long>(chunks_failed),
      HumanBytes(bytes_before).c_str(), HumanBytes(bytes_after).c_str(),
      HumanBytes(BytesSaved()).c_str());
  for (const ChunkRecompression& swap : swaps) {
    out += StringFormat(
        "  %s[%llu]%s: %s (%s) -> %s (%s)\n",
        swap.column.empty() ? "chunk" : swap.column.c_str(),
        static_cast<unsigned long long>(swap.slot),
        swap.was_stored_plain ? " backlog" : "",
        swap.scheme_before.c_str(), HumanBytes(swap.bytes_before).c_str(),
        swap.scheme_after.c_str(), HumanBytes(swap.bytes_after).c_str());
  }
  return out;
}

namespace {

/// What one scheduled job resolved to; folded into the report in schedule
/// order so the report is deterministic for any thread count.
struct JobOutcome {
  enum class Kind { kSwapped, kKept, kFailed } kind = Kind::kKept;
  ChunkRecompression swap;  ///< Filled for kSwapped.
};

/// Recompression-job metrics, resolved once. cas_lost counts jobs whose
/// replacement was ready but whose slot changed under them (the original
/// seal job landed first); kept counts chunks priced and left alone.
struct RecompressMetrics {
  obs::Histogram* job_ns;
  obs::Counter* swapped;
  obs::Counter* kept;
  obs::Counter* failed;
  obs::Counter* cas_lost;
  obs::Counter* bytes_saved;

  static const RecompressMetrics& Get() {
    static const RecompressMetrics metrics = [] {
      RecompressMetrics m;
      obs::Registry& registry = obs::Registry::Get();
      m.job_ns = &registry.GetHistogram("store.recompress_ns");
      m.swapped = &registry.GetCounter("store.recompress.swapped");
      m.kept = &registry.GetCounter("store.recompress.kept");
      m.failed = &registry.GetCounter("store.recompress.failed");
      m.cas_lost = &registry.GetCounter("store.recompress.cas_lost");
      m.bytes_saved = &registry.GetCounter("store.recompress.bytes_saved");
      return m;
    }();
    return metrics;
  }
};

/// Whether `info` is worth a job under `policy`: a backlog chunk whenever
/// something can compress it, a sealed chunk when the policy may revisit it
/// and it is not yet judged under the policy's analyzer options.
bool Wanted(const AppendableColumn::ChunkInfo& info,
            const AppendableColumn& column, const RecompressionPolicy& policy) {
  if (info.age_chunks < policy.min_age_chunks) return false;
  const bool pinned = column.options().descriptor.has_value();
  const bool analyzable = TypeIdIsUnsigned(column.type());
  if (!info.sealed) return pinned || analyzable;
  return analyzable && (!pinned || policy.recompress_pinned) &&
         info.judged_under != policy.analyzer;
}

/// One recompression attempt over an already-claimed slot. Runs entirely
/// without the column lock: rows come from the claimed (immutable) chunk,
/// the swap at the end is the only locked step.
JobOutcome RecompressOne(AppendableColumn& column,
                         const AppendableColumn::ChunkInfo& claim,
                         const RecompressionPolicy& policy,
                         const std::string& column_name) {
  const RecompressMetrics& metrics = RecompressMetrics::Get();
  const uint64_t start_ns = obs::MonotonicNanos();

  // The fresh choice: a pinned backlog chunk finishes its seal job's work
  // with the pinned descriptor — unless the policy may override pins
  // (recompress_pinned, with analyzable data), which is also how a column
  // whose pin cannot represent its rows (a failed seal job) gets healed.
  // Everything else re-runs the analyzer under the policy's constraints,
  // and that attempt judges the slot whatever it concludes (swap, keep or
  // failure): rows never change, so the same search concludes the same.
  std::optional<SchemeDescriptor> pin;
  if (!claim.sealed &&
      !(policy.recompress_pinned && TypeIdIsUnsigned(column.type()))) {
    pin = column.options().descriptor;
  }
  std::optional<AnalyzerOptions> judged;
  if (!pin.has_value()) judged = policy.analyzer;

  JobOutcome outcome;
  // Ends the attempt without a swap (a failure, or a chunk kept).
  const auto release = [&](JobOutcome::Kind kind, obs::Counter* counter) {
    column.AbortRecompress(claim.slot, judged);
    outcome.kind = kind;
    counter->Increment();
    metrics.job_ns->Record(obs::MonotonicNanos() - start_ns);
    return outcome;
  };
  const auto fail = [&] {
    return release(JobOutcome::Kind::kFailed, metrics.failed);
  };

  // The rows this chunk decodes to. Stored-plain envelopes are read in
  // place; everything else decompresses (one chunk's worth of work, on a
  // maintenance thread).
  const CompressedColumn& current = claim.chunk->column;
  Result<AnyColumn> decompressed = AnyColumn();
  const AnyColumn* rows = StoredPlainData(current.root());
  if (rows == nullptr) {
    decompressed = FusedDecompress(current);
    if (!decompressed.ok()) return fail();
    rows = &*decompressed;
  }

  // The zone map is re-derived from the rows, not trusted from the old
  // envelope.
  Result<CompressedChunk> next =
      SealChunk(*rows, ComputeZoneMap(*rows, claim.chunk->zone.row_begin),
                pin, policy.analyzer);
  if (!next.ok()) return fail();

  const uint64_t bytes_before = current.PayloadBytes();
  const uint64_t bytes_after = next->column.PayloadBytes();
  // Backlog chunks are always taken (sealing them is the point, and their
  // stored-plain footprint is the thing being drained); sealed chunks must
  // beat the gain threshold to be worth the churn.
  const bool take =
      !claim.sealed || static_cast<double>(bytes_before) >
                           static_cast<double>(bytes_after) * policy.min_gain;
  if (!take) {
    // Judged even when the fresh choice is smaller by less than min_gain:
    // a budgeted tick then moves past the slot instead of re-pricing it
    // ahead of every other candidate.
    return release(JobOutcome::Kind::kKept, metrics.kept);
  }

  outcome.swap.column = column_name;
  outcome.swap.slot = claim.slot;
  outcome.swap.was_stored_plain = !claim.sealed;
  outcome.swap.scheme_before = current.Descriptor().ToString();
  outcome.swap.scheme_after = next->column.Descriptor().ToString();
  outcome.swap.bytes_before = bytes_before;
  outcome.swap.bytes_after = bytes_after;

  const bool swapped = column.CompleteRecompress(claim.slot, claim.chunk,
                                                 std::move(*next), judged);
  outcome.kind =
      swapped ? JobOutcome::Kind::kSwapped : JobOutcome::Kind::kKept;
  if (swapped) {
    metrics.swapped->Increment();
    if (bytes_before > bytes_after) {
      metrics.bytes_saved->Add(bytes_before - bytes_after);
    }
  } else {
    metrics.cas_lost->Increment();
  }
  metrics.job_ns->Record(obs::MonotonicNanos() - start_ns);
  return outcome;
}

}  // namespace

Recompressor::Recompressor(RecompressionPolicy policy, ExecContext ctx)
    : policy_(std::move(policy)), ctx_(ctx) {}

Result<RecompressionReport> Recompressor::Tick(
    const NamedColumns& columns) const {
  RECOMP_RETURN_NOT_OK(policy_.Validate());

  // Every column's claims first, then one group runs them all: a pass over
  // a table waits once, not once per column.
  struct Job {
    AppendableColumn* column;
    const std::string* name;
    AppendableColumn::ChunkInfo claim;
    JobOutcome outcome;
  };
  RecompressionReport report;
  std::vector<Job> jobs;
  for (const auto& [name, column] : columns) {
    const std::vector<AppendableColumn::ChunkInfo> infos =
        column->ChunkInfos();
    report.chunks_examined += infos.size();
    // Candidate order: the stored-plain backlog first (slot order — those
    // chunks pay full-width storage today), then sealed chunks. Judged
    // chunks drop out, so a budgeted tick reaches the rest in turn.
    std::vector<uint64_t> candidates;
    for (const bool sealed : {false, true}) {
      for (const auto& info : infos) {
        if (info.sealed == sealed && !info.recompress_pending &&
            Wanted(info, *column, policy_)) {
          candidates.push_back(info.slot);
        }
      }
    }
    if (candidates.size() > policy_.max_chunks_per_tick) {
      candidates.resize(policy_.max_chunks_per_tick);
    }
    for (const uint64_t slot : candidates) {
      std::optional<AppendableColumn::ChunkInfo> claim =
          column->TryBeginRecompress(slot);
      if (!claim.has_value()) continue;  // Raced with another recompressor.
      if (!Wanted(*claim, *column, policy_)) {
        // A backlog candidate whose seal job landed since selection, and
        // which this policy does not revisit now: release the claim.
        column->AbortRecompress(slot);
        continue;
      }
      jobs.push_back({column, &name, std::move(*claim), {}});
    }
  }
  report.chunks_scheduled = jobs.size();

  // Jobs run at low priority so a shared pool serves live seal jobs and
  // scan fan-out first; each outcome lands in its own job and is folded
  // below in schedule order (deterministic report).
  TaskGroup group;
  for (Job& job : jobs) {
    group.Run(
        ctx_,
        [this, &job] {
          job.outcome =
              RecompressOne(*job.column, job.claim, policy_, *job.name);
        },
        TaskPriority::kLow);
  }
  group.Wait();

  for (Job& job : jobs) {
    JobOutcome& outcome = job.outcome;
    switch (outcome.kind) {
      case JobOutcome::Kind::kSwapped:
        ++report.chunks_reswapped;
        if (outcome.swap.was_stored_plain) ++report.stored_plain_drained;
        report.bytes_before += outcome.swap.bytes_before;
        report.bytes_after += outcome.swap.bytes_after;
        report.swaps.push_back(std::move(outcome.swap));
        break;
      case JobOutcome::Kind::kKept:
        ++report.chunks_kept;
        break;
      case JobOutcome::Kind::kFailed:
        ++report.chunks_failed;
        break;
    }
  }
  return report;
}

Result<RecompressionReport> Recompressor::RecompressAll(
    const NamedColumns& columns) const {
  // The per-tick budget is a maintenance-bandwidth knob; draining ignores
  // it.
  RecompressionPolicy drain = policy_;
  drain.max_chunks_per_tick = ~uint64_t{0};
  const Recompressor unbudgeted(std::move(drain), ctx_);

  RecompressionReport total;
  // Each productive pass strictly shrinks the reswapped chunks (min_gain >=
  // 1 and backlog chunks seal exactly once), so this terminates; the cap is
  // a safety net, not a tuning knob.
  for (int pass = 0; pass < 1000; ++pass) {
    RECOMP_ASSIGN_OR_RETURN(RecompressionReport report,
                            unbudgeted.Tick(columns));
    const bool progress = report.chunks_reswapped > 0;
    total.MergeFrom(report);
    if (!progress) break;
  }
  return total;
}

}  // namespace recomp::store
