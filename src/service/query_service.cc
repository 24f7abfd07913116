#include "service/query_service.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/service_metrics.h"

namespace recomp::service {

namespace {

uint64_t ElapsedNanos(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

/// t + d, clamped to time_point::max() — which no clock reading passes, so
/// a deadline or window that far out never fires. `d` is compared in its
/// own unit, so no conversion of it can overflow either.
template <typename Duration>
std::chrono::steady_clock::time_point SaturatingAdd(
    std::chrono::steady_clock::time_point t, Duration d) {
  using TimePoint = std::chrono::steady_clock::time_point;
  if (d >= std::chrono::duration_cast<Duration>(TimePoint::max() - t)) {
    return TimePoint::max();
  }
  return t + d;
}

}  // namespace

Status ServiceOptions::Validate() const {
  if (max_in_flight_per_client == 0) {
    return Status::InvalidArgument(
        "max_in_flight_per_client must be positive");
  }
  if (max_queue_depth == 0) {
    return Status::InvalidArgument("max_queue_depth must be positive");
  }
  if (max_batch_queries == 0) {
    return Status::InvalidArgument("max_batch_queries must be positive");
  }
  if (batch_window.count() < 0) {
    return Status::InvalidArgument("batch_window must be non-negative");
  }
  return Status::OK();
}

Result<std::unique_ptr<QueryService>> QueryService::Create(
    const store::Table* table, ServiceOptions options, ExecContext ctx) {
  if (table == nullptr) {
    return Status::InvalidArgument("query service needs a table");
  }
  RECOMP_RETURN_NOT_OK(options.Validate());
  // unique_ptr, not value: the dispatcher thread holds `this`, so the
  // service must never move. new because the constructor is private.
  std::unique_ptr<QueryService> service(
      new QueryService(table, options, ctx));
  service->dispatcher_ = std::thread([s = service.get()] {
    s->DispatcherLoop();
  });
  return service;
}

QueryService::QueryService(const store::Table* table, ServiceOptions options,
                           ExecContext ctx)
    : table_(table), options_(options), ctx_(ctx) {
  ctx_.priority = TaskPriority::kHigh;
  if (options_.selection_cache_capacity > 0) {
    selection_cache_ = std::make_unique<SelectionVectorCache>(
        options_.selection_cache_capacity);
  }
  decoded_cache_ =
      std::make_unique<DecodedChunkCache>(options_.decoded_cache_bytes);
  if (options_.result_cache_bytes > 0) {
    result_cache_ = std::make_unique<ResultCache>(options_.result_cache_bytes);
  }
}

QueryService::~QueryService() { Stop(); }

uint64_t QueryService::RegisterClient() {
  MutexLock lock(&mu_);
  const uint64_t id = next_client_++;
  in_flight_.emplace(id, 0);
  return id;
}

Result<QueryService::ResultFuture> QueryService::Submit(
    uint64_t client, exec::ScanSpec spec,
    std::optional<std::chrono::nanoseconds> deadline) {
  const obs::ServiceMetrics& metrics = obs::ServiceMetrics::Get();
  const auto now = std::chrono::steady_clock::now();
  ResultFuture future;
  {
    MutexLock lock(&mu_);
    if (stop_) {
      return Status::InvalidArgument("query service is stopped");
    }
    const auto it = in_flight_.find(client);
    if (it == in_flight_.end()) {
      return Status::KeyError("no client registered with id " +
                              std::to_string(client));
    }
    if (it->second >= options_.max_in_flight_per_client) {
      metrics.rejected_client_limit->Increment();
      return Status::ResourceExhausted(
          "client " + std::to_string(client) + " already has " +
          std::to_string(it->second) + " queries in flight");
    }
    if (queue_.size() >= options_.max_queue_depth) {
      metrics.rejected_queue_full->Increment();
      return Status::ResourceExhausted("query queue is full");
    }
    ++it->second;
    Pending pending;
    pending.client = client;
    pending.spec = std::move(spec);
    pending.enqueued = now;
    if (deadline.has_value()) pending.deadline = SaturatingAdd(now, *deadline);
    future = pending.promise.get_future();
    queue_.push_back(std::move(pending));
  }
  metrics.admitted->Increment();
  cv_.NotifyOne();
  return future;
}

void QueryService::Flush() {
  MutexLock lock(&mu_);
  while (!queue_.empty() || executing_) idle_cv_.Wait(lock);
}

void QueryService::Stop() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  if (dispatcher_.joinable()) dispatcher_.join();
}

uint64_t QueryService::queue_depth() const {
  MutexLock lock(&mu_);
  return queue_.size();
}

ServiceStats QueryService::stats() const {
  MutexLock lock(&mu_);
  return totals_;
}

void QueryService::DispatcherLoop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      MutexLock lock(&mu_);
      while (!stop_ && queue_.empty()) cv_.Wait(lock);
      if (queue_.empty()) return;  // Stopped with nothing left to drain.
      // Hold the window open for companion queries — unless stopping, the
      // batch is full, or the window (anchored at the oldest queued query)
      // has already closed. A queued deadline earlier than the window
      // deadline cuts the hold IMMEDIATELY: that query cannot survive the
      // full window (pickup would find it expired), so batching gains
      // nothing a live answer wouldn't lose. Submits notify cv_, so a
      // tight-deadline query arriving mid-hold re-runs this scan.
      const auto window_deadline =
          SaturatingAdd(queue_.front().enqueued, options_.batch_window);
      bool early_cut = false;
      for (;;) {
        if (stop_ || queue_.size() >= options_.max_batch_queries) break;
        if (std::chrono::steady_clock::now() >= window_deadline) break;
        auto earliest = window_deadline;
        for (const Pending& pending : queue_) {
          earliest = std::min(earliest, pending.deadline);
        }
        if (earliest < window_deadline) {
          early_cut = true;
          break;
        }
        cv_.WaitUntil(lock, window_deadline);
      }
      if (early_cut) {
        obs::ServiceMetrics::Get().window_early_cuts->Increment();
      }
      const uint64_t take = std::min<uint64_t>(
          queue_.size(), options_.max_batch_queries);
      batch.reserve(take);
      for (uint64_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      executing_ = true;
    }
    ExecuteWindow(&batch);
    {
      MutexLock lock(&mu_);
      executing_ = false;
    }
    idle_cv_.NotifyAll();
  }
}

void QueryService::ExecuteWindow(std::vector<Pending>* batch) {
  const obs::ServiceMetrics& metrics = obs::ServiceMetrics::Get();
  const auto picked_up = std::chrono::steady_clock::now();

  // Expired deadlines are answered without executing; the rest run.
  std::vector<Pending*> live;
  live.reserve(batch->size());
  for (Pending& pending : *batch) {
    metrics.queue_wait_ns->Record(ElapsedNanos(pending.enqueued, picked_up));
    if (picked_up > pending.deadline) {
      metrics.deadline_expired->Increment();
      Finish(&pending, Status::DeadlineExceeded(
                           "deadline passed while the query was queued"));
      continue;
    }
    live.push_back(&pending);
  }
  if (live.empty()) return;

  // Snapshot cache: cutting a snapshot is O(columns × chunks) pointer work,
  // so reuse the cached one while the table's data version stands. The
  // version is stamped under the table mutex in the same critical section
  // that cuts the columns (store/table.h), so a cached snapshot whose
  // version matches is exactly the snapshot a fresh cut would produce.
  if (!snapshot_.has_value() || snapshot_->version() != table_->version()) {
    Result<store::TableSnapshot> snap = table_->Snapshot();
    if (!snap.ok()) {
      const Status status = snap.status();
      for (Pending* pending : live) {
        metrics.failed->Increment();
        Finish(pending, status);
      }
      return;
    }
    snapshot_.emplace(std::move(snap).ValueUnsafe());
    metrics.snapshot_cache_misses->Increment();
  } else {
    metrics.snapshot_cache_hits->Increment();
  }

  const uint64_t version = snapshot_->version();

  // Result-level reuse pass: a spec cached at this version is answered
  // without executing; of identical specs within the window, only the
  // first executes and the rest share its result.
  std::vector<Pending*> to_run;
  std::vector<std::string> run_keys;  // Aligned with to_run; result_cache_ on.
  std::vector<std::pair<Pending*, size_t>> duplicates;  // (query, to_run idx).
  std::vector<std::pair<Pending*, ResultCache::Handle>> hits;
  std::unordered_map<std::string, size_t> first_by_key;
  to_run.reserve(live.size());
  for (Pending* pending : live) {
    if (result_cache_ == nullptr) {
      to_run.push_back(pending);
      continue;
    }
    std::string key = exec::CanonicalSpecKey(pending->spec);
    if (ResultCache::Handle cached = result_cache_->Find(version, key)) {
      metrics.result_cache_hits->Increment();
      hits.emplace_back(pending, std::move(cached));
      continue;
    }
    metrics.result_cache_misses->Increment();
    const auto [it, inserted] = first_by_key.emplace(std::move(key),
                                                    to_run.size());
    if (inserted) {
      to_run.push_back(pending);
      run_keys.push_back(it->first);
    } else {
      duplicates.emplace_back(pending, it->second);
    }
  }

  // Fold the accounting BEFORE fulfilling any promise: a client that
  // observes its future ready must see its query in stats(). Cache hits
  // deliver before the batch runs — they owe the pipeline nothing.
  if (!hits.empty()) {
    {
      MutexLock lock(&mu_);
      totals_.result_cache_hits += hits.size();
    }
    const auto served = std::chrono::steady_clock::now();
    for (const auto& [pending, result] : hits) {
      Deliver(pending, result, served);
    }
  }

  if (!to_run.empty()) {
    metrics.batches->Increment();
    metrics.batch_size->Record(to_run.size());

    std::vector<const exec::ScanSpec*> specs;
    specs.reserve(to_run.size());
    for (const Pending* pending : to_run) specs.push_back(&pending->spec);
    BatchStats stats;
    std::vector<Result<exec::ScanResult>> executed =
        ExecuteBatch(*snapshot_, specs, ctx_, selection_cache_.get(),
                     decoded_cache_.get(), &stats,
                     options_.subsume_predicates);
    const auto completed = std::chrono::steady_clock::now();

    // Each result is shared from here on, never copied: its runner, its
    // in-window duplicates and the result cache hold the one ScanResult.
    std::vector<Result<ResultCache::Handle>> results;
    results.reserve(executed.size());
    for (size_t i = 0; i < executed.size(); ++i) {
      // Never cache errors: a transient failure must not poison retries.
      if (!executed[i].ok()) {
        results.push_back(executed[i].status());
        continue;
      }
      results.push_back(std::make_shared<const exec::ScanResult>(
          std::move(*executed[i])));
      if (result_cache_ != nullptr) {
        result_cache_->Insert(version, run_keys[i], *results[i]);
      }
    }

    {
      MutexLock lock(&mu_);
      ++totals_.batches;
      totals_.queries_executed += to_run.size();
      totals_.chunks_decoded += stats.chunks_decoded;
      totals_.chunk_evaluations += stats.chunk_evaluations;
      totals_.selection_cache_hits += stats.selection_cache_hits;
      totals_.subsumed_evaluations += stats.subsumed_evaluations;
      totals_.batch_dedup_hits += duplicates.size();
    }
    metrics.result_cache_dedup_hits->Add(duplicates.size());

    // Duplicates first: their promises must not outwait their runner's by
    // more than delivery order.
    for (const auto& [pending, runner] : duplicates) {
      Deliver(pending, results[runner], completed);
    }
    for (size_t i = 0; i < to_run.size(); ++i) {
      Deliver(to_run[i], std::move(results[i]), completed);
    }
  }

  // What the window computed stays until its answers are out; then every
  // cache sheds to its budget.
  if (selection_cache_ != nullptr) selection_cache_->EvictToBudget();
  decoded_cache_->EvictToBudget();
  if (result_cache_ != nullptr) result_cache_->EvictToBudget();
}

void QueryService::Deliver(Pending* pending,
                           Result<ResultCache::Handle> result,
                           std::chrono::steady_clock::time_point completed) {
  const obs::ServiceMetrics& metrics = obs::ServiceMetrics::Get();
  // The post-execution deadline check: a result completed past its deadline
  // is useless to the client and must be reported as the miss it is — the
  // queued-expiry path and this one together make DeadlineExceeded the
  // answer whenever the deadline passed, no matter where it passed.
  if (completed > pending->deadline) {
    metrics.deadline_missed_in_flight->Increment();
    Finish(pending, Status::DeadlineExceeded(
                        "deadline passed while the query was executing"));
    return;
  }
  (result.ok() ? metrics.succeeded : metrics.failed)->Increment();
  Finish(pending, std::move(result));
}

void QueryService::Finish(Pending* pending,
                          Result<ResultCache::Handle> result) {
  // Release the in-flight slot BEFORE fulfilling the promise: a client that
  // observes its future ready must be able to submit again immediately.
  {
    MutexLock lock(&mu_);
    const auto it = in_flight_.find(pending->client);
    if (it != in_flight_.end() && it->second > 0) --it->second;
  }
  if (result.ok()) {
    pending->promise.set_value(Answer(std::move(result).ValueUnsafe()));
  } else {
    pending->promise.set_value(std::move(result).status());
  }
  obs::ServiceMetrics::Get().e2e_ns->Record(
      ElapsedNanos(pending->enqueued, std::chrono::steady_clock::now()));
}

}  // namespace recomp::service
