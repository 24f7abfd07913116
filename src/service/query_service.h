// QueryService: the front door for thousands of concurrent scan clients.
//
// Clients register, then submit ScanSpecs; each submit returns a future.
// Admission control keeps an overload from queueing unbounded work: a
// client over its in-flight limit or a full queue is refused immediately
// with ResourceExhausted (fail fast beats queueing forever). Admitted
// queries wait out a short batching window, then the window's queries run
// as one scan batch over one table snapshot (service/shared_scan.h): a
// chunk two or more of them need is fused-decoded once and its selections
// are recycled across queries and windows, nested bands subsume into their
// containers, and every other chunk runs its own query's pushdown
// strategy. Whole results recycle
// through the ResultCache — an identical spec at the same data version
// never executes, and identical specs *within* one window execute once.
// Every answer is the computed ScanResult itself, shared and immutable, so
// serving it again costs a reference count, never a copy.
//
// The batching window is the classic shared-scan latency/throughput knob: a
// longer window groups more queries per pass (more shared chunks) at the
// cost of adding up to one window to each query's latency. Batches run at
// TaskPriority::kHigh on the shared pool, so interactive queries jump ahead
// of queued seal and recompression jobs.
//
// Deadlines are honored at three points: the dispatcher cuts the window
// early when a queued deadline precedes the window's end (a query that
// could still execute must not die waiting for companions); a query whose
// deadline passed by batch pickup is refused without executing
// (service.queries.deadline_expired); and a result completed past its
// deadline is reported DeadlineExceeded (service.deadline_missed_in_flight),
// never a late OK.
//
// Results are bit-identical to running each spec through solo exec::Scan
// against the same snapshot (exec::ScanOutputsEqual) — batching is purely
// an execution strategy, never a semantic change.

#ifndef RECOMP_SERVICE_QUERY_SERVICE_H_
#define RECOMP_SERVICE_QUERY_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/result_cache.h"
#include "service/shared_scan.h"
#include "store/table.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace recomp::service {

/// Tuning knobs of a QueryService.
struct ServiceOptions {
  /// Max queries one client may have queued or executing; the next submit
  /// is refused with ResourceExhausted.
  uint64_t max_in_flight_per_client = 64;
  /// Max queries queued across all clients; further submits are refused
  /// with ResourceExhausted until the dispatcher drains.
  uint64_t max_queue_depth = 4096;
  /// How long the dispatcher holds the first query of a window open for
  /// companions before executing the batch. 0 dispatches immediately
  /// (batching still groups whatever queued while the previous batch ran).
  std::chrono::microseconds batch_window{200};
  /// Max queries per batch; a longer queue dispatches in successive batches.
  uint64_t max_batch_queries = 1024;
  // The three cache budgets below apply when a window's answers are out;
  // until then, everything its batch computes stays (exec/versioned_cache.h).
  /// Entries of shared chunks' selection vectors kept across windows; 0
  /// keeps nothing past the batch (each is still computed once in it).
  uint64_t selection_cache_capacity = 1u << 16;
  /// Bytes of shared chunks' decoded values kept warm across windows.
  uint64_t decoded_cache_bytes = uint64_t{256} << 20;
  /// Bytes of whole results kept across windows; 0 disables result caching
  /// *and* in-window deduplication (every admitted query then executes).
  uint64_t result_cache_bytes = uint64_t{64} << 20;
  /// Evaluate a band nested inside another band of the same batch over the
  /// containing band's selection instead of the full chunk.
  bool subsume_predicates = true;

  Status Validate() const;
};

/// Aggregated work accounting since the service started. The chunk fields
/// count shared chunks only (BatchStats); a chunk one query needs runs its
/// pushdown strategy and shows in that result's per-filter stats.
struct ServiceStats {
  uint64_t batches = 0;
  uint64_t queries_executed = 0;
  /// Chunks fused-decoded into shared buffers.
  uint64_t chunks_decoded = 0;
  /// Filter-chunk evaluations served by the shared path.
  uint64_t chunk_evaluations = 0;
  /// Shared evaluations answered by the selection cache.
  uint64_t selection_cache_hits = 0;
  /// Queries answered from the result cache without executing.
  uint64_t result_cache_hits = 0;
  /// Queries answered by an identical companion within their own batch.
  uint64_t batch_dedup_hits = 0;
  /// Chunk evaluations served by re-filtering a containing band's selection.
  uint64_t subsumed_evaluations = 0;

  /// Shared evaluations per shared decode; the shared-scan win.
  double sharing_ratio() const {
    return chunks_decoded == 0
               ? 0.0
               : static_cast<double>(chunk_evaluations) /
                     static_cast<double>(chunks_decoded);
  }
};

/// The concurrent-client scan service over one Table. The table and the
/// ExecContext's pool must outlive the service. All public methods are
/// thread-safe except Stop(), which only the owning thread should call.
class QueryService {
 public:
  /// One delivered answer: the ScanResult the service computed or cached,
  /// shared with the result cache and every client given the same answer,
  /// and never modified. It reads as a `const exec::ScanResult&` wherever
  /// one is expected.
  class Answer {
   public:
    explicit Answer(std::shared_ptr<const exec::ScanResult> result)
        : result_(std::move(result)) {}

    const exec::ScanResult* operator->() const { return result_.get(); }
    operator const exec::ScanResult&() const {  // NOLINT(runtime/explicit)
      return *result_;
    }

   private:
    std::shared_ptr<const exec::ScanResult> result_;
  };

  /// A submitted query's eventual outcome.
  using ResultFuture = std::future<Result<Answer>>;

  /// Validates `options` and starts the dispatcher thread. `ctx` is the
  /// pool batches fan out over; its priority is raised to kHigh so batch
  /// scans jump ahead of queued seal jobs (util/thread_pool.h).
  static Result<std::unique_ptr<QueryService>> Create(
      const store::Table* table, ServiceOptions options = {},
      ExecContext ctx = {});

  /// Stops the service (draining queued queries) and joins the dispatcher.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Registers a client and returns its id (admission is per client).
  uint64_t RegisterClient();

  /// Submits `spec` for client `client`. On admission, returns the future
  /// delivering the scan result (or its per-query error); the optional
  /// `deadline` is relative to now — a query still queued when it passes is
  /// answered DeadlineExceeded instead of executing, and a result completed
  /// past it is answered DeadlineExceeded as well (never a late OK). A
  /// queued deadline tighter than the batching window cuts the window
  /// early; one past the clock's range is no deadline. Refusals:
  ///   InvalidArgument    the service is stopped,
  ///   KeyError           unknown client id,
  ///   ResourceExhausted  client at max in-flight, or queue full.
  Result<ResultFuture> Submit(
      uint64_t client, exec::ScanSpec spec,
      std::optional<std::chrono::nanoseconds> deadline = std::nullopt);

  /// Blocks until every query admitted so far has been answered.
  void Flush();

  /// Drains queued queries, then stops and joins the dispatcher. Submits
  /// arriving after Stop are refused. Idempotent; not safe to race with
  /// itself (the destructor calls it).
  void Stop();

  /// Queries queued but not yet picked up by the dispatcher.
  uint64_t queue_depth() const;

  /// Aggregated execution accounting (point-in-time copy).
  ServiceStats stats() const;

 private:
  /// One admitted query waiting for its window.
  struct Pending {
    uint64_t client = 0;
    exec::ScanSpec spec;
    std::promise<Result<Answer>> promise;
    std::chrono::steady_clock::time_point enqueued;
    /// time_point::max() for a query without one.
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
  };

  QueryService(const store::Table* table, ServiceOptions options,
               ExecContext ctx);

  void DispatcherLoop();

  /// Executes one popped window: answers expired deadlines, resolves the
  /// snapshot (cached while the table version stands), serves result-cache
  /// hits and in-batch duplicates without executing, runs the rest as one
  /// shared-scan batch, fulfills every promise (re-checking deadlines
  /// post-execution). Runs on the dispatcher thread only.
  void ExecuteWindow(std::vector<Pending>* batch);

  /// Delivers one executed (or cache-served) result: a query whose deadline
  /// passed before `completed` is answered DeadlineExceeded instead — a
  /// result the client could no longer use must not masquerade as OK.
  void Deliver(Pending* pending, Result<ResultCache::Handle> result,
               std::chrono::steady_clock::time_point completed);

  /// Fulfills one query's promise and releases its in-flight slot.
  void Finish(Pending* pending, Result<ResultCache::Handle> result);

  const store::Table* const table_;
  const ServiceOptions options_;
  /// The batch ExecContext: caller's pool, priority raised to kHigh.
  ExecContext ctx_;

  /// Null when options_.selection_cache_capacity is 0.
  std::unique_ptr<SelectionVectorCache> selection_cache_;
  std::unique_ptr<DecodedChunkCache> decoded_cache_;
  std::unique_ptr<ResultCache> result_cache_;

  /// Dispatcher-thread-only: the snapshot served while table_->version()
  /// stands. Never read from other threads, so unguarded by design.
  std::optional<store::TableSnapshot> snapshot_;

  mutable Mutex mu_;
  /// Wakes the dispatcher on submit and stop.
  CondVar cv_;
  /// Wakes Flush() when a batch finishes.
  CondVar idle_cv_;
  bool stop_ RECOMP_GUARDED_BY(mu_) = false;
  std::deque<Pending> queue_ RECOMP_GUARDED_BY(mu_);
  /// Per-client queued-or-executing counts; registration inserts, Finish
  /// decrements.
  std::unordered_map<uint64_t, uint64_t> in_flight_ RECOMP_GUARDED_BY(mu_);
  uint64_t next_client_ RECOMP_GUARDED_BY(mu_) = 0;
  bool executing_ RECOMP_GUARDED_BY(mu_) = false;
  ServiceStats totals_ RECOMP_GUARDED_BY(mu_);

  /// Started last in Create (after construction), joined by Stop.
  std::thread dispatcher_;
};

}  // namespace recomp::service

#endif  // RECOMP_SERVICE_QUERY_SERVICE_H_
