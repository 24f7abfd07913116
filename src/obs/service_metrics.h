// Query-service metrics: the shared bundle behind src/service/.
//
// Lives in obs/ (not service/) because it is pure registry plumbing — the
// same function-local-static bundle pattern as the scan and pool metrics —
// and because both the admission/dispatch layer (service/) and the batch
// scan (exec/scan_batch.h) record into the same counters.
//
// The headline derived quantity is the *sharing ratio*:
//   service.chunk_evaluations / service.chunks_decoded
// — how many filter-chunk evaluations each shared decode served. Both
// count shared chunks only: a chunk one query needs shows in
// scan.strategy.* instead, so a lone query moves neither, and a batch of N
// queries on the same chunks drives the ratio toward N. A shared chunk
// decodes only for a shape without a pushdown or for a gather. The batch
// scan adds its counts here when a batch ends; bench_e18 reads both
// counters from a registry snapshot.

#ifndef RECOMP_OBS_SERVICE_METRICS_H_
#define RECOMP_OBS_SERVICE_METRICS_H_

#include "obs/metrics.h"

namespace recomp::obs {

/// Service metrics, resolved once (see Get()).
struct ServiceMetrics {
  // Admission control (service.queries.*).
  Counter* admitted;              ///< Accepted into the queue.
  Counter* rejected_queue_full;   ///< Refused: global queue at capacity.
  Counter* rejected_client_limit; ///< Refused: client at max in-flight.
  Counter* deadline_expired;      ///< Deadline passed before execution.
  Counter* succeeded;             ///< Executed and returned a result.
  Counter* failed;                ///< Executed and returned an error.
  /// Deadline passed *during* execution: the result existed but arrived
  /// late, so the client was answered DeadlineExceeded anyway.
  Counter* deadline_missed_in_flight;

  // Batch formation.
  Counter* batches;        ///< Batches dispatched (service.batches).
  Histogram* batch_size;   ///< Queries per batch (service.batch_size).
  /// Windows cut before batch_window elapsed because a queued query's
  /// deadline would not have survived the full hold.
  Counter* window_early_cuts;

  // Shared-chunk work accounting.
  Counter* chunks_decoded;     ///< Decodes into shared buffers.
  Counter* chunk_evaluations;  ///< Filter evaluations of shared chunks.
  Counter* selection_cache_hits;
  Counter* selection_cache_misses;
  Counter* selection_cache_invalidations;
  Counter* snapshot_cache_hits;
  Counter* snapshot_cache_misses;

  // Result-level cache (service.result_cache.*). dedup_hits counts queries
  // answered by an identical companion *within* their own batch — the
  // in-window complement of a cross-window cache hit.
  Counter* result_cache_hits;
  Counter* result_cache_misses;
  Counter* result_cache_insertions;
  Counter* result_cache_evictions;
  Counter* result_cache_invalidations;
  Counter* result_cache_dedup_hits;

  // Predicate subsumption.
  Counter* subsumed_evaluations;          ///< Evals served from a container.
  Counter* subsumption_values_examined;   ///< Its positions re-read doing so.

  // Latency (nanoseconds).
  Histogram* queue_wait_ns;  ///< Submit → batch pickup.
  Histogram* e2e_ns;         ///< Submit → promise fulfilled.

  static const ServiceMetrics& Get();
};

}  // namespace recomp::obs

#endif  // RECOMP_OBS_SERVICE_METRICS_H_
