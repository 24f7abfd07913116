// Result-level caching: the terminal rung of the service's reuse ladder.
//
// The shared-scan layer amortizes *decodes* (DecodedChunkCache) and
// *selections* (SelectionVectorCache); this cache amortizes the whole
// query. Serving workloads repeat — dashboards re-issue identical specs
// every refresh ("Revisiting Data Compression in Column-Stores", PAPERS.md)
// — and a ScanResult is a pure function of (spec, table data version), so
// an identical spec arriving at the same version can be answered from the
// cached result without touching the pipeline at all.
//
// Keys are canonical spec strings (exec::CanonicalSpecKey): filter order is
// normalized away, so `Filter(a).Filter(b)` and `Filter(b).Filter(a)` share
// one entry. ResultCache is the versioned cache (exec/versioned_cache.h) over
// results, budgeted in approximate bytes: a window's results stay until its
// answers are delivered, then the oldest are shed to the budget. Callers
// never store errors — a transient failure must not poison later retries.

#ifndef RECOMP_SERVICE_RESULT_CACHE_H_
#define RECOMP_SERVICE_RESULT_CACHE_H_

#include <cstdint>
#include <functional>
#include <string>

#include "exec/scan.h"
#include "exec/versioned_cache.h"
#include "obs/service_metrics.h"

namespace recomp::service {

/// The footprint a cached result is charged: the owned buffers it retains
/// (positions, projected values, per-chunk stats vectors).
uint64_t ApproxResultBytes(const exec::ScanResult& result);

/// Results cost their approximate bytes.
struct ResultTraits {
  using Key = std::string;
  using Hash = std::hash<std::string>;
  using Value = exec::ScanResult;
  static uint64_t Cost(const exec::ScanResult& result) {
    return ApproxResultBytes(result);
  }
  static exec::CacheCounters Counters() {
    const obs::ServiceMetrics& metrics = obs::ServiceMetrics::Get();
    return {metrics.result_cache_insertions, metrics.result_cache_evictions,
            metrics.result_cache_invalidations};
  }
};

/// (version, canonical spec) → ScanResult; the budget is bytes.
using ResultCache = exec::VersionedCache<ResultTraits>;

}  // namespace recomp::service

#endif  // RECOMP_SERVICE_RESULT_CACHE_H_
