// Selection-vector reuse across batches: the "recycling intermediates" leg
// of shared-scan execution.
//
// Concurrent dashboards re-issue the same predicates every window. Once a
// (column, chunk, predicate) selection has been computed against some table
// version, every later query asking the same question against the *same*
// version can reuse the positions verbatim — the data cannot have changed,
// because appends are the only mutation that alters logical rows and every
// append bumps the version (store/table.h). Sealing and background
// recompression rewrite the representation only, so they neither bump the
// version nor invalidate cached selections.
//
// SelectionVectorCache is the service cache (service_cache.h) over these
// selections: one current version, one computation per key, and a budget
// that counts entries, applied once a batch is done. An entry's size
// follows its chunk's matches, but the budget stays a count; a byte budget
// shared with the other caches is still open (ROADMAP.md).
//
// Entries carry the matched VALUES alongside the positions, in the column's
// own type. That is what predicate subsumption (shared_scan.cc) feeds on: a
// band nested inside a cached band re-filters the cached (position, value)
// pairs directly — no chunk decode, no full scan — because a row passing
// the narrow band necessarily passed the wide one.

#ifndef RECOMP_SERVICE_SELECTION_CACHE_H_
#define RECOMP_SERVICE_SELECTION_CACHE_H_

#include <cstdint>

#include "columnar/any_column.h"
#include "exec/selection.h"
#include "obs/service_metrics.h"
#include "service/service_cache.h"

namespace recomp::service {

/// Identity of one cached per-chunk selection: which chunk of which column,
/// filtered by which inclusive range.
struct SelectionKey {
  uint64_t column = 0;
  uint64_t chunk = 0;
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool operator==(const SelectionKey& other) const {
    return column == other.column && chunk == other.chunk && lo == other.lo &&
           hi == other.hi;
  }
};

struct SelectionKeyHash {
  size_t operator()(const SelectionKey& key) const {
    // FNV-1a over the four words: cheap and good enough for a cache map.
    uint64_t h = 1469598103934665603ull;
    for (const uint64_t w : {key.column, key.chunk, key.lo, key.hi}) {
      h = (h ^ w) * 1099511628211ull;
    }
    return static_cast<size_t>(h);
  }
};

/// One cached per-chunk selection: the matching chunk-local positions plus
/// the column values at those positions (index-aligned with
/// selection.positions, in the column's type). The values make the entry a
/// self-contained evaluation substrate for any predicate nested inside this
/// one.
struct CachedSelection {
  exec::SelectionResult selection;
  AnyColumn values;
};

/// Selections cost one entry each.
struct SelectionTraits {
  using Key = SelectionKey;
  using Hash = SelectionKeyHash;
  using Value = CachedSelection;
  static uint64_t Cost(const CachedSelection&) { return 1; }
  static CacheCounters Counters() {
    return {nullptr, nullptr,
            obs::ServiceMetrics::Get().selection_cache_invalidations};
  }
};

/// (version, column, chunk, predicate) → selection; the budget is an entry
/// count.
using SelectionVectorCache = ServiceCache<SelectionTraits>;

}  // namespace recomp::service

#endif  // RECOMP_SERVICE_SELECTION_CACHE_H_
