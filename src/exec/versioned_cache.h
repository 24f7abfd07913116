// The one cache behind every intermediate a scan batch or the query service
// keeps. Decoded chunks, per-chunk selections and whole results are all
// computed from one table version and reused while that version stands;
// VersionedCache<Traits> owns the rules they share.
//
//   * One current version. A request carrying a newer version purges every
//     entry first (a table's versions only move forward, so older entries
//     can never be asked for again). A request for an older version — a
//     straggling batch — is computed but never stored, so stale data cannot
//     enter the cache.
//   * Compute once. GetOrCompute runs the computation for the first caller
//     of a key, outside the cache's lock; concurrent callers wait on that
//     key's latch and share the outcome. Values are handed out as
//     shared_ptr<const Value>, never copied under the lock.
//   * One budget rule. What a batch computes stays until the batch ends, so
//     nothing it still needs is evicted under it. EvictToBudget(), called by
//     the cache's owner once a batch is done (QueryService: after each
//     window's answers are delivered), then drops the batch's failed
//     computations and sheds the oldest settled entries until their cost
//     fits the budget. An entry still being computed is never evicted: it
//     is not in the eviction order until it settles.
//
// Traits fix each instance's key, value, cost unit and registry counters at
// compile time (SelectionVectorCache and DecodedChunkCache in
// exec/scan_batch.h, ResultCache in service/result_cache.h):
//
//   struct Traits {
//     using Key = ...;  using Hash = ...;  using Value = ...;
//     static uint64_t Cost(const Value&);
//     static CacheCounters Counters();
//   };

#ifndef RECOMP_EXEC_VERSIONED_CACHE_H_
#define RECOMP_EXEC_VERSIONED_CACHE_H_

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace recomp::exec {

/// The registry counters an instance bumps; null where it keeps none.
struct CacheCounters {
  obs::Counter* insertions = nullptr;     ///< Values stored.
  obs::Counter* evictions = nullptr;      ///< Entries shed for the budget.
  obs::Counter* invalidations = nullptr;  ///< Purges of a non-empty cache.
};

/// Thread-safe (version, key) → shared_ptr<const Value> cache. All methods
/// may be called concurrently from pool workers.
template <typename Traits>
class VersionedCache {
 public:
  using Key = typename Traits::Key;
  using Value = typename Traits::Value;
  using Handle = std::shared_ptr<const Value>;

  /// `budget`, in Traits::Cost units, bounds what EvictToBudget() keeps; 0
  /// keeps nothing past the batch.
  explicit VersionedCache(uint64_t budget) : budget_(budget) {}

  /// The value of `key` at `version`: stored, in flight (waited for), or
  /// computed now by `compute`, a callable returning Result<Value> (or a
  /// Result<Handle> it already shares). A failed computation is shared with
  /// its waiters like a value. `*reused`, when non-null, reports whether
  /// the key was stored or in flight.
  template <typename Compute>
  Result<Handle> GetOrCompute(uint64_t version, const Key& key,
                              Compute&& compute, bool* reused = nullptr) {
    std::optional<std::promise<Result<Handle>>> latch;  // Set: we store.
    std::shared_future<Result<Handle>> found;
    {
      MutexLock lock(&mu_);
      PurgeIfStaleLocked(version);
      if (version == version_) {
        const auto [it, inserted] = slots_.try_emplace(key);
        if (inserted) {
          it->second.value = latch.emplace().get_future().share();
        } else {
          found = it->second.value;
        }
      }
    }
    if (reused != nullptr) *reused = found.valid();
    if (found.valid()) return found.get();
    Result<Handle> computed = Share(std::forward<Compute>(compute)());
    if (latch.has_value()) {
      latch->set_value(computed);
      Settle(version, key, computed);
    }
    return computed;
  }

  /// Stores a ready value: GetOrCompute with nothing left to compute.
  void Insert(uint64_t version, const Key& key, Value value) {
    Insert(version, key, std::make_shared<const Value>(std::move(value)));
  }

  /// Stores a value its callers already share, without copying it.
  void Insert(uint64_t version, const Key& key, Handle value) {
    const auto ready = [&] { return Result<Handle>(std::move(value)); };
    (void)GetOrCompute(version, key, ready);
  }

  /// The value stored (or in flight, waited for) for `key` at `version`;
  /// null when absent, failed, or `version` is older than the cache's.
  Handle Find(uint64_t version, const Key& key) {
    std::shared_future<Result<Handle>> found;
    {
      MutexLock lock(&mu_);
      PurgeIfStaleLocked(version);
      if (version != version_) return nullptr;
      const auto it = slots_.find(key);
      if (it == slots_.end()) return nullptr;
      found = it->second.value;
    }
    const Result<Handle>& value = found.get();
    return value.ok() ? *value : nullptr;
  }

  /// Drops the failed computations, then sheds the oldest settled entries
  /// until the settled cost fits the budget. Never waits on a computation.
  void EvictToBudget() {
    obs::Counter* evictions = Traits::Counters().evictions;
    MutexLock lock(&mu_);
    for (const Key& key : failed_) slots_.erase(key);
    failed_.clear();
    while (cost_ > budget_ && !fifo_.empty()) {
      const auto it = slots_.find(fifo_.front());
      fifo_.pop_front();
      cost_ -= it->second.cost;
      slots_.erase(it);
      if (evictions != nullptr) evictions->Increment();
    }
  }

  /// Entries stored or in flight (point-in-time).
  uint64_t size() const {
    MutexLock lock(&mu_);
    return slots_.size();
  }

  /// Settled cost, in Traits::Cost units (point-in-time).
  uint64_t cost() const {
    MutexLock lock(&mu_);
    return cost_;
  }

  /// The version the entries belong to (point-in-time; 0 until the first
  /// request).
  uint64_t version() const {
    MutexLock lock(&mu_);
    return version_;
  }

 private:
  /// One key's latch, ready once its computation settles, and the cost it
  /// was charged.
  struct Slot {
    std::shared_future<Result<Handle>> value;
    uint64_t cost = 0;
  };

  static Result<Handle> Share(Result<Value> value) {
    if (!value.ok()) return value.status();
    return std::make_shared<const Value>(std::move(value).ValueUnsafe());
  }
  static Result<Handle> Share(Result<Handle> shared) { return shared; }

  /// Charges a settled computation to the ledger, unless a newer version
  /// purged its slot while it computed. Within one version a slot in flight
  /// is never evicted, so the key still maps to this computation's slot.
  void Settle(uint64_t version, const Key& key,
              const Result<Handle>& computed) {
    const uint64_t cost = computed.ok() ? Traits::Cost(**computed) : 0;
    obs::Counter* insertions = Traits::Counters().insertions;
    MutexLock lock(&mu_);
    if (version != version_) return;
    if (!computed.ok()) {
      failed_.push_back(key);
      return;
    }
    slots_.find(key)->second.cost = cost;
    cost_ += cost;
    fifo_.push_back(key);
    if (insertions != nullptr) insertions->Increment();
  }

  void PurgeIfStaleLocked(uint64_t version) RECOMP_REQUIRES(mu_) {
    if (version <= version_) return;
    obs::Counter* invalidations = Traits::Counters().invalidations;
    if (!slots_.empty() && invalidations != nullptr) {
      invalidations->Increment();
    }
    slots_.clear();
    fifo_.clear();
    failed_.clear();
    cost_ = 0;
    version_ = version;
  }

  const uint64_t budget_;
  mutable Mutex mu_;
  uint64_t version_ RECOMP_GUARDED_BY(mu_) = 0;
  std::unordered_map<Key, Slot, typename Traits::Hash> slots_
      RECOMP_GUARDED_BY(mu_);
  /// Settled, successful keys, oldest first: the eviction order.
  std::deque<Key> fifo_ RECOMP_GUARDED_BY(mu_);
  /// Settled, failed keys: dropped at the next EvictToBudget().
  std::vector<Key> failed_ RECOMP_GUARDED_BY(mu_);
  /// Sum of the settled entries' costs.
  uint64_t cost_ RECOMP_GUARDED_BY(mu_) = 0;
};

}  // namespace recomp::exec

#endif  // RECOMP_EXEC_VERSIONED_CACHE_H_
