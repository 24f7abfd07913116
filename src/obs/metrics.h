// Process-wide runtime metrics: sharded counters, gauges, exponential
// histograms, and a registry with point-in-time exposition.
//
// The system's most important decisions happen invisibly at runtime —
// per-chunk scheme choice, fused-shape classification, AVX2-vs-scalar
// dispatch, zone-map pruning, background re-sealing. This registry makes
// them countable without slowing them down:
//
//   Counter    monotone u64, sharded over cache-line-aligned atomic cells so
//              concurrent writers (pool workers, seal jobs, parallel scans)
//              never contend on one hot line. Reads sum the shards.
//   Gauge      a single signed atomic level (queue depth, backlog size).
//   Histogram  exponential power-of-two buckets (bucket i counts values v
//              with BitWidth(v) == i), plus count and sum. Built for
//              latencies in nanoseconds: 65 buckets span 1 ns to ~580 years.
//   Registry   name → metric, created on first use; pointers are stable for
//              the registry's lifetime, so hot paths look a metric up once
//              (function-local static) and update lock-free forever after.
//
// Snapshot() captures every metric at one point in time into a plain struct
// with text and JSON exposition. Updates are relaxed-atomic: a snapshot
// racing writers sees each 64-bit cell untorn and each counter monotone
// across successive snapshots, but no cross-metric ordering is promised.
//
// SetEnabled(false) turns every update into a relaxed load + branch — the
// kill switch the bench overhead gate (bench_a2) prices instrumentation
// against. Values recorded while disabled are dropped, so paired gauge
// updates (inc/dec) can skew if toggled while concurrent work is in flight;
// toggle only around quiesced measurement sections.

#ifndef RECOMP_OBS_METRICS_H_
#define RECOMP_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace recomp::obs {

/// Whether metric updates are recorded (default: yes).
bool Enabled();
void SetEnabled(bool enabled);

/// Nanoseconds on the monotonic clock — the registry's shared time base.
uint64_t MonotonicNanos();

/// Counter shard count; a power of two so the thread → shard map is a mask.
inline constexpr uint64_t kCounterShards = 16;

/// This thread's shard index, assigned round-robin on first use.
uint64_t ThreadShardIndex();

/// A monotone counter sharded over cache-line-aligned cells: writers update
/// their thread's shard with one relaxed fetch_add, readers sum all shards.
/// Value() is exact once writers quiesce and never decreases while they run.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n) {
    if (!Enabled()) return;
    shards_[ThreadShardIndex()].cell.fetch_add(n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.cell.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> cell{0};
  };
  Shard shards_[kCounterShards];
};

/// A signed level. Set/Add/Subtract are single relaxed atomics; unlike a
/// Counter there is no sharding — gauges track levels (queue depth, backlog)
/// whose updates are already serialized by the owning subsystem's lock.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) {
    if (!Enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t n) {
    if (!Enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void Subtract(int64_t n) { Add(-n); }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Number of histogram buckets: bucket i counts recorded values v with
/// BitWidth(v) == i, i.e. bucket 0 holds zeros and bucket i (i >= 1) holds
/// v in [2^(i-1), 2^i).
inline constexpr int kHistogramBuckets = 65;

/// Upper bound (inclusive) of bucket i: 0 for bucket 0, 2^i - 1 otherwise.
uint64_t HistogramBucketBound(int bucket);

/// A captured histogram. `count` is derived as the sum of `buckets`, so a
/// snapshot is always self-consistent even against concurrent writers;
/// `sum` (and so Mean()) is approximate under concurrency.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t buckets[kHistogramBuckets] = {};

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Upper bound of the bucket holding the q-quantile (q in [0, 1]); 0 when
  /// empty. Exponential buckets make this an order-of-magnitude estimate.
  uint64_t Quantile(double q) const;
};

/// An exponential-bucket histogram; Record is three relaxed fetch_adds.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value);

  HistogramSnapshot Snapshot() const;

 private:
  std::atomic<uint64_t> buckets_[kHistogramBuckets] = {};
  std::atomic<uint64_t> sum_{0};
};

/// Everything the registry held at one point in time, each section sorted
/// by name. Plain data: hand it across threads, diff it, serialize it.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    int64_t value = 0;
  };
  struct HistogramValue {
    std::string name;
    HistogramSnapshot hist;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// Value of the named counter, or 0 when absent (tests diff snapshots, so
  /// "never updated" and "zero" read the same).
  uint64_t counter(const std::string& name) const;
  int64_t gauge(const std::string& name) const;
  /// The named histogram, or an empty one when absent.
  HistogramSnapshot histogram(const std::string& name) const;

  /// Human-readable exposition, one metric per line.
  std::string ToText() const;
  /// One JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, mean, p50, p99}}}.
  std::string ToJson() const;
};

/// The process-wide metric registry. Metrics are created on first lookup
/// and never destroyed while the registry lives, so the returned references
/// are stable — cache them in a function-local static at the call site:
///
///   static obs::Counter& chunks = obs::Registry::Get().GetCounter("x.y");
///   chunks.Increment();
///
/// Lookups take the registry mutex; updates through the returned reference
/// are lock-free. A name is permanently one kind: looking it up as another
/// kind aborts (a programming error, not a runtime condition).
class Registry {
 public:
  static Registry& Get();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Point-in-time capture of every metric.
  MetricsSnapshot Snapshot() const;

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace recomp::obs

#endif  // RECOMP_OBS_METRICS_H_
