#include "obs/metrics.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>

#include "util/bits.h"
#include "util/mutex.h"
#include "util/string_util.h"
#include "util/thread_annotations.h"

namespace recomp::obs {

namespace {
std::atomic<bool> g_enabled{true};
}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

uint64_t MonotonicNanos() {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
}

uint64_t ThreadShardIndex() {
  static std::atomic<uint64_t> next{0};
  thread_local const uint64_t shard =
      next.fetch_add(1, std::memory_order_relaxed) & (kCounterShards - 1);
  return shard;
}

uint64_t HistogramBucketBound(int bucket) {
  if (bucket <= 0) return 0;
  if (bucket >= 64) return ~uint64_t{0};
  return (uint64_t{1} << bucket) - 1;
}

uint64_t HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0;
  const double clamped = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
  // Rank of the q-quantile among `count` sorted samples, 1-based.
  uint64_t rank = static_cast<uint64_t>(clamped * static_cast<double>(count));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    seen += buckets[b];
    if (seen >= rank) return HistogramBucketBound(b);
  }
  return HistogramBucketBound(kHistogramBuckets - 1);
}

void Histogram::Record(uint64_t value) {
  if (!Enabled()) return;
  const int bucket = bits::BitWidth(value);
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    snap.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    snap.count += snap.buckets[b];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

uint64_t MetricsSnapshot::counter(const std::string& name) const {
  for (const CounterValue& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

int64_t MetricsSnapshot::gauge(const std::string& name) const {
  for (const GaugeValue& g : gauges) {
    if (g.name == name) return g.value;
  }
  return 0;
}

HistogramSnapshot MetricsSnapshot::histogram(const std::string& name) const {
  for (const HistogramValue& h : histograms) {
    if (h.name == name) return h.hist;
  }
  return {};
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  for (const CounterValue& c : counters) {
    out += StringFormat("counter   %-44s %llu\n", c.name.c_str(),
                        static_cast<unsigned long long>(c.value));
  }
  for (const GaugeValue& g : gauges) {
    out += StringFormat("gauge     %-44s %lld\n", g.name.c_str(),
                        static_cast<long long>(g.value));
  }
  for (const HistogramValue& h : histograms) {
    out += StringFormat(
        "histogram %-44s count=%llu mean=%.0f p50<=%llu p99<=%llu\n",
        h.name.c_str(), static_cast<unsigned long long>(h.hist.count),
        h.hist.Mean(),
        static_cast<unsigned long long>(h.hist.Quantile(0.5)),
        static_cast<unsigned long long>(h.hist.Quantile(0.99)));
  }
  return out;
}

namespace {

/// JSON string escaping for metric names (which are plain identifiers in
/// practice; the escape keeps the output valid regardless).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StringFormat("\\u%04x", static_cast<unsigned>(c));
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const CounterValue& c : counters) {
    out += StringFormat("%s\n    \"%s\": %llu", first ? "" : ",",
                        JsonEscape(c.name).c_str(),
                        static_cast<unsigned long long>(c.value));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const GaugeValue& g : gauges) {
    out += StringFormat("%s\n    \"%s\": %lld", first ? "" : ",",
                        JsonEscape(g.name).c_str(),
                        static_cast<long long>(g.value));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const HistogramValue& h : histograms) {
    out += StringFormat(
        "%s\n    \"%s\": {\"count\": %llu, \"sum\": %llu, \"mean\": %.3f, "
        "\"p50\": %llu, \"p99\": %llu}",
        first ? "" : ",", JsonEscape(h.name).c_str(),
        static_cast<unsigned long long>(h.hist.count),
        static_cast<unsigned long long>(h.hist.sum), h.hist.Mean(),
        static_cast<unsigned long long>(h.hist.Quantile(0.5)),
        static_cast<unsigned long long>(h.hist.Quantile(0.99)));
    first = false;
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

/// Name → metric maps. std::map: stable node addresses (the references the
/// registry hands out) plus name-sorted iteration for free, which is the
/// exposition order Snapshot promises. unique_ptr keeps the metric objects
/// themselves unmovable (they hold atomics).
struct Registry::Impl {
  mutable Mutex mu;
  std::map<std::string, std::unique_ptr<Counter>> counters
      RECOMP_GUARDED_BY(mu);
  std::map<std::string, std::unique_ptr<Gauge>> gauges RECOMP_GUARDED_BY(mu);
  std::map<std::string, std::unique_ptr<Histogram>> histograms
      RECOMP_GUARDED_BY(mu);
};

Registry& Registry::Get() {
  // Leaked on purpose: metric references cached in function-local statics
  // all over the library must stay valid through static destruction.
  static Registry* registry = new Registry();
  return *registry;
}

Registry::Impl& Registry::impl() const {
  static Impl* impl = new Impl();
  return *impl;
}

namespace {

/// A name registered as one kind must never come back as another: the two
/// call sites would silently update different metrics under one name.
[[noreturn]] void DieOnKindClash(const std::string& name) {
  std::fprintf(stderr,
               "FATAL obs::Registry: metric '%s' already registered as a "
               "different kind\n",
               name.c_str());
  std::abort();
}

template <typename T, typename Map, typename... Others>
T& GetOrCreate(const std::string& name, Map& map, const Others&... others) {
  if ((... || (others.find(name) != others.end()))) DieOnKindClash(name);
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(name, std::make_unique<T>()).first;
  }
  return *it->second;
}

}  // namespace

Counter& Registry::GetCounter(const std::string& name) {
  Impl& state = impl();
  MutexLock lock(&state.mu);
  return GetOrCreate<Counter>(name, state.counters, state.gauges,
                              state.histograms);
}

Gauge& Registry::GetGauge(const std::string& name) {
  Impl& state = impl();
  MutexLock lock(&state.mu);
  return GetOrCreate<Gauge>(name, state.gauges, state.counters,
                            state.histograms);
}

Histogram& Registry::GetHistogram(const std::string& name) {
  Impl& state = impl();
  MutexLock lock(&state.mu);
  return GetOrCreate<Histogram>(name, state.histograms, state.counters,
                                state.gauges);
}

MetricsSnapshot Registry::Snapshot() const {
  MetricsSnapshot snap;
  Impl& state = impl();
  MutexLock lock(&state.mu);
  snap.counters.reserve(state.counters.size());
  for (const auto& [name, counter] : state.counters) {
    snap.counters.push_back({name, counter->Value()});
  }
  snap.gauges.reserve(state.gauges.size());
  for (const auto& [name, gauge] : state.gauges) {
    snap.gauges.push_back({name, gauge->Value()});
  }
  snap.histograms.reserve(state.histograms.size());
  for (const auto& [name, histogram] : state.histograms) {
    snap.histograms.push_back({name, histogram->Snapshot()});
  }
  return snap;
}

}  // namespace recomp::obs
