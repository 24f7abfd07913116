#include "common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

void AddBucketDelta(const recomp::obs::MetricsSnapshot& before,
                    const recomp::obs::MetricsSnapshot& after, const char* name, Buckets* into) {
  const auto a = after.histogram(name);
  const auto b = before.histogram(name);
  for (int i = 0; i < recomp::obs::kHistogramBuckets; ++i) (*into)[i] += a.buckets[i] - b.buckets[i];
}

double BucketMedianMs(const Buckets& buckets) {
  uint64_t count = 0;
  for (const uint64_t b : buckets) count += b;
  if (count == 0) return 0;
  const double target = 0.5 * static_cast<double>(count);
  double seen = 0;
  for (int i = 0; i < recomp::obs::kHistogramBuckets; ++i) {
    if (buckets[i] == 0) continue;
    if (seen + static_cast<double>(buckets[i]) >= target) {
      const double lo = i == 0 ? 0 : static_cast<double>(uint64_t{1} << (i - 1));
      const double hi = static_cast<double>(recomp::obs::HistogramBucketBound(i));
      return (lo + (hi - lo) * (target - seen) / static_cast<double>(buckets[i])) / 1e6;
    }
    seen += static_cast<double>(buckets[i]);
  }
  return 0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double CalibrationLoopSeconds() {
  const auto start = Clock::now();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint64_t i = 0; i < 100'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double seconds = Seconds(start, Clock::now());
  // Keeps the loop from being folded away.
  if (x == 0) std::fprintf(stderr, "calibration: degenerate state\n");
  return seconds;
}

}  // namespace perfbench
