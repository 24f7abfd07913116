// Small helpers shared by the benchmark's translation units: clocks,
// quantiles, fatal-error checks and the process's peak RSS.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/result.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Prints `what` to stderr and exits 2. Used for failures of the benchmark's
/// own set-up, which leave no result to report.
[[noreturn]] void Die(const std::string& what);

inline void Check(const recomp::Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

template <typename T>
T Check(recomp::Result<T> result, const char* what) {
  Check(result.status(), what);
  return std::move(result).ValueOrDie();
}

/// Linear-interpolated q-quantile (q in [0, 1]); 0 for no samples.
double Quantile(std::vector<double> samples, double q);

inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

using Buckets = std::array<uint64_t, recomp::obs::kHistogramBuckets>;

/// Adds to `*into` the counts histogram `name` gained from `before` to `after`.
void AddBucketDelta(const recomp::obs::MetricsSnapshot& before,
                    const recomp::obs::MetricsSnapshot& after, const char* name, Buckets* into);

/// Median of power-of-two histogram buckets of nanoseconds, interpolated
/// within the bucket, in milliseconds; 0 for no samples.
double BucketMedianMs(const Buckets& buckets);

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

/// Seconds a fixed single-thread integer loop takes: the run's machine-speed
/// reference, printed beside the metrics so machine drift can be told apart
/// from a change in the program.
double CalibrationLoopSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
