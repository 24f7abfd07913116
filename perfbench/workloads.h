// The three closed-loop workloads and what each run reports.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>

#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: half the measured phase records spans, and the ladder
  /// replay and per-layer metrics follow the phase.
  bool trace = false;
  /// Hardware threads: the oracle's and the ladder pool's thread count,
  /// and ingest's pool workers plus its two load threads.
  unsigned nproc = 4;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  /// Human-readable lines for stderr (sample counts, ladder table).
  std::string report;
};

RunResult RunDashboard(const RunConfig& config, SpanLog* log);
RunResult RunAdhoc(const RunConfig& config, SpanLog* log);
RunResult RunIngest(const RunConfig& config, SpanLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
