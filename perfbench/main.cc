// perfbench: the repository's end-to-end benchmark (see run.py and NOTES.md).
//
//   perfbench --workload dashboard|adhoc|ingest --seed N --seconds S
//             --trace 0|1 [--spans FILE]
//
// Prints a calibration line, then as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// untraced, the per-layer metrics traced. Human-readable detail goes to
// stderr. Exits 1 when an answer disagrees with the oracle, 2 when the run
// could not be set up.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

std::string Unit(const std::string& name) {
  static const std::pair<const char*, const char*> kEndToEnd[] = {
      {"setup_s", "s"},          {"qps", "1/s"},
      {"p50_ms", "ms"},          {"p90_ms", "ms"},
      {"success_frac", "ratio"}, {"ingest_mb_s", "MB/s"},
      {"bytes_per_user_byte", "ratio"}, {"peak_rss_mb", "MiB"}};
  for (const auto& [n, u] : kEndToEnd) {
    if (name == n) return u;
  }
  auto has = [&](const char* s) { return name.find(s) != std::string::npos; };
  if (has("_gb_s")) return "GB/s";
  if (has("_mb_s")) return "MB/s";
  if (has("_ms")) return "ms";
  if (has("_us")) return "us";
  if (has("per_batch") || has("per_query") || has("backlog")) return "count";
  return "ratio";
}

/// Median memcpy bandwidth over a 64 MiB buffer: the machine-speed
/// reference printed with every run.
double MemcpyGbS() {
  std::vector<char> src(64u << 20, 1), dst(64u << 20);
  std::vector<double> rates;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    std::memcpy(dst.data(), src.data(), src.size());
    asm volatile("" : : "r"(dst.data()) : "memory");
    rates.push_back(static_cast<double>(src.size()) / 1e9 / Seconds(t0, Clock::now()));
  }
  return Median(rates);
}

unsigned AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload dashboard|adhoc|ingest --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\n");
  std::exit(2);
}

void PrintMetrics(const std::map<std::string, double>& metrics, bool* first) {
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", *first ? "" : ", ", name.c_str(),
                std::isfinite(value) ? value : 0.0, Unit(name).c_str());
    *first = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string spans_path;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
      have_seconds = config.seconds > 0;
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
      have_trace = config.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      Usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || !have_seconds || !have_trace) Usage();
  config.nproc = AvailableCpus();

  using Runner = RunResult (*)(const RunConfig&, SpanLog*);
  Runner run = nullptr;
  if (config.workload == "dashboard") run = RunDashboard;
  if (config.workload == "adhoc") run = RunAdhoc;
  if (config.workload == "ingest") run = RunIngest;
  if (run == nullptr) Usage();

  const double loop_s = CalibrationLoopSeconds();
  const double memcpy_gb_s = MemcpyGbS();
  std::printf("# calibration {\"loop_s\": %.6f, \"memcpy_gb_s\": %.4f, \"nproc\": %u}\n", loop_s,
              memcpy_gb_s, config.nproc);
  std::fflush(stdout);

  SpanLog log;
  const RunResult result = run(config, &log);
  std::fputs(result.report.c_str(), stderr);
  if (config.trace) {
    std::fprintf(stderr, "trace: %zu spans\n", log.size());
    if (!spans_path.empty() && !log.WriteJson(spans_path)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", spans_path.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  PrintMetrics(config.trace ? result.per_layer : result.end_to_end, &first);
  std::printf("}}\n");
  return result.correct ? 0 : 1;
}
