// Shared helpers for the experiment benchmarks (E1..E11, DESIGN.md §3).
//
// Every binary prints (a) a deterministic paper-style table computed before
// any timing, then (b) google-benchmark timing series. Binaries exit
// non-zero if a structural expectation (e.g. a roundtrip) fails, so the
// bench suite doubles as an integration check.

#ifndef RECOMP_BENCH_BENCH_COMMON_H_
#define RECOMP_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "core/pipeline.h"
#include "util/result.h"

namespace recomp::bench {

/// Prints a rule line and a section title.
inline void Section(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Aborts the binary with a message when a Result/Status is not OK
/// (benchmarks must not time broken configurations).
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T ValueOrDie(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).ValueOrDie();
}

/// Compresses or dies; returns the envelope.
inline CompressedColumn MustCompress(const AnyColumn& input,
                                     const SchemeDescriptor& desc) {
  return ValueOrDie(Compress(input, desc), desc.ToString().c_str());
}

/// Sets bytes-per-second throughput (uncompressed bytes pushed per
/// iteration) on a benchmark state.
inline void SetThroughput(benchmark::State& state, uint64_t bytes) {
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}

/// Flat metric sink for machine-readable bench output. Metrics set during
/// the deterministic tables are written as one JSON object (string key →
/// number) when the binary runs with `--json[=PATH]`; without the flag the
/// report is a no-op.
class JsonReport {
 public:
  static JsonReport& Instance() {
    static JsonReport report;
    return report;
  }

  void Enable(std::string path) {
    enabled_ = true;
    path_ = std::move(path);
  }

  bool enabled() const { return enabled_; }

  void Set(const std::string& key, double value) { metrics_[key] = value; }

  /// Writes the collected metrics; dies if the file cannot be written so CI
  /// never mistakes a missing report for an empty one.
  void Write() const {
    if (!enabled_) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "FATAL cannot write %s\n", path_.c_str());
      std::exit(1);
    }
    std::fprintf(f, "{");
    bool first = true;
    for (const auto& [key, value] : metrics_) {
      std::fprintf(f, "%s\n  \"%s\": %.6f", first ? "" : ",", key.c_str(),
                   value);
      first = false;
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("JSON report: %s (%zu metrics)\n", path_.c_str(),
                metrics_.size());
  }

 private:
  bool enabled_ = false;
  std::string path_;
  std::map<std::string, double> metrics_;
};

/// The report path named after the binary: bench_e18_query_service →
/// BENCH_E18.json, bench_a2_decode_bandwidth → BENCH_A2.json.
inline std::string DefaultJsonPath(const char* argv0) {
  std::string name = argv0;
  name = name.substr(name.find_last_of('/') + 1);
  if (name.rfind("bench_", 0) == 0) name = name.substr(6);
  name = name.substr(0, name.find('_'));
  for (char& c : name) c = static_cast<char>(std::toupper(c));
  return "BENCH_" + name + ".json";
}

/// Consumes `--json[=PATH]` from argv before google-benchmark sees it
/// (benchmark::Initialize rejects flags it does not recognize). PATH
/// defaults to DefaultJsonPath(argv[0]).
inline void StripJsonFlag(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      JsonReport::Instance().Enable(DefaultJsonPath(argv[0]));
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      JsonReport::Instance().Enable(argv[i] + 7);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

}  // namespace recomp::bench

/// Standard main: deterministic tables first, then timing. Accepts
/// `--json[=PATH]` (default: DefaultJsonPath of the binary's name) to dump
/// metrics recorded via JsonReport during the tables.
#define RECOMP_BENCH_MAIN(print_tables)                                \
  int main(int argc, char** argv) {                                    \
    recomp::bench::StripJsonFlag(&argc, argv);                         \
    print_tables();                                                    \
    recomp::bench::JsonReport::Instance().Write();                     \
    benchmark::Initialize(&argc, argv);                                \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {          \
      return 1;                                                        \
    }                                                                  \
    benchmark::RunSpecifiedBenchmarks();                               \
    benchmark::Shutdown();                                             \
    return 0;                                                          \
  }

#endif  // RECOMP_BENCH_BENCH_COMMON_H_
