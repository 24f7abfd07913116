// E10 — The composition space forms a ratio/speed Pareto frontier
// (paper Lessons 1: partial decompression trades "some of the potential
// compression ratio of the composite scheme for ease of decompression").
//
// For each workload, every analyzer candidate is actually compressed and
// decompression is wall-timed; the table marks the Pareto-optimal points
// (no other candidate is both smaller and faster). A second table walks a
// single composite through successive PeelPart steps — the decomposition
// ladder — showing bytes rising as operators fall away (bar the peel of a
// PATCHED with a plain base, which sheds only its patch list).

#include <chrono>

#include "bench_common.h"
#include "core/analyzer.h"
#include "core/catalog.h"
#include "core/plan_builder.h"
#include "core/rewrite.h"
#include "gen/generators.h"

namespace {

using namespace recomp;
using bench::MustCompress;
using bench::ValueOrDie;

constexpr uint64_t kRows = 1u << 20;

double MeasureDecompressSeconds(const CompressedColumn& compressed) {
  // Warm once, then take the best of 5 (robust on a noisy single core).
  bench::CheckOk(Decompress(compressed).status(), "warmup");
  double best = 1e99;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    auto out = Decompress(compressed);
    const auto stop = std::chrono::steady_clock::now();
    bench::CheckOk(out.status(), "decompress");
    benchmark::DoNotOptimize(out->size());
    best = std::min(best, std::chrono::duration<double>(stop - start).count());
  }
  return best;
}

void ParetoTable(const std::string& title, const Column<uint32_t>& col) {
  bench::Section("E10: ratio/speed frontier — " + title);
  auto outcomes = ValueOrDie(TrialCompressCandidates(AnyColumn(col)),
                             "analyzer");
  struct Point {
    std::string name;
    uint64_t bytes;
    double gbps;
  };
  std::vector<Point> points;
  for (const TrialOutcome& outcome : *&outcomes) {
    auto compressed = Compress(AnyColumn(col), outcome.descriptor);
    if (!compressed.ok()) continue;
    const double seconds = MeasureDecompressSeconds(*compressed);
    points.push_back({outcome.name, outcome.measured_bytes,
                      static_cast<double>(kRows * sizeof(uint32_t)) /
                          seconds / 1e9});
  }
  std::printf("%-20s %14s %10s %12s  %s\n", "candidate", "bytes", "ratio",
              "decomp GB/s", "pareto");
  for (const Point& p : points) {
    bool dominated = false;
    for (const Point& q : points) {
      if (q.bytes < p.bytes && q.gbps > p.gbps) dominated = true;
    }
    std::printf("%-20s %14llu %9.1fx %12.2f  %s\n", p.name.c_str(),
                static_cast<unsigned long long>(p.bytes),
                static_cast<double>(kRows * 4) / static_cast<double>(p.bytes),
                p.gbps, dominated ? "" : "*");
  }
}

void DecompositionLadder() {
  bench::Section(
      "E10: the decomposition ladder — peeling one sub-scheme at a time");
  Column<uint32_t> col = gen::ShippedOrderDates(kRows, 200.0, 81);
  CompressedColumn current = MustCompress(AnyColumn(col), MakeRleDelta());
  const char* steps[] = {"positions/deltas", "positions",
                         "values/deltas/recoded/base", "values/deltas/recoded",
                         "values/deltas", "values"};
  std::printf("%-44s %12s %10s\n", "descriptor", "bytes", "plan ops");
  auto report = [&](const CompressedColumn& compressed) {
    Plan plan = ValueOrDie(BuildDecompressionPlan(compressed), "plan");
    std::string desc = compressed.Descriptor().ToString();
    if (desc.size() > 43) desc = desc.substr(0, 40) + "...";
    std::printf("%-44s %12llu %10llu\n", desc.c_str(),
                static_cast<unsigned long long>(compressed.PayloadBytes()),
                static_cast<unsigned long long>(plan.OperatorCount()));
  };
  report(current);
  for (const char* path : steps) {
    auto peeled = PeelPart(current, path);
    if (!peeled.ok()) continue;  // Path may already be terminal.
    current = std::move(*peeled);
    report(current);
  }
  std::printf(
      "\nExpected shape: every peel strictly decreases plan operators and "
      "all but one weakly increase bytes — the paper's ratio-for-ease trade, "
      "step by step. The exception peels a PATCHED whose base is already "
      "plain: its patch list was pure overhead, so bytes fall slightly.\n");
}

}  // namespace

// E10 is entirely table-driven (its timings are measured inline with
// steady_clock, not via google-benchmark), so it uses a plain main.
int main() {
  ParetoTable("shipped-order dates", gen::ShippedOrderDates(kRows, 150.0, 82));
  ParetoTable("sensor step levels", gen::StepLevels(kRows, 512, 24, 6, 83));
  ParetoTable("zipf categories", gen::ZipfValues(kRows, 512, 1.1, 84));
  DecompositionLadder();
  return 0;
}
