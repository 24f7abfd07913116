// E11 — No line between decompression and query execution (paper Lessons 1).
//
// Aggregates computed *inside* the compressed forms: SUM over RLE is a dot
// product of lengths and values (work proportional to runs, not rows); SUM
// over FOR is ref-mass plus residual-mass; MIN/MAX over DICT read code
// extrema. The table verifies every pushdown against decompress-then-
// aggregate; the timings price pushdown vs materialization.

#include "bench_common.h"
#include "core/catalog.h"
#include "exec/aggregate.h"
#include "gen/generators.h"
#include "ops/reduce.h"

namespace {

using namespace recomp;
using bench::MustCompress;
using bench::ValueOrDie;

constexpr uint64_t kRows = 1u << 22;

struct Case {
  const char* name;
  SchemeDescriptor descriptor;
  Column<uint32_t> column;
  exec::Strategy sum_strategy;
  exec::Strategy extrema_strategy;
};

std::vector<Case> Cases() {
  std::vector<Case> cases;
  cases.push_back({"RLE over runs", MakeRle(),
                   gen::SortedRuns(kRows, 64.0, 3, 91),
                   exec::Strategy::kRleDot, exec::Strategy::kRleDot});
  cases.push_back({"FOR over step levels", MakeFor(1024),
                   gen::StepLevels(kRows, 1024, 24, 6, 92),
                   exec::Strategy::kStepMass, exec::Strategy::kStepMass});
  cases.push_back({"DICT over zipf", MakeDictNs(),
                   gen::ZipfValues(kRows, 1024, 1.1, 93),
                   exec::Strategy::kDictSum, exec::Strategy::kDictExtrema});
  return cases;
}

void PrintTables() {
  bench::Section("E11: aggregate pushdown correctness and strategies");
  std::printf("%-22s %-12s %22s %10s %10s\n", "workload", "aggregate",
              "value", "strategy", "check");
  for (const Case& c : Cases()) {
    CompressedColumn compressed = MustCompress(AnyColumn(c.column),
                                               c.descriptor);
    const uint64_t ref_sum = ops::Sum(c.column);
    const uint64_t ref_min = *ops::Min(c.column);
    const uint64_t ref_max = *ops::Max(c.column);

    auto sum = ValueOrDie(exec::SumCompressed(compressed), "sum");
    auto min = ValueOrDie(exec::MinCompressed(compressed), "min");
    auto max = ValueOrDie(exec::MaxCompressed(compressed), "max");
    const struct {
      const char* name;
      uint64_t got, want;
      exec::Strategy strategy, expected;
    } rows[] = {{"SUM", sum.value, ref_sum, sum.strategy, c.sum_strategy},
                {"MIN", min.value, ref_min, min.strategy, c.extrema_strategy},
                {"MAX", max.value, ref_max, max.strategy, c.extrema_strategy}};
    for (const auto& row : rows) {
      const bool ok = row.got == row.want && row.strategy == row.expected;
      std::printf("%-22s %-12s %22llu %10s %10s\n", c.name, row.name,
                  static_cast<unsigned long long>(row.got),
                  exec::StrategyName(row.strategy), ok ? "ok" : "FAIL");
      if (!ok) std::exit(1);
    }
  }
  std::printf(
      "\nExpected shape: run/dictionary pushdowns do work proportional to "
      "runs/codes, not rows — visible in the timings below.\n");
}

void BM_Sum(benchmark::State& state) {
  auto cases = Cases();
  const Case& c = cases[static_cast<size_t>(state.range(0))];
  const bool pushdown = state.range(1) == 1;
  CompressedColumn compressed = MustCompress(AnyColumn(c.column),
                                             c.descriptor);
  for (auto _ : state) {
    if (pushdown) {
      auto sum = exec::SumCompressed(compressed);
      bench::CheckOk(sum.status(), "sum");
      benchmark::DoNotOptimize(sum->value);
    } else {
      auto column = Decompress(compressed);
      bench::CheckOk(column.status(), "decompress");
      benchmark::DoNotOptimize(ops::Sum(column->As<uint32_t>()));
    }
  }
  state.SetLabel(std::string(c.name) +
                 (pushdown ? " / pushdown" : " / decompress+scan"));
  bench::SetThroughput(state, kRows * sizeof(uint32_t));
}
BENCHMARK(BM_Sum)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 0})
    ->Args({2, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

RECOMP_BENCH_MAIN(PrintTables)
