// E12 (extension) — joins accelerated by the compressed form (paper §II-B's
// "speed up selections ... and joins").
//
// A semi-join probe (FK ⋉ key set) pushed into the compressed forms: DICT
// probes dictionary entries instead of rows, RLE probes run values, and the
// STEP model skips segments whose value window contains no key.

#include <algorithm>

#include "bench_common.h"
#include "core/catalog.h"
#include "exec/join.h"
#include "gen/generators.h"
#include "util/random.h"

namespace {

using namespace recomp;
using bench::MustCompress;

constexpr uint64_t kRows = 1u << 22;

Column<uint64_t> SampleKeys(const Column<uint32_t>& col, uint64_t count,
                            uint64_t seed) {
  Rng rng(seed);
  Column<uint64_t> keys;
  for (uint64_t i = 0; i < count; ++i) {
    keys.push_back(col[rng.Below(col.size())]);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

void PrintTables() {
  bench::Section("E12: semi-join probe counts by compressed shape (rows=2^22)");
  std::printf("%-26s %-14s %14s %14s %12s\n", "workload/scheme", "strategy",
              "probes", "rows matched", "probes/row");

  struct Case {
    const char* name;
    Column<uint32_t> column;
    SchemeDescriptor descriptor;
    exec::Strategy expected;
  };
  std::vector<Case> cases;
  cases.push_back({"runs / RLE", gen::SortedRuns(kRows, 64.0, 3, 1),
                   MakeRle(), exec::Strategy::kRleRuns});
  cases.push_back({"zipf / DICT-NS", gen::ZipfValues(kRows, 4096, 1.1, 2),
                   MakeDictNs(), exec::Strategy::kDictProbe});
  cases.push_back({"steps / FOR", gen::StepLevels(kRows, 1024, 24, 6, 3),
                   MakeFor(1024), exec::Strategy::kStepPruned});
  cases.push_back({"uniform / DELTA-NS (scan)", gen::Uniform(kRows, 1 << 24, 4),
                   MakeDeltaNs(), exec::Strategy::kDecompressScan});

  for (const Case& c : cases) {
    CompressedColumn compressed = MustCompress(AnyColumn(c.column),
                                               c.descriptor);
    Column<uint64_t> keys = SampleKeys(c.column, 64, 5);
    auto result = exec::SemiJoinCompressed(compressed, keys);
    bench::CheckOk(result.status(), c.name);
    std::printf("%-26s %-14s %14llu %14zu %12.4f\n", c.name,
                exec::StrategyName(result->strategy),
                static_cast<unsigned long long>(result->probes),
                result->positions.size(),
                static_cast<double>(result->probes) /
                    static_cast<double>(kRows));
    if (result->strategy != c.expected) {
      std::fprintf(stderr, "FAIL %s: expected strategy %s\n", c.name,
                   exec::StrategyName(c.expected));
      std::exit(1);
    }
  }
  std::printf(
      "\nExpected shape: pushdown probes are orders of magnitude below one "
      "per row (runs, dictionary entries, or surviving segments only).\n");
}

void BM_SemiJoin(benchmark::State& state) {
  const bool pushdown = state.range(0) == 1;
  Column<uint32_t> col = gen::SortedRuns(kRows, 64.0, 3, 6);
  CompressedColumn compressed = MustCompress(
      AnyColumn(col), pushdown ? MakeRle() : MakeDeltaNs());
  Column<uint64_t> keys = SampleKeys(col, 64, 7);
  for (auto _ : state) {
    auto result = exec::SemiJoinCompressed(compressed, keys);
    bench::CheckOk(result.status(), "join");
    benchmark::DoNotOptimize(result->positions.size());
  }
  state.SetLabel(pushdown ? "RLE run-probe" : "decompress-scan");
  bench::SetThroughput(state, kRows * sizeof(uint32_t));
}
BENCHMARK(BM_SemiJoin)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

RECOMP_BENCH_MAIN(PrintTables)
