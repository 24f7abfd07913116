// E4 — FOR decompression as a columnar-operator plan (paper Algorithm 2).
//
// Prints the derived plan (the paper's listing: ones, id, ells, ÷, Gather,
// +, with an Unpack for the NS-packed offsets) and prices the strategies:
// naive plan, optimizer-fused plan (Replicate), per-scheme kernels, and the
// single-pass fused kernel.

#include "bench_common.h"
#include "core/catalog.h"
#include "core/fused.h"
#include "core/plan_builder.h"
#include "core/plan_executor.h"
#include "core/plan_optimizer.h"
#include "gen/generators.h"
#include "ops/dispatch.h"

namespace {

using namespace recomp;
using bench::MustCompress;
using bench::ValueOrDie;

constexpr uint64_t kRows = 1u << 22;
constexpr uint64_t kSegment = 1024;

CompressedColumn MakeInput() {
  Column<uint32_t> col = gen::StepLevels(kRows, kSegment, 24, 8, 21);
  return MustCompress(AnyColumn(col), MakeFor(kSegment));
}

void PrintTables() {
  bench::Section("E4: the FOR decompression plan (paper Algorithm 2)");
  CompressedColumn compressed = MakeInput();
  std::printf("descriptor: %s\n\n",
              compressed.Descriptor().ToString().c_str());
  Plan plan = ValueOrDie(BuildDecompressionPlan(compressed), "plan");
  std::printf("%s", plan.ToString().c_str());
  std::printf("operator count: %llu (Algorithm 2 lists 6, +1 for Unpack)\n",
              static_cast<unsigned long long>(plan.OperatorCount()));

  Plan optimized = ValueOrDie(OptimizePlan(plan), "optimize");
  bench::Section(
      "E4: after fusion (id generation + divide + gather -> Replicate)");
  std::printf("%s", optimized.ToString().c_str());

  auto a = ValueOrDie(ExecutePlan(plan, compressed), "naive");
  auto b = ValueOrDie(ExecutePlan(optimized, compressed), "optimized");
  auto c = ValueOrDie(Decompress(compressed), "kernels");
  auto d = ValueOrDie(FusedDecompress(compressed), "fused");
  if (!(a == b && b == c && c == d)) {
    std::fprintf(stderr, "FATAL: strategies disagree\n");
    std::exit(1);
  }
  std::printf("\nall four strategies produce identical columns: OK\n");
}

void BM_ForDecompress(benchmark::State& state) {
  CompressedColumn compressed = MakeInput();
  Plan plan = ValueOrDie(BuildDecompressionPlan(compressed), "plan");
  Plan optimized = ValueOrDie(OptimizePlan(plan), "optimize");
  const char* labels[] = {"operator-plan/naive", "operator-plan/fused-ops",
                          "per-scheme-kernels", "single-pass-fused"};
  for (auto _ : state) {
    Result<AnyColumn> out = [&]() -> Result<AnyColumn> {
      switch (state.range(0)) {
        case 0:
          return ExecutePlan(plan, compressed);
        case 1:
          return ExecutePlan(optimized, compressed);
        case 2:
          return Decompress(compressed);
        default:
          return FusedDecompress(compressed);
      }
    }();
    bench::CheckOk(out.status(), "decompress");
    benchmark::DoNotOptimize(out->size());
  }
  state.SetLabel(labels[state.range(0)]);
  bench::SetThroughput(state, kRows * sizeof(uint32_t));
}
BENCHMARK(BM_ForDecompress)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_ForDecompressScalarVsSimd(benchmark::State& state) {
  // The NS unpack inside FOR is the SIMD-sensitive kernel.
  ops::ForceScalar(state.range(0) == 0);
  CompressedColumn compressed = MakeInput();
  for (auto _ : state) {
    auto out = FusedDecompress(compressed);
    bench::CheckOk(out.status(), "decompress");
    benchmark::DoNotOptimize(out->size());
  }
  ops::ForceScalar(false);
  state.SetLabel(state.range(0) == 0 ? "forced-scalar" : "avx2-dispatch");
  bench::SetThroughput(state, kRows * sizeof(uint32_t));
}
BENCHMARK(BM_ForDecompressScalarVsSimd)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

RECOMP_BENCH_MAIN(PrintTables)
