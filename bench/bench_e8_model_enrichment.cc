// E8 — Enriching the model: piecewise-linear instead of step (paper §II-B).
//
// Claim: "it is appealing to consider piecewise-linear functions, i.e. keep
// an offset from a diagonal line at some slope rather than the offset from a
// horizontal step." On trending data the line model leaves a far narrower
// residual; on flat data the extra slopes column is pure overhead — a
// crossover the table exposes by sweeping the slope.

#include "bench_common.h"
#include "core/catalog.h"
#include "gen/generators.h"

namespace {

using namespace recomp;
using bench::MustCompress;

constexpr uint64_t kRows = 1u << 21;
constexpr uint64_t kSegment = 1024;

void PrintTables() {
  bench::Section("E8: STEP vs PLIN models across slopes (ell=1024, noise=16)");
  std::printf("%-10s %16s %16s %14s %14s\n", "slope", "FOR bytes",
              "LFOR bytes", "FOR resid w", "LFOR resid w");
  for (double slope : {0.0, 0.05, 0.5, 2.0, 8.0, 64.0}) {
    Column<uint32_t> col = gen::LinearTrend(kRows, slope, 16, 61);
    CompressedColumn step = MustCompress(AnyColumn(col), MakeFor(kSegment));
    CompressedColumn line = MustCompress(AnyColumn(col), MakeLfor(kSegment));
    const int step_w = step.root()
                           .parts.at("residual")
                           .sub->scheme.params.width;
    const int line_w = line.root()
                           .parts.at("residual")
                           .sub->scheme.params.width;
    std::printf("%-10.2f %16llu %16llu %14d %14d\n", slope,
                static_cast<unsigned long long>(step.PayloadBytes()),
                static_cast<unsigned long long>(line.PayloadBytes()),
                step_w, line_w);
  }
  std::printf(
      "\nExpected shape: at slope 0 the slopes column makes LFOR slightly "
      "larger; as slope grows, FOR's residual width climbs with "
      "log2(slope*ell) while LFOR's stays at the noise width.\n");

  bench::Section("E8: model enrichment on real-ish mixed curvature");
  // Piecewise curvature: trend + sinusoid-ish bend via varying slope.
  Column<uint32_t> col(kRows);
  for (uint64_t i = 0; i < kRows; ++i) {
    const double x = static_cast<double>(i);
    col[i] = static_cast<uint32_t>(1e6 + 3.0 * x +
                                   2e4 * (x / kRows) * (x / kRows) * 4);
  }
  for (const auto& [name, desc] :
       std::vector<std::pair<const char*, SchemeDescriptor>>{
           {"FOR", MakeFor(kSegment)}, {"LFOR", MakeLfor(kSegment)}}) {
    CompressedColumn compressed = MustCompress(AnyColumn(col), desc);
    std::printf("%-6s %12llu bytes  (%5.1fx)  %s\n", name,
                static_cast<unsigned long long>(compressed.PayloadBytes()),
                compressed.Ratio(),
                compressed.Descriptor().ToString().c_str());
  }
}

void BM_ModelDecompress(benchmark::State& state) {
  const bool use_plin = state.range(0) == 1;
  Column<uint32_t> col = gen::LinearTrend(kRows, 2.0, 16, 62);
  CompressedColumn compressed = MustCompress(
      AnyColumn(col), use_plin ? MakeLfor(kSegment) : MakeFor(kSegment));
  for (auto _ : state) {
    auto out = Decompress(compressed);
    bench::CheckOk(out.status(), "decompress");
    benchmark::DoNotOptimize(out->size());
  }
  state.SetLabel(use_plin ? "MODELED(PLIN)+NS" : "MODELED(STEP)+NS");
  bench::SetThroughput(state, kRows * sizeof(uint32_t));
}
BENCHMARK(BM_ModelDecompress)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

RECOMP_BENCH_MAIN(PrintTables)
