// Quickstart: compress a column, inspect its pure-column structure, build
// and print the paper-style decompression plan, and round-trip the data.
//
//   $ ./build/examples/quickstart

#include <cstdio>

#include "core/catalog.h"
#include "core/pipeline.h"
#include "core/plan_builder.h"
#include "core/plan_executor.h"
#include "gen/generators.h"

int main() {
  using namespace recomp;

  // A sorted column with runs — the shape RLE-family schemes love.
  Column<uint32_t> column = gen::SortedRuns(/*n=*/100000,
                                            /*avg_run_length=*/40.0,
                                            /*max_step=*/3, /*seed=*/42);

  // Classic RLE is a *composition* in this library: RPE with the run
  // positions DELTA-compressed (paper, §II-A).
  const SchemeDescriptor rle = MakeRle();
  std::printf("descriptor: %s\n\n", rle.ToString().c_str());

  auto compressed = Compress(AnyColumn(column), rle);
  if (!compressed.ok()) {
    std::fprintf(stderr, "compression failed: %s\n",
                 compressed.status().ToString().c_str());
    return 1;
  }

  std::printf("compressed structure:\n%s\n", compressed->ToString().c_str());
  std::printf(
      "uncompressed: %llu bytes, compressed: %llu bytes, ratio %.1fx\n\n",
              static_cast<unsigned long long>(compressed->UncompressedBytes()),
              static_cast<unsigned long long>(compressed->PayloadBytes()),
              compressed->Ratio());

  // Decompression is a plan of ordinary columnar operators — Algorithm 1 of
  // the paper, reconstructed from the descriptor.
  auto plan = BuildDecompressionPlan(*compressed);
  if (!plan.ok()) {
    std::fprintf(stderr, "plan: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf("decompression plan (the paper's Algorithm 1):\n%s\n",
              plan->ToString().c_str());

  auto via_plan = ExecutePlan(*plan, *compressed);
  auto via_kernels = Decompress(*compressed);
  if (!via_plan.ok() || !via_kernels.ok()) {
    std::fprintf(stderr, "decompression failed\n");
    return 1;
  }
  const bool plan_ok = via_plan->As<uint32_t>() == column;
  const bool kernels_ok = via_kernels->As<uint32_t>() == column;
  std::printf("roundtrip via operator plan: %s\n", plan_ok ? "OK" : "FAIL");
  std::printf("roundtrip via fused kernels: %s\n", kernels_ok ? "OK" : "FAIL");
  return plan_ok && kernels_ok ? 0 : 1;
}
