// Query processing on the model: selections via segment pruning and
// approximate sums with gradual refinement (paper §II-B: the rough
// correspondence of column data to a simple model "can be used to speed up
// selections (e.g. range queries) ... or in the context of approximate or
// gradual-refinement query processing").

#include <cstdio>

#include "core/catalog.h"
#include "core/pipeline.h"
#include "exec/approx.h"
#include "exec/selection.h"
#include "gen/generators.h"
#include "ops/reduce.h"

int main() {
  using namespace recomp;

  // Sensor-style data: per-segment operating levels with bounded noise.
  Column<uint32_t> column =
      gen::StepLevels(/*n=*/1u << 20, /*segment_length=*/1024,
                      /*level_bits=*/24, /*noise_bits=*/8, /*seed=*/7);
  auto compressed = Compress(AnyColumn(column), MakeFor(1024));
  if (!compressed.ok()) return 1;
  std::printf("column: %zu rows compressed %.1fx as %s\n\n", column.size(),
              compressed->Ratio(),
              compressed->Descriptor().ToString().c_str());

  // A selective range query: the refs column prunes almost every segment.
  exec::RangePredicate predicate{1u << 22, (1u << 22) + (1u << 18)};
  auto selection = exec::SelectCompressed(*compressed, predicate);
  if (!selection.ok()) return 1;
  std::printf("SELECT ... WHERE %u <= v <= %u\n",
              static_cast<unsigned>(predicate.lo),
              static_cast<unsigned>(predicate.hi));
  std::printf("  strategy:          %s\n",
              exec::StrategyName(selection->stats.strategy));
  std::printf("  segments skipped:  %llu / %llu\n",
              static_cast<unsigned long long>(
                  selection->stats.segments_skipped),
              static_cast<unsigned long long>(selection->stats.segments_total));
  std::printf("  residuals decoded: %llu of %zu values (%.2f%%)\n",
              static_cast<unsigned long long>(selection->stats.values_decoded),
              column.size(),
              100.0 * static_cast<double>(selection->stats.values_decoded) /
                  static_cast<double>(column.size()));
  std::printf("  matches:           %zu rows\n\n",
              selection->positions.size());

  // Approximate SUM from the model alone, then refine to exact.
  const uint64_t exact = ops::Sum(column);
  auto approx = exec::ApproximateSum(*compressed);
  if (!approx.ok()) return 1;
  std::printf("SUM(v): exact = %llu\n", static_cast<unsigned long long>(exact));
  std::printf("  %-18s %20s %20s %14s\n", "refined segments", "lower bound",
              "upper bound", "rel. error");
  const uint64_t total = approx->total_segments;
  for (uint64_t k : {uint64_t{0}, total / 8, total / 2, total}) {
    auto refined = exec::RefineSum(*compressed, k);
    if (!refined.ok()) return 1;
    std::printf("  %6llu / %-8llu  %20llu %20llu %13.4f%%\n",
                static_cast<unsigned long long>(refined->refined_segments),
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(refined->lower),
                static_cast<unsigned long long>(refined->upper),
                100.0 * static_cast<double>(refined->Width()) /
                    static_cast<double>(exact));
    if (refined->lower > exact || refined->upper < exact) {
      std::fprintf(stderr, "bound violation!\n");
      return 1;
    }
  }
  std::printf("\nbounds always contained the exact answer: OK\n");
  return 0;
}
