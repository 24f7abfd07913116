// Tests that the synthetic generators deliver the structural properties the
// experiments rely on (DESIGN.md §4 substitution table).

#include <gtest/gtest.h>

#include <algorithm>

#include "columnar/stats.h"
#include "gen/generators.h"
#include "util/bits.h"

namespace recomp {
namespace {

TEST(GeneratorsTest, ShippedOrderDatesAreMonotoneWithRuns) {
  Column<uint32_t> col = gen::ShippedOrderDates(50000, 100.0, 1);
  ASSERT_EQ(col.size(), 50000u);
  EXPECT_TRUE(std::is_sorted(col.begin(), col.end()));
  ColumnStats stats = ComputeStats(col);
  // ~100 orders/day -> ~500 runs of ~100.
  EXPECT_GT(stats.avg_run_length, 50.0);
  EXPECT_LT(stats.avg_run_length, 200.0);
  // Consecutive dates step by exactly one day.
  uint32_t max_step = 0;
  for (uint64_t i = 1; i < col.size(); ++i) {
    max_step = std::max(max_step, col[i] - col[i - 1]);
  }
  EXPECT_EQ(max_step, 1u);
}

TEST(GeneratorsTest, Deterministic) {
  EXPECT_EQ(gen::ShippedOrderDates(1000, 10.0, 7),
            gen::ShippedOrderDates(1000, 10.0, 7));
  EXPECT_NE(gen::ShippedOrderDates(1000, 10.0, 7),
            gen::ShippedOrderDates(1000, 10.0, 8));
  EXPECT_EQ(gen::Uniform(1000, 1 << 20, 3), gen::Uniform(1000, 1 << 20, 3));
}

TEST(GeneratorsTest, SortedRunsShape) {
  Column<uint32_t> col = gen::SortedRuns(20000, 25.0, 3, 2);
  EXPECT_TRUE(std::is_sorted(col.begin(), col.end()));
  ColumnStats stats = ComputeStats(col);
  EXPECT_GT(stats.avg_run_length, 12.0);
  EXPECT_LT(stats.avg_run_length, 50.0);
}

TEST(GeneratorsTest, UniformBounds) {
  Column<uint32_t> col = gen::Uniform(10000, 1000, 3);
  EXPECT_LT(*std::max_element(col.begin(), col.end()), 1000u);
  Column<uint64_t> col64 = gen::Uniform64(10000, uint64_t{1} << 40, 4);
  EXPECT_LT(*std::max_element(col64.begin(), col64.end()), uint64_t{1} << 40);
}

TEST(GeneratorsTest, ZipfSkewAndDomain) {
  Column<uint32_t> col = gen::ZipfValues(50000, 32, 1.2, 5);
  ColumnStats stats = ComputeStats(col);
  EXPECT_LE(stats.distinct, 32u);
  EXPECT_GE(stats.distinct, 16u);  // Skewed but not degenerate.
}

TEST(GeneratorsTest, StepLevelsLocality) {
  Column<uint32_t> col = gen::StepLevels(32768, 256, 24, 6, 6);
  // Within-segment spread is bounded by the noise bits.
  EXPECT_LE(StepResidualWidth(col, 256), 6);
  // Global spread is much wider.
  const auto [lo, hi] = std::minmax_element(col.begin(), col.end());
  EXPECT_GT(bits::BitWidth(*hi - *lo), 16);
}

TEST(GeneratorsTest, LinearTrendShape) {
  Column<uint32_t> col = gen::LinearTrend(10000, 2.5, 8, 7);
  // De-trended residual must be small: check against a crude line.
  for (uint64_t i = 0; i < col.size(); ++i) {
    const double line = 1000.0 + 2.5 * static_cast<double>(i);
    EXPECT_NEAR(static_cast<double>(col[i]), line, 16.0);
  }
}

TEST(GeneratorsTest, OutlierMixFractions) {
  Column<uint32_t> col = gen::OutlierMix(100000, 8, 28, 0.02, 8);
  uint64_t wide = 0;
  for (uint32_t v : col) wide += bits::BitWidth(v) > 8 ? 1 : 0;
  const double fraction = static_cast<double>(wide) / 100000.0;
  EXPECT_NEAR(fraction, 0.02, 0.005);
}

TEST(GeneratorsTest, OutlierMixZeroAndFull) {
  Column<uint32_t> none = gen::OutlierMix(1000, 8, 28, 0.0, 9);
  for (uint32_t v : none) EXPECT_LE(bits::BitWidth(v), 8);
  Column<uint32_t> all = gen::OutlierMix(1000, 8, 28, 1.0, 10);
  for (uint32_t v : all) EXPECT_GT(bits::BitWidth(v), 8);
}

}  // namespace
}  // namespace recomp
