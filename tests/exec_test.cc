// Tests for query execution on compressed data: selection pushdown,
// aggregate pushdown, and approximate/gradually-refined answering. Every
// pushdown is validated against the decompress-then-execute reference over
// randomized predicates (DESIGN.md invariant 4).

#include <gtest/gtest.h>

#include "core/catalog.h"
#include "core/pipeline.h"
#include "exec/aggregate.h"
#include "exec/approx.h"
#include "exec/selection.h"
#include "gen/generators.h"
#include "ops/reduce.h"
#include "ops/select.h"
#include "test_util.h"
#include "util/bits.h"

namespace recomp {
namespace {

using exec::RangePredicate;

/// Reference: decompress, then filter.
Column<uint32_t> ReferenceSelect(const CompressedColumn& compressed,
                                 const RangePredicate& pred) {
  auto column = Decompress(compressed);
  EXPECT_OK(column.status());
  auto positions = ops::SelectRange<uint32_t>(
      column->As<uint32_t>(), static_cast<uint32_t>(pred.lo),
      static_cast<uint32_t>(std::min<uint64_t>(pred.hi, ~uint32_t{0})));
  EXPECT_OK(positions.status());
  return *positions;
}

TEST(SelectionTest, RleRunsStrategy) {
  Column<uint32_t> col = gen::SortedRuns(20000, 50.0, 3, 61);
  auto compressed = Compress(AnyColumn(col), MakeRle());
  ASSERT_OK(compressed.status());
  RangePredicate pred{1100, 1200};
  auto result = exec::SelectCompressed(*compressed, pred);
  ASSERT_OK(result.status());
  EXPECT_EQ(result->stats.strategy, exec::Strategy::kRleRuns);
  EXPECT_GT(result->stats.runs_examined, 0u);
  EXPECT_EQ(result->positions, ReferenceSelect(*compressed, pred));
}

TEST(SelectionTest, DictCodesStrategy) {
  Column<uint32_t> col = gen::ZipfValues(20000, 64, 1.1, 62);
  auto compressed = Compress(AnyColumn(col), MakeDictNs());
  ASSERT_OK(compressed.status());
  for (uint64_t lo : {0ull, 1000ull, 3000000000ull}) {
    RangePredicate pred{lo, lo + 500000000};
    auto result = exec::SelectCompressed(*compressed, pred);
    ASSERT_OK(result.status());
    EXPECT_EQ(result->stats.strategy, exec::Strategy::kDictCodes);
    EXPECT_EQ(result->positions, ReferenceSelect(*compressed, pred));
  }
}

TEST(SelectionTest, DictEmptyAndFullRanges) {
  Column<uint32_t> col{10, 20, 30, 20};
  auto compressed = Compress(AnyColumn(col), MakeDictNs());
  ASSERT_OK(compressed.status());
  auto none = exec::SelectCompressed(*compressed, RangePredicate{40, 50});
  ASSERT_OK(none.status());
  EXPECT_TRUE(none->positions.empty());
  auto all =
      exec::SelectCompressed(*compressed, RangePredicate{0, ~uint64_t{0}});
  ASSERT_OK(all.status());
  EXPECT_EQ(all->positions.size(), 4u);
}

TEST(SelectionTest, StepPrunedStrategySkipsSegments) {
  // Strong segment locality: most segments miss a narrow predicate.
  Column<uint32_t> col = gen::StepLevels(65536, 512, 24, 6, 63);
  auto compressed = Compress(AnyColumn(col), MakeFor(512));
  ASSERT_OK(compressed.status());
  RangePredicate pred{1u << 20, (1u << 20) + (1u << 16)};
  auto result = exec::SelectCompressed(*compressed, pred);
  ASSERT_OK(result.status());
  EXPECT_EQ(result->stats.strategy, exec::Strategy::kStepPruned);
  EXPECT_GT(result->stats.segments_skipped, result->stats.segments_partial);
  EXPECT_LT(result->stats.values_decoded, col.size() / 4);
  EXPECT_EQ(result->positions, ReferenceSelect(*compressed, pred));
}

TEST(SelectionTest, StepPrunedFullSegments) {
  // A predicate covering everything: every segment is emitted without
  // decoding a single residual bit.
  Column<uint32_t> col = gen::StepLevels(8192, 256, 20, 5, 64);
  auto compressed = Compress(AnyColumn(col), MakeFor(256));
  ASSERT_OK(compressed.status());
  auto result =
      exec::SelectCompressed(*compressed, RangePredicate{0, ~uint64_t{0}});
  ASSERT_OK(result.status());
  EXPECT_EQ(result->stats.segments_full, result->stats.segments_total);
  EXPECT_EQ(result->stats.values_decoded, 0u);
  EXPECT_EQ(result->positions.size(), col.size());
}

TEST(SelectionTest, FallbackMatchesReference) {
  Column<uint32_t> col = gen::Uniform(10000, 1 << 16, 65);
  auto compressed = Compress(AnyColumn(col), MakeDeltaNs());
  ASSERT_OK(compressed.status());
  RangePredicate pred{100, 30000};
  auto result = exec::SelectCompressed(*compressed, pred);
  ASSERT_OK(result.status());
  EXPECT_EQ(result->stats.strategy, exec::Strategy::kDecompressScan);
  EXPECT_EQ(result->positions, ReferenceSelect(*compressed, pred));
}

TEST(SelectionTest, RandomizedPredicatesAcrossStrategies) {
  Rng rng(66);
  const std::vector<std::pair<const char*, SchemeDescriptor>> cases = {
      {"rle", MakeRle()},
      {"dict", MakeDictNs()},
      {"for", MakeFor(128)},
      {"delta", MakeDeltaNs()},
  };
  Column<uint32_t> col = gen::SortedRuns(8000, 10.0, 2, 67);
  for (const auto& [name, desc] : cases) {
    auto compressed = Compress(AnyColumn(col), desc);
    ASSERT_OK(compressed.status()) << name;
    for (int trial = 0; trial < 10; ++trial) {
      uint64_t a = rng.Range(900, 3000);
      uint64_t b = rng.Range(900, 3000);
      RangePredicate pred{std::min(a, b), std::max(a, b)};
      auto result = exec::SelectCompressed(*compressed, pred);
      ASSERT_OK(result.status()) << name;
      EXPECT_EQ(result->positions, ReferenceSelect(*compressed, pred))
          << name << " [" << pred.lo << "," << pred.hi << "]";
    }
  }
}

TEST(SelectionTest, SignedColumnsRejected) {
  auto compressed = Compress(AnyColumn(Column<int32_t>{1, 2}), Rpe());
  ASSERT_OK(compressed.status());
  EXPECT_FALSE(exec::SelectCompressed(*compressed, RangePredicate{}).ok());
}

// ---------------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------------

void ExpectAggregatesMatch(const Column<uint32_t>& col,
                           const SchemeDescriptor& desc,
                           exec::Strategy expected_sum_strategy) {
  auto compressed = Compress(AnyColumn(col), desc);
  ASSERT_OK(compressed.status());
  auto sum = exec::SumCompressed(*compressed);
  ASSERT_OK(sum.status());
  EXPECT_EQ(sum->value, ops::Sum(col));
  EXPECT_EQ(sum->strategy, expected_sum_strategy);
  auto min = exec::MinCompressed(*compressed);
  auto max = exec::MaxCompressed(*compressed);
  ASSERT_OK(min.status());
  ASSERT_OK(max.status());
  EXPECT_EQ(min->value, *ops::Min(col));
  EXPECT_EQ(max->value, *ops::Max(col));
}

TEST(AggregateTest, RleDotProduct) {
  ExpectAggregatesMatch(gen::SortedRuns(20000, 30.0, 3, 71), MakeRle(),
                        exec::Strategy::kRleDot);
}

TEST(AggregateTest, StepMass) {
  ExpectAggregatesMatch(gen::StepLevels(30000, 256, 20, 6, 72), MakeFor(256),
                        exec::Strategy::kStepMass);
}

TEST(AggregateTest, DictStrategies) {
  ExpectAggregatesMatch(gen::ZipfValues(20000, 100, 1.0, 73), MakeDictNs(),
                        exec::Strategy::kDictSum);
}

TEST(AggregateTest, FallbackScan) {
  ExpectAggregatesMatch(gen::Uniform(10000, 1 << 20, 74), MakeDeltaNs(),
                        exec::Strategy::kDecompressScan);
}

TEST(AggregateTest, EmptyColumn) {
  auto compressed = Compress(AnyColumn(Column<uint32_t>{}), MakeRle());
  ASSERT_OK(compressed.status());
  auto sum = exec::SumCompressed(*compressed);
  ASSERT_OK(sum.status());
  EXPECT_EQ(sum->value, 0u);
  EXPECT_FALSE(exec::MinCompressed(*compressed).ok());
  EXPECT_FALSE(exec::MaxCompressed(*compressed).ok());
}

TEST(AggregateTest, SumWrapsModulo64) {
  Column<uint64_t> col(3, ~uint64_t{0});
  auto compressed = Compress(AnyColumn(col), Rpe());
  ASSERT_OK(compressed.status());
  auto sum = exec::SumCompressed(*compressed);
  ASSERT_OK(sum.status());
  EXPECT_EQ(sum->value, 3 * ~uint64_t{0});  // Wrapped, matching ops::Sum.
}

// ---------------------------------------------------------------------------
// Approximate / gradually-refined answering
// ---------------------------------------------------------------------------

TEST(ApproxTest, BoundsContainExactAndRefinementConverges) {
  Column<uint32_t> col = gen::StepLevels(65536, 512, 22, 8, 81);
  auto compressed = Compress(AnyColumn(col), MakeFor(512));
  ASSERT_OK(compressed.status());
  const uint64_t exact = ops::Sum(col);

  auto coarse = exec::ApproximateSum(*compressed);
  ASSERT_OK(coarse.status());
  EXPECT_LE(coarse->lower, exact);
  EXPECT_GE(coarse->upper, exact);
  EXPECT_FALSE(coarse->IsExact());

  uint64_t previous_width = coarse->Width();
  for (uint64_t k : {32u, 64u, 96u, 128u}) {
    auto refined = exec::RefineSum(*compressed, k);
    ASSERT_OK(refined.status());
    EXPECT_LE(refined->lower, exact);
    EXPECT_GE(refined->upper, exact);
    EXPECT_LE(refined->Width(), previous_width);
    previous_width = refined->Width();
  }

  auto full = exec::RefineSum(*compressed, coarse->total_segments);
  ASSERT_OK(full.status());
  EXPECT_TRUE(full->IsExact());
  EXPECT_EQ(full->lower, exact);
}

TEST(ApproxTest, ErrorBoundIsTheAdvertisedLInfinity) {
  // The model-only interval width is exactly n * (2^w - 1).
  Column<uint32_t> col = gen::StepLevels(4096, 128, 20, 7, 82);
  auto compressed = Compress(AnyColumn(col), MakeFor(128));
  ASSERT_OK(compressed.status());
  const int w =
      compressed->Descriptor().children.at("residual").params.width;
  auto coarse = exec::ApproximateSum(*compressed);
  ASSERT_OK(coarse.status());
  EXPECT_EQ(coarse->Width(), col.size() * (bits::LowMask64(w)));
}

TEST(ApproxTest, WrongShapeRejected) {
  Column<uint32_t> col = gen::Uniform(100, 100, 83);
  auto compressed = Compress(AnyColumn(col), Ns());
  ASSERT_OK(compressed.status());
  EXPECT_FALSE(exec::ApproximateSum(*compressed).ok());
}

TEST(ApproxTest, ExactWhenResidualWidthZero) {
  // A perfect step function has a 0-bit residual: the model alone is exact.
  Column<uint32_t> col;
  for (uint32_t i = 0; i < 2048; ++i) col.push_back(100 * (i / 256));
  auto compressed = Compress(AnyColumn(col), MakeFor(256));
  ASSERT_OK(compressed.status());
  auto coarse = exec::ApproximateSum(*compressed);
  ASSERT_OK(coarse.status());
  EXPECT_TRUE(coarse->IsExact());
  EXPECT_EQ(coarse->lower, ops::Sum(col));
}

}  // namespace
}  // namespace recomp
