// Unit tests for the columnar operator library (the paper's decompression
// vocabulary): PrefixSum, Gather, Scatter, Constant, PopBack, Elementwise,
// Select, Reduce, FindRuns.

#include <gtest/gtest.h>

#include "ops/constant.h"
#include "ops/elementwise.h"
#include "ops/gather.h"
#include "ops/prefix_sum.h"
#include "ops/reduce.h"
#include "ops/run_boundaries.h"
#include "ops/scatter.h"
#include "ops/select.h"
#include "util/random.h"

namespace recomp {
namespace {

TEST(PrefixSumTest, InclusiveBasic) {
  Column<uint32_t> in{1, 2, 3, 4};
  EXPECT_EQ(ops::PrefixSumInclusive(in), (Column<uint32_t>{1, 3, 6, 10}));
}

TEST(PrefixSumTest, ExclusiveBasic) {
  Column<uint32_t> in{1, 2, 3, 4};
  EXPECT_EQ(ops::PrefixSumExclusive(in), (Column<uint32_t>{0, 1, 3, 6}));
}

TEST(PrefixSumTest, EmptyAndSingle) {
  EXPECT_TRUE(ops::PrefixSumInclusive(Column<uint32_t>{}).empty());
  EXPECT_EQ(ops::PrefixSumInclusive(Column<uint32_t>{9}),
            (Column<uint32_t>{9}));
  EXPECT_EQ(ops::PrefixSumExclusive(Column<uint32_t>{9}),
            (Column<uint32_t>{0}));
}

TEST(PrefixSumTest, WrapsModulo) {
  Column<uint8_t> in{200, 100};  // 300 mod 256 = 44
  EXPECT_EQ(ops::PrefixSumInclusive(in), (Column<uint8_t>{200, 44}));
}

TEST(PrefixSumTest, InPlaceMatchesOutOfPlace) {
  Rng rng(3);
  Column<uint64_t> in;
  for (int i = 0; i < 1000; ++i) in.push_back(rng.Below(1000));
  Column<uint64_t> expected = ops::PrefixSumInclusive(in);
  ops::PrefixSumInclusiveInPlace(&in);
  EXPECT_EQ(in, expected);
}

TEST(PrefixSumTest, InverseOfAdjacentDifference) {
  // PrefixSum(Delta(x)) == x, the identity behind the paper's DELTA scheme.
  Rng rng(4);
  Column<uint32_t> col;
  for (int i = 0; i < 500; ++i) {
    col.push_back(static_cast<uint32_t>(rng.Next()));
  }
  Column<uint32_t> deltas(col.size());
  uint32_t prev = 0;
  for (size_t i = 0; i < col.size(); ++i) {
    deltas[i] = col[i] - prev;
    prev = col[i];
  }
  EXPECT_EQ(ops::PrefixSumInclusive(deltas), col);
}

TEST(GatherTest, Basic) {
  Column<uint32_t> values{10, 20, 30};
  Column<uint32_t> indices{2, 0, 1, 2};
  auto out = ops::Gather(values, indices);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, (Column<uint32_t>{30, 10, 20, 30}));
}

TEST(GatherTest, OutOfRangeIndexRejected) {
  Column<uint32_t> values{10};
  Column<uint32_t> indices{1};
  EXPECT_EQ(ops::Gather(values, indices).status().code(),
            StatusCode::kOutOfRange);
}

TEST(GatherTest, EmptyIndices) {
  Column<uint64_t> values{1, 2};
  auto out = ops::Gather(values, Column<uint32_t>{});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(ScatterTest, IntoExisting) {
  Column<uint32_t> target(5, 0);
  Status s = ops::ScatterInto(Column<uint32_t>{7, 8}, Column<uint32_t>{1, 3},
                              &target);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(target, (Column<uint32_t>{0, 7, 0, 8, 0}));
}

TEST(ScatterTest, ArityMismatchRejected) {
  Column<uint32_t> target(5, 0);
  EXPECT_FALSE(ops::ScatterInto(Column<uint32_t>{7}, Column<uint32_t>{1, 2},
                                &target)
                   .ok());
}

TEST(ScatterTest, OutOfRangeRejected) {
  Column<uint32_t> target(2, 0);
  EXPECT_EQ(ops::ScatterInto(Column<uint32_t>{7}, Column<uint32_t>{2}, &target)
                .code(),
            StatusCode::kOutOfRange);
}

TEST(ScatterTest, ConstantVariant) {
  auto out = ops::ScatterConstant<uint32_t>(1, Column<uint32_t>{0, 4}, 6);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, (Column<uint32_t>{1, 0, 0, 0, 1, 0}));
}

TEST(ConstantTest, FillsValue) {
  EXPECT_EQ(ops::Constant<uint16_t>(3, 4), (Column<uint16_t>{3, 3, 3, 3}));
  EXPECT_TRUE(ops::Constant<uint16_t>(3, 0).empty());
}

TEST(PopBackTest, DropsLast) {
  EXPECT_EQ(ops::PopBack(Column<uint32_t>{1, 2, 3}), (Column<uint32_t>{1, 2}));
  EXPECT_TRUE(ops::PopBack(Column<uint32_t>{1}).empty());
  EXPECT_TRUE(ops::PopBack(Column<uint32_t>{}).empty());
}

TEST(ElementwiseTest, AllOps) {
  Column<uint32_t> a{10, 20, 30};
  Column<uint32_t> b{3, 4, 5};
  EXPECT_EQ(*ops::Elementwise(ops::BinOp::kAdd, a, b),
            (Column<uint32_t>{13, 24, 35}));
  EXPECT_EQ(*ops::Elementwise(ops::BinOp::kSub, a, b),
            (Column<uint32_t>{7, 16, 25}));
  EXPECT_EQ(*ops::Elementwise(ops::BinOp::kMul, a, b),
            (Column<uint32_t>{30, 80, 150}));
  EXPECT_EQ(*ops::Elementwise(ops::BinOp::kDiv, a, b),
            (Column<uint32_t>{3, 5, 6}));
}

TEST(ElementwiseTest, SubWrapsUnsigned) {
  Column<uint32_t> a{1};
  Column<uint32_t> b{2};
  EXPECT_EQ(*ops::Elementwise(ops::BinOp::kSub, a, b),
            (Column<uint32_t>{~uint32_t{0}}));
}

TEST(ElementwiseTest, DivisionByZeroRejected) {
  Column<uint32_t> a{1};
  Column<uint32_t> b{0};
  EXPECT_FALSE(ops::Elementwise(ops::BinOp::kDiv, a, b).ok());
  EXPECT_FALSE(ops::ElementwiseScalar<uint32_t>(ops::BinOp::kDiv, a, 0).ok());
}

TEST(ElementwiseTest, ArityMismatchRejected) {
  EXPECT_FALSE(ops::Elementwise(ops::BinOp::kAdd, Column<uint32_t>{1},
                                Column<uint32_t>{1, 2})
                   .ok());
}

TEST(ElementwiseTest, ScalarForms) {
  Column<uint32_t> a{10, 20};
  EXPECT_EQ(*ops::ElementwiseScalar<uint32_t>(ops::BinOp::kAdd, a, 5),
            (Column<uint32_t>{15, 25}));
  EXPECT_EQ(*ops::ElementwiseScalar<uint32_t>(ops::BinOp::kDiv, a, 4),
            (Column<uint32_t>{2, 5}));
  EXPECT_EQ(*ops::ElementwiseScalar<uint32_t>(ops::BinOp::kMul, a, 3),
            (Column<uint32_t>{30, 60}));
  EXPECT_EQ(*ops::ElementwiseScalar<uint32_t>(ops::BinOp::kSub, a, 1),
            (Column<uint32_t>{9, 19}));
}

TEST(SelectTest, RangeInclusiveBothEnds) {
  Column<uint32_t> col{5, 1, 7, 5, 9};
  auto out = ops::SelectRange<uint32_t>(col, 5, 7);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, (Column<uint32_t>{0, 2, 3}));
  EXPECT_EQ(ops::CountRange<uint32_t>(col, 5, 7), 3u);
}

TEST(SelectTest, EmptyResult) {
  Column<uint32_t> col{5, 1};
  auto out = ops::SelectRange<uint32_t>(col, 100, 200);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(SelectTest, SignedRange) {
  Column<int32_t> col{-5, 0, 5};
  auto out = ops::SelectRange<int32_t>(col, -5, 0);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, (Column<uint32_t>{0, 1}));
}

TEST(ReduceTest, SumMinMax) {
  Column<uint32_t> col{4, 2, 9};
  EXPECT_EQ(ops::Sum(col), 15u);
  EXPECT_EQ(*ops::Min(col), 2u);
  EXPECT_EQ(*ops::Max(col), 9u);
}

TEST(ReduceTest, EmptyMinMaxRejected) {
  Column<uint32_t> empty;
  EXPECT_EQ(ops::Sum(empty), 0u);
  EXPECT_FALSE(ops::Min(empty).ok());
  EXPECT_FALSE(ops::Max(empty).ok());
}

TEST(FindRunsTest, Basic) {
  Column<uint32_t> col{7, 7, 7, 3, 3, 9};
  auto runs = ops::FindRuns(col);
  ASSERT_TRUE(runs.ok());
  EXPECT_EQ(runs->values, (Column<uint32_t>{7, 3, 9}));
  EXPECT_EQ(runs->lengths, (Column<uint32_t>{3, 2, 1}));
  EXPECT_EQ(runs->end_positions, (Column<uint32_t>{3, 5, 6}));
}

TEST(FindRunsTest, EmptyAndSingle) {
  auto empty = ops::FindRuns(Column<uint32_t>{});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->values.empty());

  auto single = ops::FindRuns(Column<uint32_t>{4});
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->values, (Column<uint32_t>{4}));
  EXPECT_EQ(single->end_positions, (Column<uint32_t>{1}));
}

TEST(FindRunsTest, AllDistinctAndAllEqual) {
  auto distinct = ops::FindRuns(Column<uint32_t>{1, 2, 3});
  ASSERT_TRUE(distinct.ok());
  EXPECT_EQ(distinct->values.size(), 3u);

  auto equal = ops::FindRuns(Column<uint32_t>(1000, 5));
  ASSERT_TRUE(equal.ok());
  EXPECT_EQ(equal->values.size(), 1u);
  EXPECT_EQ(equal->lengths[0], 1000u);
}

TEST(FindRunsTest, LengthsAreDeltasOfEndPositions) {
  // The identity behind RLE == RPE ∘ {positions: DELTA} (paper §II-A).
  Rng rng(8);
  Column<uint32_t> col;
  for (int r = 0; r < 200; ++r) {
    const uint32_t v = static_cast<uint32_t>(rng.Below(10));
    const uint64_t len = rng.Geometric(0.2);
    for (uint64_t i = 0; i < len; ++i) col.push_back(v);
  }
  auto runs = ops::FindRuns(col);
  ASSERT_TRUE(runs.ok());
  uint32_t prev = 0;
  for (size_t r = 0; r < runs->lengths.size(); ++r) {
    EXPECT_EQ(runs->lengths[r], runs->end_positions[r] - prev);
    prev = runs->end_positions[r];
  }
  EXPECT_EQ(runs->end_positions.back(), col.size());
}

}  // namespace
}  // namespace recomp
