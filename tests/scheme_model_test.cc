// Tests for the model schemes (STEP, PLIN) and the MODELED combinator —
// the paper's FOR ≡ STEP + NS decomposition and its piecewise-linear
// enrichment.

#include <gtest/gtest.h>

#include "schemes/scheme.h"
#include "test_util.h"
#include "util/bits.h"
#include "util/random.h"

namespace recomp {
namespace {

using testutil::ExpectRoundTrip;

/// Step-level data: constant per segment of `ell`, plus bounded noise.
Column<uint32_t> StepColumn(uint64_t n, uint64_t ell, uint32_t noise_bound,
                            uint64_t seed) {
  Rng rng(seed);
  Column<uint32_t> col;
  col.reserve(n);
  uint32_t level = 1000;
  for (uint64_t i = 0; i < n; ++i) {
    if (i % ell == 0) level = 1000 + static_cast<uint32_t>(rng.Below(1u << 20));
    const uint32_t noise =
        noise_bound == 0 ? 0 : static_cast<uint32_t>(rng.Below(noise_bound));
    col.push_back(level + noise);
  }
  return col;
}

TEST(StepSchemeTest, ExactStepFunctionRoundTrips) {
  Column<uint32_t> col = StepColumn(4096, 256, 0, 51);
  CompressedColumn c = ExpectRoundTrip(AnyColumn(col), Step(256));
  EXPECT_EQ(c.PayloadBytes(), (4096 / 256) * 4u);
  EXPECT_DOUBLE_EQ(c.Ratio(), 256.0);
}

TEST(StepSchemeTest, NonStepDataRejected) {
  Column<uint32_t> col = StepColumn(1024, 128, 5, 52);  // noisy
  auto result = Compress(AnyColumn(col), Step(128));
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(StepSchemeTest, RaggedTailSegment) {
  Column<uint32_t> col{5, 5, 5, 9};  // ell=3: segments {5,5,5}, {9}
  ExpectRoundTrip(AnyColumn(col), Step(3));
}

TEST(ModeledStepTest, ReconstructsFor) {
  // MODELED(STEP) + NS == the classic FOR scheme.
  Column<uint32_t> col = StepColumn(65536, 128, 100, 53);  // 7-bit noise
  SchemeDescriptor for_desc = Modeled(Step(128)).With("residual", Ns());
  CompressedColumn c = ExpectRoundTrip(AnyColumn(col), for_desc);
  const SchemeDescriptor resolved = c.Descriptor();
  EXPECT_EQ(resolved.children.at("residual").params.width, 7);
  // refs: 512 * 4 bytes; residual: 65536 * 7 bits.
  EXPECT_EQ(c.PayloadBytes(), 512 * 4 + bits::PackedByteSize(65536, 7));
}

TEST(ModeledStepTest, ForBytesEqualStepPlusNs) {
  // The paper's additive identity, measured rather than estimated.
  Column<uint32_t> col = StepColumn(16384, 64, 37, 54);
  auto modeled = Compress(AnyColumn(col),
                          Modeled(Step(64)).With("residual", Ns()));
  ASSERT_OK(modeled.status());
  const uint64_t refs_bytes =
      modeled->root().parts.at("refs").column->ByteSize();
  const uint64_t residual_bytes =
      modeled->root().parts.at("residual").sub->PayloadBytes();
  EXPECT_EQ(modeled->PayloadBytes(), refs_bytes + residual_bytes);
}

TEST(ModeledStepTest, ResidualsAreNonNegativeMinima) {
  Column<uint32_t> col{10, 14, 12, 100, 103, 101};
  auto compressed =
      Compress(AnyColumn(col), Modeled(Step(3)));
  ASSERT_OK(compressed.status());
  EXPECT_EQ(compressed->root().parts.at("refs").column->As<uint32_t>(),
            (Column<uint32_t>{10, 100}));
  EXPECT_EQ(compressed->root().parts.at("residual").column->As<uint32_t>(),
            (Column<uint32_t>{0, 4, 2, 0, 3, 1}));
}

TEST(ModeledStepTest, AutoSegmentLengthPicksSensibly) {
  // Strong locality at scale 128: auto-ell should not pick a huge segment.
  Column<uint32_t> col = StepColumn(32768, 128, 16, 55);
  auto compressed =
      Compress(AnyColumn(col), Modeled(Step()).With("residual", Ns()));
  ASSERT_OK(compressed.status());
  const uint64_t ell =
      compressed->Descriptor().args[0].params.segment_length;
  EXPECT_GT(ell, 0u);
  EXPECT_LE(ell, 1024u);
  auto back = Decompress(*compressed);
  ASSERT_OK(back.status());
  EXPECT_EQ(back->As<uint32_t>(), col);
}

TEST(ModeledStepTest, WorksOnUint64) {
  Rng rng(56);
  Column<uint64_t> col;
  for (int i = 0; i < 10000; ++i) {
    col.push_back((uint64_t{1} << 40) + rng.Below(1000));
  }
  CompressedColumn c = ExpectRoundTrip(
      AnyColumn(col), Modeled(Step(512)).With("residual", Ns()));
  EXPECT_GT(c.Ratio(), 5.0);
}

/// Linear data with bounded noise.
Column<uint32_t> TrendColumn(uint64_t n, double slope, uint32_t noise,
                             uint64_t seed) {
  Rng rng(seed);
  Column<uint32_t> col;
  col.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    col.push_back(static_cast<uint32_t>(1000 + slope * i) +
                  static_cast<uint32_t>(noise ? rng.Below(noise) : 0));
  }
  return col;
}

TEST(PlinSchemeTest, ExactLineRoundTrips) {
  Column<uint32_t> col;
  for (uint32_t i = 0; i < 1024; ++i) col.push_back(500 + 3 * i);
  CompressedColumn c = ExpectRoundTrip(AnyColumn(col), Plin(256));
  // 4 segments, each base + slope.
  EXPECT_EQ(c.PayloadBytes(), 4u * (4 + 8));
}

TEST(PlinSchemeTest, NoisyLineRejectedStandalone) {
  Column<uint32_t> col = TrendColumn(1024, 2.5, 10, 61);
  EXPECT_FALSE(Compress(AnyColumn(col), Plin(128)).ok());
}

TEST(ModeledPlinTest, BeatsStepOnTrends) {
  // The paper's §II-B enrichment: on trending data the linear model leaves a
  // much narrower residual than the step model at the same segment length.
  Column<uint32_t> col = TrendColumn(65536, 3.7, 16, 62);
  auto step = Compress(AnyColumn(col),
                       Modeled(Step(1024)).With("residual", Ns()));
  auto plin = Compress(AnyColumn(col),
                       Modeled(Plin(1024)).With("residual", Ns()));
  ASSERT_OK(step.status());
  ASSERT_OK(plin.status());
  const int step_width =
      step->Descriptor().children.at("residual").params.width;
  const int plin_width =
      plin->Descriptor().children.at("residual").params.width;
  EXPECT_LT(plin_width, step_width);
  EXPECT_LT(plin->PayloadBytes(), step->PayloadBytes());

  auto back = Decompress(*plin);
  ASSERT_OK(back.status());
  EXPECT_EQ(back->As<uint32_t>(), col);
}

TEST(ModeledPlinTest, DecliningTrend) {
  Column<uint32_t> col;
  for (uint32_t i = 0; i < 8192; ++i) col.push_back(1u << 20) ;
  for (uint64_t i = 0; i < col.size(); ++i) {
    col[i] = (1u << 20) - static_cast<uint32_t>(i * 5);
  }
  ExpectRoundTrip(AnyColumn(col), Modeled(Plin(512)).With("residual", Ns()));
}

TEST(ModeledPlinTest, RoundTripsRandomData) {
  // Even on structure-free data the model is exact (residual just gets wide).
  ExpectRoundTrip(
      AnyColumn(testutil::UniformColumn<uint32_t>(4096, 1u << 28, 63)),
      Modeled(Plin(256)).With("residual", Ns()));
}

TEST(ModeledTest, RequiresModelArgument) {
  SchemeDescriptor bad(SchemeKind::kModeled);
  EXPECT_FALSE(Compress(AnyColumn(Column<uint32_t>{1}), bad).ok());
}

TEST(ModeledTest, EmptyColumn) {
  ExpectRoundTrip(AnyColumn(Column<uint32_t>{}),
                  Modeled(Step(128)).With("residual", Ns()));
}

}  // namespace
}  // namespace recomp
