// Integration tests for the composition pipeline: arbitrary descriptor trees
// compress/decompress losslessly, envelopes are self-describing, and errors
// surface cleanly. Includes the parameterized roundtrip sweep across
// (descriptor × workload) — invariant 1 of DESIGN.md.

#include <gtest/gtest.h>

#include <iterator>

#include "core/pipeline.h"
#include "test_util.h"
#include "util/random.h"

namespace recomp {
namespace {

using testutil::ExpectRoundTrip;
using testutil::RunsColumn;
using testutil::UniformColumn;

TEST(PipelineTest, UnknownChildPartRejected) {
  auto result =
      Compress(AnyColumn(Column<uint32_t>{1}), Rpe().With("nope", Ns()));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("nope"), std::string::npos);
}

TEST(PipelineTest, ComposingPastPackedRejected) {
  // NS output is bit-packed; there is no plain column left to compose with.
  auto result = Compress(AnyColumn(Column<uint32_t>{1}),
                         Ns().With("packed", Delta()));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PipelineTest, EnvelopeRecordsResolvedDescriptor) {
  Column<uint32_t> col = UniformColumn<uint32_t>(1000, 1 << 9, 81);
  auto compressed = Compress(AnyColumn(col), Dict().With("codes", Ns()));
  ASSERT_OK(compressed.status());
  SchemeDescriptor desc = compressed->Descriptor();
  EXPECT_EQ(desc.kind, SchemeKind::kDict);
  ASSERT_EQ(desc.children.count("codes"), 1u);
  EXPECT_GT(desc.children.at("codes").params.width, 0);
}

TEST(PipelineTest, DescriptorStringSurvivesCompression) {
  // Parse -> compress -> envelope descriptor -> string: a fixed point after
  // parameter resolution.
  auto desc = SchemeDescriptor::Parse(
      "RPE{positions:DELTA{deltas:NS},"
      "values:DELTA{deltas:ZIGZAG{recoded:NS}}}");
  ASSERT_OK(desc.status());
  Column<uint32_t> col = RunsColumn(5000, 0.05, 82);
  auto compressed = Compress(AnyColumn(col), *desc);
  ASSERT_OK(compressed.status());
  auto reparsed = SchemeDescriptor::Parse(compressed->Descriptor().ToString());
  ASSERT_OK(reparsed.status());
  EXPECT_EQ(*reparsed, compressed->Descriptor());
}

TEST(PipelineTest, CloneIsDeepAndEqualBytes) {
  Column<uint32_t> col = RunsColumn(2000, 0.1, 83);
  auto compressed =
      Compress(AnyColumn(col), Rpe().With("positions", Delta()));
  ASSERT_OK(compressed.status());
  CompressedColumn clone = compressed->Clone();
  EXPECT_EQ(clone.PayloadBytes(), compressed->PayloadBytes());
  // Mutating the clone must not affect the original.
  clone.root().parts.at("values").column->As<uint32_t>()[0] += 1;
  auto original_back = Decompress(*compressed);
  ASSERT_OK(original_back.status());
  EXPECT_EQ(original_back->As<uint32_t>(), col);
}

TEST(PipelineTest, ToStringShowsTree) {
  Column<uint32_t> col = RunsColumn(1000, 0.1, 84);
  auto compressed = Compress(
      AnyColumn(col),
      Rpe().With("positions", Delta().With("deltas", Ns())));
  ASSERT_OK(compressed.status());
  const std::string dump = compressed->ToString();
  EXPECT_NE(dump.find("RPE"), std::string::npos);
  EXPECT_NE(dump.find("positions"), std::string::npos);
  EXPECT_NE(dump.find("packed"), std::string::npos);
}

TEST(PipelineTest, InvalidDescriptorRejectedBeforeWork) {
  SchemeDescriptor bad(SchemeKind::kModeled);  // missing model arg
  EXPECT_FALSE(Compress(AnyColumn(Column<uint32_t>{1}), bad).ok());
}

// ---------------------------------------------------------------------------
// Parameterized roundtrip sweep: every catalog-shaped descriptor against
// every workload shape.
// ---------------------------------------------------------------------------

constexpr const char* kDescriptors[] = {
    "ID",
    "NS",
    "VBYTE",
    "DELTA",
    "DELTA{deltas:ZIGZAG{recoded:NS}}",
    "DELTA{deltas:ZIGZAG{recoded:VBYTE}}",
    "RPE",
    "RPE{positions:DELTA}",
    "RPE{positions:DELTA{deltas:NS},values:DELTA{deltas:ZIGZAG{recoded:NS}}}",
    "DICT{codes:NS}",
    "MODELED(STEP(128)){residual:NS}",
    "MODELED(STEP(1024)){residual:PATCHED{base:NS}}",
    "MODELED(PLIN(256)){residual:NS}",
    "PATCHED{base:NS}",
};

constexpr const char* kWorkloads[] = {"runs", "uniform_narrow", "uniform_wide",
                                      "trend"};

// A case names its descriptor and workload by index, not by pointer: gtest
// prints a parameter that has no printer as its raw bytes, and
// gtest_discover_tests keeps that text in the ctest name, so a pointer's
// ASLR-randomised bytes would give the same case a new name in every build.
struct SweepCase {
  size_t descriptor;  // index into kDescriptors
  size_t workload;    // index into kWorkloads
};

std::string SweepName(const ::testing::TestParamInfo<SweepCase>& info) {
  std::string name = std::string(kWorkloads[info.param.workload]) + "_";
  for (char c : std::string(kDescriptors[info.param.descriptor])) {
    name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  }
  if (name.size() > 100) name.resize(100);
  return name + std::to_string(info.index);
}

Column<uint32_t> MakeWorkload(const std::string& which, uint64_t seed) {
  if (which == "runs") return RunsColumn(20000, 0.03, seed);
  if (which == "uniform_narrow") {
    return UniformColumn<uint32_t>(20000, 1 << 10, seed);
  }
  if (which == "uniform_wide") {
    return UniformColumn<uint32_t>(20000, ~uint32_t{0}, seed);
  }
  // trend
  Rng rng(seed);
  Column<uint32_t> col;
  for (uint64_t i = 0; i < 20000; ++i) {
    col.push_back(static_cast<uint32_t>(17 + 2.5 * i + rng.Below(32)));
  }
  return col;
}

class RoundTripSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(RoundTripSweep, Lossless) {
  const SweepCase& param = GetParam();
  auto desc = SchemeDescriptor::Parse(kDescriptors[param.descriptor]);
  ASSERT_OK(desc.status());
  for (uint64_t seed : {101u, 202u}) {
    Column<uint32_t> col = MakeWorkload(kWorkloads[param.workload], seed);
    ExpectRoundTrip(AnyColumn(col), *desc);
  }
}

std::vector<SweepCase> AllSweepCases() {
  std::vector<SweepCase> cases;
  for (size_t desc = 0; desc < std::size(kDescriptors); ++desc) {
    for (size_t workload = 0; workload < std::size(kWorkloads); ++workload) {
      cases.push_back({desc, workload});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(DescriptorsTimesWorkloads, RoundTripSweep,
                         ::testing::ValuesIn(AllSweepCases()), SweepName);

// Types other than uint32 through a deep composite.
TEST(PipelineTest, DeepCompositeUint64) {
  Rng rng(85);
  Column<uint64_t> col;
  uint64_t v = uint64_t{1} << 45;
  for (int i = 0; i < 30000; ++i) {
    if (rng.Bernoulli(0.02)) v += rng.Below(100);
    col.push_back(v);
  }
  ExpectRoundTrip(
      AnyColumn(col),
      Rpe()
          .With("positions", Delta().With("deltas", Ns()))
          .With("values", Delta().With("deltas", ZigZag().With("recoded",
                                                               VByte()))));
}

TEST(PipelineTest, DeepCompositeUint16) {
  Column<uint16_t> col = UniformColumn<uint16_t>(10000, 64, 86);
  ExpectRoundTrip(AnyColumn(col), Dict().With("codes", Ns()));
}

}  // namespace
}  // namespace recomp
