// Fuzz-style agreement tests for the fused decode cascade (core/fused.h):
// for every FusedShape with a dedicated kernel, across random widths,
// lengths, exception densities and, for the bit-packed shapes, both u32 and
// u64 values, FusedDecompress must agree bit for bit with the per-scheme
// reference recursion under both dispatch paths (ForceScalar on and off).
// Randomly damaged envelopes must behave identically too: both decoders
// succeed with the same bytes, or both fail.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/catalog.h"
#include "core/fused.h"
#include "core/pipeline.h"
#include "ops/dispatch.h"
#include "util/bits.h"
#include "util/random.h"

namespace recomp {
namespace {

struct ShapeSpec {
  const char* name;
  FusedShape expected;
  SchemeDescriptor desc;
  AnyColumn data;
};

template <typename T = uint32_t>
Column<T> RandomMasked(Rng& rng, uint64_t n, int width) {
  Column<T> col;
  const uint64_t mask = bits::LowMask64(width);
  for (uint64_t i = 0; i < n; ++i) {
    col.push_back(static_cast<T>(rng.Next() & mask));
  }
  return col;
}

/// Mostly `base_width`-bit values with `density` of full-width outliers.
template <typename T = uint32_t>
Column<T> OutlierData(Rng& rng, uint64_t n, int base_width, double density) {
  Column<T> col = RandomMasked<T>(rng, n, base_width);
  for (uint64_t i = 0; i < n; ++i) {
    if (rng.Below(1000) < static_cast<uint64_t>(density * 1000)) {
      col[i] = static_cast<T>(rng.Next());
    }
  }
  return col;
}

Column<uint32_t> RunData(Rng& rng, uint64_t n, uint64_t max_run, int width) {
  Column<uint32_t> col;
  const uint32_t mask = bits::LowMask32(width);
  while (col.size() < n) {
    const uint64_t len = std::min<uint64_t>(1 + rng.Below(max_run),
                                            n - col.size());
    const uint32_t v = static_cast<uint32_t>(rng.Next()) & mask;
    for (uint64_t i = 0; i < len; ++i) col.push_back(v);
  }
  return col;
}

/// One random instance of every fused shape.
std::vector<ShapeSpec> BuildSpecs(uint64_t seed) {
  Rng rng(seed);
  std::vector<ShapeSpec> specs;
  const uint64_t n = 1 + rng.Below(4000);
  const int width = static_cast<int>(rng.Below(33));
  const uint64_t ell = uint64_t{16} << rng.Below(4);  // 16..128
  const double density =
      std::vector<double>{0.0, 0.01, 0.1, 0.5}[rng.Below(4)];

  specs.push_back({"NS", FusedShape::kNs, Ns(),
                   AnyColumn(RandomMasked(rng, n, width))});
  {
    Column<uint64_t> wide;
    const uint64_t mask = bits::LowMask64(static_cast<int>(rng.Below(65)));
    for (uint64_t i = 0; i < n; ++i) wide.push_back(rng.Next() & mask);
    specs.push_back(
        {"NS-u64", FusedShape::kNs, Ns(), AnyColumn(std::move(wide))});
  }
  specs.push_back({"FOR", FusedShape::kFor, MakeFor(ell),
                   AnyColumn(RandomMasked(rng, n, width))});
  specs.push_back({"PFOR", FusedShape::kPfor, MakePfor(ell),
                   AnyColumn(OutlierData(rng, n, 6, density))});
  specs.push_back({"DELTA-ZZ-NS", FusedShape::kDeltaZigZagNs, MakeDeltaNs(),
                   AnyColumn(RandomMasked(rng, n, width))});
  {
    Column<uint64_t> sorted;
    uint64_t acc = rng.Next() & bits::LowMask64(40);
    for (uint64_t i = 0; i < n; ++i) {
      acc += rng.Below(1 + (uint64_t{1} << rng.Below(20)));
      sorted.push_back(acc);
    }
    specs.push_back({"DELTA-ZZ-NS-u64", FusedShape::kDeltaZigZagNs,
                     MakeDeltaNs(), AnyColumn(std::move(sorted))});
  }
  specs.push_back({"PATCHED-NS", FusedShape::kPatchedNs,
                   Patched().With("base", Ns()),
                   AnyColumn(OutlierData(rng, n, 7, density))});
  specs.push_back(
      {"DELTA-ZZ-PATCHED-NS", FusedShape::kDeltaZigZagPatchedNs,
       Delta().With("deltas",
                    ZigZag().With("recoded", Patched().With("base", Ns()))),
       AnyColumn(OutlierData(rng, n, 5, density))});
  specs.push_back({"RLE", FusedShape::kRle, MakeRle(),
                   AnyColumn(RunData(rng, n, 40, width))});
  specs.push_back({"RLE-NS", FusedShape::kRleNs, MakeRleNs(),
                   AnyColumn(RunData(rng, n, 40, width))});
  specs.push_back({"RLE-DELTA", FusedShape::kRleNs, MakeRleDelta(),
                   AnyColumn(RunData(rng, n, 40, width))});
  // The patched and FOR shapes over u64: the AVX2 kernels are u32-only, so
  // these pin the scalar code that decodes u64 under both dispatch modes.
  const int width64 = static_cast<int>(rng.Below(65));
  specs.push_back({"FOR-u64", FusedShape::kFor, MakeFor(ell),
                   AnyColumn(RandomMasked<uint64_t>(rng, n, width64))});
  specs.push_back({"PFOR-u64", FusedShape::kPfor, MakePfor(ell),
                   AnyColumn(OutlierData<uint64_t>(rng, n, 38, density))});
  specs.push_back({"PATCHED-NS-u64", FusedShape::kPatchedNs,
                   Patched().With("base", Ns()),
                   AnyColumn(OutlierData<uint64_t>(rng, n, 39, density))});
  specs.push_back(
      {"DELTA-ZZ-PATCHED-NS-u64", FusedShape::kDeltaZigZagPatchedNs,
       Delta().With("deltas",
                    ZigZag().With("recoded", Patched().With("base", Ns()))),
       AnyColumn(OutlierData<uint64_t>(rng, n, 37, density))});
  return specs;
}

/// Decodes with both entry points under the given dispatch mode; asserts
/// agreement and returns the fused result.
void ExpectAgreement(const ShapeSpec& spec, const CompressedColumn& compressed,
                     bool scalar) {
  ops::ForceScalar(scalar);
  Result<AnyColumn> fused = FusedDecompress(compressed);
  Result<AnyColumn> reference = Decompress(compressed);
  ops::ForceScalar(false);
  ASSERT_TRUE(fused.ok()) << spec.name << ": " << fused.status().ToString();
  ASSERT_TRUE(reference.ok())
      << spec.name << ": " << reference.status().ToString();
  EXPECT_TRUE(*fused == spec.data) << spec.name << " scalar=" << scalar;
  EXPECT_TRUE(*fused == *reference) << spec.name << " scalar=" << scalar;
}

/// Collects every terminal packed part (mutation targets).
void CollectPackedParts(CompressedNode* node,
                        std::vector<CompressedPart*>* out) {
  for (auto& [name, part] : node->parts) {
    if (part.is_terminal()) {
      if (part.column->is_packed()) out->push_back(&part);
    } else {
      CollectPackedParts(part.sub.get(), out);
    }
  }
}

/// Corruption agreement: a damaged envelope must decode identically through
/// both entry points — same bytes, or failure on both.
void ExpectCorruptionAgreement(const ShapeSpec& spec,
                               const CompressedColumn& compressed, Rng& rng) {
  for (const bool truncate : {false, true}) {
    CompressedColumn damaged = compressed.Clone();
    std::vector<CompressedPart*> targets;
    CollectPackedParts(&damaged.root(), &targets);
    if (targets.empty()) return;
    CompressedPart* target = targets[rng.Below(targets.size())];
    PackedColumn packed = target->column->packed();
    if (packed.bytes.empty()) continue;
    if (truncate) {
      packed.bytes.pop_back();
    } else {
      const uint64_t byte = rng.Below(packed.bytes.size());
      packed.bytes[byte] ^= static_cast<uint8_t>(1u << rng.Below(8));
    }
    target->column = AnyColumn(std::move(packed));

    for (const bool scalar : {false, true}) {
      ops::ForceScalar(scalar);
      Result<AnyColumn> fused = FusedDecompress(damaged);
      Result<AnyColumn> reference = Decompress(damaged);
      ops::ForceScalar(false);
      ASSERT_EQ(fused.ok(), reference.ok())
          << spec.name << " truncate=" << truncate << " scalar=" << scalar
          << " fused=" << fused.status().ToString()
          << " reference=" << reference.status().ToString();
      if (fused.ok()) {
        EXPECT_TRUE(*fused == *reference)
            << spec.name << " truncate=" << truncate << " scalar=" << scalar;
      }
    }
  }
}

class FusedFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FusedFuzz, KernelsAgreeWithReferenceRecursion) {
  Rng rng(90000 + GetParam());
  for (ShapeSpec& spec : BuildSpecs(GetParam())) {
    ASSERT_EQ(ClassifyFusedDescriptor(spec.desc), spec.expected) << spec.name;
    Result<CompressedColumn> compressed = Compress(spec.data, spec.desc);
    ASSERT_TRUE(compressed.ok())
        << spec.name << ": " << compressed.status().ToString();
    EXPECT_EQ(ClassifyFusedShape(compressed->root()), spec.expected)
        << spec.name;
    ExpectAgreement(spec, *compressed, /*scalar=*/false);
    ExpectAgreement(spec, *compressed, /*scalar=*/true);
    ExpectCorruptionAgreement(spec, *compressed, rng);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedFuzz, ::testing::Range(uint64_t{0},
                                                            uint64_t{12}));

}  // namespace
}  // namespace recomp
