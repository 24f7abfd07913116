// Property tests pinning the AVX2 kernels to the scalar reference: for every
// supported width and awkward length, both dispatch paths must agree bit for
// bit. When the host lacks AVX2 these tests degenerate to scalar-vs-scalar
// and still pass. The kernels are u32-only, so the u64 cases below pin the
// scalar path that serves u64 under either dispatch mode.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ops/dispatch.h"
#include "ops/elementwise.h"
#include "ops/gather.h"
#include "ops/kernels_avx2.h"
#include "ops/pack.h"
#include "ops/prefix_sum.h"
#include "util/bits.h"
#include "util/random.h"
#include "util/zigzag.h"

namespace recomp {
namespace {

/// Runs `f()` once with SIMD allowed and once forced-scalar; returns the pair.
template <typename F>
auto BothPaths(F&& f) {
  ops::ForceScalar(false);
  auto simd = f();
  ops::ForceScalar(true);
  auto scalar = f();
  ops::ForceScalar(false);
  return std::make_pair(std::move(simd), std::move(scalar));
}

class UnpackAgreement : public ::testing::TestWithParam<int> {};

TEST_P(UnpackAgreement, Agrees) {
  const int width = GetParam();
  Rng rng(500 + width);
  for (uint64_t n : {1u, 7u, 8u, 9u, 64u, 100u, 4096u, 4100u}) {
    Column<uint32_t> col;
    const uint32_t mask = bits::LowMask32(width);
    for (uint64_t i = 0; i < n; ++i) {
      col.push_back(static_cast<uint32_t>(rng.Next()) & mask);
    }
    auto packed = ops::Pack(col, width);
    ASSERT_TRUE(packed.ok());
    auto [simd, scalar] = BothPaths([&] {
      auto out = ops::Unpack<uint32_t>(*packed);
      return out.ok() ? *std::move(out) : Column<uint32_t>{};
    });
    EXPECT_EQ(simd, scalar) << "width=" << width << " n=" << n;
    EXPECT_EQ(simd, col);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, UnpackAgreement, ::testing::Range(0, 33));

class UnpackAgreement64 : public ::testing::TestWithParam<int> {};

TEST_P(UnpackAgreement64, Agrees) {
  const int width = GetParam();
  Rng rng(700 + width);
  for (uint64_t n : {1u, 3u, 4u, 5u, 64u, 100u, 4096u, 4100u}) {
    Column<uint64_t> col;
    const uint64_t mask = bits::LowMask64(width);
    for (uint64_t i = 0; i < n; ++i) col.push_back(rng.Next() & mask);
    auto packed = ops::Pack(col, width);
    ASSERT_TRUE(packed.ok());
    auto [simd, scalar] = BothPaths([&] {
      auto out = ops::Unpack<uint64_t>(*packed);
      return out.ok() ? *std::move(out) : Column<uint64_t>{};
    });
    EXPECT_EQ(simd, scalar) << "width=" << width << " n=" << n;
    EXPECT_EQ(simd, col);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, UnpackAgreement64,
                         ::testing::Range(0, 65));

/// The packed layout written out bit by bit: bit b of value i at bit
/// i * width + b of the payload, LSB-first.
template <typename T>
Column<uint8_t> ReferencePack(const Column<T>& values, int width) {
  Column<uint8_t> out(bits::PackedByteSize(values.size(), width), 0);
  for (uint64_t i = 0; i < values.size(); ++i) {
    for (int b = 0; b < width; ++b) {
      if ((static_cast<uint64_t>(values[i]) >> b) & 1) {
        const uint64_t bit = i * static_cast<uint64_t>(width) + b;
        out[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
      }
    }
  }
  return out;
}

/// Pack of fitting values and PackTruncating of full-width ones, AVX2 (when
/// present; u64 has no pack kernel, so both legs run the scalar packer)
/// against forced scalar, at every length 0-300 and at 65,536: identical
/// bytes equal to the bit-by-bit layout, the truncating pack equal to
/// packing the masked values, and a payload that unpacks to them.
template <typename T>
void CheckPackAgreement(int width, uint64_t seed) {
  Rng rng(seed);
  const uint64_t mask = bits::LowMask64(width);
  std::vector<uint64_t> lengths;
  for (uint64_t n = 0; n <= 300; ++n) lengths.push_back(n);
  lengths.push_back(65536);
  for (const uint64_t n : lengths) {
    Column<T> wide(n);
    Column<T> fitting(n);
    for (uint64_t i = 0; i < n; ++i) {
      wide[i] = static_cast<T>(rng.Next());
      fitting[i] = static_cast<T>(wide[i] & mask);
    }
    auto [simd, scalar] = BothPaths([&] {
      auto packed = ops::Pack(fitting, width);
      auto truncated = ops::PackTruncating(wide, width);
      return std::make_pair(packed.ok() ? *packed : PackedColumn{},
                            truncated.ok() ? *truncated : PackedColumn{});
    });
    ASSERT_EQ(simd.first.bytes.size(), bits::PackedByteSize(n, width))
        << "width=" << width << " n=" << n;
    ASSERT_TRUE(simd.first == scalar.first) << "width=" << width << " n=" << n;
    ASSERT_TRUE(simd.first.bytes == ReferencePack(fitting, width))
        << "width=" << width << " n=" << n;
    ASSERT_TRUE(simd.second == scalar.second)
        << "width=" << width << " n=" << n;
    ASSERT_TRUE(simd.first == simd.second) << "width=" << width << " n=" << n;
    auto back = ops::Unpack<T>(simd.first);
    ASSERT_TRUE(back.ok());
    ASSERT_EQ(*back, fitting) << "width=" << width << " n=" << n;
  }
}

/// Pack refuses a value wider than `width` on both paths, naming the first
/// such row.
template <typename T>
void CheckPackRefusesFirstMisfit(int width) {
  for (const uint64_t n : {5u, 64u, 1000u, 65536u}) {
    for (const uint64_t bad : {uint64_t{0}, n / 2, n - 3, n - 1}) {
      Column<T> col(n, static_cast<T>(bits::LowMask64(width)));
      col[bad] = static_cast<T>(bits::LowMask64(width) + 1);
      col[n - 1] = static_cast<T>(~T{0});
      auto [simd, scalar] = BothPaths([&] { return ops::Pack(col, width); });
      const std::string expected =
          "value at row " + std::to_string(bad) + " does not fit in " +
          std::to_string(width) + " bits";
      ASSERT_EQ(simd.status().code(), StatusCode::kInvalidArgument);
      ASSERT_EQ(scalar.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(simd.status().message(), expected) << "n=" << n;
      EXPECT_EQ(scalar.status().message(), expected) << "n=" << n;
    }
  }
}

class PackAgreement : public ::testing::TestWithParam<int> {};

TEST_P(PackAgreement, Agrees) {
  CheckPackAgreement<uint32_t>(GetParam(), 900 + GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllWidths, PackAgreement, ::testing::Range(0, 33));

class PackAgreement64 : public ::testing::TestWithParam<int> {};

TEST_P(PackAgreement64, Agrees) {
  CheckPackAgreement<uint64_t>(GetParam(), 1000 + GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllWidths, PackAgreement64, ::testing::Range(0, 65));

TEST(PackRefusal, NamesTheFirstRowThatDoesNotFit) {
  for (const int width : {0, 1, 7, 20, 31}) {
    SCOPED_TRACE(width);
    CheckPackRefusesFirstMisfit<uint32_t>(width);
  }
  for (const int width : {0, 3, 33, 63}) {
    SCOPED_TRACE(width);
    CheckPackRefusesFirstMisfit<uint64_t>(width);
  }
}

// The fused kernels are exercised directly against references computed in
// the test: when the build lacks AVX2 they compile to scalar forwarders and
// the comparisons still hold.

TEST(FusedKernelAgreement, UnpackAddMatchesUnpackPlusAdd) {
  Rng rng(45);
  for (int width : {0, 1, 5, 13, 27, 32}) {
    const uint32_t mask = bits::LowMask32(width);
    Column<uint32_t> col;
    for (int i = 0; i < 3000; ++i) {
      col.push_back(static_cast<uint32_t>(rng.Next()) & mask);
    }
    auto packed = ops::Pack(col, width);
    ASSERT_TRUE(packed.ok());
    const uint32_t addend = static_cast<uint32_t>(rng.Next());
    for (uint64_t begin : {0u, 3u, 17u, 2999u}) {
      const uint64_t n = col.size() - begin;
      Column<uint32_t> out(n);
      ops::avx2::UnpackAddU32(packed->bytes.data(), packed->bytes.size(),
                              begin, n, width, addend, out.data());
      for (uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], static_cast<uint32_t>(col[begin + i] + addend))
            << "width=" << width << " begin=" << begin << " i=" << i;
      }
    }
  }
}

TEST(FusedKernelAgreement, UnpackZigZagPrefixDecodesDeltaCascade) {
  Rng rng(47);
  for (int width : {1, 4, 11, 23, 32}) {
    // Original values whose zigzag deltas fit `width` bits.
    Column<uint32_t> original;
    Column<uint32_t> codes;
    uint32_t prev = 0;
    const uint32_t half = bits::LowMask32(width - 1);
    for (int i = 0; i < 3000; ++i) {
      const int64_t delta =
          static_cast<int64_t>(rng.Below(2 * uint64_t{half} + 1)) - half;
      const uint32_t v = prev + static_cast<uint32_t>(delta);
      codes.push_back(zigzag::EncodeDiff<uint32_t>(v, prev));
      original.push_back(v);
      prev = v;
    }
    auto packed = ops::Pack(codes, width);
    ASSERT_TRUE(packed.ok());
    Column<uint32_t> out(original.size());
    ops::avx2::UnpackZigZagPrefixU32(packed->bytes.data(),
                                     packed->bytes.size(), out.size(), width,
                                     out.data());
    EXPECT_EQ(out, original) << "width=" << width;

    // The in-place tail half must agree given materialized codes.
    Column<uint32_t> in_place = codes;
    ops::avx2::ZigZagPrefixInPlaceU32(in_place.data(), in_place.size());
    EXPECT_EQ(in_place, original) << "width=" << width;
  }
}

TEST(FusedKernelAgreement, ScatterAppliesPatches) {
  Rng rng(49);
  Column<uint32_t> data(500, 7);
  Column<uint32_t> expect = data;
  Column<uint32_t> positions;
  Column<uint32_t> values;
  for (int p = 0; p < 60; ++p) {
    const uint32_t pos = static_cast<uint32_t>(rng.Below(500));
    positions.push_back(pos);
    values.push_back(static_cast<uint32_t>(rng.Next()));
    expect[pos] = values.back();
  }
  ops::avx2::ScatterU32(data.data(), positions.data(), values.data(),
                        positions.size());
  EXPECT_EQ(data, expect);
}

TEST(PrefixSumAgreement, RandomLengths) {
  Rng rng(42);
  for (uint64_t n : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 1000u, 100000u}) {
    Column<uint32_t> col;
    for (uint64_t i = 0; i < n; ++i) {
      col.push_back(static_cast<uint32_t>(rng.Next()));
    }
    auto [simd, scalar] =
        BothPaths([&] { return ops::PrefixSumInclusive(col); });
    EXPECT_EQ(simd, scalar) << "n=" << n;
  }
}

TEST(PrefixSumAgreement, RandomLengths64) {
  Rng rng(52);
  for (uint64_t n : {0u, 1u, 3u, 4u, 5u, 15u, 16u, 17u, 1000u, 100000u}) {
    Column<uint64_t> col;
    for (uint64_t i = 0; i < n; ++i) col.push_back(rng.Next());
    auto [simd, scalar] =
        BothPaths([&] { return ops::PrefixSumInclusive(col); });
    EXPECT_EQ(simd, scalar) << "n=" << n;
  }
}

TEST(AddConstantAgreement, RandomLengths) {
  Rng rng(43);
  for (uint64_t n : {0u, 1u, 8u, 9u, 1000u}) {
    Column<uint32_t> col;
    for (uint64_t i = 0; i < n; ++i) {
      col.push_back(static_cast<uint32_t>(rng.Next()));
    }
    auto [simd, scalar] = BothPaths([&] {
      auto out =
          ops::ElementwiseScalar<uint32_t>(ops::BinOp::kAdd, col, 0xDEADBEEF);
      return out.ok() ? *std::move(out) : Column<uint32_t>{};
    });
    EXPECT_EQ(simd, scalar) << "n=" << n;
  }
}

TEST(GatherAgreement, RandomIndices) {
  Rng rng(44);
  Column<uint32_t> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(static_cast<uint32_t>(rng.Next()));
  }
  for (uint64_t n : {0u, 1u, 8u, 9u, 5000u}) {
    Column<uint32_t> indices;
    for (uint64_t i = 0; i < n; ++i) {
      indices.push_back(static_cast<uint32_t>(rng.Below(values.size())));
    }
    auto [simd, scalar] =
        BothPaths([&] { return ops::GatherUnchecked(values, indices); });
    EXPECT_EQ(simd, scalar) << "n=" << n;
  }
}

TEST(DispatchTest, ForceScalarToggles) {
  ops::ForceScalar(true);
  EXPECT_TRUE(ops::ScalarForced());
  EXPECT_FALSE(ops::HasAvx2());
  ops::ForceScalar(false);
  EXPECT_FALSE(ops::ScalarForced());
}

}  // namespace
}  // namespace recomp
