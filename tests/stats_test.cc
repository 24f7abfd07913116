// Unit tests for column statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "columnar/stats.h"
#include "util/bits.h"
#include "util/random.h"

namespace recomp {
namespace {

TEST(StatsTest, EmptyColumn) {
  ColumnStats s = ComputeStats(Column<uint32_t>{});
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.run_count, 0u);
}

TEST(StatsTest, SingleValue) {
  ColumnStats s = ComputeStats(Column<uint32_t>{42});
  EXPECT_EQ(s.n, 1u);
  EXPECT_EQ(s.min, 42u);
  EXPECT_EQ(s.max, 42u);
  EXPECT_EQ(s.run_count, 1u);
  EXPECT_EQ(s.distinct, 1u);
  EXPECT_EQ(s.value_bits, 6);
}

TEST(StatsTest, RunsAndSortedness) {
  ColumnStats s = ComputeStats(Column<uint32_t>{1, 1, 1, 2, 2, 5, 5, 5, 5});
  EXPECT_EQ(s.run_count, 3u);
  EXPECT_EQ(s.max_run_length, 4u);
  EXPECT_DOUBLE_EQ(s.avg_run_length, 3.0);
  EXPECT_EQ(s.distinct, 3u);
}

TEST(StatsTest, UnsortedDetected) {
  ColumnStats s = ComputeStats(Column<uint32_t>{3, 1, 2});
  EXPECT_EQ(s.run_count, 3u);
}

TEST(StatsTest, DeltaBitsForSortedData) {
  // Deltas: 10 (head), then 2, 2, 2 -> zigzagged small.
  ColumnStats s = ComputeStats(Column<uint32_t>{10, 12, 14, 16});
  EXPECT_EQ(s.max_delta_zigzag_bits_with_head, 5);  // zigzag(10) = 20
}

TEST(StatsTest, RangeVsValueBits) {
  ColumnStats s = ComputeStats(Column<uint32_t>{1000, 1001, 1003});
  EXPECT_EQ(s.value_bits, 10);
}

TEST(StatsTest, DistinctCapped) {
  Column<uint32_t> col(ColumnStats::kDistinctCap + 100);
  for (uint64_t i = 0; i < col.size(); ++i) col[i] = static_cast<uint32_t>(i);
  ColumnStats s = ComputeStats(col);
  EXPECT_TRUE(s.distinct_capped);
  EXPECT_EQ(s.distinct, ColumnStats::kDistinctCap);
}

TEST(StatsTest, StepResidualWidthExactSegments) {
  // Two segments of 4: [10..13] spread 3 (2 bits), [100..108] spread 8
  // (4 bits).
  Column<uint32_t> col{10, 11, 12, 13, 100, 104, 101, 108};
  EXPECT_EQ(StepResidualWidth(col, 4), 4);
  EXPECT_EQ(StepResidualWidth(col, 8), 7);  // global spread 98 -> 7 bits
}

TEST(StatsTest, StepResidualWidthRaggedTail) {
  Column<uint32_t> col{0, 0, 0, 7};  // segments of 3: {0,0,0} and {7}
  EXPECT_EQ(StepResidualWidth(col, 3), 0);
}

TEST(StatsTest, StepResidualWidthEmptyOrZeroEll) {
  EXPECT_EQ(StepResidualWidth(Column<uint32_t>{}, 4), 0);
  EXPECT_EQ(StepResidualWidth(Column<uint32_t>{1, 2}, 0), 0);
}

TEST(StatsTest, WorksForAllUnsignedWidths) {
  ColumnStats s8 = ComputeStats(Column<uint8_t>{255, 0});
  EXPECT_EQ(s8.value_bits, 8);
  ColumnStats s64 = ComputeStats(Column<uint64_t>{~uint64_t{0}});
  EXPECT_EQ(s64.value_bits, 64);
}

// ---------------------------------------------------------------------------
// The one pass against direct recounts, and the PATCHED rule against brute
// force.
// ---------------------------------------------------------------------------

uint64_t ZigZagDelta(uint64_t v, uint64_t prev) {
  const uint64_t diff = v - prev;
  return (diff << 1) ^ (0 - (diff >> 63));
}

template <typename T>
WidthHistogram RecountWidths(const Column<T>& col) {
  WidthHistogram histogram{};
  for (const T v : col) ++histogram[bits::BitWidth(uint64_t{v})];
  return histogram;
}

template <typename T>
WidthHistogram RecountDeltaWidths(const Column<T>& col) {
  WidthHistogram histogram{};
  for (uint64_t i = 0; i < col.size(); ++i) {
    ++histogram[bits::BitWidth(ZigZagDelta(col[i], i == 0 ? 0 : col[i - 1]))];
  }
  return histogram;
}

/// Widest zigzag delta between consecutive run values, the first against 0.
template <typename T>
int RecountRunValueDeltaBits(const Column<T>& col) {
  int widest = 0;
  uint64_t prev_run_value = 0;
  for (uint64_t i = 0; i < col.size(); ++i) {
    if (i > 0 && col[i] == col[i - 1]) continue;
    widest = std::max(widest, bits::BitWidth(ZigZagDelta(col[i],
                                                         prev_run_value)));
    prev_run_value = col[i];
  }
  return widest;
}

/// PATCHED's bytes at every base width up to the widest value, counted from
/// the values themselves; the cheapest, widest among ties.
PatchedWidth BruteForcePatched(const std::vector<uint64_t>& values,
                               uint64_t value_size) {
  int widest = 0;
  for (const uint64_t v : values) widest = std::max(widest, bits::BitWidth(v));
  PatchedWidth best{0, std::numeric_limits<uint64_t>::max()};
  for (int w = 0; w <= widest; ++w) {
    uint64_t patches = 0;
    for (const uint64_t v : values) patches += bits::BitWidth(v) > w ? 1 : 0;
    const uint64_t bytes = bits::PackedByteSize(values.size(), w) +
                           patches * (sizeof(uint32_t) + value_size);
    if (bytes <= best.bytes) best = {w, bytes};
  }
  return best;
}

/// Widest BitWidth(max - min) over `ell`-row segments, the last one ragged.
template <typename T>
int RecountSegmentSpreadBits(const Column<T>& col, uint64_t ell) {
  int widest = 0;
  for (uint64_t begin = 0; begin < col.size(); begin += ell) {
    const uint64_t end = std::min<uint64_t>(begin + ell, col.size());
    uint64_t lo = col[begin];
    uint64_t hi = col[begin];
    for (uint64_t i = begin; i < end; ++i) {
      lo = std::min<uint64_t>(lo, col[i]);
      hi = std::max<uint64_t>(hi, col[i]);
    }
    widest = std::max(widest, bits::BitWidth(hi - lo));
  }
  return widest;
}

/// Bit widths of each value minus its `ell`-row segment's minimum.
template <typename T>
WidthHistogram RecountSegmentResidualWidths(const Column<T>& col,
                                            uint64_t ell) {
  WidthHistogram histogram{};
  for (uint64_t begin = 0; begin < col.size(); begin += ell) {
    const uint64_t end = std::min<uint64_t>(begin + ell, col.size());
    uint64_t lo = col[begin];
    for (uint64_t i = begin; i < end; ++i) lo = std::min<uint64_t>(lo, col[i]);
    for (uint64_t i = begin; i < end; ++i) {
      ++histogram[bits::BitWidth(uint64_t{col[i]} - lo)];
    }
  }
  return histogram;
}

template <typename T>
void ExpectPassMatchesRecount(const Column<T>& col, const char* label) {
  SCOPED_TRACE(label);
  const ColumnStats s = ComputeStats(col);
  EXPECT_EQ(s.raw_width_histogram, RecountWidths(col));
  EXPECT_EQ(s.delta_width_histogram, RecountDeltaWidths(col));
  EXPECT_EQ(s.short_segment_residual_bits,
            RecountSegmentSpreadBits(col, ColumnStats::kShortSegment));
  EXPECT_EQ(s.short_segment_residual_bits,
            StepResidualWidth(col, ColumnStats::kShortSegment));
  const WidthHistogram residuals =
      RecountSegmentResidualWidths(col, ColumnStats::kLongSegment);
  EXPECT_EQ(s.long_segment_residual_histogram, residuals);
  int widest_residual = 0;
  for (int w = 0; w <= 64; ++w) {
    if (residuals[w] != 0) widest_residual = w;
  }
  EXPECT_EQ(s.long_segment_residual_bits, widest_residual);
  uint64_t runs = 0;
  uint64_t longest = 0;
  for (uint64_t i = 0, run = 0; i < col.size(); ++i) {
    run = i > 0 && col[i] == col[i - 1] ? run + 1 : 1;
    runs += run == 1 ? 1 : 0;
    longest = std::max(longest, run);
  }
  EXPECT_EQ(s.run_count, runs);
  EXPECT_EQ(s.max_run_length, longest);
  if (!col.empty()) {
    EXPECT_EQ(s.min, *std::min_element(col.begin(), col.end()));
    EXPECT_EQ(s.max, *std::max_element(col.begin(), col.end()));
  }
  const std::set<T> distinct(col.begin(), col.end());
  EXPECT_EQ(s.distinct, distinct.size());
  EXPECT_FALSE(s.distinct_capped);
  int widest_delta = 0;
  for (int w = 0; w <= 64; ++w) {
    if (s.delta_width_histogram[w] != 0) widest_delta = w;
  }
  EXPECT_EQ(s.max_delta_zigzag_bits_with_head, widest_delta);
  EXPECT_EQ(s.max_delta_zigzag_bits_with_head, RecountRunValueDeltaBits(col));

  std::vector<uint64_t> values(col.begin(), col.end());
  std::vector<uint64_t> deltas;
  for (uint64_t i = 0; i < col.size(); ++i) {
    deltas.push_back(ZigZagDelta(col[i], i == 0 ? 0 : col[i - 1]));
  }
  const PatchedWidth raw = ChoosePatchedWidth(RecountWidths(col), sizeof(T));
  const PatchedWidth raw_expected = BruteForcePatched(values, sizeof(T));
  EXPECT_EQ(raw.width, raw_expected.width);
  EXPECT_EQ(raw.bytes, raw_expected.bytes);
  const PatchedWidth delta =
      ChoosePatchedWidth(RecountDeltaWidths(col), sizeof(T));
  const PatchedWidth delta_expected = BruteForcePatched(deltas, sizeof(T));
  EXPECT_EQ(delta.width, delta_expected.width);
  EXPECT_EQ(delta.bytes, delta_expected.bytes);
}

/// Runs, narrow values and full-width outliers, so every bucket class, run
/// length and PATCHED trade-off shows up.
template <typename T>
Column<T> RandomColumn(Rng& rng) {
  Column<T> col(rng.Below(3000));
  const int type_bits = bits::TypeBits<T>();
  for (uint64_t i = 0; i < col.size(); ++i) {
    if (i > 0 && rng.Bernoulli(0.3)) {
      col[i] = col[i - 1];
      continue;
    }
    const int width = rng.Bernoulli(0.05)
                          ? type_bits
                          : static_cast<int>(rng.Below(type_bits / 2 + 1));
    col[i] = static_cast<T>(rng.Next() & bits::LowMask64(width));
  }
  return col;
}

template <typename T>
void CheckEveryColumnShape(uint64_t seed) {
  constexpr T kMax = std::numeric_limits<T>::max();
  ExpectPassMatchesRecount(Column<T>{}, "empty");
  ExpectPassMatchesRecount(Column<T>{0}, "one zero");
  ExpectPassMatchesRecount(Column<T>{kMax}, "one max");
  ExpectPassMatchesRecount(Column<T>(100, 0), "all zero");
  ExpectPassMatchesRecount(Column<T>(100, kMax), "all max");
  Column<T> alternating(101);
  Column<T> descending(300);
  for (uint64_t i = 0; i < alternating.size(); ++i) {
    alternating[i] = i % 2 == 0 ? T{0} : kMax;
  }
  for (uint64_t i = 0; i < descending.size(); ++i) {
    descending[i] = static_cast<T>(kMax - i);
  }
  ExpectPassMatchesRecount(alternating, "alternating 0/max");
  ExpectPassMatchesRecount(descending, "descending from max");
  Rng rng(seed);
  for (int trial = 0; trial < 40; ++trial) {
    ExpectPassMatchesRecount(RandomColumn<T>(rng), "random");
  }
}

TEST(StatsTest, OnePassMatchesRecountAtEveryWidth) {
  CheckEveryColumnShape<uint8_t>(1);
  CheckEveryColumnShape<uint16_t>(2);
  CheckEveryColumnShape<uint32_t>(3);
  CheckEveryColumnShape<uint64_t>(4);
}

/// The exact distinct count against a std::set, capped as documented.
template <typename T>
void ExpectDistinctMatchesSet(const Column<T>& col, const std::string& label) {
  SCOPED_TRACE(label);
  const std::set<T> reference(col.begin(), col.end());
  const ColumnStats s = ComputeStats(col);
  EXPECT_EQ(s.distinct,
            std::min<uint64_t>(reference.size(), ColumnStats::kDistinctCap));
  EXPECT_EQ(s.distinct_capped, reference.size() >= ColumnStats::kDistinctCap);
}

/// Columns for the distinct counter at one type: the extremes 0 (the flat
/// set's empty-slot marker, counted on the side) and max, runs, narrow and
/// wide value ranges, and the cap.
template <typename T>
void CheckDistinctCounter(uint64_t seed) {
  constexpr T kMax = std::numeric_limits<T>::max();
  const std::string type = "u" + std::to_string(bits::TypeBits<T>());
  ExpectDistinctMatchesSet(Column<T>{}, type + " empty");
  ExpectDistinctMatchesSet(Column<T>{0}, type + " one zero");
  ExpectDistinctMatchesSet(Column<T>{kMax}, type + " one max");
  ExpectDistinctMatchesSet(Column<T>{0, kMax, 0, kMax, 1}, type + " 0 and max");
  Column<T> runs;
  for (uint64_t r = 0; r < 40; ++r) {
    runs.insert(runs.end(), 1 + r * 37 % 500, static_cast<T>(r * 3 % 29));
  }
  runs.insert(runs.end(), 1000, kMax);
  ExpectDistinctMatchesSet(runs, type + " long runs");
  Rng rng(seed);
  for (const int range_bits : {1, 4, 8, 12, 16, 24, 40, 64}) {
    if (range_bits > bits::TypeBits<T>()) continue;
    for (const uint64_t n : {1, 2, 100, 5000, 70000}) {
      Column<T> col(n);
      const uint64_t base = rng.Next();
      for (T& v : col) {
        v = static_cast<T>(base + (rng.Next() & bits::LowMask64(range_bits)));
      }
      ExpectDistinctMatchesSet(col, type + " random, range bits " +
                                        std::to_string(range_bits) +
                                        ", n " + std::to_string(n));
    }
  }
  if (bits::TypeBits<T>() < 16) return;
  // Exactly kDistinctCap distinct values (capped) and one fewer (not),
  // dense and spread over the type, with a repeat of every third so the
  // count must stop at the cap, not at n.
  const uint64_t stride =
      bits::TypeBits<T>() == 16 ? 1 : (uint64_t{kMax} >> 16) | 1;
  for (const uint64_t count :
       {ColumnStats::kDistinctCap, ColumnStats::kDistinctCap - 1}) {
    for (const uint64_t step : {uint64_t{1}, stride}) {
      Column<T> col;
      for (uint64_t i = 0; i < count; ++i) {
        col.push_back(static_cast<T>(i * step));
      }
      for (uint64_t i = 0; i < count; i += 3) {
        col.push_back(static_cast<T>(i * step));
      }
      ExpectDistinctMatchesSet(col, type + " " + std::to_string(count) +
                                        " distinct, step " +
                                        std::to_string(step));
    }
  }
}

TEST(StatsTest, DistinctCountMatchesSetAtEveryWidth) {
  CheckDistinctCounter<uint8_t>(11);
  CheckDistinctCounter<uint16_t>(12);
  CheckDistinctCounter<uint32_t>(13);
  CheckDistinctCounter<uint64_t>(14);
}

TEST(StatsTest, PatchedWidthPrefersWidestAmongTies) {
  // 39 one-bit u8 values and one two-bit value: w = 2 packs 10 bytes, and
  // w = 1 packs 5 bytes plus one 5-byte patch. The tie goes to w = 2.
  WidthHistogram histogram{};
  histogram[1] = 39;
  histogram[2] = 1;
  const PatchedWidth choice = ChoosePatchedWidth(histogram, sizeof(uint8_t));
  EXPECT_EQ(choice.width, 2);
  EXPECT_EQ(choice.bytes, 10u);
  const PatchedWidth empty = ChoosePatchedWidth(WidthHistogram{}, 4);
  EXPECT_EQ(empty.width, 0);
  EXPECT_EQ(empty.bytes, 0u);
}

}  // namespace
}  // namespace recomp
