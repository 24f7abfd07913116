#include "columnar/stats.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "util/bits.h"
#include "util/zigzag.h"

namespace recomp {

namespace {

/// The exact number of distinct values in `col`, capped at
/// ColumnStats::kDistinctCap (the count stops there): a linear-probing set
/// of 2 * min(n, cap) slots (a power of two), in which 0 marks an empty slot
/// and the value 0 is tracked on the side.
template <typename T>
uint64_t CountDistinct(const Column<T>& col) {
  constexpr uint64_t kCap = ColumnStats::kDistinctCap;
  const uint64_t slots =
      std::bit_ceil(2 * std::min<uint64_t>(col.size(), kCap));
  std::vector<T> table(slots, T{0});
  const uint64_t slot_mask = slots - 1;
  const int shift = 64 - std::countr_zero(slots);
  uint64_t count = 0;
  bool zero_seen = false;
  for (const T v : col) {
    if (v == 0) {
      count += zero_seen ? 0 : 1;
      zero_seen = true;
    } else {
      // Fibonacci hashing: the top bits of v * 2^64 / phi.
      uint64_t h =
          (static_cast<uint64_t>(v) * 0x9E3779B97F4A7C15ull) >> shift;
      while (table[h] != v) {
        if (table[h] == 0) {
          table[h] = v;
          ++count;
          break;
        }
        h = (h + 1) & slot_mask;
      }
    }
    if (count == kCap) break;
  }
  return count;
}

/// The widest bucket holding a value; 0 for an empty histogram.
int WidestBucket(const WidthHistogram& histogram) {
  for (int w = 64; w > 0; --w) {
    if (histogram[w] != 0) return w;
  }
  return 0;
}

}  // namespace

template <typename T>
ColumnStats ComputeStats(const Column<T>& col) {
  static_assert(std::is_unsigned_v<T>,
                "stats are computed on unsigned columns");
  constexpr uint64_t kShort = ColumnStats::kShortSegment;
  constexpr uint64_t kLong = ColumnStats::kLongSegment;
  static_assert(kLong % kShort == 0);
  ColumnStats s;
  const uint64_t n = col.size();
  s.n = n;
  if (n == 0) return s;

  // Four interleaved copies of each histogram: neighbours that share a
  // bucket bump different counters, so the increments do not queue behind
  // each other's stores.
  constexpr uint64_t kCopies = 4;
  std::array<WidthHistogram, kCopies> raw{};
  std::array<WidthHistogram, kCopies> delta{};
  std::array<WidthHistogram, kCopies> residual{};
  const T* values = col.data();
  T lo = values[0];
  T hi = values[0];
  // v[-1] := 0 for the deltas. The first value opens a run either way: a
  // leading 0 "continues" a run of length 0.
  uint64_t prev = 0;
  uint64_t current_run = 0;
  uint64_t max_run_length = 0;
  const auto tally = [&](uint64_t i, uint64_t copy, T long_lo) {
    const uint64_t v = values[i];
    current_run = v == prev ? current_run + 1 : 1;
    max_run_length = std::max(max_run_length, current_run);
    ++raw[copy][bits::BitWidth(v)];
    ++delta[copy][bits::BitWidth(zigzag::EncodeDiff<uint64_t>(v, prev))];
    ++residual[copy][bits::BitWidth(v - long_lo)];
    prev = v;
  };
  for (uint64_t begin = 0; begin < n; begin += kLong) {
    const uint64_t end = std::min(begin + kLong, n);
    // Min and max of each short segment: FOR-128's width, and together
    // the long segment's minimum that its residuals are taken against.
    T long_lo = values[begin];
    for (uint64_t short_begin = begin; short_begin < end;
         short_begin += kShort) {
      const uint64_t short_end = std::min(short_begin + kShort, end);
      T short_lo = values[short_begin];
      T short_hi = values[short_begin];
      for (uint64_t i = short_begin + 1; i < short_end; ++i) {
        short_lo = std::min(short_lo, values[i]);
        short_hi = std::max(short_hi, values[i]);
      }
      s.short_segment_residual_bits =
          std::max(s.short_segment_residual_bits,
                   bits::BitWidth(static_cast<uint64_t>(short_hi - short_lo)));
      long_lo = std::min(long_lo, short_lo);
      hi = std::max(hi, short_hi);
    }
    lo = std::min(lo, long_lo);
    // The segment again, now from L1.
    uint64_t i = begin;
    for (; i + kCopies <= end; i += kCopies) {
      tally(i, 0, long_lo);
      tally(i + 1, 1, long_lo);
      tally(i + 2, 2, long_lo);
      tally(i + 3, 3, long_lo);
    }
    for (; i < end; ++i) tally(i, 0, long_lo);
  }
  for (uint64_t copy = 0; copy < kCopies; ++copy) {
    for (int w = 0; w <= 64; ++w) {
      s.raw_width_histogram[w] += raw[copy][w];
      s.delta_width_histogram[w] += delta[copy][w];
      s.long_segment_residual_histogram[w] += residual[copy][w];
    }
  }
  // Equal neighbours are exactly the zero deltas after the first value.
  s.run_count = n - s.delta_width_histogram[0] + (values[0] == 0 ? 1 : 0);
  s.min = lo;
  s.max = hi;
  s.max_run_length = max_run_length;
  s.value_bits = bits::BitWidth(s.max);
  s.avg_run_length =
      static_cast<double>(s.n) / static_cast<double>(s.run_count);
  s.max_delta_zigzag_bits_with_head = WidestBucket(s.delta_width_histogram);
  s.long_segment_residual_bits =
      WidestBucket(s.long_segment_residual_histogram);
  s.distinct = CountDistinct(col);
  s.distinct_capped = s.distinct >= ColumnStats::kDistinctCap;
  return s;
}

template <typename T>
int StepResidualWidth(const Column<T>& col, uint64_t ell) {
  static_assert(std::is_unsigned_v<T>);
  if (col.empty() || ell == 0) return 0;
  int width = 0;
  for (uint64_t seg = 0; seg * ell < col.size(); ++seg) {
    const uint64_t begin = seg * ell;
    const uint64_t end = std::min<uint64_t>(begin + ell, col.size());
    T lo = col[begin];
    T hi = col[begin];
    for (uint64_t i = begin + 1; i < end; ++i) {
      lo = std::min(lo, col[i]);
      hi = std::max(hi, col[i]);
    }
    width = std::max(width, bits::BitWidth(static_cast<uint64_t>(hi - lo)));
  }
  return width;
}

PatchedWidth ChoosePatchedWidth(const WidthHistogram& histogram,
                                uint64_t value_size) {
  uint64_t n = 0;
  for (const uint64_t count : histogram) n += count;
  const int widest = WidestBucket(histogram);
  PatchedWidth best{widest, ~uint64_t{0}};
  // exceptions(w): values needing more than w bits.
  uint64_t exceptions = 0;
  for (int w = widest; w >= 0; --w) {
    const uint64_t bytes = bits::PackedByteSize(n, w) +
                           exceptions * (sizeof(uint32_t) + value_size);
    if (bytes < best.bytes) best = {w, bytes};
    exceptions += histogram[w];  // Values of exactly w bits overflow w-1.
  }
  return best;
}

#define RECOMP_INSTANTIATE_STATS(T)                                  \
  template ColumnStats ComputeStats<T>(const Column<T>&);            \
  template int StepResidualWidth<T>(const Column<T>&, uint64_t);

RECOMP_INSTANTIATE_STATS(uint8_t)
RECOMP_INSTANTIATE_STATS(uint16_t)
RECOMP_INSTANTIATE_STATS(uint32_t)
RECOMP_INSTANTIATE_STATS(uint64_t)

#undef RECOMP_INSTANTIATE_STATS

}  // namespace recomp
