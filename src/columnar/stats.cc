#include "columnar/stats.h"

#include <algorithm>
#include <unordered_set>

#include "util/bits.h"
#include "util/zigzag.h"

namespace recomp {

template <typename T>
ColumnStats ComputeStats(const Column<T>& col) {
  static_assert(std::is_unsigned_v<T>, "stats are computed on unsigned columns");
  ColumnStats s;
  s.n = col.size();
  if (col.empty()) return s;

  s.min = col[0];
  s.max = col[0];
  uint64_t current_run = 0;
  uint64_t prev = 0;
  for (uint64_t i = 0; i < col.size(); ++i) {
    const uint64_t v = col[i];
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
    if (i > 0 && v == prev) {
      ++current_run;
    } else {
      s.max_run_length = std::max(s.max_run_length, current_run);
      current_run = 1;
      ++s.run_count;
    }
    ++s.raw_width_histogram[bits::BitWidth(v)];
    const int delta_bits =
        bits::BitWidth(zigzag::EncodeDiff<uint64_t>(v, prev));
    ++s.delta_width_histogram[delta_bits];
    s.max_delta_zigzag_bits_with_head =
        std::max(s.max_delta_zigzag_bits_with_head, delta_bits);
    prev = v;
  }
  s.max_run_length = std::max(s.max_run_length, current_run);
  s.avg_run_length =
      static_cast<double>(s.n) / static_cast<double>(s.run_count);
  s.value_bits = bits::BitWidth(s.max);

  std::unordered_set<uint64_t> seen;
  for (const T v : col) {
    seen.insert(static_cast<uint64_t>(v));
    if (seen.size() >= ColumnStats::kDistinctCap) {
      s.distinct_capped = true;
      break;
    }
  }
  s.distinct = seen.size();
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
  int widest = 0;
  for (int w = 0; w <= 64; ++w) {
    n += histogram[w];
    if (histogram[w] != 0) widest = w;
  }
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
