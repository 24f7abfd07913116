#include "gen/generators.h"

#include <algorithm>

#include "util/bits.h"
#include "util/random.h"

namespace recomp::gen {

Column<uint32_t> ShippedOrderDates(uint64_t n, double orders_per_day,
                                   uint64_t seed) {
  Rng rng(seed);
  Column<uint32_t> col;
  col.reserve(n);
  uint32_t day = 7300;  // Epoch day of the first order (arbitrary origin).
  const double p = 1.0 / std::max(1.0, orders_per_day);
  while (col.size() < n) {
    const uint64_t orders = rng.Geometric(p);
    for (uint64_t i = 0; i < orders && col.size() < n; ++i) {
      col.push_back(day);
    }
    ++day;
  }
  return col;
}

Column<uint32_t> SortedRuns(uint64_t n, double avg_run_length,
                            uint32_t max_step, uint64_t seed) {
  Rng rng(seed);
  Column<uint32_t> col;
  col.reserve(n);
  uint32_t value = 1000;
  const double p = 1.0 / std::max(1.0, avg_run_length);
  while (col.size() < n) {
    const uint64_t run = rng.Geometric(p);
    for (uint64_t i = 0; i < run && col.size() < n; ++i) col.push_back(value);
    value +=
        1 + static_cast<uint32_t>(rng.Below(std::max<uint32_t>(1, max_step)));
  }
  return col;
}

Column<uint32_t> Uniform(uint64_t n, uint64_t bound, uint64_t seed) {
  Rng rng(seed);
  Column<uint32_t> col(n);
  for (auto& v : col) v = static_cast<uint32_t>(rng.Below(bound));
  return col;
}

Column<uint64_t> Uniform64(uint64_t n, uint64_t bound, uint64_t seed) {
  Rng rng(seed);
  Column<uint64_t> col(n);
  for (auto& v : col) v = rng.Below(bound);
  return col;
}

Column<uint32_t> ZipfValues(uint64_t n, uint64_t distinct, double s,
                            uint64_t seed) {
  Rng rng(seed);
  ZipfSampler zipf(distinct, s);
  // Map ranks to scattered domain values so DICT has real work to do.
  Column<uint32_t> domain(distinct);
  for (uint64_t i = 0; i < distinct; ++i) {
    domain[i] = static_cast<uint32_t>(rng.Next());
  }
  Column<uint32_t> col(n);
  for (auto& v : col) v = domain[zipf.Sample(rng)];
  return col;
}

Column<uint32_t> StepLevels(uint64_t n, uint64_t segment_length,
                            int level_bits, int noise_bits, uint64_t seed) {
  Rng rng(seed);
  Column<uint32_t> col(n);
  uint32_t level = 0;
  for (uint64_t i = 0; i < n; ++i) {
    if (i % segment_length == 0) {
      level = static_cast<uint32_t>(
          rng.Below(uint64_t{1} << std::min(level_bits, 31)));
    }
    const uint32_t noise =
        noise_bits <= 0
            ? 0
            : static_cast<uint32_t>(rng.Below(uint64_t{1} << noise_bits));
    col[i] = level + noise;
  }
  return col;
}

Column<uint32_t> LinearTrend(uint64_t n, double slope, uint32_t noise_bound,
                             uint64_t seed) {
  Rng rng(seed);
  Column<uint32_t> col(n);
  for (uint64_t i = 0; i < n; ++i) {
    const double base = 1000.0 + slope * static_cast<double>(i);
    const uint64_t noise = noise_bound == 0 ? 0 : rng.Below(noise_bound);
    col[i] = static_cast<uint32_t>(
        std::clamp(base, 0.0, 4294967295.0 - static_cast<double>(noise))) +
             static_cast<uint32_t>(noise);
  }
  return col;
}

Column<uint32_t> OutlierMix(uint64_t n, int base_bits, int outlier_bits,
                            double outlier_fraction, uint64_t seed) {
  Rng rng(seed);
  Column<uint32_t> col(n);
  const uint64_t base_bound = uint64_t{1} << std::min(base_bits, 31);
  const uint64_t outlier_bound = uint64_t{1} << std::min(outlier_bits, 31);
  for (auto& v : col) {
    if (rng.Bernoulli(outlier_fraction)) {
      // Force a genuinely wide value: set the top bit of the outlier range.
      v = static_cast<uint32_t>(rng.Below(outlier_bound) |
                                (outlier_bound >> 1));
    } else {
      v = static_cast<uint32_t>(rng.Below(base_bound));
    }
  }
  return col;
}

}  // namespace recomp::gen
