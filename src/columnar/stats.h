// Column statistics driving scheme selection and the cost model.
//
// Statistics are computed over *unsigned* columns; the compression pipeline
// normalizes signed inputs with the ZIGZAG primitive before analysis, so the
// analyzer only ever reasons about unsigned data.

#ifndef RECOMP_COLUMNAR_STATS_H_
#define RECOMP_COLUMNAR_STATS_H_

#include <array>
#include <cstdint>

#include "columnar/column.h"

namespace recomp {

/// histogram[w]: how many values need exactly w bits.
using WidthHistogram = std::array<uint64_t, 65>;

/// Summary statistics of one column.
struct ColumnStats {
  uint64_t n = 0;

  uint64_t min = 0;
  uint64_t max = 0;

  /// BitWidth(max): bits for NS without any model.
  int value_bits = 0;

  /// Number of maximal runs of equal values (0 for the empty column).
  uint64_t run_count = 0;
  uint64_t max_run_length = 0;
  double avg_run_length = 0.0;

  /// Exact count of distinct values, capped at kDistinctCap.
  uint64_t distinct = 0;
  bool distinct_capped = false;

  /// Bit widths of the values.
  WidthHistogram raw_width_histogram{};
  /// Bit widths of zigzag(v[i] - v[i-1]) with v[-1] := 0 (the library's
  /// DELTA convention): what a ZIGZAG∘DELTA residual holds.
  WidthHistogram delta_width_histogram{};
  /// The widest bucket of delta_width_histogram; 0 when n == 0. Equal
  /// neighbours zigzag to 0, so this is also the widest delta between
  /// consecutive run values.
  int max_delta_zigzag_bits_with_head = 0;

  /// StepResidualWidth(col, kShortSegment): FOR-128's residual width.
  int short_segment_residual_bits = 0;
  /// Bit widths of each value minus the minimum of its kLongSegment-row
  /// segment: what PFOR-1024's residuals hold.
  WidthHistogram long_segment_residual_histogram{};
  /// Its widest bucket: FOR-1024's residual width; 0 when n == 0.
  int long_segment_residual_bits = 0;

  static constexpr uint64_t kDistinctCap = 1u << 16;
  /// Segment lengths of the FOR family the analyzer prices.
  static constexpr uint64_t kShortSegment = 128;
  static constexpr uint64_t kLongSegment = 1024;
};

/// Computes every statistic in one walk over the column, segment by
/// segment (each kLongSegment-row segment is re-read once, from L1, for its
/// residuals), plus the exact distinct count in a flat open-addressing set
/// sized from min(n, kDistinctCap), which allocates once, not per value.
template <typename T>
ColumnStats ComputeStats(const Column<T>& col);

/// Max over fixed-length segments of BitWidth(seg_max - seg_min): the NS
/// width a MODELED(STEP(ell)) residual needs. Returns 0 for empty input.
template <typename T>
int StepResidualWidth(const Column<T>& col, uint64_t ell);

/// PATCHED's base width for values with `histogram`'s bit widths.
struct PatchedWidth {
  int width = 0;
  uint64_t bytes = 0;  ///< Packed base plus patch list.
};

/// Minimizes bytes(w) = packed_base(w) + patches(w) * (uint32 position +
/// `value_size`-byte value) over every w up to the widest value, widest
/// among ties.
PatchedWidth ChoosePatchedWidth(const WidthHistogram& histogram,
                                uint64_t value_size);

}  // namespace recomp

#endif  // RECOMP_COLUMNAR_STATS_H_
