// Model fitting/evaluation helpers shared by the STEP and PLIN schemes and
// the MODELED combinator (internal header).
//
// A model approximates column values per fixed-length segment; the MODELED
// combinator stores `data - model` as an unsigned residual. Fits always pick
// the intercept as the minimum deviation so residuals are non-negative.

#ifndef RECOMP_SCHEMES_MODEL_FIT_H_
#define RECOMP_SCHEMES_MODEL_FIT_H_

#include <algorithm>
#include <cstdint>

#include "columnar/column.h"
#include "util/bits.h"
#include "util/result.h"

namespace recomp::internal {

/// Fixed-point fractional bits of PLIN slopes.
inline constexpr int kPlinSlopeFractionBits = 16;

/// Per-segment minima: the refs column of a STEP model (the paper's
/// frame-of-reference values).
template <typename T>
Column<T> FitStepRefs(const Column<T>& col, uint64_t ell) {
  Column<T> refs;
  refs.reserve(bits::CeilDiv(col.size(), ell == 0 ? 1 : ell));
  for (uint64_t begin = 0; begin < col.size(); begin += ell) {
    const uint64_t end = std::min<uint64_t>(begin + ell, col.size());
    refs.push_back(*std::min_element(col.begin() + begin, col.begin() + end));
  }
  return refs;
}

/// Evaluates a STEP model: value i is refs[i / ell].
template <typename T>
Column<T> EvaluateStep(const Column<T>& refs, uint64_t ell, uint64_t n) {
  Column<T> out(n);
  for (uint64_t i = 0; i < n; ++i) out[i] = refs[i / ell];
  return out;
}

/// A fitted piecewise-linear model: per segment, an intercept and a
/// fixed-point slope (kPlinSlopeFractionBits fractional bits). The line's
/// value at in-segment offset j is bases[s] + ((slopes[s] * j) >>
/// kPlinSlopeFractionBits), computed with wrapping casts.
template <typename T>
struct PlinFit {
  Column<T> bases;
  Column<int64_t> slopes;
};

/// The line's integer offset at in-segment position j.
inline int64_t PlinLineOffset(int64_t slope_fp, uint64_t j) {
  // Multiplied mod 2^64: a slope read from a damaged envelope must not
  // overflow signed arithmetic (the fitter's slopes never do).
  return static_cast<int64_t>(static_cast<uint64_t>(slope_fp) * j) >>
         kPlinSlopeFractionBits;
}

/// Fits a lower-envelope line per segment: slope from the segment endpoints,
/// intercept = min(v[j] - line(j)) so residuals are >= 0. When the fitted
/// slope would make some residual unrepresentable in T (possible on
/// adversarial data: deviations can span almost twice the type's range), the
/// segment falls back to slope 0 — i.e. degenerates to a STEP segment, whose
/// residuals always fit. FitPlin is therefore total.
template <typename T>
Result<PlinFit<T>> FitPlin(const Column<T>& col, uint64_t ell) {
  static_assert(std::is_unsigned_v<T>);
  PlinFit<T> fit;
  const uint64_t n = col.size();
  for (uint64_t begin = 0; begin < n; begin += ell) {
    const uint64_t end = std::min<uint64_t>(begin + ell, n);
    const uint64_t len = end - begin;
    int64_t slope_fp = 0;
    if (len >= 2) {
      const __int128 rise = static_cast<__int128>(col[end - 1]) -
                            static_cast<__int128>(col[begin]);
      __int128 fp = (rise << kPlinSlopeFractionBits) /
                    static_cast<__int128>(len - 1);
      // Keep slope * j safely inside int64 for every j < len.
      const __int128 limit =
          static_cast<__int128>(std::numeric_limits<int64_t>::max()) /
          static_cast<__int128>(len);
      fp = std::clamp<__int128>(fp, -limit, limit);
      slope_fp = static_cast<int64_t>(fp);
    }
    for (int attempt = 0; attempt < 2; ++attempt) {
      __int128 min_dev = 0;
      __int128 max_dev = 0;
      bool first = true;
      for (uint64_t j = 0; j < len; ++j) {
        const __int128 dev =
            static_cast<__int128>(col[begin + j]) -
            static_cast<__int128>(PlinLineOffset(slope_fp, j));
        if (first || dev < min_dev) min_dev = dev;
        if (first || dev > max_dev) max_dev = dev;
        first = false;
      }
      if (max_dev - min_dev >
          static_cast<__int128>(std::numeric_limits<T>::max())) {
        slope_fp = 0;  // Degenerate to a STEP segment; always representable.
        continue;
      }
      fit.bases.push_back(static_cast<T>(static_cast<uint64_t>(min_dev)));
      fit.slopes.push_back(slope_fp);
      break;
    }
  }
  return fit;
}

/// Evaluates a PLIN model with wrapping arithmetic (exact mod 2^bits, which
/// is all residual reconstruction needs).
template <typename T>
Column<T> EvaluatePlin(const PlinFit<T>& fit, uint64_t ell, uint64_t n) {
  Column<T> out(n);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t seg = i / ell;
    const uint64_t j = i % ell;
    const uint64_t line =
        static_cast<uint64_t>(PlinLineOffset(fit.slopes[seg], j));
    out[i] = static_cast<T>(fit.bases[seg] + static_cast<T>(line));
  }
  return out;
}

}  // namespace recomp::internal

#endif  // RECOMP_SCHEMES_MODEL_FIT_H_
