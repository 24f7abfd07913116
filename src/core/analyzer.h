// The analyzer: automatic scheme selection over the composition space.
//
// "Why it matters", operationally: once classic schemes decompose into
// primitives, choosing a scheme stops being a pick-from-a-zoo problem and
// becomes a search over compositions. The analyzer reads a column in one
// statistics walk (ComputeStats: value and delta widths, runs, FOR-128's
// residual width and PFOR-1024's residual histogram, whose widest bucket is
// also FOR-1024's width, plus an allocation-free exact distinct count),
// prices a candidate set of compositions from it, filters by a
// decompression-cost budget, and ranks by estimated footprint.
// TrialCompressCandidates grounds the estimates by actually compressing.

#ifndef RECOMP_CORE_ANALYZER_H_
#define RECOMP_CORE_ANALYZER_H_

#include <limits>
#include <string>
#include <vector>

#include "columnar/any_column.h"
#include "core/descriptor.h"
#include "util/result.h"

namespace recomp {

/// One priced candidate composition.
struct CandidateEvaluation {
  std::string name;               ///< Display name (catalog-style).
  SchemeDescriptor descriptor;
  uint64_t estimated_bytes = 0;   ///< Predicted payload footprint.
  double estimated_cost = 0.0;    ///< Predicted decompression ops/value.
};

/// Selection constraints.
struct AnalyzerOptions {
  /// Candidates whose estimated decompression cost (ops/value) exceeds this
  /// are dropped — the paper's ratio-for-speed axis as a knob.
  double max_cost_per_value = std::numeric_limits<double>::infinity();

  /// Equal options choose alike for equal rows: the search is deterministic.
  bool operator==(const AnalyzerOptions&) const = default;
};

/// Prices the candidate set for `input` (an unsigned plain column) and
/// returns it sorted by estimated footprint, cheapest first.
Result<std::vector<CandidateEvaluation>> RankCandidates(
    const AnyColumn& input, const AnalyzerOptions& options = {});

/// The top-ranked candidate's descriptor.
Result<SchemeDescriptor> ChooseScheme(const AnyColumn& input,
                                      const AnalyzerOptions& options = {});

/// A candidate with its measured (not estimated) footprint.
struct TrialOutcome {
  std::string name;
  SchemeDescriptor descriptor;
  uint64_t estimated_bytes = 0;
  uint64_t measured_bytes = 0;
  double estimated_cost = 0.0;
};

/// Compresses `input` with every in-budget candidate and reports measured
/// footprints, sorted by measured bytes.
Result<std::vector<TrialOutcome>> TrialCompressCandidates(
    const AnyColumn& input, const AnalyzerOptions& options = {});

}  // namespace recomp

#endif  // RECOMP_CORE_ANALYZER_H_
