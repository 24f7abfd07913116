#include "core/analyzer.h"

#include <algorithm>
#include <array>

#include "columnar/stats.h"
#include "core/catalog.h"
#include "core/cost_model.h"
#include "core/fused.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "schemes/scheme_internal.h"
#include "util/bits.h"

namespace recomp {

namespace {

uint64_t VByteBytes(const WidthHistogram& histogram) {
  uint64_t total = 0;
  for (int w = 0; w <= 64; ++w) {
    total += histogram[w] * static_cast<uint64_t>(
                                w <= 7 ? 1 : bits::CeilDiv(w, 7));
  }
  return total;
}

template <typename T>
std::vector<CandidateEvaluation> BuildCandidates(const Column<T>& col) {
  const uint64_t n = col.size();
  const uint64_t value_size = sizeof(T);
  const ColumnStats stats = ComputeStats(col);
  std::vector<CandidateEvaluation> out;

  auto add = [&](std::string name, SchemeDescriptor desc, uint64_t bytes) {
    CandidateEvaluation c;
    c.name = std::move(name);
    c.estimated_cost = EstimateDecompressionCost(desc, stats);
    c.descriptor = std::move(desc);
    c.estimated_bytes = bytes;
    out.push_back(std::move(c));
  };

  add("ID", Id(), n * value_size);
  add("NS", Ns(), bits::PackedByteSize(n, stats.value_bits));
  add("PATCHED-NS", Patched().With("base", Ns()),
      ChoosePatchedWidth(stats.raw_width_histogram, value_size).bytes);
  add("VBYTE", VByte(), VByteBytes(stats.raw_width_histogram));

  add("DELTA-NS", MakeDeltaNs(),
      bits::PackedByteSize(n, stats.max_delta_zigzag_bits_with_head));
  add("DELTA-PATCHED-NS",
      Delta().With("deltas",
                   ZigZag().With("recoded", Patched().With("base", Ns()))),
      ChoosePatchedWidth(stats.delta_width_histogram, value_size).bytes);
  add("DELTA-VBYTE", MakeDeltaVByte(),
      VByteBytes(stats.delta_width_histogram));

  if (stats.run_count > 0 && stats.avg_run_length >= 1.5) {
    const int length_bits = bits::BitWidth(stats.max_run_length);
    add("RLE-NS", MakeRleNs(),
        bits::PackedByteSize(stats.run_count,
                             length_bits + stats.value_bits));
    // The run values' deltas are the column's nonzero deltas.
    add("RLE-DELTA", MakeRleDelta(),
        bits::PackedByteSize(
            stats.run_count,
            length_bits + stats.max_delta_zigzag_bits_with_head));
    add("RPE", Rpe(),
        stats.run_count * (sizeof(uint32_t) + value_size));
  }

  if (!stats.distinct_capped && stats.distinct > 0) {
    add("DICT-NS", MakeDictNs(),
        bits::PackedByteSize(
            n, bits::BitWidth(stats.distinct - 1)) +
            stats.distinct * value_size);
  }

  const uint64_t long_refs =
      bits::CeilDiv(n, ColumnStats::kLongSegment) * value_size;
  add("FOR-128", MakeFor(ColumnStats::kShortSegment),
      bits::CeilDiv(n, ColumnStats::kShortSegment) * value_size +
          bits::PackedByteSize(n, stats.short_segment_residual_bits));
  add("FOR-1024", MakeFor(ColumnStats::kLongSegment),
      long_refs + bits::PackedByteSize(n, stats.long_segment_residual_bits));
  if (n > 0) {
    add("PFOR-1024", MakePfor(ColumnStats::kLongSegment),
        long_refs + ChoosePatchedWidth(stats.long_segment_residual_histogram,
                                       value_size)
                        .bytes);
  }

  return out;
}

}  // namespace

Result<std::vector<CandidateEvaluation>> RankCandidates(
    const AnyColumn& input, const AnalyzerOptions& options) {
  return internal::DispatchUnsignedColumn(
      input,
      [&](const auto& col) -> Result<std::vector<CandidateEvaluation>> {
        std::vector<CandidateEvaluation> candidates = BuildCandidates(col);
        std::erase_if(candidates, [&](const CandidateEvaluation& c) {
          return c.estimated_cost > options.max_cost_per_value;
        });
        std::stable_sort(candidates.begin(), candidates.end(),
                         [](const auto& a, const auto& b) {
                           return a.estimated_bytes < b.estimated_bytes;
                         });
        if (candidates.empty()) {
          return Status::InvalidArgument(
              "no candidate scheme satisfies the cost budget");
        }
        return candidates;
      });
}

Result<SchemeDescriptor> ChooseScheme(const AnyColumn& input,
                                      const AnalyzerOptions& options) {
  RECOMP_ASSIGN_OR_RETURN(std::vector<CandidateEvaluation> ranked,
                          RankCandidates(input, options));
  if (obs::Enabled()) {
    // Per-choice rollup: how wide each search was, what shape won, and the
    // bytes the cost model promised. analyzer.estimated_bytes pairs with
    // analyzer.actual_bytes (counted where the choice is compressed) to
    // expose cost-model drift in one snapshot.
    obs::Registry& registry = obs::Registry::Get();
    static obs::Counter& choices = registry.GetCounter("analyzer.choices");
    static obs::Counter& considered =
        registry.GetCounter("analyzer.candidates_considered");
    static obs::Counter& estimated =
        registry.GetCounter("analyzer.estimated_bytes");
    static const std::array<obs::Counter*, kNumFusedShapes> chosen = [&] {
      std::array<obs::Counter*, kNumFusedShapes> by_shape{};
      for (int s = 0; s < kNumFusedShapes; ++s) {
        by_shape[static_cast<size_t>(s)] = &registry.GetCounter(
            std::string("analyzer.chosen.") +
            FusedShapeName(static_cast<FusedShape>(s)));
      }
      return by_shape;
    }();
    choices.Increment();
    considered.Add(ranked.size());
    estimated.Add(ranked.front().estimated_bytes);
    const FusedShape shape = ClassifyFusedDescriptor(ranked.front().descriptor);
    chosen[static_cast<size_t>(static_cast<int>(shape))]->Increment();
  }
  return ranked.front().descriptor;
}

Result<std::vector<TrialOutcome>> TrialCompressCandidates(
    const AnyColumn& input, const AnalyzerOptions& options) {
  RECOMP_ASSIGN_OR_RETURN(std::vector<CandidateEvaluation> ranked,
                          RankCandidates(input, options));
  std::vector<TrialOutcome> outcomes;
  outcomes.reserve(ranked.size());
  for (const CandidateEvaluation& candidate : ranked) {
    auto compressed = Compress(input, candidate.descriptor);
    if (!compressed.ok()) continue;  // e.g. DICT over 2^32 distinct values
    TrialOutcome outcome;
    outcome.name = candidate.name;
    outcome.descriptor = candidate.descriptor;
    outcome.estimated_bytes = candidate.estimated_bytes;
    outcome.estimated_cost = candidate.estimated_cost;
    outcome.measured_bytes = compressed->PayloadBytes();
    outcomes.push_back(std::move(outcome));
  }
  std::stable_sort(outcomes.begin(), outcomes.end(),
                   [](const auto& a, const auto& b) {
                     return a.measured_bytes < b.measured_bytes;
                   });
  return outcomes;
}

}  // namespace recomp
