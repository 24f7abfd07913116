// Selection evaluated directly on compressed columns.
//
// "There is no clear distinction between decompression and analytic query
// execution" (paper, Lessons 1): the same columnar view that yields
// decompression plans lets predicates push *into* the compressed form —
// filtering runs instead of rows (RPE/RLE), testing dictionary entries
// instead of values (DICT), and pruning whole segments via the model's L∞
// bound (MODELED(STEP) — the paper's "speed up selections" claim for FOR).
// The per-shape filter is one template over its predicate: a range
// (RangePredicate) or a key set (KeySetPredicate, the semi-join of
// exec/join.h), so a shape's pushdown is written once for both.

#ifndef RECOMP_EXEC_SELECTION_H_
#define RECOMP_EXEC_SELECTION_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#include "core/chunked.h"
#include "core/compressed.h"
#include "core/envelope.h"
#include "exec/strategy.h"
#include "schemes/scheme_internal.h"
#include "util/result.h"

namespace recomp::exec {

/// An inclusive range predicate lo <= v <= hi over unsigned values.
struct RangePredicate {
  uint64_t lo = 0;
  uint64_t hi = ~uint64_t{0};

  /// True iff this band accepts every value `other` accepts and the two
  /// differ — the containment order cross-query predicate subsumption is
  /// built on (exec/scan_batch.h): B's selection is then a subset of A's,
  /// so B can re-filter A's matches instead of the whole chunk. Equal bands
  /// are the *same* predicate and belong to the selection cache instead.
  bool StrictlyContains(const RangePredicate& other) const {
    return lo <= other.lo && other.hi <= hi && !(*this == other);
  }

  bool operator==(const RangePredicate& other) const {
    return lo == other.lo && hi == other.hi;
  }

  bool Matches(uint64_t v) const { return v >= lo && v <= hi; }

  /// True iff some value of [a, b] matches: a FOR window the filter must
  /// look into.
  bool Overlaps(uint64_t a, uint64_t b) const { return a <= hi && b >= lo; }

  /// True iff every value of [a, b] matches: a FOR window selected whole,
  /// undecoded.
  bool Contains(uint64_t a, uint64_t b) const { return a >= lo && b <= hi; }
};

/// A key-set predicate: v matches iff it is one of `keys` (ascending,
/// deduplicated), the semi-join's probe (exec/join.h). Every membership
/// test counts one of its `probes`.
struct KeySetPredicate {
  const Column<uint64_t>& keys;
  uint64_t probes = 0;

  bool Matches(uint64_t v) {
    ++probes;
    return std::binary_search(keys.begin(), keys.end(), v);
  }

  /// True iff some key lies in [a, b]; a bound check, not a probe.
  bool Overlaps(uint64_t a, uint64_t b) const {
    const auto it = std::lower_bound(keys.begin(), keys.end(), a);
    return it != keys.end() && *it <= b;
  }

  /// Never vouches for a whole window: every row a key set selects is
  /// probed.
  bool Contains(uint64_t, uint64_t) const { return false; }
};

/// The range-filter loop over plain values: calls emit(i, v) for every
/// index whose value v lies inside `pred`, in index order. Every scan of
/// plain values runs through it, the batch scan's nested bands included.
template <typename T, typename Emit>
void ForEachMatch(const Column<T>& values, const RangePredicate& pred,
                  Emit&& emit) {
  // Locals, not members: `emit` writes through references the compiler
  // cannot prove disjoint from `values` and `pred`, so it would reload them.
  const T* data = values.data();
  const uint64_t n = values.size();
  const uint64_t lo = pred.lo;
  const uint64_t hi = pred.hi;
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t v = static_cast<uint64_t>(data[i]);
    if (v >= lo && v <= hi) emit(i, v);
  }
}

/// The membership loop over plain values: calls emit(i, v) for every index
/// whose value v is a key, in index order, one probe per value.
template <typename T, typename Emit>
void ForEachMatch(const Column<T>& values, KeySetPredicate& pred,
                  Emit&& emit) {
  // Locals, as in the range loop: `emit` may write through aliases.
  const uint64_t* first = pred.keys.data();
  const uint64_t* last = first + pred.keys.size();
  pred.probes += values.size();
  for (uint64_t i = 0; i < values.size(); ++i) {
    const uint64_t v = static_cast<uint64_t>(values[i]);
    if (std::binary_search(first, last, v)) emit(i, v);
  }
}

/// How a selection was executed, for inspection and benchmarks.
struct SelectionStats {
  Strategy strategy = Strategy::kDecompressScan;
  uint64_t runs_examined = 0;     ///< rle-runs strategy.
  uint64_t segments_total = 0;    ///< step-pruned strategy.
  uint64_t segments_skipped = 0;  ///< Disjoint from the predicate: no work.
  uint64_t segments_full = 0;     ///< Contained in the predicate: no decode.
  uint64_t segments_partial = 0;  ///< Overlapping: decoded and tested.
  uint64_t values_decoded = 0;    ///< Residual/code values actually decoded.
};

/// The matching positions plus execution statistics.
struct SelectionResult {
  Column<uint32_t> positions;
  SelectionStats stats;
};

/// Evaluates the predicate over the compressed column, pushing down where
/// the shape allows and falling back to decompress-and-scan otherwise. The
/// positions always equal the decompress-then-filter reference.
Result<SelectionResult> SelectCompressed(const CompressedColumn& compressed,
                                         const RangePredicate& predicate);

/// FilterCompressed's default filter for a shape without a pushdown: decode
/// the column, then scan its values.
struct DecodeThenScan {};

/// The per-shape filter behind SelectCompressed, SemiJoinCompressed
/// (exec/join.h) and the scan batch's shared chunks, for either predicate: a
/// key set's `probes` count the membership tests it ran, and its DICT
/// strategy is kDictProbe. Runs, dictionaries, FOR segments and stored-plain
/// data push down; any other shape runs `no_pushdown(tag)`, where
/// decltype(tag)::type is the column's type, or decodes and scans for the
/// DecodeThenScan default. Defined below so that each operator compiles its
/// own predicate's filter: one translation unit holding both outgrows GCC's
/// inlining budget, and its hot loops stop inlining push_back (which
/// tools/check_filter_inlining.sh catches).
template <typename Pred, typename NoPushdown = DecodeThenScan>
Result<SelectionResult> FilterCompressed(const CompressedColumn& compressed,
                                         Pred& predicate,
                                         NoPushdown no_pushdown = {});

/// The per-chunk stats of one executed chunk of a chunked selection.
struct ChunkSelectionStats {
  uint64_t chunk_index = 0;
  SelectionStats stats;
};

/// How a chunked selection was executed: zone-map pruning counts plus how
/// many chunks each per-chunk strategy served.
struct ChunkedSelectionStats {
  uint64_t chunks_total = 0;
  uint64_t chunks_pruned = 0;    ///< Zone map disjoint: chunk never touched.
  uint64_t chunks_full = 0;      ///< Zone map contained: emitted, no decode.
  uint64_t chunks_executed = 0;  ///< Dispatched to a per-chunk strategy.
  /// Executed chunks served per strategy, indexed by Strategy.
  uint64_t strategy_chunks[kNumStrategies] = {};
  /// Values decoded across executed chunks.
  uint64_t values_decoded = 0;
  /// Full stats of each executed chunk, in chunk order.
  std::vector<ChunkSelectionStats> per_chunk;

  /// One-line human-readable rendering, e.g.
  /// "chunks total=8 pruned=5 full=1 executed=2 values_decoded=4096
  ///  [step-pruned=2]" (strategies with zero chunks are omitted).
  std::string ToString() const;
};

/// The matching global positions plus chunk-level execution statistics.
struct ChunkedSelectionResult {
  Column<uint32_t> positions;
  ChunkedSelectionStats stats;
};

/// Chunked overload: prunes whole chunks via their zone maps, dispatches the
/// per-chunk pushdown strategies above only for overlapping chunks, and
/// merges the position lists (offset by each chunk's row_begin). Overlapping
/// chunks execute concurrently under `ctx`, each into its own slot; the
/// merge walks chunks in order, so positions stay sorted and every stats
/// counter matches the sequential path bit-for-bit regardless of thread
/// count. Always equals the whole-column reference.
///
/// This is a thin wrapper over a one-filter exec::Scan (exec/scan.h), which
/// owns the chunk loop; multi-column and filter+gather+aggregate queries
/// should use Scan directly.
Result<ChunkedSelectionResult> SelectCompressed(
    const ChunkedCompressedColumn& chunked, const RangePredicate& predicate,
    const ExecContext& ctx = {});

// ---------------------------------------------------------------------------
// FilterCompressed's definition
// ---------------------------------------------------------------------------

namespace detail {

/// Filters plain values, tagging the result with how they were obtained:
/// decompressed (fallback) or read in place (ID fast path).
template <typename T, typename Pred>
SelectionResult ScanValues(const Column<T>& values, Pred& pred,
                           Strategy strategy) {
  SelectionResult result;
  result.stats.strategy = strategy;
  result.stats.values_decoded = values.size();
  ForEachMatch(values, pred, [&](uint64_t i, uint64_t) {
    result.positions.push_back(static_cast<uint32_t>(i));
  });
  return result;
}

/// Appends the rows [begin, end) to `positions`.
inline void AppendRows(uint64_t begin, uint64_t end,
                       Column<uint32_t>* positions) {
  const uint64_t at = positions->size();
  positions->resize(at + (end - begin));
  std::iota(positions->begin() + at, positions->end(),
            static_cast<uint32_t>(begin));
}

/// RPE / RLE: test run values, expand qualifying runs.
template <typename T, typename Pred>
Result<SelectionResult> SelectRuns(const RunsView& runs, uint64_t n,
                                   Pred& pred) {
  SelectionResult result;
  result.stats.strategy = Strategy::kRleRuns;
  RECOMP_RETURN_NOT_OK(
      ForEachRun<T>(runs, n, [&](uint64_t begin, uint64_t end, T v) {
        ++result.stats.runs_examined;
        if (!pred.Matches(static_cast<uint64_t>(v))) return;
        AppendRows(begin, end, &result.positions);
      }));
  return result;
}

/// DICT: test each dictionary entry once, then filter codes by lookup.
template <typename T, typename Pred>
Result<SelectionResult> SelectDict(const DictView& dict, Pred& pred) {
  return ReadDict<T>(dict, [&](const Column<T>& dictionary,
                               const Column<uint32_t>& codes)
                               -> Result<SelectionResult> {
    SelectionResult result;
    result.stats.strategy = std::is_same_v<Pred, KeySetPredicate>
                                ? Strategy::kDictProbe
                                : Strategy::kDictCodes;
    result.stats.values_decoded = codes.size();
    std::vector<uint8_t> qualifies(dictionary.size());
    for (uint64_t d = 0; d < dictionary.size(); ++d) {
      qualifies[d] = pred.Matches(static_cast<uint64_t>(dictionary[d]));
    }
    for (uint64_t i = 0; i < codes.size(); ++i) {
      const uint32_t code = codes[i];
      if (code >= qualifies.size()) {
        return Status::Corruption("DICT code exceeds dictionary");
      }
      if (qualifies[code]) {
        result.positions.push_back(static_cast<uint32_t>(i));
      }
    }
    return result;
  });
}

/// MODELED(STEP) with an NS residual: prune whole segments by the model's
/// L∞ window before touching any packed bits.
template <typename T, typename Pred>
Result<SelectionResult> SelectStepPruned(const EnvelopeView& view, uint64_t n,
                                         Pred& pred) {
  ForSegments<T> segments(view, n);
  SelectionResult result;
  result.stats.strategy = Strategy::kStepPruned;
  result.stats.segments_total = segments.size();
  for (uint64_t s = 0; s < segments.size(); ++s) {
    const ForSegment<T> segment = segments[s];
    if (segment.bounded && !pred.Overlaps(segment.lo, segment.hi)) {
      ++result.stats.segments_skipped;
      continue;
    }
    if (segment.bounded && pred.Contains(segment.lo, segment.hi)) {
      ++result.stats.segments_full;
      AppendRows(segment.begin, segment.end, &result.positions);
      continue;
    }
    ++result.stats.segments_partial;
    result.stats.values_decoded += segment.end - segment.begin;
    RECOMP_ASSIGN_OR_RETURN(const T* residuals, segments.Residuals(segment));
    // Write every row, advancing past matches: no branch to mispredict.
    const uint64_t at = result.positions.size();
    result.positions.resize(at + (segment.end - segment.begin));
    uint32_t* out = result.positions.data() + at;
    for (uint64_t i = segment.begin; i < segment.end; ++i) {
      const T v = static_cast<T>(segment.ref + residuals[i - segment.begin]);
      *out = static_cast<uint32_t>(i);
      out += pred.Matches(static_cast<uint64_t>(v));
    }
    result.positions.resize(out - result.positions.data());
  }
  return result;
}

}  // namespace detail

template <typename Pred, typename NoPushdown>
Result<SelectionResult> FilterCompressed(const CompressedColumn& compressed,
                                         Pred& predicate,
                                         NoPushdown no_pushdown) {
  const CompressedNode& node = compressed.root();
  if (node.n >= (uint64_t{1} << 32)) {
    return Status::OutOfRange("selections support columns below 2^32 rows");
  }
  if (!TypeIdIsUnsigned(node.out_type)) {
    return Status::InvalidArgument(
        "selection over compressed data requires an unsigned column");
  }
  RECOMP_ASSIGN_OR_RETURN(const EnvelopeView view, ViewEnvelope(node));
  return recomp::internal::DispatchUnsignedTypeId(
      node.out_type, [&](auto tag) -> Result<SelectionResult> {
        using T = typename decltype(tag)::type;
        if (view.runs) {
          return detail::SelectRuns<T>(*view.runs, node.n, predicate);
        }
        if (view.dict) return detail::SelectDict<T>(*view.dict, predicate);
        if (view.shape == FusedShape::kFor) {
          return detail::SelectStepPruned<T>(view, node.n, predicate);
        }
        // Terminal plain data (the streaming store's uncompressed tail
        // chunks): scan in place, no decompress copy.
        if (view.stored_plain != nullptr) {
          return detail::ScanValues(view.stored_plain->As<T>(), predicate,
                                    Strategy::kPlainScan);
        }
        if constexpr (std::is_same_v<NoPushdown, DecodeThenScan>) {
          RECOMP_ASSIGN_OR_RETURN(const AnyColumn column,
                                  FusedDecompressNode(node));
          return detail::ScanValues(column.As<T>(), predicate,
                                    Strategy::kDecompressScan);
        } else {
          return no_pushdown(tag);
        }
      });
}

}  // namespace recomp::exec

#endif  // RECOMP_EXEC_SELECTION_H_
