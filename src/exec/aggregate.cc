#include "exec/aggregate.h"

#include <algorithm>
#include <utility>

#include "core/envelope.h"
#include "exec/scan.h"
#include "schemes/scheme_internal.h"

namespace recomp::exec {

namespace {

/// Folds value `v`, standing for `count` rows, into `*acc`.
void Fold(AggregateOp op, uint64_t v, uint64_t count, uint64_t* acc) {
  *acc = op == AggregateOp::kSum   ? *acc + v * count
         : op == AggregateOp::kMin ? std::min(*acc, v)
                                   : std::max(*acc, v);
}

uint64_t FoldStart(AggregateOp op) {
  return op == AggregateOp::kMin ? ~uint64_t{0} : 0;
}

/// The typed fold behind FoldColumn.
template <typename T>
uint64_t FoldValues(const Column<T>& values, AggregateOp op) {
  if (op == AggregateOp::kSum) {
    uint64_t acc = 0;
    for (const T v : values) acc += static_cast<uint64_t>(v);
    return acc;
  }
  const auto extreme =
      op == AggregateOp::kMin ? std::min_element(values.begin(), values.end())
                              : std::max_element(values.begin(), values.end());
  return static_cast<uint64_t>(*extreme);
}

template <typename T>
Result<AggregateResult> AggregateRuns(const RunsView& runs, uint64_t n,
                                      AggregateOp op) {
  AggregateResult result;
  result.strategy = Strategy::kRleDot;
  result.value = FoldStart(op);
  RECOMP_RETURN_NOT_OK(
      ForEachRun<T>(runs, n, [&](uint64_t begin, uint64_t end, T v) {
        Fold(op, static_cast<uint64_t>(v), end - begin, &result.value);
      }));
  return result;
}

template <typename T>
Result<AggregateResult> AggregateStep(const EnvelopeView& view, uint64_t n,
                                      AggregateOp op) {
  ForSegments<T> segments(view, n);
  AggregateResult result;
  result.strategy = Strategy::kStepMass;
  result.value = FoldStart(op);
  for (uint64_t s = 0; s < segments.size(); ++s) {
    const ForSegment<T> segment = segments[s];
    const uint64_t len = segment.end - segment.begin;
    RECOMP_ASSIGN_OR_RETURN(const T* residuals, segments.Residuals(segment));
    if (op == AggregateOp::kSum && segment.bounded) {
      // Σ ref·|segment| plus the residual mass.
      result.value += segment.lo * len;
      for (uint64_t i = 0; i < len; ++i) {
        result.value += static_cast<uint64_t>(residuals[i]);
      }
      continue;
    }
    for (uint64_t i = 0; i < len; ++i) {
      Fold(op, static_cast<T>(segment.ref + residuals[i]), 1, &result.value);
    }
  }
  return result;
}

template <typename T>
Result<AggregateResult> AggregateDict(const DictView& dict, AggregateOp op) {
  return ReadDict<T>(dict, [&](const Column<T>& dictionary,
                               const Column<uint32_t>& codes)
                               -> Result<AggregateResult> {
    AggregateResult result;
    if (op == AggregateOp::kSum) {
      result.strategy = Strategy::kDictSum;
      for (const uint32_t c : codes) {
        if (c >= dictionary.size()) {
          return Status::Corruption("DICT code exceeds dictionary");
        }
        result.value += static_cast<uint64_t>(dictionary[c]);
      }
      return result;
    }
    // The dictionary is sorted: extrema of codes give extrema of values
    // without touching the dictionary per row (the largest code bounds all).
    result.strategy = Strategy::kDictExtrema;
    const auto [min_code, max_code] =
        std::minmax_element(codes.begin(), codes.end());
    if (*max_code >= dictionary.size()) {
      return Status::Corruption("DICT code exceeds dictionary");
    }
    result.value = static_cast<uint64_t>(
        dictionary[op == AggregateOp::kMin ? *min_code : *max_code]);
    return result;
  });
}

// The chunked overloads are one-aggregate scans: the shared driver
// (exec/scan.cc) owns the chunk loop — zone-map answers, parallel per-chunk
// pushdown, ordered fold — and returns the same value and counters these
// overloads historically produced.
Result<ChunkedAggregateResult> AggregateChunked(
    const ChunkedCompressedColumn& chunked, AggregateOp op,
    const ExecContext& ctx) {
  ScanSpec spec;
  spec.Aggregate(op);
  RECOMP_ASSIGN_OR_RETURN(ScanResult scan, Scan(chunked, spec, ctx));
  return std::move(scan.aggregates[0].agg);
}

}  // namespace

const char* AggregateOpName(AggregateOp op) {
  switch (op) {
    case AggregateOp::kSum:
      return "sum";
    case AggregateOp::kMin:
      return "min";
    case AggregateOp::kMax:
      return "max";
    case AggregateOp::kCount:
      return "count";
  }
  return "unknown";
}

uint64_t FoldColumn(const AnyColumn& values, AggregateOp op) {
  return values.VisitPlain(
      [&](const auto& col) { return FoldValues(col, op); });
}

Result<AggregateResult> AggregateCompressed(const CompressedColumn& compressed,
                                            AggregateOp op) {
  const CompressedNode& node = compressed.root();
  if (op == AggregateOp::kCount) {
    return Status::InvalidArgument("count needs no per-chunk dispatch");
  }
  if (!TypeIdIsUnsigned(node.out_type)) {
    return Status::InvalidArgument(
        "compressed aggregation requires an unsigned column");
  }
  RECOMP_ASSIGN_OR_RETURN(const EnvelopeView view, ViewEnvelope(node));
  if (op != AggregateOp::kSum && node.n == 0) {
    return Status::InvalidArgument("min/max of an empty column");
  }
  return internal::DispatchUnsignedTypeId(
      node.out_type, [&](auto tag) -> Result<AggregateResult> {
        using T = typename decltype(tag)::type;
        if (view.runs) return AggregateRuns<T>(*view.runs, node.n, op);
        if (view.dict) return AggregateDict<T>(*view.dict, op);
        if (view.shape == FusedShape::kFor) {
          return AggregateStep<T>(view, node.n, op);
        }
        // Terminal plain data (the streaming store's uncompressed tail
        // chunks): aggregate in place, no decompress copy.
        if (view.stored_plain != nullptr) {
          return AggregateResult{FoldValues(view.stored_plain->As<T>(), op),
                                 Strategy::kPlainScan};
        }
        RECOMP_ASSIGN_OR_RETURN(const AnyColumn column,
                                FusedDecompressNode(node));
        return AggregateResult{FoldValues(column.As<T>(), op),
                               Strategy::kDecompressScan};
      });
}

Result<AggregateResult> SumCompressed(const CompressedColumn& compressed) {
  return AggregateCompressed(compressed, AggregateOp::kSum);
}

Result<AggregateResult> MinCompressed(const CompressedColumn& compressed) {
  return AggregateCompressed(compressed, AggregateOp::kMin);
}

Result<AggregateResult> MaxCompressed(const CompressedColumn& compressed) {
  return AggregateCompressed(compressed, AggregateOp::kMax);
}

Result<ChunkedAggregateResult> SumCompressed(
    const ChunkedCompressedColumn& chunked, const ExecContext& ctx) {
  return AggregateChunked(chunked, AggregateOp::kSum, ctx);
}

Result<ChunkedAggregateResult> MinCompressed(
    const ChunkedCompressedColumn& chunked, const ExecContext& ctx) {
  return AggregateChunked(chunked, AggregateOp::kMin, ctx);
}

Result<ChunkedAggregateResult> MaxCompressed(
    const ChunkedCompressedColumn& chunked, const ExecContext& ctx) {
  return AggregateChunked(chunked, AggregateOp::kMax, ctx);
}

}  // namespace recomp::exec
