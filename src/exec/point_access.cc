#include "exec/point_access.h"

#include <algorithm>
#include <numeric>

#include "core/envelope.h"
#include "ops/pack.h"
#include "schemes/scheme_internal.h"

namespace recomp::exec {

namespace {

using internal::DispatchUnsignedTypeId;

/// The one per-chunk reader: reads `count` rows of one envelope of type T —
/// row_of(k) for k < count, each < n — into out[0, count), from `decoded`
/// (the envelope's decoded values) when given, else through the access
/// path resolved once from the envelope view: O(1) or O(log runs) per row,
/// or one decode serving the whole run when the shape has no direct path.
/// Returns the strategy that served every row.
template <typename T, typename RowOf>
Result<Strategy> ReadRows(const CompressedNode& node, const AnyColumn* decoded,
                          uint64_t count, RowOf row_of, T* out) {
  AnyColumn storage;
  if (decoded == nullptr) {
    RECOMP_ASSIGN_OR_RETURN(const EnvelopeView view, ViewEnvelope(node));
    if (view.stored_plain != nullptr) {
      const Column<T>& values = view.stored_plain->As<T>();
      for (uint64_t k = 0; k < count; ++k) out[k] = values[row_of(k)];
      return Strategy::kPlainScan;
    }
    if (view.shape == FusedShape::kNs) {
      for (uint64_t k = 0; k < count; ++k) {
        out[k] = ops::UnpackOne<T>(*view.packed, row_of(k));
      }
      return Strategy::kNsDirect;
    }
    if (view.shape == FusedShape::kFor) {
      const Column<T>& refs = view.refs->As<T>();
      for (uint64_t k = 0; k < count; ++k) {
        const uint64_t row = row_of(k);
        out[k] = static_cast<T>(refs[row / view.ell] +
                                ops::UnpackOne<T>(*view.packed, row));
      }
      return Strategy::kForDirect;
    }
    if (view.runs && view.runs->values.column != nullptr &&
        view.runs->ends.column != nullptr) {
      // Exclusive run ends are sorted: a row's run is the first end
      // strictly greater than the row.
      const Column<T>& values = view.runs->values.column->As<T>();
      const Column<uint32_t>& ends = view.runs->ends.column->As<uint32_t>();
      for (uint64_t k = 0; k < count; ++k) {
        const uint64_t run =
            std::upper_bound(ends.begin(), ends.end(),
                             static_cast<uint32_t>(row_of(k))) -
            ends.begin();
        if (run >= ends.size()) {
          return Status::Corruption("RPE positions end before the row");
        }
        out[k] = values[run];
      }
      return Strategy::kRpeBinarySearch;
    }
    if (view.dict && view.dict->dictionary.column != nullptr &&
        (view.dict->codes.column != nullptr ||
         view.dict->packed_codes != nullptr)) {
      const DictView& dict = *view.dict;
      const Column<T>& dictionary = dict.dictionary.column->As<T>();
      for (uint64_t k = 0; k < count; ++k) {
        const uint32_t code =
            dict.codes.column != nullptr
                ? dict.codes.column->As<uint32_t>()[row_of(k)]
                : ops::UnpackOne<uint32_t>(*dict.packed_codes, row_of(k));
        if (code >= dictionary.size()) {
          return Status::Corruption("DICT code exceeds dictionary");
        }
        out[k] = dictionary[code];
      }
      return Strategy::kDictProbe;
    }
    RECOMP_ASSIGN_OR_RETURN(storage, FusedDecompressNode(node));
    decoded = &storage;
  }
  const Column<T>& values = decoded->As<T>();
  for (uint64_t k = 0; k < count; ++k) out[k] = values[row_of(k)];
  return Strategy::kDecompressScan;
}

/// Reads `count` rows of one envelope, row_of(k) for k < count, and hands
/// each to emit(k, PointResult).
template <typename RowOf, typename Emit>
Status ReadPoints(const CompressedNode& node, uint64_t count, RowOf row_of,
                  Emit emit) {
  if (!TypeIdIsUnsigned(node.out_type)) {
    return Status::InvalidArgument("point access requires an unsigned column");
  }
  return DispatchUnsignedTypeId(node.out_type, [&](auto tag) -> Status {
    Column<typename decltype(tag)::type> values(count);
    RECOMP_ASSIGN_OR_RETURN(
        const Strategy strategy,
        ReadRows(node, nullptr, count, row_of, values.data()));
    for (uint64_t k = 0; k < count; ++k) {
      emit(k, PointResult{static_cast<uint64_t>(values[k]), strategy});
    }
    return Status::OK();
  });
}

}  // namespace

Result<PointResult> GetAt(const CompressedColumn& compressed, uint64_t row) {
  if (row >= compressed.size()) {
    return Status::OutOfRange("point access past the end of the column");
  }
  PointResult result;
  RECOMP_RETURN_NOT_OK(ReadPoints(
      compressed.root(), 1, [&](uint64_t) { return row; },
      [&](uint64_t, PointResult point) { result = point; }));
  return result;
}

Result<PointResult> GetAt(const ChunkedCompressedColumn& chunked, uint64_t row,
                          const ExecContext& /*ctx*/) {
  // A single lookup touches exactly one chunk: nothing to fan out.
  if (row >= chunked.size()) {
    return Status::OutOfRange("point access past the end of the column");
  }
  const CompressedChunk& chunk = chunked.chunk(chunked.ChunkIndexOf(row));
  return GetAt(chunk.column, row - chunk.zone.row_begin);
}

Result<Strategy> ReadChunkRows(const CompressedColumn& chunk, uint64_t base,
                               const ChunkRun& run, const uint32_t* rows,
                               const AnyColumn* decoded, AnyColumn* out) {
  const CompressedNode& node = chunk.root();
  const uint64_t count = run.end - run.begin;
  return DispatchUnsignedTypeId(out->type(), [&](auto tag) -> Result<Strategy> {
    using T = typename decltype(tag)::type;
    const uint32_t* selected = rows + run.begin;
    return ReadRows(
        node, decoded, count,
        [selected, base](uint64_t k) -> uint64_t { return selected[k] - base; },
        out->As<T>().data() + run.begin);
  });
}

Result<std::vector<PointResult>> GetAtBatch(
    const ChunkedCompressedColumn& chunked, const std::vector<uint64_t>& rows,
    const ExecContext& ctx, uint64_t* chunks_touched) {
  if (chunks_touched != nullptr) *chunks_touched = 0;
  // Validate up front so the reported error is the first failing row in
  // input order, as it was when this ran one GetAt per row.
  for (const uint64_t row : rows) {
    if (row >= chunked.size()) {
      return Status::OutOfRange("point access past the end of the column");
    }
  }
  // Input indices in row order: every touched chunk owns one run of them.
  std::vector<uint64_t> order(rows.size());
  std::iota(order.begin(), order.end(), uint64_t{0});
  std::sort(order.begin(), order.end(),
            [&](uint64_t a, uint64_t b) { return rows[a] < rows[b]; });
  const auto row_of = [&](uint64_t k) { return rows[order[k]]; };
  const auto runs = ChunkRuns(chunked, rows.size(), row_of);
  if (chunks_touched != nullptr) *chunks_touched = runs.size();

  std::vector<PointResult> results(rows.size());
  RECOMP_RETURN_NOT_OK(ParallelForOk(ctx, runs.size(), [&](uint64_t g) {
    const ChunkRun& run = runs[g];
    const CompressedChunk& chunk = chunked.chunk(run.chunk);
    const uint64_t base = chunk.zone.row_begin;
    return ReadPoints(
        chunk.column.root(), run.end - run.begin,
        [&](uint64_t k) { return row_of(run.begin + k) - base; },
        [&](uint64_t k, PointResult point) {
          results[order[run.begin + k]] = point;
        });
  }));
  return results;
}

}  // namespace recomp::exec
