#include "exec/point_access.h"

#include <algorithm>
#include <map>

#include "core/envelope.h"
#include "ops/pack.h"
#include "schemes/scheme_internal.h"

namespace recomp::exec {

namespace {

/// One envelope's direct access path, resolved once from its view: O(1) or
/// O(log runs) per row. `strategy` stays kDecompressScan when the shape has
/// none (sequential dependencies, composed parts).
template <typename T>
struct DirectReader {
  explicit DirectReader(const EnvelopeView& v) : view(v) {
    if (view.stored_plain != nullptr) {
      strategy = Strategy::kPlainScan;
    } else if (view.shape == FusedShape::kNs) {
      strategy = Strategy::kNsDirect;
    } else if (view.shape == FusedShape::kFor) {
      strategy = Strategy::kForDirect;
    } else if (view.runs && view.runs->values.column != nullptr &&
               view.runs->ends.column != nullptr) {
      strategy = Strategy::kRpeBinarySearch;
    } else if (view.dict && view.dict->dictionary.column != nullptr &&
               (view.dict->codes.column != nullptr ||
                view.dict->packed_codes != nullptr)) {
      strategy = Strategy::kDictProbe;
    }
  }

  /// Row `row` (< n) through the direct path.
  Result<uint64_t> At(uint64_t row) const {
    switch (strategy) {
      case Strategy::kPlainScan:
        return static_cast<uint64_t>(view.stored_plain->As<T>()[row]);
      case Strategy::kNsDirect:
        return static_cast<uint64_t>(ops::UnpackOne<T>(*view.packed, row));
      case Strategy::kForDirect:
        return static_cast<uint64_t>(static_cast<T>(
            view.refs->As<T>()[row / view.ell] +
            ops::UnpackOne<T>(*view.packed, row)));
      case Strategy::kRpeBinarySearch: {
        // Exclusive run ends are sorted: the row's run is the first end
        // strictly greater than `row`.
        const Column<uint32_t>& ends = view.runs->ends.column->As<uint32_t>();
        const uint64_t run =
            std::upper_bound(ends.begin(), ends.end(),
                             static_cast<uint32_t>(row)) -
            ends.begin();
        if (run >= ends.size()) {
          return Status::Corruption("RPE positions end before the row");
        }
        return static_cast<uint64_t>(view.runs->values.column->As<T>()[run]);
      }
      case Strategy::kDictProbe: {
        const DictView& dict = *view.dict;
        const Column<T>& dictionary = dict.dictionary.column->As<T>();
        const uint32_t code =
            dict.codes.column != nullptr
                ? dict.codes.column->As<uint32_t>()[row]
                : ops::UnpackOne<uint32_t>(*dict.packed_codes, row);
        if (code >= dictionary.size()) {
          return Status::Corruption("DICT code exceeds dictionary");
        }
        return static_cast<uint64_t>(dictionary[code]);
      }
      default:
        return Status::InvalidArgument("shape has no direct access path");
    }
  }

  const EnvelopeView& view;
  Strategy strategy = Strategy::kDecompressScan;
};

/// Answers `count` rows of one envelope — row_of(k) is the k-th row, out(k)
/// its result slot — through the shape's direct access path when it has
/// one, else with one decompress serving all of them.
template <typename RowOf, typename Out>
Status ReadRows(const CompressedNode& node, uint64_t count, RowOf row_of,
                Out out) {
  if (!TypeIdIsUnsigned(node.out_type)) {
    return Status::InvalidArgument("point access requires an unsigned column");
  }
  RECOMP_ASSIGN_OR_RETURN(const EnvelopeView view, ViewEnvelope(node));
  return internal::DispatchUnsignedTypeId(
      node.out_type, [&](auto tag) -> Status {
        using T = typename decltype(tag)::type;
        const DirectReader<T> reader(view);
        if (reader.strategy != Strategy::kDecompressScan) {
          for (uint64_t k = 0; k < count; ++k) {
            RECOMP_ASSIGN_OR_RETURN(out(k).value, reader.At(row_of(k)));
            out(k).strategy = reader.strategy;
          }
          return Status::OK();
        }
        RECOMP_ASSIGN_OR_RETURN(const AnyColumn plain,
                                FusedDecompressNode(node));
        const Column<T>& values = plain.As<T>();
        for (uint64_t k = 0; k < count; ++k) {
          out(k) = {static_cast<uint64_t>(values[row_of(k)]),
                    Strategy::kDecompressScan};
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
  RECOMP_RETURN_NOT_OK(ReadRows(
      compressed.root(), 1, [&](uint64_t) { return row; },
      [&](uint64_t) -> PointResult& { return result; }));
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

Status GetAtChunk(const CompressedChunk& chunk, const uint64_t* rows,
                  uint64_t count, PointResult* out) {
  const uint64_t base = chunk.zone.row_begin;
  return ReadRows(
      chunk.column.root(), count, [&](uint64_t k) { return rows[k] - base; },
      [&](uint64_t k) -> PointResult& { return out[k]; });
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

  // Group the requested rows by owning chunk — duplicates and arbitrary
  // order included — so shapes without a direct access path decompress each
  // touched chunk exactly once instead of once per requested row. Groups
  // are visited in ascending chunk order; input order within a group is
  // preserved, so results are deterministic for any thread count.
  std::map<uint64_t, std::vector<uint64_t>> by_chunk;  // chunk → input idxs.
  {
    // Rows usually arrive sorted (scan gathers) or clustered: remember the
    // current chunk's bounds so runs of rows in one chunk cost a bounds
    // check each, not a binary search plus a map lookup.
    std::vector<uint64_t>* group = nullptr;
    uint64_t group_begin = 0, group_end = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (group == nullptr || rows[i] < group_begin || rows[i] >= group_end) {
        const uint64_t c = chunked.ChunkIndexOf(rows[i]);
        const ZoneMap& zone = chunked.chunk(c).zone;
        group_begin = zone.row_begin;
        group_end = zone.row_begin + zone.row_count;
        group = &by_chunk[c];
      }
      group->push_back(i);
    }
  }
  std::vector<uint64_t> touched;                  // Ascending chunk ids.
  std::vector<std::vector<uint64_t>> groups;      // Input indices per chunk.
  touched.reserve(by_chunk.size());
  groups.reserve(by_chunk.size());
  for (auto& [chunk, indices] : by_chunk) {
    touched.push_back(chunk);
    groups.push_back(std::move(indices));
  }
  if (chunks_touched != nullptr) *chunks_touched = touched.size();

  std::vector<PointResult> results(rows.size());
  RECOMP_RETURN_NOT_OK(
      ParallelForOk(ctx, touched.size(), [&](uint64_t g) -> Status {
        const CompressedChunk& chunk = chunked.chunk(touched[g]);
        const std::vector<uint64_t>& indices = groups[g];
        const uint64_t base = chunk.zone.row_begin;
        // One view per chunk: every requested row reads through it.
        return ReadRows(
            chunk.column.root(), indices.size(),
            [&](uint64_t k) { return rows[indices[k]] - base; },
            [&](uint64_t k) -> PointResult& { return results[indices[k]]; });
      }));
  return results;
}

}  // namespace recomp::exec
