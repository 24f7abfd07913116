// Point access: read a single row from a compressed column without
// materializing it.
//
// Another consequence of the columnar view: the compressed parts are random-
// access columns, so many shapes answer "what is row i?" in O(1) or
// O(log runs) — NS via in-place bit extraction, FOR via ref + one residual
// extraction, RPE via binary search over run positions, DICT via one code
// plus a dictionary probe. Shapes with sequential dependencies (DELTA,
// VBYTE) legitimately degrade; GetAt reports which access path ran so
// callers (and benchmarks) can see the difference.

#ifndef RECOMP_EXEC_POINT_ACCESS_H_
#define RECOMP_EXEC_POINT_ACCESS_H_

#include <cstdint>
#include <vector>

#include "core/chunked.h"
#include "core/compressed.h"
#include "exec/strategy.h"
#include "util/result.h"

namespace recomp::exec {

/// One row's value plus the access path used.
struct PointResult {
  uint64_t value = 0;  ///< The row's value as uint64.
  Strategy strategy = Strategy::kDecompressScan;
};

/// Returns row `row` of the compressed column. Fails with OutOfRange when
/// row >= size. Always equals Decompress(...)[row].
Result<PointResult> GetAt(const CompressedColumn& compressed, uint64_t row);

/// Chunked overload: locates the owning chunk (binary search over the chunk
/// directory), then runs the whole-column access path inside it — so the
/// cost stays O(1)/O(log runs) per lookup regardless of chunk count. The
/// strategy reports the inner chunk's access path. A single lookup touches
/// one chunk, so `ctx` is accepted for signature uniformity with the other
/// chunked operators (and batch lookups to come) but never fans out.
Result<PointResult> GetAt(const ChunkedCompressedColumn& chunked, uint64_t row,
                          const ExecContext& ctx = {});

/// Batch point access, grouped by owning chunk and fanned out over `ctx`
/// one *chunk* at a time: shapes with a direct access path answer each row
/// in O(1)/O(log runs), and shapes without one decompress each touched
/// chunk exactly once — not once per requested row — no matter how many
/// rows land in it, in whatever order, duplicates included. Results land in
/// input order and agree row-for-row (value and strategy) with per-row
/// GetAt; rows past the end are rejected up front, first in input order.
/// When `chunks_touched` is non-null it receives the number of distinct
/// chunks the batch landed in (the grouping is computed anyway).
Result<std::vector<PointResult>> GetAtBatch(
    const ChunkedCompressedColumn& chunked, const std::vector<uint64_t>& rows,
    const ExecContext& ctx = {}, uint64_t* chunks_touched = nullptr);

/// The per-chunk step of batch point access: answers the `count` global
/// rows rows[0, count), all inside `chunk`, into out[0, count) through the
/// chunk's direct access path, or with one decompress serving all of them.
/// exec::Scan gathers every chunk it does not share this way.
Status GetAtChunk(const CompressedChunk& chunk, const uint64_t* rows,
                  uint64_t count, PointResult* out);

}  // namespace recomp::exec

#endif  // RECOMP_EXEC_POINT_ACCESS_H_
