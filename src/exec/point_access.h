// Point access: read rows of a compressed column without materializing it.
//
// Another consequence of the columnar view: the compressed parts are random-
// access columns, so many shapes answer "what is row i?" in O(1) or
// O(log runs) — NS via in-place bit extraction, FOR via ref + one residual
// extraction, RPE via binary search over run positions, DICT via one code
// plus a dictionary probe. Shapes with sequential dependencies (DELTA,
// VBYTE) legitimately degrade to one decode per chunk; every entry point
// reports which access path ran so callers (and benchmarks) can see the
// difference.
//
// One per-chunk reader serves them all: it resolves a chunk's access path
// once and reads a run of its rows straight into typed storage. GetAt and
// GetAtBatch wrap it for row lookups; exec::Scan's gather and its nested
// bands call it per chunk (ReadChunkRows).

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
/// chunked operators but never fans out.
Result<PointResult> GetAt(const ChunkedCompressedColumn& chunked, uint64_t row,
                          const ExecContext& ctx = {});

/// Batch point access: the input indices are sorted by row, and each touched
/// chunk's run of them is read in one task under `ctx` — so a shape without
/// a direct access path decodes each touched chunk exactly once, however
/// many rows land in it, in whatever order, duplicates included. Results
/// land in input order and agree row-for-row (value and strategy) with
/// per-row GetAt; rows past the end are rejected up front, first in input
/// order. When `chunks_touched` is non-null it receives the number of
/// distinct chunks the batch landed in.
Result<std::vector<PointResult>> GetAtBatch(
    const ChunkedCompressedColumn& chunked, const std::vector<uint64_t>& rows,
    const ExecContext& ctx = {}, uint64_t* chunks_touched = nullptr);

/// One touched chunk's share of an ascending row sequence: k in
/// [begin, end).
struct ChunkRun {
  uint64_t chunk = 0;
  uint64_t begin = 0;
  uint64_t end = 0;
};

/// Cuts the ascending global rows row_of(0), ..., row_of(count - 1) of
/// `chunked` into one run per touched chunk, in row order.
template <typename RowOf>
std::vector<ChunkRun> ChunkRuns(const ChunkedCompressedColumn& chunked,
                                uint64_t count, RowOf row_of) {
  std::vector<ChunkRun> runs;
  for (uint64_t k = 0; k < count; k = runs.back().end) {
    ChunkRun run{chunked.ChunkIndexOf(row_of(k)), k, k};
    const ZoneMap& zone = chunked.chunk(run.chunk).zone;
    while (run.end < count &&
           row_of(run.end) < zone.row_begin + zone.row_count) {
      ++run.end;
    }
    runs.push_back(run);
  }
  return runs;
}

/// The scan's per-chunk read step, for its gather and its nested bands:
/// reads row rows[k] - base of `chunk` into (*out)[k] for every k in
/// [run.begin, run.end), where `out` is a plain column of the chunk's type.
/// The rows come from `decoded`, the chunk's decoded values, when given;
/// else through the chunk's direct access path, or one decode serving the
/// whole run. Returns the strategy that served the run (kDecompressScan for
/// both decoded cases). Tasks may fill disjoint runs of one `out`
/// concurrently.
Result<Strategy> ReadChunkRows(const CompressedColumn& chunk, uint64_t base,
                               const ChunkRun& run, const uint32_t* rows,
                               const AnyColumn* decoded, AnyColumn* out);

}  // namespace recomp::exec

#endif  // RECOMP_EXEC_POINT_ACCESS_H_
