// Chunked compressed columns: the segment-at-a-time envelope.
//
// A column is split into fixed-capacity chunks (ChunkingOptions, default
// 64Ki rows), each chunk independently compressed — with one shared
// descriptor (CompressChunked) or a per-chunk descriptor chosen by the
// analyzer (CompressChunkedAuto), so drifting columns stop paying for a
// single whole-column choice. Every chunk carries a zone map (min/max/count
// from columnar/stats) that the exec layer consults to prune whole chunks
// before dispatching any per-chunk strategy.
//
// Independent chunks are also the unit of work everything later
// parallelizes over (scan, append, streaming ingest); a whole-column
// CompressedColumn is exactly the single-chunk special case of this
// envelope (see FromSingle, and CompressChunked with chunk_rows >= n).

#ifndef RECOMP_CORE_CHUNKED_H_
#define RECOMP_CORE_CHUNKED_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "columnar/any_column.h"
#include "core/analyzer.h"
#include "core/compressed.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace recomp {

/// How a column is split into chunks.
struct ChunkingOptions {
  /// Capacity of each chunk in rows; the last chunk may be shorter.
  /// Must be positive.
  uint64_t chunk_rows = 64 * 1024;
};

/// Zone map of one chunk: the summary consulted before any payload byte is
/// touched. min/max are valid only when has_minmax is set (nonempty unsigned
/// chunks); chunks without min/max are never pruned, only executed.
struct ZoneMap {
  uint64_t row_begin = 0;
  uint64_t row_count = 0;
  bool has_minmax = false;
  uint64_t min = 0;
  uint64_t max = 0;

  /// True iff no chunk value can fall inside [lo, hi]: skip the chunk.
  bool DisjointFrom(uint64_t lo, uint64_t hi) const {
    return has_minmax && (max < lo || min > hi);
  }

  /// True iff every chunk value falls inside [lo, hi]: emit without decode.
  bool ContainedIn(uint64_t lo, uint64_t hi) const {
    return has_minmax && min >= lo && max <= hi;
  }
};

/// One independently compressed chunk plus its zone map.
struct CompressedChunk {
  ZoneMap zone;
  CompressedColumn column;
};

/// Zone map of a plain slice starting at `row_begin`: one min/max pass
/// (cheap enough for the streaming store to run at tail-roll time, under
/// its column lock). Signed slices get a count-only zone map — the chunked
/// exec operators reject signed columns anyway, matching the whole-column
/// operators.
ZoneMap ComputeZoneMap(const AnyColumn& slice, uint64_t row_begin);

/// Seals `rows` (a plain slice; `zone` is ComputeZoneMap's result for it)
/// into one chunk: compressed with `pin` when set, else with the analyzer's
/// choice under `analyzer`, whose payload is counted into
/// analyzer.actual_bytes (the realized side of ChooseScheme's estimate).
/// CompressChunked(Auto), seal jobs and recompression all seal here.
Result<CompressedChunk> SealChunk(const AnyColumn& rows, const ZoneMap& zone,
                                  const std::optional<SchemeDescriptor>& pin,
                                  const AnalyzerOptions& analyzer = {});

/// A column stored as a sequence of contiguous, independently compressed
/// chunks. Chunks may use different descriptors; the logical column is their
/// concatenation in order.
///
/// Chunks are held by shared, immutable reference: copying the envelope
/// shares the chunk payloads instead of cloning them, so a copy is O(chunks)
/// — the copy-on-write property the streaming store's snapshots build on
/// (store/appendable_column.h). A chunk must never be mutated once appended.
class ChunkedCompressedColumn {
 public:
  ChunkedCompressedColumn() = default;

  /// Total logical row count.
  uint64_t size() const { return n_; }

  /// Element type of the decompressed column.
  TypeId type() const { return type_; }

  uint64_t num_chunks() const { return chunks_.size(); }
  const CompressedChunk& chunk(uint64_t i) const { return *chunks_[i]; }
  const std::vector<std::shared_ptr<const CompressedChunk>>& chunks() const {
    return chunks_;
  }

  /// Footprint of the uncompressed column.
  uint64_t UncompressedBytes() const {
    return n_ * static_cast<uint64_t>(TypeIdByteWidth(type_));
  }

  /// Sum of all chunks' terminal part payloads.
  uint64_t PayloadBytes() const;

  /// UncompressedBytes / PayloadBytes; 0 for empty payloads.
  double Ratio() const;

  /// Index of the chunk containing `row`. Requires row < size().
  uint64_t ChunkIndexOf(uint64_t row) const;

  /// Wraps an existing whole-column envelope as a single chunk. The zone map
  /// records the row count only (no min/max, so nothing is ever pruned);
  /// CompressChunked computes real zone maps because it sees the plain data.
  static ChunkedCompressedColumn FromSingle(CompressedColumn column);

  /// Appends a chunk. Validates contiguity (zone.row_begin == size()),
  /// agreement of zone.row_count with the envelope, and type consistency
  /// with earlier chunks.
  Status AppendChunk(CompressedChunk chunk);

  /// Appends an already-shared chunk without copying its payload — the
  /// snapshot path: a live column and every snapshot of it share sealed
  /// chunks. Same validation as AppendChunk; the chunk must stay immutable.
  Status AppendChunk(std::shared_ptr<const CompressedChunk> chunk);

  /// Per-chunk summary: descriptor, rows, zone bounds, footprint.
  std::string ToString() const;

 private:
  uint64_t n_ = 0;
  TypeId type_ = TypeId::kUInt32;
  std::vector<std::shared_ptr<const CompressedChunk>> chunks_;
};

/// The shared fan-out scaffold of the chunked visitors (compression,
/// deserialization, the exec scan): runs fn(i) for every i in [0, n) —
/// concurrently under `ctx`, each result landing in its own pre-sized slot
/// (*slots)[i] — and returns the first error in index order, exactly the
/// error a sequential loop would surface. Callers merge the slots in index
/// order afterwards, which keeps results bit-identical to the sequential
/// path for any thread count.
template <typename Slot, typename Fn>
Status VisitIndicesInto(const ExecContext& ctx, uint64_t n,
                        std::vector<Slot>* slots, const Fn& fn) {
  slots->clear();
  slots->resize(n);
  return ParallelForOk(ctx, n, [&](uint64_t i) -> Status {
    RECOMP_ASSIGN_OR_RETURN((*slots)[i], fn(i));
    return Status::OK();
  });
}

/// Sparse form: visits only `indices` (e.g. the chunks a zone map could not
/// answer), slot t holding fn(indices[t]).
template <typename Slot, typename Fn>
Status VisitIndicesInto(const ExecContext& ctx,
                        const std::vector<uint64_t>& indices,
                        std::vector<Slot>* slots, const Fn& fn) {
  return VisitIndicesInto(ctx, static_cast<uint64_t>(indices.size()), slots,
                          [&](uint64_t t) { return fn(indices[t]); });
}

/// Compresses `input` (a plain column) chunk-at-a-time, every chunk with the
/// same composite `desc`. An empty input yields one empty chunk so the
/// result is always well-typed. Chunks compress independently, so `ctx` fans
/// them out over its pool; the result is identical for any thread count.
Result<ChunkedCompressedColumn> CompressChunked(
    const AnyColumn& input, const SchemeDescriptor& desc,
    const ChunkingOptions& options = {}, const ExecContext& ctx = {});

/// Compresses `input` chunk-at-a-time, letting the analyzer choose a
/// descriptor *per chunk*: the paper's search-over-compositions run once
/// per segment of the column. The per-chunk analyzer search is
/// embarrassingly parallel under `ctx`.
Result<ChunkedCompressedColumn> CompressChunkedAuto(
    const AnyColumn& input, const ChunkingOptions& options = {},
    const AnalyzerOptions& analyzer_options = {}, const ExecContext& ctx = {});

/// Reverses CompressChunked / CompressChunkedAuto by decompressing every
/// chunk — concurrently under `ctx`, each chunk writing its disjoint slice
/// of the pre-sized output — and concatenating in chunk order.
Result<AnyColumn> DecompressChunked(const ChunkedCompressedColumn& chunked,
                                    const ExecContext& ctx = {});

}  // namespace recomp

#endif  // RECOMP_CORE_CHUNKED_H_
