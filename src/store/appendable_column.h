// Streaming ingest: a column that grows while it is being scanned.
//
// The chunked envelope (core/chunked.h) made the chunk the independent unit
// of compression and scanning; this subsystem makes it the unit of *ingest*.
// An AppendableColumn keeps one mutable, uncompressed tail chunk plus a
// vector of immutable sealed chunks. Appends land in the tail; whenever the
// tail reaches chunk capacity (or Seal() is called) it is rolled into an
// immutable chunk and a seal job — analyzer scheme choice + compression —
// is scheduled on the shared ExecContext pool, so ingest never blocks
// behind compression. Until its job lands, a rolled chunk is served as an
// ID-encoded (stored-plain) envelope; the job then swaps in the compressed
// form. Either form decodes to the same rows, so readers never wait.
//
// Slots stay revisitable after sealing: the background recompressor
// (store/recompress.h) can claim a slot, re-run the analyzer off the scan
// path, and swap in a better envelope via the same pointer-replacement
// mechanism seal jobs use — each slot's judged record and access/age
// statistics (ChunkInfos) feed its candidate selection.
//
// Reads go through Snapshot(): a copy-on-write view that shares the sealed
// chunks by reference (O(chunks), no payload copies — see the shared-chunk
// representation in ChunkedCompressedColumn) and copies only the current
// tail rows as one ID chunk with a real min/max zone map. The snapshot is a
// plain ChunkedCompressedColumn, so every chunked exec operator —
// SelectCompressed, Sum/Min/MaxCompressed, GetAt(+Batch), DecompressChunked
// — works on a live column unmodified and agrees bit-identically with
// compressing the same rows once.

#ifndef RECOMP_STORE_APPENDABLE_COLUMN_H_
#define RECOMP_STORE_APPENDABLE_COLUMN_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/analyzer.h"
#include "core/chunked.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace recomp::store {

/// How a column ingests: chunk capacity and how sealed chunks compress.
struct IngestOptions {
  /// Capacity of the tail chunk in rows; reaching it triggers a seal job.
  /// Must be positive.
  uint64_t chunk_rows = 64 * 1024;
  /// Constraints for the per-chunk analyzer search (used when `descriptor`
  /// is unset).
  AnalyzerOptions analyzer;
  /// When set, every sealed chunk compresses with this fixed composition
  /// (e.g. a classic from core/catalog.h) instead of the analyzer's
  /// per-chunk choice.
  std::optional<SchemeDescriptor> descriptor;
};

/// A consistent point-in-time view of an AppendableColumn. Sealed chunks are
/// shared with the live column (copy-on-write); the tail rows are copied
/// into one ID-encoded chunk. The view is a regular ChunkedCompressedColumn:
/// hand it to any chunked operator.
class ColumnSnapshot {
 public:
  ColumnSnapshot() = default;

  const ChunkedCompressedColumn& chunked() const { return view_; }
  uint64_t size() const { return view_.size(); }

  /// Chunks whose background compression had landed when the snapshot was
  /// taken; the rest (rolled-but-not-yet-sealed chunks and the tail) are
  /// served as stored-plain ID envelopes.
  uint64_t sealed_chunks() const { return sealed_; }
  uint64_t unsealed_chunks() const { return unsealed_; }

 private:
  friend class AppendableColumn;
  ChunkedCompressedColumn view_;
  uint64_t sealed_ = 0;
  uint64_t unsealed_ = 0;
};

/// A single growing column. All methods are thread-safe: any number of
/// appenders, sealers, and snapshot readers may run concurrently (appends
/// serialize on an internal mutex; snapshots see a consistent row prefix).
/// The ExecContext's pool, when present, runs the seal jobs; it must outlive
/// the column. Without a usable pool, sealing happens inline on the thread
/// that rolled the tail.
class AppendableColumn {
 public:
  explicit AppendableColumn(TypeId type, IngestOptions options = {},
                            ExecContext ctx = {});

  /// Waits for in-flight seal jobs (does not seal the tail).
  ~AppendableColumn();

  AppendableColumn(const AppendableColumn&) = delete;
  AppendableColumn& operator=(const AppendableColumn&) = delete;

  TypeId type() const { return type_; }

  /// Rows appended so far (sealed chunks + tail).
  uint64_t size() const;

  /// Full chunks rolled off the tail so far (sealed or with a seal job in
  /// flight).
  uint64_t num_chunks() const;

  /// Chunks whose compression job has landed.
  uint64_t sealed_chunks() const;

  /// Seal jobs scheduled on the pool and not yet landed.
  uint64_t pending_seals() const;

  /// The ingest options the column was built with (the recompression policy
  /// consults the pinned descriptor, if any).
  const IngestOptions& options() const { return options_; }

  /// Point-in-time view of one rolled chunk, observed under the column lock:
  /// the slot's current envelope plus the per-chunk access/age statistics
  /// the recompression policy selects candidates from.
  struct ChunkInfo {
    uint64_t slot = 0;
    /// The slot's chunk at observation time (pinned: safe to read after the
    /// lock is released, even if the slot is swapped concurrently).
    std::shared_ptr<const CompressedChunk> chunk;
    /// Compression landed (original seal job or a later recompression). A
    /// false value marks the stored-plain backlog: the chunk still serves
    /// its ID envelope because its seal job is slow, queued, or failed.
    bool sealed = false;
    /// A recompression attempt currently holds this slot's claim.
    bool recompress_pending = false;
    /// Chunks rolled after this one — the roll-order age a policy's
    /// cold-chunk threshold compares against.
    uint64_t age_chunks = 0;
    /// Snapshots that included this chunk (scan-side popularity proxy).
    uint64_t snapshot_accesses = 0;
    /// Successful recompression swaps of this slot so far.
    uint64_t recompress_count = 0;
    /// The analyzer options that last searched this chunk: the seal or swap
    /// that chose its envelope, or a recompression attempt that kept it or
    /// failed (unset until an analyzer searched it; a pinned seal records
    /// nothing). Rows never change, so a search under equal options would
    /// conclude the same.
    std::optional<AnalyzerOptions> judged_under;
  };

  /// All rolled chunks' info, in slot (row) order. O(chunks).
  std::vector<ChunkInfo> ChunkInfos() const;

  // --- Recompression handshake (driven by store/recompress.h) ------------
  //
  // A recompression attempt is claim → (analyze + compress off-lock) →
  // Complete or Abort; either may record the analyzer options that judged
  // the slot (ChunkInfo::judged_under). The claim only excludes *other
  // recompression attempts*; the original seal job may still be in flight,
  // so both the seal landing and CompleteRecompress swap the slot only if
  // it still holds the envelope they started from — whoever lands second
  // observes the pointer changed and drops its result. Readers are never
  // involved: snapshots hold shared_ptr copies, so an in-flight scan keeps
  // the chunk it pinned while new snapshots see the swapped slot.

  /// Claims `slot` for one recompression attempt and returns the slot as
  /// the claim observed it, or nullopt when the slot is out of range or
  /// already claimed. What candidate selection saw may be stale by now (a
  /// seal job can land in between), so the caller re-checks against this.
  std::optional<ChunkInfo> TryBeginRecompress(uint64_t slot);

  /// Ends a claimed attempt by swapping `replacement` into the slot iff it
  /// still holds `expected`. On swap, marks the slot sealed (a stored-plain
  /// backlog chunk counts as sealed from here on), records `judged_under`
  /// (unset for a pinned re-seal) and bumps its recompression count.
  /// Returns whether the swap happened.
  bool CompleteRecompress(
      uint64_t slot, const std::shared_ptr<const CompressedChunk>& expected,
      CompressedChunk replacement,
      const std::optional<AnalyzerOptions>& judged_under);

  /// Ends a claimed attempt without swapping (no gain, or the attempt
  /// failed — the old envelope stays correct either way). `judged_under`,
  /// when set, records the analyzer options the attempt searched under.
  void AbortRecompress(uint64_t slot,
                       const std::optional<AnalyzerOptions>& judged_under = {});

  /// The ingest/seal status: OK, or the first failure (which every
  /// subsequent append/seal/snapshot also reports). Construction and
  /// ingest failures are permanent; a seal-job failure clears if a later
  /// recompression (store/recompress.h) seals the failed chunk — the
  /// stored-plain data was always correct, so a healed column ingests
  /// again.
  Status status() const;

  /// Appends one value (unsigned columns only; the value must fit the
  /// column type). For bulk ingest prefer AppendBatch.
  Status Append(uint64_t value);

  /// Appends `rows` (a plain column of this column's type) at the end.
  /// Rolls the tail — scheduling seal jobs — each time it reaches capacity.
  Status AppendBatch(const AnyColumn& rows);

  /// Rolls the current (possibly short) tail into a chunk and schedules its
  /// seal job. A no-op when the tail is empty. Returns without waiting for
  /// the job to land.
  Status Seal();

  /// Blocks until every scheduled seal job has landed.
  void WaitForSeals();

  /// Seal() + WaitForSeals(): afterwards every appended row sits in a
  /// compressed sealed chunk. Reports the first seal failure, if any. The
  /// column stays appendable.
  Status Flush();

  /// A consistent copy-on-write view of all rows appended so far; see
  /// ColumnSnapshot. O(chunks) plus one copy of the tail rows.
  Result<ColumnSnapshot> Snapshot() const;

  /// Flush() + v2 wire format of the sealed column (core/serialize.h).
  Result<std::vector<uint8_t>> Serialize();

 private:
  /// One rolled tail awaiting compression. The job reads its rows from the
  /// rolled chunk's immutable stored-plain envelope (shared with slots_ and
  /// any snapshots), so rolling moves the tail instead of copying it.
  struct SealJob {
    uint64_t slot = 0;
    std::shared_ptr<const CompressedChunk> source;
  };

  /// Rolls the non-empty tail into slot `slots_.size()` (served as an ID
  /// envelope until its seal job lands) and queues the job description.
  Status RollTailLocked(std::vector<SealJob>* jobs) RECOMP_REQUIRES(mu_);

  /// Hands rolled chunks to the pool (or compresses inline without one).
  /// Must be called WITHOUT mu_ held: inline jobs lock it to land.
  void ScheduleSealJobs(std::vector<SealJob> jobs) RECOMP_EXCLUDES(mu_);

  const TypeId type_;
  const IngestOptions options_;
  const ExecContext ctx_;

  /// Slot `slot` as ChunkInfos reports it.
  ChunkInfo InfoLocked(uint64_t slot) const RECOMP_REQUIRES(mu_);

  /// Bookkeeping for one slot: seal/claim state plus the statistics
  /// ChunkInfos reports. Guarded by mu_.
  struct SlotState {
    bool sealed = false;
    bool recompress_pending = false;
    uint64_t access_count = 0;
    uint64_t recompress_count = 0;
    std::optional<AnalyzerOptions> judged_under;
    /// This slot's seal-job failure, parked per slot rather than written
    /// straight into a column-wide sticky status: the failure surfaces
    /// immediately (slot_failure_status_ mirrors the first parked failure),
    /// but a recompression that later seals the slot *heals* it — the
    /// stored-plain data was always correct, and once it is compressed
    /// there is nothing left to report.
    Status seal_failure;
  };

  /// First parked per-slot seal failure, in slot order, or OK. Kept in sync
  /// by the seal jobs (set) and CompleteRecompress (recomputed on heal) so
  /// the hot ingest guard stays O(1).
  Status SlotAwareStatusLocked() const RECOMP_REQUIRES(mu_) {
    return seal_status_.ok() ? slot_failure_status_ : seal_status_;
  }

  /// The one lock of the column: every mutable member below is guarded by
  /// it. Held only for O(slots) pointer/bookkeeping work — never across
  /// compression, decompression, or the analyzer (seal and recompression
  /// jobs do the expensive part off-lock and re-lock to land).
  mutable Mutex mu_;
  /// First construction/ingest failure; sticky — once set, appends and
  /// snapshots report it instead of silently diverging from the ingested
  /// data. Seal-job failures live per slot (SlotState::seal_failure, with
  /// slot_failure_status_ as the O(1) mirror) so recompression can heal
  /// them; this status is reserved for failures no re-seal can fix.
  Status seal_status_ RECOMP_GUARDED_BY(mu_);
  /// Mirror of the first parked SlotState::seal_failure, or OK.
  Status slot_failure_status_ RECOMP_GUARDED_BY(mu_);
  /// All full chunks in row order; each slot holds the ID-encoded view
  /// until its seal job swaps in the compressed chunk. Slots are immutable
  /// objects replaced whole (by the seal job or a recompression), so
  /// snapshots share them safely.
  std::vector<std::shared_ptr<const CompressedChunk>> slots_
      RECOMP_GUARDED_BY(mu_);
  /// Parallel to slots_. Mutable: Snapshot() is const but counts accesses.
  mutable std::vector<SlotState> slot_states_ RECOMP_GUARDED_BY(mu_);
  uint64_t sealed_count_ RECOMP_GUARDED_BY(mu_) = 0;
  /// The mutable uncompressed tail: always a plain column of type_ with
  /// fewer than options_.chunk_rows rows.
  AnyColumn tail_ RECOMP_GUARDED_BY(mu_);
  /// Global row index where the tail starts.
  uint64_t tail_begin_ RECOMP_GUARDED_BY(mu_) = 0;

  /// Last member: its destructor waits for seal jobs that capture `this`.
  TaskGroup seal_jobs_;
};

}  // namespace recomp::store

#endif  // RECOMP_STORE_APPENDABLE_COLUMN_H_
