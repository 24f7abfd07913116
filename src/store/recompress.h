// Background recompression: revisiting scheme choices after the fact.
//
// Sealed chunks keep their first analyzer decision, and chunks rolled while
// a seal job was slow or failed are stuck as stored-plain ID envelopes. The
// paper's core claim — scheme choice should track the data — only pays off
// if those decisions can be corrected over time, so this subsystem re-runs
// the analyzer + compression + zone map *off the scan path* and swaps the
// improved chunk in atomically:
//
//   candidates   RecompressionPolicy ranks the stored-plain backlog first
//                (those chunks pay full-width storage and plain-scan costs),
//                then sealed chunks not yet judged under the policy's
//                analyzer: rows never change, so each chunk is priced once
//                per analyzer (AppendableColumn's per-slot records).
//   execution    Recompressor claims slots (TryBeginRecompress), runs every
//                column's jobs at low priority in one TaskGroup on the shared
//                ExecContext pool — live seal jobs and scan fan-out always go
//                first — and each job decompresses and re-seals its chunk
//                (SealChunk) without any column lock held.
//   swap         CompleteRecompress replaces the slot's
//                shared_ptr<const CompressedChunk> iff it still holds the
//                envelope the job started from (the original seal job may
//                land concurrently; whoever lands second drops its result).
//                In-flight snapshots keep scanning the chunk they pinned;
//                the next snapshot sees the improved one. Zero divergence:
//                both envelopes decode to the same rows.
//
// Wiring: store::Table exposes MaintenanceTick() (one bounded pass),
// RecompressAll() (drain until no further progress), and a background mode
// (StartMaintenance) that ticks on its own thread while ingest is live.

#ifndef RECOMP_STORE_RECOMPRESS_H_
#define RECOMP_STORE_RECOMPRESS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/analyzer.h"
#include "store/appendable_column.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace recomp::store {

/// Candidate selection knobs for one recompression pass. Stored-plain ID
/// chunks left behind by slow or failed seal jobs (the backlog) are always
/// taken when they qualify — they pay full-width storage today —
/// regardless of min_gain; sealed chunks are re-priced under `analyzer`
/// unless already judged under it, and swapped when the fresh choice wins
/// by min_gain.
struct RecompressionPolicy {
  /// Also revisit sealed chunks of columns with a pinned descriptor
  /// (IngestOptions::descriptor / catalog-pinned table columns). Off by
  /// default: a pin usually exists on purpose; turn this on to migrate a
  /// column off its pinned scheme in the background. It applies to backlog
  /// draining too: off, the drain finishes the seal job's work with the
  /// pin; on, the analyzer may override it — which is how a column whose
  /// pin cannot represent its rows (failed seal jobs) gets healed, since a
  /// successful re-seal of the failed chunk clears the column's seal
  /// failure.
  bool recompress_pinned = false;

  /// A sealed chunk is reswapped only when
  ///   old_payload_bytes > new_payload_bytes * min_gain,
  /// i.e. the fresh choice is at least this factor smaller. 1.0 means "any
  /// strict improvement"; higher values suppress churn. A chunk kept under
  /// it is judged all the same: a later pass with equal analyzer options
  /// and a lower min_gain does not revisit it.
  double min_gain = 1.05;

  /// Only chunks with at least this many younger chunks (rolled after them)
  /// are candidates — the cold-data threshold. 0 considers every chunk; a
  /// value around the write working set keeps the recompressor off chunks
  /// whose seal jobs are realistically still in flight.
  uint64_t min_age_chunks = 0;

  /// At most this many chunks are scheduled per column per tick — the
  /// maintenance bandwidth budget.
  uint64_t max_chunks_per_tick = ~uint64_t{0};

  /// Constraints for the fresh analyzer search (e.g. a decompression-cost
  /// budget). Independent of the column's ingest-time AnalyzerOptions: the
  /// usual reason to recompress is exactly that this differs — a chunk the
  /// ingest analyzer sealed under equal options is already judged.
  AnalyzerOptions analyzer;

  /// Structural checks (min_gain >= 1.0, so a swap can never grow a chunk).
  /// The one validation both Recompressor::Tick and Table::StartMaintenance
  /// run — shared so the background loop's "ticks cannot fail" invariant
  /// cannot drift out of sync with Tick's actual rejections.
  Status Validate() const;
};

/// One executed swap, for observability.
struct ChunkRecompression {
  std::string column;  ///< Table column name; empty for standalone columns.
  uint64_t slot = 0;
  bool was_stored_plain = false;  ///< Backlog drain vs sealed revisit.
  std::string scheme_before;      ///< Descriptor strings (ToString form).
  std::string scheme_after;
  uint64_t bytes_before = 0;  ///< Payload bytes of the replaced envelope.
  uint64_t bytes_after = 0;
};

/// What one pass (or an accumulation of passes) did.
struct RecompressionReport {
  uint64_t chunks_examined = 0;     ///< Slots the policy looked at.
  uint64_t chunks_scheduled = 0;    ///< Jobs actually claimed and run.
  uint64_t chunks_reswapped = 0;    ///< Slots swapped to a new envelope.
  uint64_t stored_plain_drained = 0;  ///< Reswaps that sealed backlog chunks.
  uint64_t chunks_kept = 0;   ///< Analyzed but kept (no gain, or lost the
                              ///< race against a landing seal job).
  uint64_t chunks_failed = 0; ///< Job errored; old envelope kept.
  uint64_t bytes_before = 0;  ///< Payload bytes over reswapped chunks only.
  uint64_t bytes_after = 0;
  /// Per-swap detail (scheme before → after), in schedule order.
  std::vector<ChunkRecompression> swaps;

  uint64_t BytesSaved() const {
    return bytes_before > bytes_after ? bytes_before - bytes_after : 0;
  }

  /// Accumulates another pass into this report.
  void MergeFrom(const RecompressionReport& other);

  /// Human-readable multi-line summary (counts, bytes, scheme changes).
  std::string ToString() const;
};

/// The columns one pass covers, each with the name its report's swap
/// entries carry (empty for a standalone column).
using NamedColumns = std::vector<std::pair<std::string, AppendableColumn*>>;

/// Executes recompression passes over AppendableColumns. Safe to use from
/// multiple threads against the same column (slot claims exclude double
/// work). The ExecContext's pool, when present, runs the jobs at low
/// priority; without one, jobs run inline on the calling thread — in both
/// cases off the scan path (readers only ever observe the O(1) slot swap).
///
/// A Recompressor keeps no state between calls: the slots' judged records
/// live in the columns, so a budgeted tick moves forward on its own — every
/// sealed chunk a job searched drops out of the candidates, whether the job
/// swapped, kept or failed — on a fresh instance (Table::MaintenanceTick)
/// as on a reused one (the background loop).
class Recompressor {
 public:
  explicit Recompressor(RecompressionPolicy policy = {}, ExecContext ctx = {});

  /// One bounded pass: selects each column's candidates (stored-plain
  /// backlog first, then sealed chunks oldest-first), claims up to
  /// max_chunks_per_tick of them per column, runs every claimed job in one
  /// TaskGroup, waits for them, and reports what happened.
  Result<RecompressionReport> Tick(const NamedColumns& columns) const;
  Result<RecompressionReport> Tick(AppendableColumn& column,
                                   const std::string& column_name = "") const {
    return Tick({{column_name, &column}});
  }

  /// Ticks — with the per-tick budget lifted — until a pass makes no
  /// further progress: the backlog is drained and no sealed chunk beats
  /// min_gain. Returns the accumulated report.
  Result<RecompressionReport> RecompressAll(const NamedColumns& columns) const;
  Result<RecompressionReport> RecompressAll(
      AppendableColumn& column, const std::string& column_name = "") const {
    return RecompressAll({{column_name, &column}});
  }

 private:
  const RecompressionPolicy policy_;
  const ExecContext ctx_;
};

}  // namespace recomp::store

#endif  // RECOMP_STORE_RECOMPRESS_H_
