// A table of appendable columns: row-aligned streaming ingest.
//
// Groups AppendableColumns under one name space and keeps them row-aligned:
// AppendRow/AppendBatch land the same number of rows in every column, and
// Snapshot() cuts every column at the same row count, so a multi-column
// reader sees one consistent prefix of the ingested rows. Columns may pin
// their compression to a classic from the catalog (core/catalog.h) by name,
// or leave the per-chunk analyzer search to choose.

#ifndef RECOMP_STORE_TABLE_H_
#define RECOMP_STORE_TABLE_H_

#include <chrono>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "store/appendable_column.h"
#include "store/recompress.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace recomp::store {

/// One column of a Table.
struct ColumnSpec {
  std::string name;
  TypeId type = TypeId::kUInt32;
  IngestOptions options;
  /// When nonempty, the scheme is looked up in the classic catalog
  /// (CatalogLookup) and pinned as options.descriptor — "RLE", "FOR", ….
  std::string catalog_scheme;
};

/// A row-aligned set of column snapshots: every column is cut at rows().
class TableSnapshot {
 public:
  uint64_t rows() const { return rows_; }
  uint64_t num_columns() const { return columns_.size(); }
  const std::vector<std::string>& names() const { return names_; }

  /// The table data version this snapshot was cut at (see Table::version):
  /// two snapshots with the same version hold the same logical rows, so a
  /// cached snapshot — and any selection vectors computed against it — can
  /// be reused while the version stands. Stamped under the table mutex in
  /// the same critical section that cuts the columns.
  uint64_t version() const { return version_; }

  /// Index of the named column, or KeyError. O(1): the name→index map is
  /// built once when the snapshot is cut, not per lookup — scans resolve
  /// every referenced column through this.
  Result<uint64_t> column_index(const std::string& name) const;

  /// The snapshot of the named column, or KeyError.
  Result<const ColumnSnapshot*> column(const std::string& name) const;

  const ColumnSnapshot& column(uint64_t i) const { return columns_[i]; }

 private:
  friend class Table;
  uint64_t rows_ = 0;
  uint64_t version_ = 0;
  std::vector<std::string> names_;
  std::vector<ColumnSnapshot> columns_;
  std::unordered_map<std::string, uint64_t> index_;
};

/// A growing table. Appends are row-aligned across columns and thread-safe;
/// per-column seal jobs run on the ExecContext handed to Create. The pool
/// must outlive the table.
class Table {
 public:
  /// Validates the specs (nonempty unique names, at least one column,
  /// resolvable catalog schemes) and builds the columns.
  static Result<Table> Create(const std::vector<ColumnSpec>& specs,
                              ExecContext ctx = {});

  // Defined out of line: the defaulted bodies need the complete
  // Maintenance type (unique_ptr member).
  Table(Table&&) noexcept;
  Table& operator=(Table&&) noexcept;

  /// Stops background maintenance (if running) before the columns go away.
  ~Table();

  uint64_t num_columns() const { return columns_.size(); }
  const std::vector<std::string>& names() const { return names_; }

  /// Rows fully appended so far.
  uint64_t num_rows() const;

  /// The table's data version: starts at 0 and increments on every
  /// successful AppendRow/AppendBatch. Sealing and background recompression
  /// do NOT bump it — they change the representation, never the logical
  /// rows — so version equality means "same data", the invariant the query
  /// service's snapshot and selection-vector caches key on.
  uint64_t version() const;

  /// The live column, or KeyError — for per-column appends, snapshots, or
  /// introspection. Per-column appends break row alignment; mixing them
  /// with AppendRow is the caller's responsibility. They also bypass the
  /// table version counter: a caller appending through this handle must not
  /// rely on version() to invalidate snapshot caches.
  Result<AppendableColumn*> column(const std::string& name);

  /// Appends one row: values[i] goes to column i (unsigned columns; each
  /// value must fit its column's type). Arity, value fit, and every
  /// column's sticky status are validated before any column is touched, so
  /// a rejected row leaves every column unchanged. If an append still
  /// fails mid-row (a seal job failing concurrently), the table records the
  /// misalignment as its own sticky error and every later append/snapshot
  /// reports it.
  Status AppendRow(const std::vector<uint64_t>& values);

  /// Appends columns[i] (all the same length) to column i. Same validation
  /// and failure semantics as AppendRow.
  Status AppendBatch(const std::vector<AnyColumn>& columns);

  /// Seals every column's tail (jobs scheduled, not awaited).
  Status Seal();

  /// Flushes every column; reports the first failure after flushing all.
  Status Flush();

  /// A row-aligned snapshot of every column.
  Result<TableSnapshot> Snapshot() const;

  // --- Recompression (store/recompress.h) --------------------------------

  /// One bounded recompression pass over every column, as the background
  /// mode ticks: drains the stored-plain backlog and re-prices sealed chunks
  /// not yet judged under the policy's analyzer, within its per-column
  /// budget. Jobs run at low priority on the table's ExecContext pool;
  /// scans and ingest never wait on them.
  Result<RecompressionReport> MaintenanceTick(
      const RecompressionPolicy& policy = {});

  /// Ticks until no column makes further progress: afterwards no
  /// stored-plain backlog remains (short of failing chunks) and no sealed
  /// chunk loses to a fresh choice by the policy's min_gain.
  Result<RecompressionReport> RecompressAll(
      const RecompressionPolicy& policy = {});

  /// Background mode: a maintenance thread runs MaintenanceTick(policy)
  /// every `interval` until StopMaintenance (or destruction). The policy is
  /// validated here, up front, so the background ticks cannot fail; a tick
  /// that somehow did would be skipped, never fatal. Fails if maintenance
  /// is already running.
  Status StartMaintenance(
      RecompressionPolicy policy,
      std::chrono::milliseconds interval = std::chrono::milliseconds(100));

  /// Stops and joins the maintenance thread; a no-op when not running.
  /// Everything the background ticks did stays visible via
  /// maintenance_report().
  void StopMaintenance();

  bool maintenance_running() const;

  /// Accumulated report of every background tick so far (live: readable
  /// while maintenance runs). Manual MaintenanceTick/RecompressAll calls
  /// return their own reports and are not folded in here.
  RecompressionReport maintenance_report() const;

  // --- Observability (src/obs/) ------------------------------------------

  /// Point-in-time capture of the process-wide metric registry — every
  /// subsystem's counters (ingest seals, recompression, scans, fused
  /// decode, pool), not just this table's. Static because the registry is
  /// process-wide; lives here so store users need not reach into obs::.
  static obs::MetricsSnapshot MetricsSnapshot();

  /// Human-readable state dump: per-column shape (rows, chunks, sealed
  /// count, pending seals) followed by the registry's text exposition.
  std::string DebugString() const;

 private:
  Table();  // Out of line: members need the complete Maintenance type.

  /// Background maintenance state, heap-allocated so the thread's view
  /// stays stable while the Table object itself moves (the columns are
  /// stable too: columns_ holds unique_ptrs). Held by shared_ptr so
  /// Stop/report readers can pin the state outside the table mutex — the
  /// join must not block appends and snapshots for a whole tick.
  struct Maintenance;

  /// The table mutex and everything it guards, heap-pinned behind a
  /// unique_ptr so Table stays movable while the mutex (and the thread-
  /// safety contracts naming it) keep a stable address. The mutex
  /// serializes multi-column appends against snapshots so every snapshot
  /// sees the same row count in every column.
  struct LockedState {
    Mutex mu;
    /// Sticky: set when a mid-row append failure broke row alignment.
    Status table_status RECOMP_GUARDED_BY(mu);
    /// Data version; bumped by successful appends, stamped into snapshots.
    uint64_t version RECOMP_GUARDED_BY(mu) = 0;
    /// The guarded part is the *pointer* — replaced by StartMaintenance
    /// while report readers pin it; the state behind it has its own locks.
    std::shared_ptr<Maintenance> maintenance RECOMP_GUARDED_BY(mu);
  };

  /// Refuses ingest when the table is already misaligned or any column's
  /// sticky status is failed.
  Status CheckColumnsHealthyLocked(const LockedState& s) const
      RECOMP_REQUIRES(s.mu);

  /// Every column with its name: what a recompression pass covers.
  NamedColumns AllColumns() const;

  /// Passes `append_status` through; when it failed after column 0 already
  /// landed the row, also records the broken alignment in s.table_status.
  Status RecordMisalignmentLocked(LockedState& s, Status append_status,
                                  size_t column) RECOMP_REQUIRES(s.mu);

  std::vector<std::string> names_;
  std::vector<std::unique_ptr<AppendableColumn>> columns_;
  /// Declared after columns_ (destroyed first), and ~Table stops the
  /// maintenance thread before anything else goes away.
  std::unique_ptr<LockedState> state_;
  /// The ExecContext handed to Create; recompression jobs run on its pool.
  ExecContext ctx_;
};

}  // namespace recomp::store

#endif  // RECOMP_STORE_TABLE_H_
