#include "store/table.h"

#include <atomic>
#include <thread>
#include <unordered_set>
#include <utility>

#include "core/catalog.h"
#include "schemes/scheme_internal.h"
#include "util/string_util.h"

namespace recomp::store {

/// Everything the background maintenance thread touches, heap-pinned so
/// Table moves do not invalidate it. The column pointers are stable for the
/// same reason (columns_ owns them by unique_ptr); StopMaintenance joins
/// the thread before ~Table releases the columns.
///
/// Guarded state is only touched from methods of this struct, where the
/// thread-safety analysis sees the mutexes as direct members.
struct Table::Maintenance {
  RecompressionPolicy policy;
  std::chrono::milliseconds interval{100};
  ExecContext ctx;
  NamedColumns columns;

  Mutex mu;  ///< Guards stop (with cv).
  CondVar cv;
  bool stop RECOMP_GUARDED_BY(mu) = false;

  mutable Mutex report_mu;
  RecompressionReport accumulated RECOMP_GUARDED_BY(report_mu);

  /// True from StartMaintenance until Stop() has joined: the state a
  /// maintenance_running() reader may poll without touching the thread
  /// object (joinable() racing join() is UB).
  std::atomic<bool> running{false};
  Mutex stop_mu;       ///< Serializes concurrent Stop() calls.
  std::thread thread;  ///< Written once under the table mutex before the
                       ///< state is visible to Stop(); joined under stop_mu.

  /// Signals the loop and joins; idempotent and safe to call from several
  /// threads. Called by StopMaintenance (outside the table mutex, so a
  /// tick-long join never stalls appends or snapshots) and defensively by
  /// the destructor, so a Maintenance can never be destroyed with its
  /// thread still running.
  void Stop() {
    MutexLock stop_lock(&stop_mu);
    if (!thread.joinable()) return;
    {
      MutexLock lock(&mu);
      stop = true;
    }
    cv.NotifyAll();
    thread.join();
    running.store(false, std::memory_order_release);
  }

  ~Maintenance() { Stop(); }

  /// Accumulated report so far (live: callable while the loop runs).
  RecompressionReport ReportCopy() const {
    MutexLock lock(&report_mu);
    return accumulated;
  }

  /// Folds one tick's report into the running total.
  void MergeReport(const RecompressionReport& pass) {
    MutexLock lock(&report_mu);
    accumulated.MergeFrom(pass);
  }

  /// Seeds the total with a predecessor's history (before the thread runs).
  void SeedReport(RecompressionReport history) {
    MutexLock lock(&report_mu);
    accumulated = std::move(history);
  }

  void Loop() {
    const Recompressor recompressor(policy, ctx);
    for (;;) {
      Result<RecompressionReport> tick = recompressor.Tick(columns);
      RecompressionReport pass;
      if (tick.ok()) {
        pass = std::move(*tick);
      } else {
        // Unreachable while Tick's only rejection is the policy check
        // StartMaintenance shares (RecompressionPolicy::Validate) — but if
        // Tick ever grows another error path, make it visible as a failed
        // attempt instead of silently no-opping forever.
        ++pass.chunks_failed;
      }
      MergeReport(pass);
      const auto deadline = std::chrono::steady_clock::now() + interval;
      MutexLock lock(&mu);
      // Inline wait loop (not a predicate lambda — see util/mutex.h):
      // leave on stop, start the next tick when the deadline passes.
      while (!stop) {
        if (cv.WaitUntil(lock, deadline)) break;
      }
      if (stop) return;
    }
  }
};

Table::Table() : state_(std::make_unique<LockedState>()) {}

Table::Table(Table&&) noexcept = default;

Table& Table::operator=(Table&& other) noexcept {
  if (this == &other) return *this;
  // Not defaulted: the member-wise default would free this table's columns
  // *before* destroying its Maintenance state, leaving a still-running
  // maintenance thread dereferencing freed columns. Stop it first.
  if (state_ != nullptr) StopMaintenance();
  names_ = std::move(other.names_);
  columns_ = std::move(other.columns_);
  // The incoming thread (if any) keeps running: its state and the columns
  // it points at are heap-pinned and just changed owners, not addresses.
  // This table's old state (maintenance already stopped above) is released.
  state_ = std::move(other.state_);
  ctx_ = other.ctx_;
  return *this;
}

Table::~Table() {
  if (state_ != nullptr) StopMaintenance();  // Moved-from tables skip it.
}

Result<uint64_t> TableSnapshot::column_index(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::KeyError("no column named '" + name + "'");
  }
  return it->second;
}

Result<const ColumnSnapshot*> TableSnapshot::column(
    const std::string& name) const {
  RECOMP_ASSIGN_OR_RETURN(const uint64_t i, column_index(name));
  return &columns_[i];
}

Result<Table> Table::Create(const std::vector<ColumnSpec>& specs,
                            ExecContext ctx) {
  if (specs.empty()) {
    return Status::InvalidArgument("a table needs at least one column");
  }
  std::unordered_set<std::string> seen;
  Table table;
  for (const ColumnSpec& spec : specs) {
    if (spec.name.empty()) {
      return Status::InvalidArgument("column names must be nonempty");
    }
    if (!seen.insert(spec.name).second) {
      return Status::InvalidArgument("duplicate column name '" + spec.name +
                                     "'");
    }
    IngestOptions options = spec.options;
    if (!spec.catalog_scheme.empty()) {
      RECOMP_ASSIGN_OR_RETURN(SchemeDescriptor desc,
                              CatalogLookup(spec.catalog_scheme));
      options.descriptor = std::move(desc);
    }
    table.names_.push_back(spec.name);
    table.columns_.push_back(std::make_unique<AppendableColumn>(
        spec.type, std::move(options), ctx));
  }
  table.ctx_ = ctx;
  return table;
}

NamedColumns Table::AllColumns() const {
  NamedColumns columns;
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns.emplace_back(names_[i], columns_[i].get());
  }
  return columns;
}

Result<RecompressionReport> Table::MaintenanceTick(
    const RecompressionPolicy& policy) {
  return Recompressor(policy, ctx_).Tick(AllColumns());
}

Result<RecompressionReport> Table::RecompressAll(
    const RecompressionPolicy& policy) {
  return Recompressor(policy, ctx_).RecompressAll(AllColumns());
}

Status Table::StartMaintenance(RecompressionPolicy policy,
                               std::chrono::milliseconds interval) {
  // Same validation Recompressor::Tick runs: the background loop's "ticks
  // cannot fail" invariant is anchored to one shared check.
  RECOMP_RETURN_NOT_OK(policy.Validate());
  auto state = std::make_shared<Maintenance>();
  state->policy = std::move(policy);
  state->interval = interval;
  state->ctx = ctx_;
  state->columns = AllColumns();
  // s.mu guards the maintenance pointer itself: maintenance_report() is
  // documented as readable while maintenance runs, so replacing the state
  // here must not race a concurrent reader dereferencing it.
  LockedState& s = *state_;
  MutexLock lock(&s.mu);
  if (s.maintenance != nullptr &&
      s.maintenance->running.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("maintenance is already running");
  }
  if (s.maintenance != nullptr) {
    // A restart keeps the history: fold the previous run's totals in (the
    // previous thread has been joined — running was false — so its
    // accumulated report is quiescent).
    state->SeedReport(s.maintenance->ReportCopy());
  }
  s.maintenance = std::move(state);
  s.maintenance->running.store(true, std::memory_order_release);
  s.maintenance->thread =
      std::thread([m = s.maintenance.get()] { m->Loop(); });
  return Status::OK();
}

void Table::StopMaintenance() {
  // Pin the state under the table mutex, but join OUTSIDE it: a join can
  // wait out a whole in-flight tick, and appends/snapshots must not stall
  // behind it.
  std::shared_ptr<Maintenance> pinned;
  {
    LockedState& s = *state_;
    MutexLock lock(&s.mu);
    pinned = s.maintenance;
  }
  if (pinned != nullptr) pinned->Stop();
}

bool Table::maintenance_running() const {
  std::shared_ptr<Maintenance> pinned;
  {
    LockedState& s = *state_;
    MutexLock lock(&s.mu);
    pinned = s.maintenance;
  }
  return pinned != nullptr && pinned->running.load(std::memory_order_acquire);
}

RecompressionReport Table::maintenance_report() const {
  std::shared_ptr<Maintenance> pinned;
  {
    LockedState& s = *state_;
    MutexLock lock(&s.mu);
    pinned = s.maintenance;
  }
  if (pinned == nullptr) return {};
  return pinned->ReportCopy();
}

uint64_t Table::num_rows() const {
  LockedState& s = *state_;
  MutexLock lock(&s.mu);
  return columns_.empty() ? 0 : columns_[0]->size();
}

uint64_t Table::version() const {
  LockedState& s = *state_;
  MutexLock lock(&s.mu);
  return s.version;
}

obs::MetricsSnapshot Table::MetricsSnapshot() {
  return obs::Registry::Get().Snapshot();
}

std::string Table::DebugString() const {
  std::string out =
      StringFormat("table: %zu columns, %llu rows\n", columns_.size(),
                   static_cast<unsigned long long>(num_rows()));
  for (size_t i = 0; i < columns_.size(); ++i) {
    const AppendableColumn& column = *columns_[i];
    out += StringFormat(
        "  column %-24s %-8s chunks=%llu sealed=%llu pending_seals=%llu\n",
        names_[i].c_str(), TypeIdName(column.type()),
        static_cast<unsigned long long>(column.num_chunks()),
        static_cast<unsigned long long>(column.sealed_chunks()),
        static_cast<unsigned long long>(column.pending_seals()));
  }
  out += MetricsSnapshot().ToText();
  return out;
}

Result<AppendableColumn*> Table::column(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return columns_[i].get();
  }
  return Status::KeyError("no column named '" + name + "'");
}

Status Table::CheckColumnsHealthyLocked(const LockedState& s) const {
  RECOMP_RETURN_NOT_OK(s.table_status);
  // A column whose seal already failed would reject its append mid-row;
  // refusing the whole row up front keeps the columns aligned. (A seal job
  // failing *between* this check and the appends is caught below and
  // recorded as the table's sticky misalignment error.)
  for (size_t i = 0; i < columns_.size(); ++i) {
    const Status status = columns_[i]->status();
    if (!status.ok()) {
      return Status(status.code(), "column '" + names_[i] +
                                       "' cannot ingest: " + status.message());
    }
  }
  return Status::OK();
}

Status Table::RecordMisalignmentLocked(LockedState& s, Status append_status,
                                       size_t column) {
  if (append_status.ok() || column == 0) return append_status;
  // Earlier columns of this row already landed: alignment is broken for
  // good, so make every later operation say so instead of misreporting.
  s.table_status = Status::Corruption(
      "table columns are not row-aligned: appending to column '" +
      names_[column] + "' failed mid-row: " + append_status.ToString());
  return append_status;
}

Status Table::AppendRow(const std::vector<uint64_t>& values) {
  if (values.size() != columns_.size()) {
    return Status::InvalidArgument(
        StringFormat("row has %zu values, table has %zu columns",
                     values.size(), columns_.size()));
  }
  // Pre-validate every value so a rejected row touches no column: appends
  // must stay row-aligned even on failure.
  for (size_t i = 0; i < columns_.size(); ++i) {
    RECOMP_RETURN_NOT_OK(internal::DispatchUnsignedTypeId(
        columns_[i]->type(), [&](auto tag) -> Status {
          using T = typename decltype(tag)::type;
          if (static_cast<uint64_t>(static_cast<T>(values[i])) != values[i]) {
            return Status::InvalidArgument(StringFormat(
                "value %llu does not fit column '%s'",
                static_cast<unsigned long long>(values[i]),
                names_[i].c_str()));
          }
          return Status::OK();
        }));
  }
  LockedState& s = *state_;
  MutexLock lock(&s.mu);
  RECOMP_RETURN_NOT_OK(CheckColumnsHealthyLocked(s));
  for (size_t i = 0; i < columns_.size(); ++i) {
    RECOMP_RETURN_NOT_OK(RecordMisalignmentLocked(
        s, columns_[i]->Append(values[i]), i));
  }
  ++s.version;
  return Status::OK();
}

Status Table::AppendBatch(const std::vector<AnyColumn>& columns) {
  if (columns.size() != columns_.size()) {
    return Status::InvalidArgument(
        StringFormat("batch has %zu columns, table has %zu",
                     columns.size(), columns_.size()));
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].is_packed() || columns[i].type() != columns_[i]->type()) {
      return Status::InvalidArgument("batch column " + names_[i] +
                                     " has the wrong type");
    }
    if (columns[i].size() != columns[0].size()) {
      return Status::InvalidArgument(
          "batch columns must all have the same length");
    }
  }
  LockedState& s = *state_;
  MutexLock lock(&s.mu);
  RECOMP_RETURN_NOT_OK(CheckColumnsHealthyLocked(s));
  for (size_t i = 0; i < columns.size(); ++i) {
    RECOMP_RETURN_NOT_OK(RecordMisalignmentLocked(
        s, columns_[i]->AppendBatch(columns[i]), i));
  }
  ++s.version;
  return Status::OK();
}

Status Table::Seal() {
  for (const auto& column : columns_) {
    RECOMP_RETURN_NOT_OK(column->Seal());
  }
  return Status::OK();
}

Status Table::Flush() {
  // Flush every column even after a failure: Wait() must cover them all.
  Status first;
  for (const auto& column : columns_) {
    const Status status = column->Flush();
    if (first.ok() && !status.ok()) first = status;
  }
  return first;
}

Result<TableSnapshot> Table::Snapshot() const {
  LockedState& s = *state_;
  MutexLock lock(&s.mu);
  RECOMP_RETURN_NOT_OK(s.table_status);
  TableSnapshot snap;
  snap.version_ = s.version;
  snap.names_ = names_;
  for (uint64_t i = 0; i < names_.size(); ++i) {
    snap.index_.emplace(names_[i], i);
  }
  for (const auto& column : columns_) {
    RECOMP_ASSIGN_OR_RETURN(ColumnSnapshot view, column->Snapshot());
    snap.columns_.push_back(std::move(view));
  }
  snap.rows_ = snap.columns_.empty() ? 0 : snap.columns_[0].size();
  for (const ColumnSnapshot& view : snap.columns_) {
    if (view.size() != snap.rows_) {
      return Status::Corruption("table columns are not row-aligned");
    }
  }
  return snap;
}

}  // namespace recomp::store
