// E17 — Background recompression: re-sealing cold and stored-plain chunks.
//
// Claim (ROADMAP "Recompression under load"; cf. "Reducing Storage in
// Large-Scale Photo Sharing Services using Recompression" and "Revisiting
// Data Compression in Column-Stores"): per-chunk scheme choice pays off
// only if it can be corrected over time. A background Recompressor that
// re-runs the analyzer off the scan path and atomically swaps chunk slots
// recoups storage (pinned or cost-constrained first choices shrink to the
// fresh analyzer's pick) and scan bandwidth (smaller payloads, better
// pushdown strategies), and drains the stored-plain backlog left behind by
// wedged seal jobs — all while ingest and scans stay live.
//
// Tables: (a) pinned-NS ingest → RecompressAll storage/scan deltas with the
// scheme migration histogram; (b) stored-plain backlog drain: bytes and
// scan time before/after the Recompressor seals what a wedged pool could
// not; (c) recompression with ingest still live (background maintenance).
// Timing series: sum/select scans before vs after recompression, the
// steady-state no-op maintenance tick, and RecompressAll itself.

#include <chrono>
#include <future>
#include <map>

#include "bench_common.h"
#include "core/chunked.h"
#include "exec/aggregate.h"
#include "exec/selection.h"
#include "gen/generators.h"
#include "store/recompress.h"
#include "store/table.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace {

using namespace recomp;
using bench::ValueOrDie;

constexpr uint64_t kRows = 1u << 21;  // 2Mi rows, 8 MiB of uint32.
constexpr uint64_t kChunkRows = 64 * 1024;

/// Run-heavy rows: the shape where a pinned bit-packing loses hardest to a
/// fresh analyzer choice (RLE-family compositions).
const Column<uint32_t>& SharedRows() {
  static const Column<uint32_t>* rows =
      new Column<uint32_t>(gen::SortedRuns(kRows, 80.0, 3, 171));
  return *rows;
}

double SecondsSince(const std::chrono::steady_clock::time_point& start) {
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

uint64_t ReferenceSum() {
  static uint64_t sum = [] {
    uint64_t s = 0;
    for (const uint32_t v : SharedRows()) s += v;
    return s;
  }();
  return sum;
}

/// An AppendableColumn holding SharedRows() pinned to plain NS, flushed.
std::unique_ptr<store::AppendableColumn> PinnedNsColumn(
    const ExecContext& ctx) {
  store::IngestOptions options;
  options.chunk_rows = kChunkRows;
  options.descriptor = Ns();
  auto column = std::make_unique<store::AppendableColumn>(TypeId::kUInt32,
                                                          options, ctx);
  bench::CheckOk(column->AppendBatch(AnyColumn(SharedRows())), "append");
  bench::CheckOk(column->Flush(), "flush");
  return column;
}

store::RecompressionPolicy MigrationPolicy() {
  store::RecompressionPolicy policy;
  policy.recompress_pinned = true;
  policy.min_gain = 1.0;
  return policy;
}

void VerifyColumn(const store::AppendableColumn& column, const char* what) {
  auto snap = ValueOrDie(column.Snapshot(), "snapshot");
  const auto sum = ValueOrDie(exec::SumCompressed(snap.chunked()), what);
  if (sum.value != ReferenceSum()) {
    std::fprintf(stderr, "FATAL %s: sum mismatch\n", what);
    std::exit(1);
  }
}

double TimeSumScan(const ChunkedCompressedColumn& chunked) {
  auto start = std::chrono::steady_clock::now();
  const auto sum = ValueOrDie(exec::SumCompressed(chunked), "sum");
  benchmark::DoNotOptimize(sum.value);
  return SecondsSince(start);
}

void PrintPinnedMigrationTable() {
  bench::Section("E17a: pinned-NS column, RecompressAll storage/scan delta");
  ThreadPool pool(4);
  const ExecContext ctx{&pool, 1};
  auto column = PinnedNsColumn(ctx);
  VerifyColumn(*column, "pre-recompression scan");
  auto before = ValueOrDie(column->Snapshot(), "snapshot");
  const uint64_t bytes_before = before.chunked().PayloadBytes();
  const double scan_before = TimeSumScan(before.chunked());

  store::Recompressor recompressor(MigrationPolicy(), ctx);
  auto start = std::chrono::steady_clock::now();
  const auto report =
      ValueOrDie(recompressor.RecompressAll(*column), "recompress");
  const double recompress_seconds = SecondsSince(start);
  VerifyColumn(*column, "post-recompression scan");
  auto after = ValueOrDie(column->Snapshot(), "snapshot");
  const double scan_after = TimeSumScan(after.chunked());

  std::printf("%-28s %14s %14s %9s\n", "", "before", "after", "delta");
  std::printf("%-28s %14llu %14llu %8.1f%%\n", "payload bytes",
              static_cast<unsigned long long>(bytes_before),
              static_cast<unsigned long long>(after.chunked().PayloadBytes()),
              100.0 * (1.0 - static_cast<double>(
                                 after.chunked().PayloadBytes()) /
                                 static_cast<double>(bytes_before)));
  std::printf("%-28s %14.4f %14.4f %8.1fx\n", "sum scan seconds", scan_before,
              scan_after, scan_before / scan_after);
  std::printf("%-28s %llu of %llu chunks in %.3fs (%s saved)\n", "reswapped",
              static_cast<unsigned long long>(report.chunks_reswapped),
              static_cast<unsigned long long>(report.chunks_examined),
              recompress_seconds, HumanBytes(report.BytesSaved()).c_str());

  std::map<std::string, uint64_t> migrations;
  for (const auto& swap : report.swaps) {
    ++migrations[swap.scheme_before + " -> " + swap.scheme_after];
  }
  for (const auto& [migration, count] : migrations) {
    std::printf("  %3llu x %s\n", static_cast<unsigned long long>(count),
                migration.c_str());
  }
}

void PrintBacklogDrainTable() {
  bench::Section("E17b: stored-plain backlog drain (wedged seal pool)");
  ThreadPool pool(1);
  const ExecContext ctx{&pool, 1};
  store::AppendableColumn column(TypeId::kUInt32, {kChunkRows}, ctx);
  // Wedge the only worker: every rolled chunk stays a stored-plain ID
  // envelope, exactly the backlog a slow or failed seal job leaves behind.
  std::promise<void> release;
  {
    std::shared_future<void> gate = release.get_future().share();
    pool.Submit([gate] { gate.wait(); });
  }
  bench::CheckOk(column.AppendBatch(AnyColumn(SharedRows())), "append");

  auto before = ValueOrDie(column.Snapshot(), "snapshot");
  const uint64_t backlog =
      column.num_chunks() - column.sealed_chunks();
  const uint64_t bytes_before = before.chunked().PayloadBytes();
  const double scan_before = TimeSumScan(before.chunked());

  // The drain runs on the calling thread (sequential context): the wedged
  // ingest pool is exactly what it must route around.
  store::Recompressor recompressor({}, ExecContext{});
  auto start = std::chrono::steady_clock::now();
  const auto report = ValueOrDie(recompressor.RecompressAll(column), "drain");
  const double drain_seconds = SecondsSince(start);
  VerifyColumn(column, "post-drain scan");
  auto after = ValueOrDie(column.Snapshot(), "snapshot");
  const double scan_after = TimeSumScan(after.chunked());

  std::printf("backlog: %llu stored-plain chunks, %s\n",
              static_cast<unsigned long long>(backlog),
              HumanBytes(bytes_before).c_str());
  std::printf("drained: %llu chunks in %.3fs -> %s (%s saved)\n",
              static_cast<unsigned long long>(report.stored_plain_drained),
              drain_seconds, HumanBytes(after.chunked().PayloadBytes()).c_str(),
              HumanBytes(report.BytesSaved()).c_str());
  std::printf("sum scan: %.4fs plain -> %.4fs compressed (%.1fx)\n",
              scan_before, scan_after, scan_before / scan_after);
  release.set_value();
  column.WaitForSeals();
}

void PrintLiveIngestTable() {
  bench::Section("E17c: recompression with ingest still live");
  ThreadPool pool(4);
  auto table = ValueOrDie(store::Table::Create(
                              {
                                  {"v", TypeId::kUInt32, {kChunkRows}, "NS"},
                              },
                              ExecContext{&pool, 1}),
                          "create");
  bench::CheckOk(
      table.StartMaintenance(MigrationPolicy(), std::chrono::milliseconds(1)),
      "start maintenance");

  const Column<uint32_t>& rows = SharedRows();
  auto start = std::chrono::steady_clock::now();
  constexpr uint64_t kBatch = 16 * 1024;
  for (uint64_t at = 0; at < rows.size(); at += kBatch) {
    const uint64_t end = std::min<uint64_t>(rows.size(), at + kBatch);
    Column<uint32_t> batch(rows.begin() + at, rows.begin() + end);
    bench::CheckOk(table.AppendBatch({AnyColumn(batch)}), "append");
  }
  bench::CheckOk(table.Flush(), "flush");
  const double ingest_seconds = SecondsSince(start);
  // Let maintenance reach the fixpoint, then stop.
  const auto drained = ValueOrDie(table.RecompressAll(MigrationPolicy()),
                                  "drain");
  table.StopMaintenance();
  const auto background = table.maintenance_report();

  auto snap = ValueOrDie(table.Snapshot(), "snapshot");
  const auto sum =
      ValueOrDie(exec::SumCompressed((*ValueOrDie(snap.column("v"), "col"))
                                         .chunked()),
                 "sum");
  if (sum.value != ReferenceSum()) {
    std::fprintf(stderr, "FATAL live-ingest sum mismatch\n");
    std::exit(1);
  }
  std::printf("ingested %llu rows in %.3fs with maintenance ticking\n",
              static_cast<unsigned long long>(rows.size()), ingest_seconds);
  std::printf("background ticks reswapped %llu chunks (%s saved); "
              "final drain added %llu\n",
              static_cast<unsigned long long>(background.chunks_reswapped),
              HumanBytes(background.BytesSaved()).c_str(),
              static_cast<unsigned long long>(drained.chunks_reswapped));
}

void PrintTables() {
  PrintPinnedMigrationTable();
  PrintBacklogDrainTable();
  PrintLiveIngestTable();
}

// ---------------------------------------------------------------------------
// Timing series.
// ---------------------------------------------------------------------------

/// The pinned column and its recompressed twin, built once.
const ChunkedCompressedColumn& PinnedView() {
  static const ChunkedCompressedColumn* view = [] {
    static ThreadPool pool(4);
    auto column = PinnedNsColumn(ExecContext{&pool, 1});
    auto snap = ValueOrDie(column->Snapshot(), "snapshot");
    return new ChunkedCompressedColumn(snap.chunked());
  }();
  return *view;
}

const ChunkedCompressedColumn& RecompressedView() {
  static const ChunkedCompressedColumn* view = [] {
    static ThreadPool pool(4);
    const ExecContext ctx{&pool, 1};
    auto column = PinnedNsColumn(ctx);
    store::Recompressor recompressor(MigrationPolicy(), ctx);
    ValueOrDie(recompressor.RecompressAll(*column), "recompress");
    auto snap = ValueOrDie(column->Snapshot(), "snapshot");
    return new ChunkedCompressedColumn(snap.chunked());
  }();
  return *view;
}

void BM_SumScan(benchmark::State& state, const ChunkedCompressedColumn& view) {
  for (auto _ : state) {
    const auto sum = ValueOrDie(exec::SumCompressed(view), "sum");
    benchmark::DoNotOptimize(sum.value);
  }
  bench::SetThroughput(state, view.UncompressedBytes());
}

void BM_SumBeforeRecompression(benchmark::State& state) {
  BM_SumScan(state, PinnedView());
}
BENCHMARK(BM_SumBeforeRecompression);

void BM_SumAfterRecompression(benchmark::State& state) {
  BM_SumScan(state, RecompressedView());
}
BENCHMARK(BM_SumAfterRecompression);

void BM_SelectScan(benchmark::State& state,
                   const ChunkedCompressedColumn& view) {
  // A thin band early in the value range: most chunks zone-map-prune once
  // recompressed, while the pinned form pays the full scan.
  const exec::RangePredicate pred{1200, 1200 + 6};
  for (auto _ : state) {
    const auto selection =
        ValueOrDie(exec::SelectCompressed(view, pred), "select");
    benchmark::DoNotOptimize(selection.positions.size());
  }
  bench::SetThroughput(state, view.UncompressedBytes());
}

void BM_SelectBeforeRecompression(benchmark::State& state) {
  BM_SelectScan(state, PinnedView());
}
BENCHMARK(BM_SelectBeforeRecompression);

void BM_SelectAfterRecompression(benchmark::State& state) {
  BM_SelectScan(state, RecompressedView());
}
BENCHMARK(BM_SelectAfterRecompression);

void BM_MaintenanceTickAtFixpoint(benchmark::State& state) {
  // The steady-state cost of a no-op tick: candidate selection plus the
  // kept re-analyses, the price of leaving background maintenance on.
  static ThreadPool pool(4);
  const ExecContext ctx{&pool, 1};
  static store::AppendableColumn* column = [] {
    auto owned = PinnedNsColumn(ExecContext{});
    return owned.release();
  }();
  store::Recompressor recompressor(MigrationPolicy(), ctx);
  ValueOrDie(recompressor.RecompressAll(*column), "warmup");
  for (auto _ : state) {
    const auto report = ValueOrDie(recompressor.Tick(*column), "tick");
    benchmark::DoNotOptimize(report.chunks_reswapped);
  }
}
BENCHMARK(BM_MaintenanceTickAtFixpoint);

void BM_RecompressAllPinned(benchmark::State& state) {
  static ThreadPool pool(4);
  const ExecContext ctx{&pool, 1};
  for (auto _ : state) {
    state.PauseTiming();
    auto column = PinnedNsColumn(ctx);
    state.ResumeTiming();
    store::Recompressor recompressor(MigrationPolicy(), ctx);
    const auto report =
        ValueOrDie(recompressor.RecompressAll(*column), "recompress");
    benchmark::DoNotOptimize(report.chunks_reswapped);
  }
  bench::SetThroughput(state, kRows * sizeof(uint32_t));
}
BENCHMARK(BM_RecompressAllPinned);

}  // namespace

RECOMP_BENCH_MAIN(PrintTables)
