// E16 — Composable table scans: multi-column filter → gather → aggregate.
//
// Claim (ROADMAP "Snapshot-consistent multi-column scans"; cf. the late-
// materialization argument in "Revisiting Data Compression in Column-
// Stores"): a scan that intersects zone-map pruning across filter columns,
// evaluates predicates on the compressed form, and only then gathers the
// payload columns at the surviving positions beats decompress-everything-
// then-scan — and the win grows as selectivity drops, because pruning and
// late materialization skip exactly the work the baseline always pays.
//
// Tables: (a) selectivity sweep — exec::Scan (filter date ∧ amount, gather
// qty, fold SUM) vs the decompress-then-scan baseline; (b) thread sweep at
// fixed selectivity over the chunk-parallel scan. Timing series: the scan,
// the baseline, and a snapshot+scan round trip on a live (unflushed) table.
// Every timed configuration is first verified against the plain oracle.

#include <algorithm>
#include <chrono>
#include <string>

#include "bench_common.h"
#include "exec/scan.h"
#include "gen/generators.h"
#include "store/table.h"
#include "util/thread_pool.h"

namespace {

using namespace recomp;
using bench::ValueOrDie;
using exec::AggregateOp;
using exec::RangePredicate;
using exec::ScanSpec;

constexpr uint64_t kRows = 1u << 22;  // 4Mi rows x 3 uint32 columns.
constexpr uint64_t kChunkRows = 64 * 1024;

struct Workload {
  Column<uint32_t> date, amount, qty;
};

const Workload& SharedWorkload() {
  static const Workload* w = [] {
    auto* out = new Workload();
    out->date = gen::SortedRuns(kRows, 70.0, 2, 161);   // Prunable.
    out->amount = gen::Uniform(kRows, 1u << 20, 162);   // Noise.
    out->qty = gen::Uniform(kRows, 50, 163);            // Payload.
    return out;
  }();
  return *w;
}

/// Builds and flushes the three-column table once, against its own
/// static pool (the table stores the ExecContext for later seal jobs, so
/// the pool must outlive it — a caller's local pool would dangle).
store::Table& SharedTable() {
  static store::Table* table = [] {
    static ThreadPool* seal_pool = new ThreadPool(4);
    const Workload& w = SharedWorkload();
    auto t = store::Table::Create(
        {
            {"date", TypeId::kUInt32, {kChunkRows}, ""},
            {"amount", TypeId::kUInt32, {kChunkRows}, ""},
            {"qty", TypeId::kUInt32, {kChunkRows}, ""},
        },
        ExecContext{seal_pool, 1});
    bench::CheckOk(t.status(), "create");
    bench::CheckOk(t->AppendBatch({AnyColumn(w.date), AnyColumn(w.amount),
                                   AnyColumn(w.qty)}),
                   "append");
    bench::CheckOk(t->Flush(), "flush");
    return new store::Table(std::move(*t));
  }();
  return *table;
}

/// A date predicate covering roughly `fraction` of the rows (the dates are
/// sorted, so a prefix of the value range is a prefix of the rows).
RangePredicate DatePredicate(double fraction) {
  const Workload& w = SharedWorkload();
  const uint64_t hi_row =
      std::min<uint64_t>(kRows - 1, static_cast<uint64_t>(fraction * kRows));
  return {w.date.front(), w.date[hi_row]};
}

ScanSpec QuerySpec(const RangePredicate& date_pred) {
  ScanSpec spec;
  spec.Filter("date", date_pred)
      .Filter("amount", RangePredicate{0, (1u << 19) + (1u << 18)})  // ~75%.
      .Project({"qty"})
      .Aggregate("qty", AggregateOp::kSum);
  return spec;
}

struct OracleResult {
  uint64_t matches = 0;
  uint64_t qty_sum = 0;
};

/// The decompress-everything baseline: materialize all three columns from
/// the snapshot, then filter + gather + fold plain.
OracleResult DecompressThenScan(const store::TableSnapshot& snap,
                                const RangePredicate& date_pred,
                                const ExecContext& ctx) {
  const RangePredicate amount_pred{0, (1u << 19) + (1u << 18)};
  auto date = ValueOrDie(
      DecompressChunked(snap.column(0).chunked(), ctx), "decompress date");
  auto amount = ValueOrDie(
      DecompressChunked(snap.column(1).chunked(), ctx), "decompress amount");
  auto qty = ValueOrDie(
      DecompressChunked(snap.column(2).chunked(), ctx), "decompress qty");
  const Column<uint32_t>& d = date.As<uint32_t>();
  const Column<uint32_t>& a = amount.As<uint32_t>();
  const Column<uint32_t>& q = qty.As<uint32_t>();
  OracleResult out;
  for (uint64_t i = 0; i < d.size(); ++i) {
    if (d[i] >= date_pred.lo && d[i] <= date_pred.hi &&
        a[i] >= amount_pred.lo && a[i] <= amount_pred.hi) {
      ++out.matches;
      out.qty_sum += q[i];
    }
  }
  return out;
}

double SecondsSince(const std::chrono::steady_clock::time_point& start) {
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

/// Runs the scan, checks it against the oracle, returns best-of-3 seconds.
double TimedScan(const store::TableSnapshot& snap, const ScanSpec& spec,
                 const ExecContext& ctx, const OracleResult& oracle) {
  double best = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    auto start = std::chrono::steady_clock::now();
    auto result = ValueOrDie(exec::Scan(snap, spec, ctx), "scan");
    best = std::min(best, SecondsSince(start));
    if (result.rows_matched != oracle.matches ||
        result.aggregates[0].value() != oracle.qty_sum) {
      bench::CheckOk(Status::Corruption("scan disagrees with oracle"),
                     "verify");
    }
  }
  return best;
}

void PrintTables() {
  ThreadPool pool(4);
  const ExecContext ctx{&pool, 1};
  store::Table& table = SharedTable();
  auto snap = ValueOrDie(table.Snapshot(), "snapshot");

  bench::Section(
      "E16: composable table scan (4Mi rows x 3 cols, 64Ki chunks, 4 "
      "threads): filter date AND amount, gather qty, SUM(qty)");
  std::printf("\n%-12s %10s %10s %14s %10s %12s\n", "selectivity", "matches",
              "scan ms", "baseline ms", "speedup", "date pruned");
  for (const double fraction : {0.001, 0.01, 0.1, 0.5, 1.0}) {
    const RangePredicate date_pred = DatePredicate(fraction);
    const ScanSpec spec = QuerySpec(date_pred);
    const OracleResult oracle = DecompressThenScan(snap, date_pred, ctx);

    const double scan_s = TimedScan(snap, spec, ctx, oracle);
    double base_s = 1e100;
    for (int rep = 0; rep < 3; ++rep) {
      auto start = std::chrono::steady_clock::now();
      const OracleResult check = DecompressThenScan(snap, date_pred, ctx);
      base_s = std::min(base_s, SecondsSince(start));
      if (check.matches != oracle.matches) {
        bench::CheckOk(Status::Corruption("baseline not deterministic"),
                       "verify");
      }
    }
    auto result = ValueOrDie(exec::Scan(snap, spec, ctx), "scan");
    std::printf("%-12.3f %10llu %10.2f %14.2f %9.1fx %12llu\n", fraction,
                static_cast<unsigned long long>(oracle.matches),
                scan_s * 1e3, base_s * 1e3, base_s / scan_s,
                static_cast<unsigned long long>(
                    result.filters[0].stats.chunks_pruned));
  }
  std::printf(
      "\nExpected shape: at low selectivity the date filter's zone maps "
      "prune most chunks before any payload is touched and the gather "
      "materializes only the survivors, so the scan wins big; as "
      "selectivity approaches 100%% the per-position gather loses to bulk "
      "decompression — the classic late-vs-early materialization "
      "crossover.\n");

  bench::Section("E16: thread sweep (selectivity 10%)");
  const RangePredicate date_pred = DatePredicate(0.1);
  const ScanSpec spec = QuerySpec(date_pred);
  const OracleResult oracle = DecompressThenScan(snap, date_pred, ctx);
  std::printf("\n%-10s %12s %10s\n", "threads", "scan ms", "speedup");
  double seq_s = 0;
  for (const uint64_t threads : {0ull, 1ull, 2ull, 4ull, 8ull}) {
    ThreadPool sweep_pool(threads);
    const ExecContext sweep_ctx{threads == 0 ? nullptr : &sweep_pool, 1};
    const double s = TimedScan(snap, spec, sweep_ctx, oracle);
    if (threads == 0) seq_s = s;
    std::printf("%-10llu %12.2f %9.1fx\n",
                static_cast<unsigned long long>(threads), s * 1e3, seq_s / s);
  }
}

void BM_TableScan(benchmark::State& state) {
  const uint64_t threads = static_cast<uint64_t>(state.range(0));
  ThreadPool pool(threads);
  const ExecContext ctx{threads == 0 ? nullptr : &pool, 1};
  auto snap = ValueOrDie(SharedTable().Snapshot(), "snapshot");
  const RangePredicate date_pred = DatePredicate(0.1);
  const ScanSpec spec = QuerySpec(date_pred);
  for (auto _ : state) {
    auto result = ValueOrDie(exec::Scan(snap, spec, ctx), "scan");
    benchmark::DoNotOptimize(result.rows_matched);
  }
  state.SetLabel(threads == 0 ? "sequential"
                              : std::to_string(threads) + " threads");
  bench::SetThroughput(state, kRows * 3 * sizeof(uint32_t));
}
BENCHMARK(BM_TableScan)->Arg(0)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_DecompressThenScan(benchmark::State& state) {
  ThreadPool pool(4);
  const ExecContext ctx{&pool, 1};
  auto snap = ValueOrDie(SharedTable().Snapshot(), "snapshot");
  const RangePredicate date_pred = DatePredicate(0.1);
  for (auto _ : state) {
    const OracleResult result = DecompressThenScan(snap, date_pred, ctx);
    benchmark::DoNotOptimize(result.qty_sum);
  }
  bench::SetThroughput(state, kRows * 3 * sizeof(uint32_t));
}
BENCHMARK(BM_DecompressThenScan)->Unit(benchmark::kMillisecond);

void BM_LiveSnapshotScan(benchmark::State& state) {
  // Snapshot + scan on a live, never-flushed table: tails served as
  // stored-plain ID chunks through the kPlainScan fast path.
  ThreadPool pool(4);
  const ExecContext ctx{&pool, 1};
  const Workload& w = SharedWorkload();
  auto table = ValueOrDie(
      store::Table::Create(
          {
              {"date", TypeId::kUInt32, {kChunkRows}, ""},
              {"amount", TypeId::kUInt32, {kChunkRows}, ""},
              {"qty", TypeId::kUInt32, {kChunkRows}, ""},
          },
          ctx),
      "create");
  const uint64_t keep = kRows / 4;
  Column<uint32_t> date(w.date.begin(), w.date.begin() + keep);
  Column<uint32_t> amount(w.amount.begin(), w.amount.begin() + keep);
  Column<uint32_t> qty(w.qty.begin(), w.qty.begin() + keep);
  bench::CheckOk(table.AppendBatch({AnyColumn(date), AnyColumn(amount),
                                    AnyColumn(qty)}),
                 "append");
  const ScanSpec spec = QuerySpec(DatePredicate(0.1));
  for (auto _ : state) {
    auto snap = ValueOrDie(table.Snapshot(), "snapshot");
    auto result = ValueOrDie(exec::Scan(snap, spec, ctx), "scan");
    benchmark::DoNotOptimize(result.rows_matched);
  }
  bench::SetThroughput(state, keep * 3 * sizeof(uint32_t));
}
BENCHMARK(BM_LiveSnapshotScan)->Unit(benchmark::kMillisecond);

}  // namespace

RECOMP_BENCH_MAIN(PrintTables)
