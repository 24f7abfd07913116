// Observability end-to-end: run a mixed ingest / scan / recompress workload,
// profile one query with obs::ProfileScope + obs::Span, and dump the
// process-wide metric registry — the counters the analyzer, the dispatch
// layer, the thread pool, and the recompressor move while they work.
//
// The same registry backs Table::MetricsSnapshot()/DebugString() and the
// recomp_statsz tool; this example shows the API surface a library user
// would wire into their own monitoring.

#include <cstdio>

#include "exec/scan.h"
#include "gen/generators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/table.h"
#include "util/thread_pool.h"

int main() {
  using namespace recomp;

  ThreadPool pool(ThreadPool::DefaultThreadCount());
  const ExecContext ctx{&pool, 1};

  // Two columns with different shapes: sorted-ish dates (run/delta
  // territory) and noisy amounts (null-suppression territory), so the
  // analyzer counters show real choices.
  auto table = store::Table::Create(
      {
          {"date", TypeId::kUInt32, {64 * 1024}, ""},
          {"amount", TypeId::kUInt32, {64 * 1024}, ""},
      },
      ctx);
  if (!table.ok()) return 1;

  for (int b = 0; b < 4; ++b) {
    const Column<uint32_t> dates = gen::SortedRuns(96 * 1024, 80.0, 2, 7 + b);
    const Column<uint32_t> amounts = gen::Uniform(96 * 1024, 1u << 20, 9 + b);
    if (!table->AppendBatch({AnyColumn(dates), AnyColumn(amounts)}).ok()) {
      return 1;
    }
  }
  if (!table->Flush().ok()) return 1;

  // Profile one query: install a ScanProfile on this thread and every span
  // the scan opens (filter, materialize) rolls up into it, alongside the
  // row/chunk counters the scan reports at exit.
  obs::ScanProfile profile;
  {
    const obs::ProfileScope scope(&profile);
    const obs::Span span("example.query");
    auto snap = table->Snapshot();
    if (!snap.ok()) return 1;
    exec::ScanSpec spec;
    spec.Filter("date", {0, 2000})
        .Aggregate("amount", exec::AggregateOp::kSum);
    auto result = exec::Scan(*snap, spec, ctx);
    if (!result.ok()) return 1;
    std::printf("query: %llu of %llu rows matched, sum(amount)=%llu\n",
                static_cast<unsigned long long>(result->rows_matched),
                static_cast<unsigned long long>(result->rows_scanned),
                static_cast<unsigned long long>(result->aggregates[0].value()));
    std::printf("  %s\n", result->filters[0].stats.ToString().c_str());
  }
  std::printf("\n%s\n", profile.ToString().c_str());

  // One maintenance pass so the recompressor's counters move too.
  store::RecompressionPolicy policy;
  // Analyzer options unlike ingest's: no sealed chunk is judged under
  // them yet, so the pass re-prices every one.
  policy.analyzer.max_cost_per_value = 1.5;
  policy.min_age_chunks = 0;
  if (!table->RecompressAll(policy).ok()) return 1;

  // The registry, three ways: a raw snapshot for programmatic access, the
  // table's debug dump for humans, and JSON for scrapers.
  const obs::MetricsSnapshot snapshot = store::Table::MetricsSnapshot();
  std::printf("registry: %zu counters, %zu gauges, %zu histograms\n",
              snapshot.counters.size(), snapshot.gauges.size(),
              snapshot.histograms.size());
  std::printf(
      "  analyzer.choices=%llu  scan.queries=%llu  store.seal.completed=%llu\n",
      static_cast<unsigned long long>(snapshot.counter("analyzer.choices")),
      static_cast<unsigned long long>(snapshot.counter("scan.queries")),
      static_cast<unsigned long long>(
          snapshot.counter("store.seal.completed")));

  std::printf("\n%s", table->DebugString().c_str());
  return 0;
}
