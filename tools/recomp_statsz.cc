// recomp_statsz: run a mixed ingest / scan / recompress workload and dump
// the metric registry — the quickest way to see what the analyzer, the
// dispatch layer, the pool, and the recompressor actually did.
//
//   recomp_statsz [--rows N] [--json]
//
// With --json the snapshot prints as one JSON object (obs::ToJson) instead
// of the text exposition; --rows sizes the workload (default 200000).

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "exec/scan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/table.h"
#include "util/thread_pool.h"

namespace {

using namespace recomp;        // NOLINT(google-build-using-namespace)
using namespace recomp::store; // NOLINT(google-build-using-namespace)

void Die(const Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Get(Result<T> result, const char* what) {
  Die(result.status(), what);
  return std::move(result).ValueOrDie();
}

int Run(uint64_t rows, bool json) {
  ThreadPool pool(ThreadPool::DefaultThreadCount());
  const ExecContext ctx{&pool};

  // Three columns with distinct shapes so the analyzer has real choices:
  // a slowly growing timestamp (DELTA territory), a low-cardinality status
  // (RLE/DICT territory), and a noisy amount (NS/FOR territory).
  std::vector<ColumnSpec> specs(3);
  specs[0].name = "ts";
  specs[0].type = TypeId::kUInt64;
  specs[1].name = "status";
  specs[1].type = TypeId::kUInt32;
  specs[2].name = "amount";
  specs[2].type = TypeId::kUInt32;
  Table table = Get(Table::Create(specs, ctx), "Table::Create");

  // Deterministic data (no std::random: the dump should be reproducible).
  uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<AnyColumn> batch(3);
  Column<uint64_t> ts;
  Column<uint32_t> status;
  Column<uint32_t> amount;
  for (uint64_t i = 0; i < rows; ++i) {
    ts.push_back(1700000000000ull + i * 37 + (next() & 15));
    status.push_back(static_cast<uint32_t>(next() % 5));
    amount.push_back(static_cast<uint32_t>(next() % 100000));
  }
  batch[0] = AnyColumn(std::move(ts));
  batch[1] = AnyColumn(std::move(status));
  batch[2] = AnyColumn(std::move(amount));
  Die(table.AppendBatch(batch), "AppendBatch");
  Die(table.Flush(), "Flush");

  // A profiled multi-column scan: filter on two columns, project one,
  // aggregate another.
  obs::ScanProfile profile;
  {
    const obs::ProfileScope scope(&profile);
    const obs::Span span("statsz.query");
    const TableSnapshot snap = Get(table.Snapshot(), "Snapshot");
    exec::ScanSpec spec;
    spec.Filter("status", {1, 3})
        .Filter("amount", {0, 50000})
        .Project({"ts"})
        .Aggregate("amount", exec::AggregateOp::kSum);
    const exec::ScanResult result = Get(exec::Scan(snap, spec, ctx), "Scan");
    if (!json) {
      std::printf("scan: %llu of %llu rows matched\n",
                  static_cast<unsigned long long>(result.rows_matched),
                  static_cast<unsigned long long>(result.rows_scanned));
      for (const exec::ScanFilterStats& f : result.filters) {
        std::printf("  filter %-8s %s\n", f.column.c_str(),
                    f.stats.ToString().c_str());
      }
      for (const exec::ScanProjection& p : result.projections) {
        std::printf("  gather %-8s %s\n", p.column.c_str(),
                    p.gather.ToString().c_str());
      }
    }
  }

  // One maintenance pass so the recompressor's counters move too.
  RecompressionPolicy policy;
  // Analyzer options unlike ingest's: no sealed chunk is judged under
  // them yet, so the pass re-prices every one.
  policy.analyzer.max_cost_per_value = 1.5;
  policy.min_age_chunks = 0;
  const RecompressionReport report =
      Get(table.RecompressAll(policy), "RecompressAll");

  if (json) {
    std::fputs(Table::MetricsSnapshot().ToJson().c_str(), stdout);
    return 0;
  }
  std::printf("\n%s\n", profile.ToString().c_str());
  std::fputs(report.ToString().c_str(), stdout);
  std::printf("\n%s", table.DebugString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t rows = 200000;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      rows = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s [--rows N] [--json]\n", argv[0]);
      return 2;
    }
  }
  return Run(rows, json);
}
