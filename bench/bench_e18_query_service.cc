// E18 — Query service: shared-scan batch execution for concurrent clients.
//
// Claim (ROADMAP "Query service layer"; cf. "Main Memory Scan Sharing For
// Multi-Core CPUs" and the shared-scan literature): when many concurrent
// queries target the same table version, executing each one solo repeats
// the dominant cost — fused-decoding every surviving chunk — once per
// query. Batching the queries of a short admission window into ONE
// chunk-parallel pass decodes each chunk once and evaluates every query
// against the shared decoded buffer, with selection vectors recycled
// across identical predicates. Throughput then scales with the sharing
// ratio (chunk evaluations per physical decode) instead of degrading
// linearly with client count.
//
// Tables: a 64-concurrent-query HOT mix (8 distinct dashboard predicates,
// 8 clients each) and a COLD mix (64 unique predicates) against the same
// sealed two-column table; each mix runs naive-sequential (solo exec::Scan
// per query, what a non-batching server does) and batched through the
// QueryService. Every batched result is checked bit-identical to its solo
// run (exec::ScanOutputsEqual) before any number is reported, and the
// sharing ratio comes out of the process metrics snapshot
// (service.chunk_evaluations / service.chunks_decoded).
//
// Acceptance gate: batched QPS must be >= 2x naive QPS on the hot mix —
// the binary exits non-zero otherwise, so the CI bench smoke IS the check.

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "bench_common.h"
#include "exec/scan.h"
#include "gen/generators.h"
#include "obs/metrics.h"
#include "service/query_service.h"
#include "store/table.h"
#include "util/random.h"

namespace {

using namespace recomp;
using bench::ValueOrDie;
using exec::AggregateOp;
using exec::ScanSpec;
using service::QueryService;
using service::ServiceOptions;
using store::Table;

constexpr uint64_t kRows = 1u << 19;  // 512Ki rows x 2 columns.
constexpr uint64_t kChunkRows = 16 * 1024;
constexpr uint64_t kValueBound = 1u << 20;
constexpr uint64_t kQueries = 64;  // >= 32-concurrent acceptance floor.

double SecondsSince(const std::chrono::steady_clock::time_point& start) {
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

double PercentileSeconds(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t index = static_cast<size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[index];
}

/// The sealed shared table: "k" (filter column) and "v" (aggregate column),
/// both uniform — every chunk straddles any interior predicate band, so
/// nothing is zone-pruned or zone-contained and selection must decode.
const Table& SharedTable() {
  static const Table* table = [] {
    auto created = ValueOrDie(
        Table::Create({{"k", TypeId::kUInt32, {kChunkRows}, ""},
                       {"v", TypeId::kUInt32, {kChunkRows}, ""}}),
        "create");
    bench::CheckOk(
        created.AppendBatch(
            {AnyColumn(gen::Uniform(kRows, kValueBound, 181)),
             AnyColumn(gen::Uniform(kRows, kValueBound, 182))}),
        "append");
    bench::CheckOk(created.Seal(), "seal");
    bench::CheckOk(created.Flush(), "flush");
    return new Table(std::move(created));
  }();
  return *table;
}

/// HOT mix: 8 distinct dashboard predicates (~5% selectivity bands), each
/// issued by 8 clients — the repeated-predicate shape selection-vector
/// reuse exists for.
std::vector<ScanSpec> HotSpecs() {
  std::vector<ScanSpec> specs;
  specs.reserve(kQueries);
  for (uint64_t q = 0; q < kQueries; ++q) {
    const uint64_t band = q % 8;
    const uint64_t lo = kValueBound / 10 + band * (kValueBound / 12);
    const uint64_t hi = lo + kValueBound / 20;
    ScanSpec spec;
    spec.Filter("k", {lo, hi}).Aggregate("v", AggregateOp::kSum);
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// COLD mix: 64 unique predicates — no selection vector is ever reused, so
/// any win must come from decode sharing alone.
std::vector<ScanSpec> ColdSpecs() {
  Rng rng(183);
  std::vector<ScanSpec> specs;
  specs.reserve(kQueries);
  for (uint64_t q = 0; q < kQueries; ++q) {
    const uint64_t lo = 1 + rng.Below(kValueBound / 2);
    const uint64_t hi = lo + 1 + rng.Below(kValueBound / 4);
    ScanSpec spec;
    spec.Filter("k", {lo, hi}).Aggregate("v", AggregateOp::kSum);
    specs.push_back(std::move(spec));
  }
  return specs;
}

struct MixResult {
  double naive_seconds = 0;
  double batched_seconds = 0;
  double naive_p50 = 0, naive_p99 = 0;
  double batched_p50 = 0, batched_p99 = 0;
  double sharing_ratio = 0;

  double naive_qps() const { return kQueries / naive_seconds; }
  double batched_qps() const { return kQueries / batched_seconds; }
  double speedup() const { return batched_qps() / naive_qps(); }
};

/// Runs one mix both ways, asserting bit-identity per query.
MixResult RunMix(const std::vector<ScanSpec>& specs) {
  const Table& table = SharedTable();
  const auto snapshot = ValueOrDie(table.Snapshot(), "snapshot");
  MixResult result;

  // Naive sequential: what a server answering each client solo pays.
  std::vector<exec::ScanResult> solo;
  solo.reserve(specs.size());
  std::vector<double> naive_latency;
  const auto naive_start = std::chrono::steady_clock::now();
  for (const ScanSpec& spec : specs) {
    const auto query_start = std::chrono::steady_clock::now();
    solo.push_back(ValueOrDie(exec::Scan(snapshot, spec), "solo scan"));
    naive_latency.push_back(SecondsSince(query_start));
  }
  result.naive_seconds = SecondsSince(naive_start);
  result.naive_p50 = PercentileSeconds(naive_latency, 0.5);
  result.naive_p99 = PercentileSeconds(naive_latency, 0.99);

  // Batched: all queries land inside one admission window. The measured
  // time includes the window itself — the real latency a client pays.
  // Result caching is off so hot/cold keep measuring the shared-scan
  // execution path itself (every admitted query executes, as in PR 9's
  // numbers); the cache's own win is gated by RunRepeated below.
  ServiceOptions options;
  options.batch_window = std::chrono::microseconds(5000);
  options.max_in_flight_per_client = kQueries;
  options.result_cache_bytes = 0;
  auto service = ValueOrDie(QueryService::Create(&table, options), "service");
  const obs::MetricsSnapshot before = Table::MetricsSnapshot();

  std::vector<uint64_t> clients;
  for (uint64_t c = 0; c < 8; ++c) clients.push_back(service->RegisterClient());
  std::vector<QueryService::ResultFuture> futures;
  futures.reserve(specs.size());
  const auto batched_start = std::chrono::steady_clock::now();
  for (size_t q = 0; q < specs.size(); ++q) {
    futures.push_back(ValueOrDie(
        service->Submit(clients[q % clients.size()], specs[q]), "submit"));
  }
  std::vector<QueryService::Answer> batched;
  batched.reserve(futures.size());
  std::vector<double> batched_latency;
  for (auto& future : futures) {
    batched.push_back(ValueOrDie(future.get(), "batched scan"));
    // Slight overestimate for queries whose future settled before this
    // loop reached them; honest for the drain-everything client pattern.
    batched_latency.push_back(SecondsSince(batched_start));
  }
  result.batched_seconds = SecondsSince(batched_start);
  result.batched_p50 = PercentileSeconds(batched_latency, 0.5);
  result.batched_p99 = PercentileSeconds(batched_latency, 0.99);

  // Bit-identity: batching must never change an answer.
  for (size_t q = 0; q < specs.size(); ++q) {
    if (!exec::ScanOutputsEqual(batched[q], solo[q])) {
      std::fprintf(stderr, "FATAL query %zu: batched != solo\n", q);
      std::exit(1);
    }
  }

  // Sharing ratio out of the process metrics snapshot.
  const obs::MetricsSnapshot after = Table::MetricsSnapshot();
  const uint64_t decoded = after.counter("service.chunks_decoded") -
                           before.counter("service.chunks_decoded");
  const uint64_t evaluated = after.counter("service.chunk_evaluations") -
                             before.counter("service.chunk_evaluations");
  result.sharing_ratio =
      decoded == 0 ? 0.0
                   : static_cast<double>(evaluated) /
                         static_cast<double>(decoded);
  service->Stop();
  return result;
}

/// REPEATED mix: ~90% duplicates — 64 queries drawn from 6 distinct specs,
/// the dashboard-refresh shape the result cache exists for.
std::vector<ScanSpec> RepeatedSpecs() {
  std::vector<ScanSpec> specs;
  specs.reserve(kQueries);
  for (uint64_t q = 0; q < kQueries; ++q) {
    const uint64_t band = q % 6;
    const uint64_t lo = kValueBound / 10 + band * (kValueBound / 12);
    const uint64_t hi = lo + kValueBound / 8;
    ScanSpec spec;
    spec.Filter("k", {lo, hi}).Aggregate("v", AggregateOp::kSum);
    specs.push_back(std::move(spec));
  }
  return specs;
}

struct RepeatedResult {
  double uncached_seconds = 0;
  double cached_seconds = 0;
  double hit_ratio = 0;

  double speedup() const { return uncached_seconds / cached_seconds; }
};

/// Submits `specs` through `service` and drains every future, returning the
/// wall time and the results (bit-identity is the caller's concern).
double DrainBurst(QueryService& service, uint64_t client,
                  const std::vector<ScanSpec>& specs,
                  std::vector<QueryService::Answer>* out) {
  std::vector<QueryService::ResultFuture> futures;
  futures.reserve(specs.size());
  const auto start = std::chrono::steady_clock::now();
  for (const ScanSpec& spec : specs) {
    futures.push_back(ValueOrDie(service.Submit(client, spec), "submit"));
  }
  for (auto& future : futures) {
    out->push_back(ValueOrDie(future.get(), "result"));
  }
  return SecondsSince(start);
}

/// The repeated-workload phase: the same 90%-duplicate burst through a
/// cache-disabled service (every query executes, PR 9's behavior) and a
/// warm cache-enabled one (every query is a result-cache hit). The gate is
/// the hits actually being cheap: >= 5x on wall time.
RepeatedResult RunRepeated() {
  const Table& table = SharedTable();
  const auto snapshot = ValueOrDie(table.Snapshot(), "snapshot");
  const std::vector<ScanSpec> specs = RepeatedSpecs();
  std::vector<exec::ScanResult> solo;
  solo.reserve(specs.size());
  for (const ScanSpec& spec : specs) {
    solo.push_back(ValueOrDie(exec::Scan(snapshot, spec), "solo scan"));
  }

  ServiceOptions options;
  options.batch_window = std::chrono::microseconds(5000);
  // A full burst dispatches the moment the last query queues, so neither
  // side's time is dominated by waiting out the window.
  options.max_batch_queries = kQueries;
  options.max_in_flight_per_client = kQueries;
  RepeatedResult result;

  // Cache off: all 64 execute (shared-scan batched, as before this PR).
  {
    ServiceOptions off = options;
    off.result_cache_bytes = 0;
    auto service = ValueOrDie(QueryService::Create(&table, off), "service");
    const uint64_t client = service->RegisterClient();
    std::vector<QueryService::Answer> batched;
    result.uncached_seconds = DrainBurst(*service, client, specs, &batched);
    for (size_t q = 0; q < specs.size(); ++q) {
      if (!exec::ScanOutputsEqual(batched[q], solo[q])) {
        std::fprintf(stderr, "FATAL repeated/off query %zu != solo\n", q);
        std::exit(1);
      }
    }
    service->Stop();
  }

  // Cache on: a cold pass populates (and re-checks identity), then the
  // measured burst is served entirely from the result cache.
  {
    auto service = ValueOrDie(QueryService::Create(&table, options), "service");
    const uint64_t client = service->RegisterClient();
    std::vector<QueryService::Answer> cold;
    DrainBurst(*service, client, specs, &cold);
    const obs::MetricsSnapshot before = Table::MetricsSnapshot();
    std::vector<QueryService::Answer> warm;
    result.cached_seconds = DrainBurst(*service, client, specs, &warm);
    const obs::MetricsSnapshot after = Table::MetricsSnapshot();
    for (size_t q = 0; q < specs.size(); ++q) {
      if (!exec::ScanOutputsEqual(cold[q], solo[q]) ||
          !exec::ScanOutputsEqual(warm[q], solo[q])) {
        std::fprintf(stderr, "FATAL repeated/on query %zu != solo\n", q);
        std::exit(1);
      }
    }
    const uint64_t hits = after.counter("service.result_cache.hits") -
                          before.counter("service.result_cache.hits");
    result.hit_ratio =
        static_cast<double>(hits) / static_cast<double>(specs.size());
    service->Stop();
  }
  return result;
}

struct NestedResult {
  double sharing_off = 0;
  double sharing_on = 0;
  uint64_t subsumed_evaluations = 0;
  uint64_t chunk_evaluations = 0;

  double subsumption_ratio() const {
    return chunk_evaluations == 0
               ? 0.0
               : static_cast<double>(subsumed_evaluations) /
                     static_cast<double>(chunk_evaluations);
  }
};

/// One generation of the nested mix: 8 disjoint families of mid-range bands
/// on "k", each generation strictly inside the previous one. Filter-only:
/// the decode cost under measurement is the filter column's.
ScanSpec NestedSpec(uint64_t family, uint64_t generation) {
  const uint64_t width = kValueBound / 8;
  const uint64_t lo0 = family * width + width / 8;
  const uint64_t hi0 = (family + 1) * width - width / 8;
  const uint64_t step = (hi0 - lo0) / 20;
  ScanSpec spec;
  spec.Filter("k", {lo0 + generation * step, hi0 - generation * step});
  return spec;
}

/// Runs the nested mix through one service configuration and returns its
/// stats. Window g batches generation g together with generation g-1; with
/// the decoded-chunk cache disabled (budget 0, evicted between windows),
/// generation g-1 is answered by the cross-window selection cache, and the
/// only way generation g avoids re-decoding every chunk is subsuming into
/// g-1's cached (position, value) pairs. Sharing ratio — evaluations per
/// physical decode — is exactly what subsumption should move.
service::ServiceStats RunNestedConfig(bool subsume) {
  const Table& table = SharedTable();
  const auto snapshot = ValueOrDie(table.Snapshot(), "snapshot");
  constexpr uint64_t kFamilies = 8;
  constexpr uint64_t kGenerations = 8;

  ServiceOptions options;
  options.batch_window = std::chrono::microseconds(10000);
  options.max_batch_queries = 2 * kFamilies;
  options.max_in_flight_per_client = kQueries;
  options.decoded_cache_bytes = 0;
  // The result cache would serve the repeated g-1 specs without executing,
  // leaving the batch without the containing bands the lattice needs.
  options.result_cache_bytes = 0;
  options.subsume_predicates = subsume;
  auto service = ValueOrDie(QueryService::Create(&table, options), "service");
  const uint64_t client = service->RegisterClient();

  for (uint64_t generation = 0; generation < kGenerations; ++generation) {
    std::vector<ScanSpec> window;
    for (uint64_t family = 0; family < kFamilies; ++family) {
      if (generation > 0) window.push_back(NestedSpec(family, generation - 1));
      window.push_back(NestedSpec(family, generation));
    }
    std::vector<QueryService::Answer> batched;
    DrainBurst(*service, client, window, &batched);
    for (size_t q = 0; q < window.size(); ++q) {
      const auto solo = ValueOrDie(exec::Scan(snapshot, window[q]), "solo");
      if (!exec::ScanOutputsEqual(batched[q], solo)) {
        std::fprintf(stderr, "FATAL nested gen %llu query %zu != solo\n",
                     static_cast<unsigned long long>(generation), q);
        std::exit(1);
      }
    }
  }
  const service::ServiceStats stats = service->stats();
  service->Stop();
  return stats;
}

NestedResult RunNested() {
  const service::ServiceStats off = RunNestedConfig(false);
  const service::ServiceStats on = RunNestedConfig(true);
  NestedResult result;
  result.sharing_off = off.sharing_ratio();
  result.sharing_on = on.sharing_ratio();
  result.subsumed_evaluations = on.subsumed_evaluations;
  result.chunk_evaluations = on.chunk_evaluations;
  return result;
}

void PrintMixRow(const char* name, const MixResult& mix) {
  std::printf("%-10s %9.0f %9.0f %7.2fx %7.2f %8.2f %8.2f %8.2f %8.2f\n",
              name, mix.naive_qps(), mix.batched_qps(), mix.speedup(),
              mix.sharing_ratio, mix.naive_p50 * 1e3, mix.naive_p99 * 1e3,
              mix.batched_p50 * 1e3, mix.batched_p99 * 1e3);
}

void PrintTables() {
  bench::Section(
      "E18: shared-scan service, 64 concurrent queries, naive vs batched");
  std::printf("rows=%llu chunks=%llu window=5ms queries=%llu\n",
              static_cast<unsigned long long>(kRows),
              static_cast<unsigned long long>(kRows / kChunkRows),
              static_cast<unsigned long long>(kQueries));
  std::printf("%-10s %9s %9s %8s %7s %8s %8s %8s %8s\n", "mix",
              "naiveQPS", "batchQPS", "speedup", "share", "n_p50ms",
              "n_p99ms", "b_p50ms", "b_p99ms");

  const MixResult hot = RunMix(HotSpecs());
  PrintMixRow("hot", hot);
  const MixResult cold = RunMix(ColdSpecs());
  PrintMixRow("cold", cold);

  auto& report = bench::JsonReport::Instance();
  report.Set("e18.hot.naive_qps", hot.naive_qps());
  report.Set("e18.hot.batched_qps", hot.batched_qps());
  report.Set("e18.hot.speedup", hot.speedup());
  report.Set("e18.hot.sharing_ratio", hot.sharing_ratio);
  report.Set("e18.hot.naive_p99_ms", hot.naive_p99 * 1e3);
  report.Set("e18.hot.batched_p99_ms", hot.batched_p99 * 1e3);
  report.Set("e18.cold.naive_qps", cold.naive_qps());
  report.Set("e18.cold.batched_qps", cold.batched_qps());
  report.Set("e18.cold.speedup", cold.speedup());
  report.Set("e18.cold.sharing_ratio", cold.sharing_ratio);

  // The acceptance gate: >= 2x on the hot mix, with sharing actually
  // materializing (more evaluations than physical decodes).
  if (hot.speedup() < 2.0) {
    std::fprintf(stderr, "FATAL hot-mix speedup %.2fx < 2.0x gate\n",
                 hot.speedup());
    std::exit(1);
  }
  if (hot.sharing_ratio <= 1.0) {
    std::fprintf(stderr, "FATAL hot-mix sharing ratio %.2f <= 1\n",
                 hot.sharing_ratio);
    std::exit(1);
  }

  bench::Section(
      "E18: result cache, 90%-duplicate burst (64 queries / 6 specs)");
  const RepeatedResult repeated = RunRepeated();
  std::printf("%-10s %10s %10s %8s %9s\n", "mix", "off_ms", "warm_ms",
              "speedup", "hit_ratio");
  std::printf("%-10s %10.2f %10.2f %7.2fx %9.2f\n", "repeated",
              repeated.uncached_seconds * 1e3, repeated.cached_seconds * 1e3,
              repeated.speedup(), repeated.hit_ratio);
  report.Set("e18.repeated.uncached_ms", repeated.uncached_seconds * 1e3);
  report.Set("e18.repeated.cached_ms", repeated.cached_seconds * 1e3);
  report.Set("e18.repeated.speedup", repeated.speedup());
  report.Set("e18.repeated.hit_ratio", repeated.hit_ratio);
  if (repeated.speedup() < 5.0) {
    std::fprintf(stderr, "FATAL repeated-mix cache speedup %.2fx < 5.0x gate\n",
                 repeated.speedup());
    std::exit(1);
  }

  bench::Section(
      "E18: predicate subsumption, nested bands (8 families x 8 gens)");
  const NestedResult nested = RunNested();
  std::printf("%-10s %12s %12s %12s\n", "mix", "share_off", "share_on",
              "subsumed");
  std::printf("%-10s %12.2f %12.2f %12llu\n", "nested", nested.sharing_off,
              nested.sharing_on,
              static_cast<unsigned long long>(nested.subsumed_evaluations));
  report.Set("e18.nested.sharing_off", nested.sharing_off);
  report.Set("e18.nested.sharing_on", nested.sharing_on);
  report.Set("e18.nested.subsumption_ratio", nested.subsumption_ratio());
  // Subsumption must strictly raise the sharing ratio over the PR 9
  // behavior (same mix, subsumption off), and must actually fire.
  if (nested.sharing_on <= nested.sharing_off) {
    std::fprintf(stderr, "FATAL nested sharing %.2f (on) <= %.2f (off)\n",
                 nested.sharing_on, nested.sharing_off);
    std::exit(1);
  }
  if (nested.subsumed_evaluations == 0) {
    std::fprintf(stderr, "FATAL nested mix subsumed 0 evaluations\n");
    std::exit(1);
  }
}

void BM_NaiveSequentialHotMix(benchmark::State& state) {
  const auto snapshot = ValueOrDie(SharedTable().Snapshot(), "snapshot");
  const std::vector<ScanSpec> specs = HotSpecs();
  for (auto _ : state) {
    uint64_t total = 0;
    for (const ScanSpec& spec : specs) {
      const auto result = ValueOrDie(exec::Scan(snapshot, spec), "scan");
      total += result.aggregates[0].value();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kQueries));
}
BENCHMARK(BM_NaiveSequentialHotMix);

void BM_BatchedHotMix(benchmark::State& state) {
  const Table& table = SharedTable();
  ServiceOptions options;
  // No window hold: every iteration submits its burst back to back and the
  // dispatcher groups whatever is queued, the steady-state server shape.
  options.batch_window = std::chrono::microseconds(0);
  options.max_in_flight_per_client = kQueries;
  auto service = ValueOrDie(QueryService::Create(&table, options), "service");
  const uint64_t client = service->RegisterClient();
  const std::vector<ScanSpec> specs = HotSpecs();
  for (auto _ : state) {
    std::vector<QueryService::ResultFuture> futures;
    futures.reserve(specs.size());
    for (const ScanSpec& spec : specs) {
      futures.push_back(
          ValueOrDie(service->Submit(client, spec), "submit"));
    }
    uint64_t total = 0;
    for (auto& future : futures) {
      total += ValueOrDie(future.get(), "result")->aggregates[0].value();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kQueries));
  service->Stop();
}
BENCHMARK(BM_BatchedHotMix);

}  // namespace

RECOMP_BENCH_MAIN(PrintTables)
