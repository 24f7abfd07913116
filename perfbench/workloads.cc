#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common.h"
#include "core/analyzer.h"
#include "core/pipeline.h"
#include "data.h"
#include "ladder.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "service/query_service.h"
#include "store/table.h"
#include "util/thread_pool.h"

namespace perfbench {

using recomp::AnyColumn;
using recomp::Column;
using recomp::ExecContext;
using recomp::Rng;
using recomp::ThreadPool;
using recomp::exec::ScanSpec;
using recomp::service::QueryService;
using recomp::service::ServiceOptions;
using recomp::service::ServiceStats;
using recomp::store::Table;

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Pool workers of the program under test in dashboard and adhoc: none, so
/// the service's dispatcher runs every batch inline and seals run inside
/// AppendBatch. The host of a small VM steals vCPU time in bursts; a batch
/// fanned out over every vCPU waits for its most delayed part, while one
/// thread waits only for its own vCPU. The ladder's pool rungs measure the
/// parallel path.
constexpr uint64_t kServiceWorkers = 0;
/// Closed-loop time before the measured seconds. Its answers are checked
/// but not timed, so caches, allocator and page tables are warm when timing
/// starts.
constexpr auto kWarmup = std::chrono::seconds(2);
/// In a traced run, queries submitted in odd slices record spans and even
/// slices run untraced; the two halves give the tracing overhead.
constexpr auto kTraceSlice = std::chrono::milliseconds(250);
/// Queries replayed down the ladder in a traced run.
constexpr size_t kLadderSample = 32;
/// Chunk-sized row slices per column timed through ChooseScheme and Compress.
constexpr uint64_t kAnalyzerSlices = 8;
constexpr uint64_t kChunkRows = 64 * 1024;

/// The ingest workload's maintenance policy: a per-tick budget on cold
/// chunks. The default policy has no budget and re-analyzes every sealed
/// chunk on every tick.
recomp::store::RecompressionPolicy BudgetedPolicy() {
  recomp::store::RecompressionPolicy policy;
  policy.max_chunks_per_tick = 1;
  policy.min_age_chunks = 4;
  return policy;
}

/// The program under test. Members are destroyed service → table → pool.
struct Stack {
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<Table> table;
  std::unique_ptr<QueryService> service;

  ExecContext ctx() const { return {pool.get()}; }
  void Reset() {
    service.reset();
    table.reset();
    pool.reset();
  }
};

uint64_t PendingSeals(Table& table) {
  uint64_t pending = 0;
  for (const std::string& name : table.names()) {
    pending += Check(table.column(name), "column")->pending_seals();
  }
  return pending;
}

double UnsealedFraction(const recomp::store::TableSnapshot& snapshot) {
  uint64_t unsealed = 0, all = 0;
  for (uint64_t c = 0; c < snapshot.num_columns(); ++c) {
    unsealed += snapshot.column(c).unsealed_chunks();
    all += snapshot.column(c).unsealed_chunks() + snapshot.column(c).sealed_chunks();
  }
  return Ratio(unsealed, all);
}

double BytesPerUserByte(const Table& table) {
  const auto snapshot = Check(table.Snapshot(), "snapshot");
  uint64_t payload = 0;
  for (uint64_t c = 0; c < snapshot.num_columns(); ++c) {
    payload += snapshot.column(c).chunked().PayloadBytes();
  }
  return Ratio(payload, UserBytes(snapshot.rows()));
}

/// Store-layer samples gathered while setting up and running.
struct StoreSamples {
  std::vector<double> setup_s, setup_flush_ms;
  std::vector<double> flush_ms, snapshot_us, maintenance_ms, unsealed;
  double append_s = 0;
  uint64_t append_bytes = 0;
  uint64_t backlog_max = 0;
  uint64_t saved_bytes = 0, bytes_before = 0;

  void NoteAppend(Table& table, double seconds, uint64_t bytes) {
    append_s += seconds;
    append_bytes += bytes;
    backlog_max = std::max(backlog_max, PendingSeals(table));
  }
  void NoteSnapshot(const Table& table, SpanLog* log) {
    const auto t0 = Clock::now();
    const auto snapshot = Check(table.Snapshot(), "snapshot");
    const auto t1 = Clock::now();
    snapshot_us.push_back(Seconds(t0, t1) * 1e6);
    unsealed.push_back(UnsealedFraction(snapshot));
    log->Record("Snapshot", t0, t1);
  }
  void NoteTick(Table& table, const recomp::store::RecompressionPolicy& policy, SpanLog* log) {
    const auto t0 = Clock::now();
    const auto report = Check(table.MaintenanceTick(policy), "tick");
    const auto t1 = Clock::now();
    maintenance_ms.push_back(Seconds(t0, t1) * 1e3);
    saved_bytes += report.BytesSaved();
    bytes_before += report.bytes_before;
    if (log != nullptr) log->Record("MaintenanceTick", t0, t1);
  }

  void AddMetrics(std::map<std::string, double>* m) const {
    (*m)["store.append_mb_s"] = Ratio(static_cast<double>(append_bytes) / 1e6, append_s);
    (*m)["store.flush_ms"] = Median(flush_ms.empty() ? setup_flush_ms : flush_ms);
    (*m)["store.seal_backlog_max"] = static_cast<double>(backlog_max);
    (*m)["store.unsealed_chunk_frac"] = Median(unsealed);
    (*m)["store.snapshot_us"] = Median(snapshot_us);
    (*m)["store.maintenance_ms"] = Median(maintenance_ms);
    (*m)["store.recompress_saved_frac"] = Ratio(saved_bytes, bytes_before);
  }
};

/// Builds the stack over the bulk rows — Table::Create, AppendBatch, Seal,
/// Flush, QueryService::Create and warm-up queries — and records the
/// set-up time. Data generation happened before and is not counted. The
/// bulk append counts as a store-layer append when `note_append` is set.
void BuildStack(Stack* stack, uint64_t workers, const std::vector<AnyColumn>& bulk,
                const ServiceOptions& options, const std::vector<ScanSpec>& warmup,
                bool note_append, StoreSamples* store) {
  stack->Reset();
  const auto start = Clock::now();
  stack->pool = std::make_unique<ThreadPool>(workers);
  stack->table = std::make_unique<Table>(Check(Table::Create(TableSchema(), stack->ctx()), "create"));
  const uint64_t bytes = UserBytes(bulk[0].size());
  const auto append_start = Clock::now();
  Check(stack->table->AppendBatch(bulk), "bulk append");
  if (note_append) store->NoteAppend(*stack->table, Seconds(append_start, Clock::now()), bytes);
  Check(stack->table->Seal(), "seal");
  const auto flush_start = Clock::now();
  Check(stack->table->Flush(), "flush");
  const auto flushed = Clock::now();
  stack->service = Check(QueryService::Create(stack->table.get(), options, stack->ctx()), "service");
  const uint64_t client = stack->service->RegisterClient();
  for (const ScanSpec& spec : warmup) {
    Check(Check(stack->service->Submit(client, spec), "warm-up submit").get(), "warm-up");
  }
  store->setup_s.push_back(Seconds(start, Clock::now()));
  store->setup_flush_ms.push_back(Seconds(flush_start, flushed) * 1e3);
}

ServiceStats Minus(const ServiceStats& a, const ServiceStats& b) {
  ServiceStats d;
  d.batches = a.batches - b.batches;
  d.queries_executed = a.queries_executed - b.queries_executed;
  d.chunks_decoded = a.chunks_decoded - b.chunks_decoded;
  d.chunk_evaluations = a.chunk_evaluations - b.chunk_evaluations;
  d.selection_cache_hits = a.selection_cache_hits - b.selection_cache_hits;
  d.result_cache_hits = a.result_cache_hits - b.result_cache_hits;
  d.batch_dedup_hits = a.batch_dedup_hits - b.batch_dedup_hits;
  d.subsumed_evaluations = a.subsumed_evaluations - b.subsumed_evaluations;
  return d;
}

void Accumulate(ServiceStats* total, const ServiceStats& d) {
  total->batches += d.batches;
  total->queries_executed += d.queries_executed;
  total->chunks_decoded += d.chunks_decoded;
  total->chunk_evaluations += d.chunk_evaluations;
  total->selection_cache_hits += d.selection_cache_hits;
  total->result_cache_hits += d.result_cache_hits;
  total->batch_dedup_hits += d.batch_dedup_hits;
  total->subsumed_evaluations += d.subsumed_evaluations;
}

/// Registry counters and histograms summed over measured phases only.
struct RegistryTotals {
  uint64_t admitted = 0;
  Buckets queue_wait{};
  recomp::obs::MetricsSnapshot before;

  void Begin() { before = Table::MetricsSnapshot(); }
  void End() {
    const auto after = Table::MetricsSnapshot();
    admitted += after.counter("service.queries.admitted") - before.counter("service.queries.admitted");
    AddBucketDelta(before, after, "service.queue_wait_ns", &queue_wait);
  }
};

/// One answer kept for the oracle.
struct QueryCheck {
  uint64_t spec_id = 0;
  ScanSpec spec;
  Answer answer;
};

/// Checks kept answers against plain evaluation over the first
/// rows_scanned rows. Answers to the same spec over the same rows are
/// evaluated once. Returns the number of mismatches.
uint64_t CheckAnswers(const PlainTable& plain, std::vector<QueryCheck>* checks, unsigned threads,
                      std::string* report) {
  auto key = [](const QueryCheck& c) { return std::make_pair(c.spec_id, c.answer.rows_scanned); };
  std::sort(checks->begin(), checks->end(),
            [&](const QueryCheck& a, const QueryCheck& b) { return key(a) < key(b); });
  std::vector<size_t> firsts;
  for (size_t i = 0; i < checks->size(); ++i) {
    if (i == 0 || key((*checks)[i]) != key((*checks)[i - 1])) firsts.push_back(i);
  }
  std::vector<Answer> expected(firsts.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) {
    pool.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < firsts.size();) {
        const QueryCheck& c = (*checks)[firsts[i]];
        expected[i] = c.answer.rows_scanned <= plain.rows()
                          ? Evaluate(plain, c.spec, c.answer.rows_scanned)
                          : Answer{};
      }
    });
  }
  for (auto& t : pool) t.join();
  uint64_t mismatches = 0;
  for (size_t k = 0; k < firsts.size(); ++k) {
    const size_t end = k + 1 < firsts.size() ? firsts[k + 1] : checks->size();
    for (size_t i = firsts[k]; i < end; ++i) {
      if ((*checks)[i].answer == expected[k]) continue;
      if (mismatches++ == 0) {
        *report += "oracle mismatch: spec " + recomp::exec::CanonicalSpecKey((*checks)[i].spec) +
                   "\n  got      " + (*checks)[i].answer.ToString() + "\n  expected " +
                   expected[k].ToString() + "\n";
      }
    }
  }
  *report += "oracle: " + std::to_string(checks->size()) + " answers checked (" +
             std::to_string(firsts.size()) + " distinct), " + std::to_string(mismatches) +
             " mismatches\n";
  return mismatches;
}

/// What the clients of one closed loop did.
struct LoopStats {
  uint64_t attempted = 0, ok = 0, failed = 0, refused = 0;
  std::vector<double> latency_ms, traced_ms, untraced_ms;
  std::vector<QueryCheck> checks;
  /// Seconds from the phase start to each OK answer.
  std::vector<double> answered_at;
  /// Answers per second in each whole second of the phase (ingest: in each
  /// round); qps is their median, so a short stall of the machine moves it
  /// less than it moves a whole-run average.
  std::vector<double> rates;
  double wall_s = 0;

  void Merge(LoopStats&& o) {
    attempted += o.attempted;
    ok += o.ok;
    failed += o.failed;
    refused += o.refused;
    auto append = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    append(latency_ms, o.latency_ms);
    append(traced_ms, o.traced_ms);
    append(untraced_ms, o.untraced_ms);
    append(answered_at, o.answered_at);
    append(rates, o.rates);
    for (auto& c : o.checks) checks.push_back(std::move(c));
  }
};

/// Submits one query and waits for it; records its latency (Submit to its
/// own completion) when it was submitted at or after `phase_start`, its
/// span when traced, and its answer when sampled. Returns true when the
/// query was answered OK.
bool Ask(QueryService& service, uint64_t client, uint64_t spec_id, ScanSpec spec, bool trace,
         bool traced, bool sampled, uint64_t request, Clock::time_point phase_start, SpanLog* log,
         LoopStats* s) {
  ++s->attempted;
  const auto t0 = Clock::now();
  auto submitted = service.Submit(client, spec);
  if (!submitted.ok()) {
    ++s->failed;
    ++s->refused;
    return false;
  }
  auto result = submitted->get();
  const auto t1 = Clock::now();
  if (traced) log->Record("query", t0, t1, 0, request);
  if (!result.ok()) {
    ++s->failed;
    if (result.status().code() == recomp::StatusCode::kDeadlineExceeded) ++s->refused;
    return false;
  }
  ++s->ok;
  if (t0 >= phase_start) {
    const double ms = Seconds(t0, t1) * 1e3;
    s->latency_ms.push_back(ms);
    s->answered_at.push_back(Seconds(phase_start, t1));
    if (trace) (traced ? s->traced_ms : s->untraced_ms).push_back(ms);
  }
  if (sampled) s->checks.push_back({spec_id, std::move(spec), Summarize(*result)});
  return true;
}

using SpecSource = std::function<std::pair<uint64_t, ScanSpec>(uint64_t client, Rng& rng)>;
using AnswerHook = std::function<void(bool traced)>;

/// C closed-loop clients, one thread each: every client waits for its
/// answer before asking again, through kWarmup and then `seconds` measured
/// seconds. Warm-up answers count as attempts and are checked, not timed.
LoopStats RunClosedLoop(QueryService& service, int clients, const RunConfig& config,
                        SpanLog* log, const SpecSource& next, const AnswerHook& on_answer) {
  std::vector<LoopStats> per(clients);
  std::vector<Clock::time_point> done(clients);
  const auto start = Clock::now();
  const auto measured = start + kWarmup;
  const auto end = measured + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(config.seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(config.seed * 1000003 + static_cast<uint64_t>(c));
      const uint64_t id = service.RegisterClient();
      for (uint64_t seq = 0; Clock::now() < end; ++seq) {
        auto [spec_id, spec] = next(c, rng);
        const bool traced = config.trace && ((Clock::now() - start) / kTraceSlice) % 2 == 1;
        const uint64_t request = (static_cast<uint64_t>(c + 1) << 32) | seq;
        if (Ask(service, id, spec_id, std::move(spec), config.trace, traced,
                Sampled(config.seed, c, seq), request, measured, log, &per[c])) {
          on_answer(traced);
        }
      }
      done[c] = Clock::now();
    });
  }
  for (auto& t : threads) t.join();
  LoopStats total;
  for (auto& s : per) total.Merge(std::move(s));
  total.wall_s = Seconds(measured, *std::max_element(done.begin(), done.end()));
  std::vector<double> per_second(static_cast<size_t>(config.seconds), 0.0);
  for (const double t : total.answered_at) {
    if (t < static_cast<double>(per_second.size())) per_second[static_cast<size_t>(t)] += 1;
  }
  total.rates = per_second.empty() ? std::vector<double>{Ratio(total.ok, total.wall_s)} : per_second;
  return total;
}

/// Chunk-sized slices of rows [begin, end) of every column, timed through
/// the analyzer and through Compress with the chosen descriptor.
void TimeAnalyzer(const PlainTable& plain, uint64_t begin, uint64_t end, uint64_t seed,
                  std::map<std::string, double>* m) {
  Rng rng(seed ^ 0xa11a);
  double analyze_s = 0, compress_s = 0;
  uint64_t chunks = 0;
  for (uint64_t s = 0; s < kAnalyzerSlices; ++s) {
    const uint64_t first = begin + rng.Below(end - begin - kChunkRows);
    for (const auto& col : plain.cols) {
      const AnyColumn slice(Column<uint32_t>(col.begin() + static_cast<int64_t>(first),
                                             col.begin() + static_cast<int64_t>(first + kChunkRows)));
      const auto t0 = Clock::now();
      const auto desc = Check(recomp::ChooseScheme(slice), "ChooseScheme");
      const auto t1 = Clock::now();
      Check(recomp::Compress(slice, desc), "Compress");
      compress_s += Seconds(t1, Clock::now());
      analyze_s += Seconds(t0, t1);
      ++chunks;
    }
  }
  (*m)["core.analyze_us_per_chunk"] = analyze_s * 1e6 / static_cast<double>(chunks);
  (*m)["core.compress_us_per_chunk"] = compress_s * 1e6 / static_cast<double>(chunks);
}

/// Everything a run measured, turned into the reported metrics.
struct Measured {
  LoopStats loop;
  StoreSamples store;
  ServiceStats service;
  RegistryTotals registry;
  uint64_t workers = 1;
  uint64_t mismatches = 0;
  uint64_t other_ops = 0;  // appends and maintenance ticks
  /// Ingest only: the stream's MB/s, median over rounds.
  std::optional<double> ingest_mb_s;
  double bytes_per_user_byte = 0;
  /// Ingest only: median MB/s of traced and of untraced rounds.
  double traced_throughput = 0, untraced_throughput = 0;
};

RunResult Report(const RunConfig& config, const Measured& r) {
  RunResult out;
  const LoopStats& loop = r.loop;
  const uint64_t correct = loop.ok - std::min(loop.ok, r.mismatches);
  out.correct = r.mismatches == 0;
  out.attempted = loop.attempted + r.other_ops;
  out.failed = loop.failed + r.mismatches;
  auto& e = out.end_to_end;
  e["setup_s"] = Median(r.store.setup_s);
  e["qps"] = Median(loop.rates) * Ratio(correct, loop.ok);
  e["p50_ms"] = Quantile(loop.latency_ms, 0.5);
  // p90, not p99: in a slow phase of the host the run-to-run spread of p99
  // reached 0.27 of its median, above the largest bound (see NOTES.md).
  e["p90_ms"] = Quantile(loop.latency_ms, 0.9);
  e["success_frac"] = Ratio(correct, loop.attempted);
  if (r.ingest_mb_s) e["ingest_mb_s"] = *r.ingest_mb_s;
  e["bytes_per_user_byte"] = r.bytes_per_user_byte;
  e["peak_rss_mb"] = PeakRssMb();

  auto& m = out.per_layer;
  const ServiceStats& s = r.service;
  m["service.queries_per_batch"] = Ratio(s.queries_executed, s.batches);
  m["service.sharing_ratio"] = s.sharing_ratio();
  m["service.decodes_per_query"] = Ratio(s.chunks_decoded, s.queries_executed);
  m["service.result_hit_frac"] = Ratio(s.result_cache_hits, r.registry.admitted);
  m["service.dedup_frac"] = Ratio(s.batch_dedup_hits, r.registry.admitted);
  m["service.selection_hit_frac"] = Ratio(s.selection_cache_hits, s.chunk_evaluations);
  m["service.subsumed_frac"] = Ratio(s.subsumed_evaluations, s.chunk_evaluations);
  m["service.queue_wait_ms"] = BucketMedianMs(r.registry.queue_wait);
  m["service.refused_frac"] = Ratio(loop.refused, loop.attempted);
  r.store.AddMetrics(&m);
  if (config.trace) {
    // Traced and untraced queries ran in alternating slices (or rounds) of
    // equal length.
    m["trace.overhead_p50_frac"] =
        Ratio(Quantile(loop.traced_ms, 0.5), Quantile(loop.untraced_ms, 0.5)) - 1;
    m["trace.overhead_throughput_frac"] =
        r.untraced_throughput > 0 ? 1 - Ratio(r.traced_throughput, r.untraced_throughput)
                                  : 1 - Ratio(static_cast<double>(loop.traced_ms.size()),
                                              static_cast<double>(loop.untraced_ms.size()));
  }

  char line[256];
  std::snprintf(line, sizeof(line),
                "%s: %llu queries (%llu ok, %llu failed) in %.2f s, %zu latency samples "
                "(%zu beyond p90), %llu other operations, %llu pool workers\n",
                config.workload.c_str(), static_cast<unsigned long long>(loop.attempted),
                static_cast<unsigned long long>(loop.ok), static_cast<unsigned long long>(loop.failed),
                loop.wall_s, loop.latency_ms.size(), loop.latency_ms.size() / 10,
                static_cast<unsigned long long>(r.other_ops),
                static_cast<unsigned long long>(r.workers));
  out.report += line;
  std::snprintf(line, sizeof(line), "latency ms: p50 %.2f p90 %.2f p95 %.2f p99 %.2f\n",
                Quantile(loop.latency_ms, 0.5), Quantile(loop.latency_ms, 0.9),
                Quantile(loop.latency_ms, 0.95), Quantile(loop.latency_ms, 0.99));
  out.report += line;
  std::snprintf(line, sizeof(line),
                "service: %llu admitted, %llu executed in %llu batches, %llu result-cache hits, "
                "%llu deduplicated\n",
                static_cast<unsigned long long>(r.registry.admitted),
                static_cast<unsigned long long>(s.queries_executed),
                static_cast<unsigned long long>(s.batches),
                static_cast<unsigned long long>(s.result_cache_hits),
                static_cast<unsigned long long>(s.batch_dedup_hits));
  out.report += line;
  return out;
}

/// Traced-run extras of the read-mostly workloads: Table::Snapshot timings,
/// one budgeted maintenance tick and the analyzer timings.
void TraceStoreExtras(Stack& stack, const PlainTable& plain, uint64_t seed, SpanLog* log,
                      StoreSamples* store, std::map<std::string, double>* m) {
  for (int i = 0; i < 16; ++i) store->NoteSnapshot(*stack.table, log);
  store->NoteTick(*stack.table, BudgetedPolicy(), log);
  store->AddMetrics(m);
  TimeAnalyzer(plain, 0, plain.rows(), seed, m);
}

void Ladder(const RunConfig& config, Stack& stack, std::vector<ScanSpec> sample,
            const ServiceOptions& options, const ServiceStats& observed, SpanLog* log,
            RunResult* out) {
  LadderInput input;
  input.table = stack.table.get();
  input.sample = std::move(sample);
  input.pool_workers = std::max(1u, config.nproc - 1);
  input.options = options;
  input.window = static_cast<uint64_t>(Ratio(observed.queries_executed, observed.batches) + 0.5);
  out->report += RunLadder(input, log, &out->per_layer);
}

}  // namespace

// ---------------------------------------------------------------------------
// dashboard: C clients on 32 Zipf-popular panels; a small append every N
// answered queries bumps the version, which purges every service cache.

RunResult RunDashboard(const RunConfig& config, SpanLog* log) {
  constexpr uint64_t kBaseRows = uint64_t{2} << 20;
  constexpr int kClients = 8;
  constexpr uint64_t kAppendEvery = 8;
  constexpr uint64_t kAppendRows = 512;
  Measured r;
  r.workers = kServiceWorkers;
  PlainTable plain;
  RowGenerator gen(config.seed);
  const auto bulk = gen.Next(kBaseRows, &plain);
  const ServiceOptions options;

  // The panels slide with the newest date: each covers a fixed number of
  // days, so the work per query stays level while appends land. A panel's
  // spec id joins its index to the newest date it was made for.
  std::mutex panels_mu;
  uint32_t newest = plain.max_date();
  auto panels = std::make_shared<const std::vector<ScanSpec>>(DashboardPanels(config.seed, newest));

  Stack stack;
  for (int i = 0; i < kSetups; ++i) {
    BuildStack(&stack, r.workers, bulk, options, *panels, false, &r.store);
  }

  const recomp::ZipfSampler popularity(panels->size(), 1.0);
  std::mutex append_mu;
  std::atomic<uint64_t> answered{0};
  auto next = [&](uint64_t, Rng& rng) {
    const uint64_t panel = popularity.Sample(rng);
    std::lock_guard<std::mutex> lock(panels_mu);
    return std::make_pair(uint64_t{newest} << 8 | panel, (*panels)[panel]);
  };
  auto on_answer = [&](bool traced) {
    if ((answered.fetch_add(1) + 1) % kAppendEvery != 0) return;
    std::lock_guard<std::mutex> lock(append_mu);
    const auto batch = gen.Next(kAppendRows, &plain);
    const auto t0 = Clock::now();
    Check(stack.table->AppendBatch(batch), "append");
    const auto t1 = Clock::now();
    ++r.other_ops;
    if (plain.max_date() != newest) {
      auto slid = std::make_shared<const std::vector<ScanSpec>>(
          DashboardPanels(config.seed, plain.max_date()));
      std::lock_guard<std::mutex> swap(panels_mu);
      newest = plain.max_date();
      panels = std::move(slid);
    }
    if (!traced) return;
    log->Record("AppendBatch", t0, t1);
    r.store.NoteAppend(*stack.table, Seconds(t0, t1), UserBytes(kAppendRows));
    r.store.NoteSnapshot(*stack.table, log);
  };

  const ServiceStats before = stack.service->stats();
  r.registry.Begin();
  r.loop = RunClosedLoop(*stack.service, kClients, config, log, next, on_answer);
  r.registry.End();
  r.service = Minus(stack.service->stats(), before);
  Check(stack.table->Flush(), "flush");
  r.bytes_per_user_byte = BytesPerUserByte(*stack.table);

  std::string report;
  r.mismatches = CheckAnswers(plain, &r.loop.checks, config.nproc, &report);
  RunResult out = Report(config, r);
  out.report += report;
  if (config.trace) {
    Rng rng(config.seed + 77);
    std::vector<ScanSpec> sample;
    for (size_t i = 0; i < kLadderSample; ++i) sample.push_back((*panels)[popularity.Sample(rng)]);
    TraceStoreExtras(stack, plain, config.seed, log, &r.store, &out.per_layer);
    Ladder(config, stack, std::move(sample), options, r.service, log, &out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// adhoc: C clients send only unique date-window + amount-band specs against
// a read-only table whose filter columns decode to several times the
// decoded-chunk budget.

RunResult RunAdhoc(const RunConfig& config, SpanLog* log) {
  constexpr uint64_t kRows = uint64_t{4} << 20;
  constexpr int kClients = 4;
  Measured r;
  r.workers = kServiceWorkers;
  PlainTable plain;
  RowGenerator gen(config.seed);
  const auto bulk = gen.Next(kRows, &plain);
  ServiceOptions options;
  options.decoded_cache_bytes = uint64_t{4} << 20;
  // Entries hold positions and values; the default 65,536-entry cap would
  // let unique specs grow the cache to gigabytes.
  options.selection_cache_capacity = 512;
  std::vector<ScanSpec> warmup;
  Rng warm(config.seed ^ 0x3a3a);
  for (int i = 0; i < 16; ++i) warmup.push_back(AdhocSpec(plain, warm));

  Stack stack;
  for (int i = 0; i < kSetups; ++i) {
    BuildStack(&stack, r.workers, bulk, options, warmup, true, &r.store);
  }
  r.bytes_per_user_byte = BytesPerUserByte(*stack.table);

  std::atomic<uint64_t> spec_ids{0};
  auto next = [&](uint64_t, Rng& rng) {
    return std::make_pair(spec_ids.fetch_add(1), AdhocSpec(plain, rng));
  };
  const ServiceStats before = stack.service->stats();
  r.registry.Begin();
  r.loop = RunClosedLoop(*stack.service, kClients, config, log, next, [](bool) {});
  r.registry.End();
  r.service = Minus(stack.service->stats(), before);

  std::string report;
  r.mismatches = CheckAnswers(plain, &r.loop.checks, config.nproc, &report);
  RunResult out = Report(config, r);
  out.report += report;
  if (config.trace) {
    Rng rng(config.seed + 77);
    std::vector<ScanSpec> sample;
    for (size_t i = 0; i < kLadderSample; ++i) sample.push_back(AdhocSpec(plain, rng));
    TraceStoreExtras(stack, plain, config.seed, log, &r.store, &out.per_layer);
    Ladder(config, stack, std::move(sample), options, r.service, log, &out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// ingest: rounds of one writer streaming fixed-size batches onto a bulk-
// loaded base, a budgeted MaintenanceTick every M batches, and one reader
// asking a freshness query every K batches. A round ends when Flush returns.

RunResult RunIngest(const RunConfig& config, SpanLog* log) {
  constexpr uint64_t kBaseRows = uint64_t{1} << 20;
  constexpr uint64_t kBatchRows = 16 * 1024;
  constexpr uint64_t kBatches = 256;
  constexpr uint64_t kTickEvery = 4;
  constexpr uint64_t kReadEvery = 1;
  constexpr int kMinRounds = 3;
  Measured r;
  // The writer and the reader are the load threads.
  r.workers = std::max(1u, config.nproc - 2);
  PlainTable plain;
  RowGenerator gen(config.seed);
  const auto bulk = gen.Next(kBaseRows, &plain);
  const uint32_t base_newest = plain.max_date();
  std::vector<std::vector<AnyColumn>> batches;
  std::vector<uint32_t> newest;
  for (uint64_t i = 0; i < kBatches; ++i) {
    batches.push_back(gen.Next(kBatchRows, &plain));
    newest.push_back(plain.max_date());
  }
  const ServiceOptions options;
  const auto policy = BudgetedPolicy();
  const uint64_t stream_bytes = UserBytes(kBatchRows * kBatches);

  Stack stack;
  std::vector<double> ingest_mb_s, traced_mb_s, untraced_mb_s, bytes_ratio;
  const auto run_start = Clock::now();
  for (int round = 0; round < kMinRounds || Seconds(run_start, Clock::now()) < config.seconds;
       ++round) {
    const bool traced = config.trace && round % 2 == 1;
    BuildStack(&stack, r.workers, bulk, options, {FreshnessSpec(base_newest)}, false, &r.store);
    const ServiceStats before = stack.service->stats();

    std::mutex mu;
    std::condition_variable cv;
    uint64_t written = 0;
    bool done = false;
    LoopStats reader_stats;
    r.registry.Begin();
    const auto phase_start = Clock::now();
    std::thread reader([&] {
      const uint64_t client = stack.service->RegisterClient();
      uint64_t next_at = kReadEvery;
      for (uint64_t seq = 0;; ++seq) {
        uint64_t at = 0;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return done || written >= next_at; });
          if (done) break;
          at = written;
        }
        if (traced) r.store.NoteSnapshot(*stack.table, log);
        const uint64_t spec_id = static_cast<uint64_t>(round) << 32 | seq;
        Ask(*stack.service, client, spec_id, FreshnessSpec(newest[at - 1]), config.trace, traced,
            true, spec_id + 1, phase_start, log, &reader_stats);
        next_at = at + kReadEvery;
      }
    });

    const auto write_start = Clock::now();
    for (uint64_t i = 0; i < kBatches; ++i) {
      const auto t0 = Clock::now();
      Check(stack.table->AppendBatch(batches[i]), "append");
      const auto t1 = Clock::now();
      if (traced) {
        log->Record("AppendBatch", t0, t1);
        r.store.NoteAppend(*stack.table, Seconds(t0, t1), UserBytes(kBatchRows));
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        written = i + 1;
      }
      cv.notify_one();
      if ((i + 1) % kTickEvery == 0) r.store.NoteTick(*stack.table, policy, traced ? log : nullptr);
    }
    const auto f0 = Clock::now();
    Check(stack.table->Flush(), "flush");
    const auto flushed = Clock::now();
    if (traced) log->Record("Flush", f0, flushed);
    r.store.flush_ms.push_back(Seconds(f0, flushed) * 1e3);
    ingest_mb_s.push_back(static_cast<double>(stream_bytes) / 1e6 / Seconds(write_start, flushed));
    (traced ? traced_mb_s : untraced_mb_s).push_back(ingest_mb_s.back());
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_one();
    reader.join();
    const double phase_s = Seconds(phase_start, Clock::now());
    r.registry.End();
    reader_stats.wall_s = phase_s;
    reader_stats.rates = {Ratio(reader_stats.ok, phase_s)};
    Accumulate(&r.service, Minus(stack.service->stats(), before));
    bytes_ratio.push_back(BytesPerUserByte(*stack.table));
    r.other_ops += kBatches + kBatches / kTickEvery;
    const double wall = r.loop.wall_s + reader_stats.wall_s;
    r.loop.Merge(std::move(reader_stats));
    r.loop.wall_s = wall;
  }
  r.ingest_mb_s = Median(ingest_mb_s);
  r.bytes_per_user_byte = Median(bytes_ratio);
  if (config.trace) {
    r.traced_throughput = Median(traced_mb_s);
    r.untraced_throughput = Median(untraced_mb_s);
  }

  std::string report;
  r.mismatches = CheckAnswers(plain, &r.loop.checks, config.nproc, &report);
  RunResult out = Report(config, r);
  out.report += "ingest: " + std::to_string(ingest_mb_s.size()) + " rounds of " +
                std::to_string(kBatches) + " batches x " + std::to_string(kBatchRows) +
                " rows; MB/s per round:";
  auto append_all = [&out](const std::vector<double>& values) {
    for (const double v : values) out.report.append(" ").append(std::to_string(static_cast<int>(v)));
  };
  append_all(ingest_mb_s);
  out.report += "; queries/s per round:";
  append_all(r.loop.rates);
  out.report += "\n";
  out.report += report;
  if (config.trace) {
    Rng rng(config.seed + 77);
    std::vector<ScanSpec> sample;
    for (size_t i = 0; i < kLadderSample; ++i) sample.push_back(FreshnessSpec(newest[rng.Below(kBatches)]));
    TimeAnalyzer(plain, kBaseRows, plain.rows(), config.seed, &out.per_layer);
    Ladder(config, stack, std::move(sample), options, r.service, log, &out);
  }
  return out;
}

}  // namespace perfbench
