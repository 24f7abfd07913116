// Serving queries: many clients, one shared-scan pass per window.
//
// A QueryService sits in front of a live table. Clients register, submit
// ScanSpecs, and get futures back; queries landing inside one batching
// window execute as one batch — each chunk two or more of them need is
// fused-decoded once, every such query's predicate evaluates against the
// shared decoded buffer, and selection vectors for repeated predicates are
// recycled outright. Identical specs go further still: within a window
// only the first executes (the rest deduplicate onto it), and across
// windows the result cache answers a repeated spec at the same data
// version without touching the pipeline at all. Admission control
// (per-client in-flight caps, a bounded queue, deadlines) keeps an
// overload from queueing unbounded work. Answers are bit-identical to
// running each spec solo.

#include <cstdio>
#include <vector>

#include "exec/scan.h"
#include "gen/generators.h"
#include "service/query_service.h"
#include "store/table.h"
#include "util/thread_pool.h"

int main() {
  using namespace recomp;
  using exec::AggregateOp;
  using exec::ScanSpec;
  using service::QueryService;
  using service::ServiceOptions;

  ThreadPool pool(ThreadPool::DefaultThreadCount());
  const ExecContext ctx{&pool, 1};

  // Orders: uniform keys and amounts, sealed so every chunk is compressed.
  auto table = store::Table::Create(
      {{"key", TypeId::kUInt32, {64 * 1024}, ""},
       {"amount", TypeId::kUInt32, {64 * 1024}, ""}},
      ctx);
  if (!table.ok()) return 1;
  constexpr uint64_t kRows = 512 * 1024;
  constexpr uint64_t kBound = 1u << 20;
  if (!table
           ->AppendBatch({AnyColumn(gen::Uniform(kRows, kBound, 21)),
                          AnyColumn(gen::Uniform(kRows, kBound, 22))})
           .ok()) {
    return 1;
  }
  if (!table->Seal().ok() || !table->Flush().ok()) return 1;

  // The service: a 500us admission window, per-client cap of 32 in-flight.
  ServiceOptions options;
  options.batch_window = std::chrono::microseconds(500);
  options.max_in_flight_per_client = 32;
  auto service = QueryService::Create(&*table, options, ctx);
  if (!service.ok()) return 1;
  QueryService& svc = **service;

  // Eight "dashboard" clients re-issuing four distinct predicates — the
  // repeated-predicate shape where selection-vector reuse shines.
  std::vector<uint64_t> clients;
  for (int c = 0; c < 8; ++c) clients.push_back(svc.RegisterClient());
  std::vector<QueryService::ResultFuture> futures;
  for (int q = 0; q < 32; ++q) {
    const uint64_t lo = kBound / 8 + (q % 4) * (kBound / 6);
    ScanSpec spec;
    spec.Filter("key", {lo, lo + kBound / 16})
        .Aggregate("amount", AggregateOp::kSum);
    auto future = svc.Submit(clients[q % clients.size()], spec);
    if (!future.ok()) {
      std::printf("refused: %s\n", future.status().ToString().c_str());
      continue;
    }
    futures.push_back(std::move(*future));
  }

  // Futures resolve once the window's shared pass completes.
  for (size_t q = 0; q < futures.size(); ++q) {
    auto result = futures[q].get();
    if (!result.ok()) {
      std::printf("query %zu failed: %s\n", q,
                  result.status().ToString().c_str());
      continue;
    }
    // The answer is shared with the result cache: read it, never copy it.
    const QueryService::Answer& answer = *result;
    if (q % 8 == 0) {
      std::printf("query %2zu: %llu of %llu rows matched, sum=%llu\n", q,
                  static_cast<unsigned long long>(answer->rows_matched),
                  static_cast<unsigned long long>(answer->rows_scanned),
                  static_cast<unsigned long long>(
                      answer->aggregates[0].value()));
    }
  }

  // The shared-scan win, straight from the service accounting: of the 32
  // submitted queries only the distinct specs executed (the rest were
  // deduplicated or served from the result cache), and those executions
  // shared their decodes.
  const service::ServiceStats stats = svc.stats();
  std::printf(
      "\n%llu executed + %llu deduplicated + %llu cache hits in %llu "
      "batches: %llu chunk evaluations over %llu decodes "
      "(sharing ratio %.1fx)\n",
      static_cast<unsigned long long>(stats.queries_executed),
      static_cast<unsigned long long>(stats.batch_dedup_hits),
      static_cast<unsigned long long>(stats.result_cache_hits),
      static_cast<unsigned long long>(stats.batches),
      static_cast<unsigned long long>(stats.chunk_evaluations),
      static_cast<unsigned long long>(stats.chunks_decoded),
      stats.sharing_ratio());

  svc.Stop();
  return 0;
}
