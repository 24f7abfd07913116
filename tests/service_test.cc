// QueryService: admission control, deadlines, shared-scan batching, and the
// recycled-intermediate caches (selection vectors, decoded chunks).
//
// The load-bearing property is semantic: every batched result must be
// bit-identical (exec::ScanOutputsEqual) to running the same spec through
// solo exec::Scan against the same snapshot — batching is an execution
// strategy, never a semantic change. Around that: admission refusals carry
// the right status codes, queued queries expire against their deadlines,
// version bumps invalidate the selection-vector cache, and the sharing
// ratio actually materializes (more chunk evaluations than decodes).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "exec/scan.h"
#include "obs/metrics.h"
#include "service/query_service.h"
#include "service/result_cache.h"
#include "service/shared_scan.h"
#include "store/table.h"
#include "test_util.h"
#include "util/macros.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace recomp {
namespace {

using exec::AggregateOp;
using exec::RangePredicate;
using exec::ScanOutputsEqual;
using exec::ScanSpec;
using exec::SelectionKey;
using exec::SelectionVectorCache;
using service::QueryService;
using service::ServiceOptions;
using store::Table;

constexpr uint64_t kChunk = 1024;
constexpr uint64_t kValueBound = 100000;

/// A two-column table: "k" uniform (the filter column), "v" uniform (the
/// projected/aggregated column), `rows` rows in kChunk-row chunks, sealed.
Result<Table> MakeTable(uint64_t rows, uint64_t seed, ExecContext ctx = {}) {
  RECOMP_ASSIGN_OR_RETURN(
      Table table, Table::Create({{"k", TypeId::kUInt32, {kChunk}, ""},
                                  {"v", TypeId::kUInt32, {kChunk}, ""}},
                                 ctx));
  const Column<uint32_t> k =
      testutil::UniformColumn<uint32_t>(rows, kValueBound, seed);
  const Column<uint32_t> v =
      testutil::UniformColumn<uint32_t>(rows, kValueBound, seed + 1);
  RECOMP_RETURN_NOT_OK(table.AppendBatch({AnyColumn(k), AnyColumn(v)}));
  RECOMP_RETURN_NOT_OK(table.Flush());
  return table;
}

/// A pseudo-random spec drawn from a few families: filter-only,
/// filter+projection, filter+aggregate, filterless aggregate, limited.
ScanSpec RandomSpec(Rng& rng) {
  const uint64_t lo = rng.Below(kValueBound);
  const uint64_t hi = lo + rng.Below(kValueBound / 4);
  ScanSpec spec;
  switch (rng.Below(5)) {
    case 0:
      spec.Filter("k", {lo, hi});
      break;
    case 1:
      spec.Filter("k", {lo, hi}).Project({"v"});
      break;
    case 2:
      spec.Filter("k", {lo, hi}).Aggregate("v", AggregateOp::kSum);
      break;
    case 3:
      spec.Aggregate("v", AggregateOp::kMax)
          .Aggregate("k", AggregateOp::kCount);
      break;
    default:
      spec.Filter("k", {lo, hi}).Project({"v"}).Limit(1 + rng.Below(500));
      break;
  }
  return spec;
}

/// Options under which every window holds exactly `queries` queries: the
/// window outlasts any test, and the batch size cuts it.
ServiceOptions WindowOf(uint64_t queries) {
  ServiceOptions options;
  options.batch_window = std::chrono::microseconds(600 * 1000 * 1000);
  options.max_batch_queries = queries;
  return options;
}

/// Submits `specs` for one client and returns the answers, in order.
std::vector<Result<QueryService::Answer>> RunAll(
    QueryService& svc, const std::vector<ScanSpec>& specs) {
  const uint64_t client = svc.RegisterClient();
  std::vector<QueryService::ResultFuture> futures;
  for (const ScanSpec& spec : specs) {
    auto future = svc.Submit(client, spec);
    EXPECT_OK(future.status());
    if (future.ok()) futures.push_back(std::move(*future));
  }
  std::vector<Result<QueryService::Answer>> results;
  for (auto& future : futures) results.push_back(future.get());
  return results;
}

TEST(ServiceTest, BatchedResultsMatchSoloScan) {
  auto table = MakeTable(16 * 1024, 901);
  ASSERT_OK(table.status());
  auto service = QueryService::Create(&*table);
  ASSERT_OK(service.status());
  QueryService& svc = **service;

  auto snap = table->Snapshot();
  ASSERT_OK(snap.status());

  Rng rng(902);
  std::vector<ScanSpec> specs;
  std::vector<QueryService::ResultFuture> futures;
  const uint64_t client = svc.RegisterClient();
  for (int q = 0; q < 24; ++q) {
    specs.push_back(RandomSpec(rng));
    auto future = svc.Submit(client, specs.back());
    ASSERT_OK(future.status());
    futures.push_back(std::move(*future));
  }
  for (size_t q = 0; q < futures.size(); ++q) {
    Result<QueryService::Answer> batched = futures[q].get();
    ASSERT_OK(batched.status()) << "query " << q;
    auto solo = exec::Scan(*snap, specs[q]);
    ASSERT_OK(solo.status()) << "query " << q;
    EXPECT_TRUE(ScanOutputsEqual(*batched, *solo)) << "query " << q;
  }
  // Every admitted query was answered by exactly one of: execution, an
  // identical companion in its batch, or the result cache.
  const service::ServiceStats stats = svc.stats();
  EXPECT_GE(stats.queries_executed + stats.batch_dedup_hits +
                stats.result_cache_hits,
            futures.size());
}

TEST(ServiceTest, AdmissionRejectsUnknownClientsAndStoppedService) {
  auto table = MakeTable(kChunk, 903);
  ASSERT_OK(table.status());
  auto service = QueryService::Create(&*table);
  ASSERT_OK(service.status());
  QueryService& svc = **service;

  ScanSpec spec;
  spec.Aggregate("v", AggregateOp::kCount);
  const auto unknown = svc.Submit(77, spec);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kKeyError);

  const uint64_t client = svc.RegisterClient();
  svc.Stop();
  const auto stopped = svc.Submit(client, spec);
  ASSERT_FALSE(stopped.ok());
  EXPECT_EQ(stopped.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServiceTest, AdmissionEnforcesPerClientInFlightLimit) {
  auto table = MakeTable(kChunk, 904);
  ASSERT_OK(table.status());
  ServiceOptions options;
  options.max_in_flight_per_client = 2;
  // A wide-open window parks submissions in the queue so the limit binds.
  options.batch_window = std::chrono::microseconds(200 * 1000);
  auto service = QueryService::Create(&*table, options);
  ASSERT_OK(service.status());
  QueryService& svc = **service;

  ScanSpec spec;
  spec.Aggregate("v", AggregateOp::kCount);
  const uint64_t a = svc.RegisterClient();
  const uint64_t b = svc.RegisterClient();
  auto f1 = svc.Submit(a, spec);
  auto f2 = svc.Submit(a, spec);
  ASSERT_OK(f1.status());
  ASSERT_OK(f2.status());
  const auto refused = svc.Submit(a, spec);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  // Another client is unaffected: the limit is per client.
  auto f3 = svc.Submit(b, spec);
  ASSERT_OK(f3.status());

  // Once the batch executes, the client's slots free up again.
  ASSERT_OK(f1->get().status());
  ASSERT_OK(f2->get().status());
  auto f4 = svc.Submit(a, spec);
  EXPECT_OK(f4.status());
}

TEST(ServiceTest, AdmissionEnforcesGlobalQueueDepth) {
  auto table = MakeTable(kChunk, 905);
  ASSERT_OK(table.status());
  ServiceOptions options;
  options.max_queue_depth = 3;
  options.batch_window = std::chrono::microseconds(200 * 1000);
  auto service = QueryService::Create(&*table, options);
  ASSERT_OK(service.status());
  QueryService& svc = **service;

  ScanSpec spec;
  spec.Aggregate("v", AggregateOp::kCount);
  std::vector<QueryService::ResultFuture> futures;
  // Distinct clients, so only the global queue bound can refuse. The
  // dispatcher may pick up the first window's queries at any moment, so
  // keep submitting until a refusal lands — it must be ResourceExhausted.
  Status refused = Status::OK();
  for (int i = 0; i < 64 && refused.ok(); ++i) {
    auto future = svc.Submit(svc.RegisterClient(), spec);
    if (future.ok()) {
      futures.push_back(std::move(*future));
    } else {
      refused = future.status();
    }
  }
  ASSERT_FALSE(refused.ok()) << "queue bound never bound";
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  for (auto& future : futures) EXPECT_OK(future.get().status());
}

TEST(ServiceTest, QueuedDeadlineExpiresWithoutExecuting) {
  auto table = MakeTable(kChunk, 906);
  ASSERT_OK(table.status());
  ServiceOptions options;
  options.batch_window = std::chrono::microseconds(20 * 1000);
  auto service = QueryService::Create(&*table, options);
  ASSERT_OK(service.status());
  QueryService& svc = **service;

  ScanSpec spec;
  spec.Aggregate("v", AggregateOp::kCount);
  const uint64_t client = svc.RegisterClient();
  // An already-expired deadline: the window holds the query long enough
  // that pickup happens strictly after it.
  auto expired = svc.Submit(client, spec, std::chrono::nanoseconds(0));
  ASSERT_OK(expired.status());
  // A generous deadline on the same window must still execute.
  auto alive = svc.Submit(client, spec, std::chrono::seconds(60));
  ASSERT_OK(alive.status());

  Result<QueryService::Answer> expired_result = expired->get();
  ASSERT_FALSE(expired_result.ok());
  EXPECT_EQ(expired_result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_OK(alive->get().status());
}

TEST(ServiceTest, PerQueryErrorsFailOnlyTheirSlotAndNameTheColumn) {
  auto table = MakeTable(4 * kChunk, 907);
  ASSERT_OK(table.status());
  auto service = QueryService::Create(&*table);
  ASSERT_OK(service.status());
  QueryService& svc = **service;

  const uint64_t client = svc.RegisterClient();
  ScanSpec good;
  good.Filter("k", {0, kValueBound / 2}).Aggregate("v", AggregateOp::kSum);
  ScanSpec bad;
  bad.Filter("nope", {0, 10});
  auto good_future = svc.Submit(client, good);
  auto bad_future = svc.Submit(client, bad);
  ASSERT_OK(good_future.status());
  ASSERT_OK(bad_future.status());

  EXPECT_OK(good_future->get().status());
  Result<QueryService::Answer> bad_result = bad_future->get();
  ASSERT_FALSE(bad_result.ok());
  EXPECT_EQ(bad_result.status().code(), StatusCode::kKeyError);
  EXPECT_NE(bad_result.status().message().find("filter column 'nope'"),
            std::string::npos)
      << bad_result.status().ToString();
}

TEST(ServiceTest, SelectionCacheHitsAcrossQueriesAndInvalidatesOnVersion) {
  SelectionVectorCache cache(/*capacity=*/8);
  exec::SelectionResult entry;
  entry.positions = {1, 5, 9};
  const SelectionKey key{0, 2, 10, 20};

  EXPECT_EQ(cache.Find(1, key), nullptr);
  cache.Insert(1, key, entry);
  const SelectionVectorCache::Handle out = cache.Find(1, key);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->positions, entry.positions);
  EXPECT_EQ(cache.size(), 1u);

  // A newer version purges everything; the old entry is gone even when the
  // old version asks again (stale versions never resurrect).
  EXPECT_EQ(cache.Find(2, key), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.version(), 2u);
  EXPECT_EQ(cache.Find(1, key), nullptr);
  cache.Insert(1, key, entry);  // Stale insert: dropped.
  EXPECT_EQ(cache.size(), 0u);

  // FIFO eviction at capacity, once the batch ends.
  for (uint64_t i = 0; i < 10; ++i) {
    cache.Insert(3, {0, i, 0, 5}, entry);
  }
  cache.EvictToBudget();
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.Find(3, {0, 0, 0, 5}), nullptr);  // Oldest two evicted.
  EXPECT_EQ(cache.Find(3, {0, 1, 0, 5}), nullptr);
  EXPECT_NE(cache.Find(3, {0, 2, 0, 5}), nullptr);

  // Capacity 0 keeps nothing past the batch.
  SelectionVectorCache disabled(0);
  disabled.Insert(1, key, entry);
  disabled.EvictToBudget();
  EXPECT_EQ(disabled.Find(1, key), nullptr);
  EXPECT_EQ(disabled.size(), 0u);
}

TEST(ServiceTest, AppendInvalidatesCachedSelectionsAndResultsStayFresh) {
  auto table = MakeTable(8 * kChunk, 908);
  ASSERT_OK(table.status());
  auto service = QueryService::Create(&*table);
  ASSERT_OK(service.status());
  QueryService& svc = **service;

  ScanSpec spec;
  spec.Filter("k", {0, kValueBound / 3});
  const uint64_t client = svc.RegisterClient();

  auto first = svc.Submit(client, spec);
  ASSERT_OK(first.status());
  Result<QueryService::Answer> before = first->get();
  ASSERT_OK(before.status());

  // Append rows that all match the filter: the version bumps, cached
  // selection vectors for the old version must not leak into the answer.
  const uint64_t appended = 3 * kChunk;
  Column<uint32_t> extra_k(appended, 1);
  Column<uint32_t> extra_v(appended, 2);
  ASSERT_OK(table->AppendBatch({AnyColumn(extra_k), AnyColumn(extra_v)}));
  ASSERT_OK(table->Flush());

  auto second = svc.Submit(client, spec);
  ASSERT_OK(second.status());
  Result<QueryService::Answer> after = second->get();
  ASSERT_OK(after.status());
  EXPECT_EQ((*after)->rows_scanned, (*before)->rows_scanned + appended);
  EXPECT_EQ((*after)->rows_matched, (*before)->rows_matched + appended);

  // And the batched answer still matches solo execution post-append.
  auto snap = table->Snapshot();
  ASSERT_OK(snap.status());
  auto solo = exec::Scan(*snap, spec);
  ASSERT_OK(solo.status());
  EXPECT_TRUE(ScanOutputsEqual(*after, *solo));
}

TEST(ServiceTest, SharedDecodingBeatsPerQueryDecoding) {
  auto table = MakeTable(16 * kChunk, 909);
  ASSERT_OK(table.status());
  ServiceOptions options;
  options.batch_window = std::chrono::microseconds(50 * 1000);
  // Identical specs would dedup onto one execution; this test is about the
  // decode sharing underneath, so make all eight actually run.
  options.result_cache_bytes = 0;
  auto service = QueryService::Create(&*table, options);
  ASSERT_OK(service.status());
  QueryService& svc = **service;

  // Eight filter queries over the same column: wherever the batching falls,
  // the decoded-chunk and selection caches guarantee each chunk decodes at
  // most once per version while every query still evaluates it.
  const uint64_t client = svc.RegisterClient();
  std::vector<QueryService::ResultFuture> futures;
  for (int q = 0; q < 8; ++q) {
    ScanSpec spec;
    // Mid-range: every chunk straddles both bounds, so none is zone-pruned
    // or contained — each one genuinely selects against decoded values.
    spec.Filter("k", {1000, kValueBound / 2});
    auto future = svc.Submit(client, spec);
    ASSERT_OK(future.status());
    futures.push_back(std::move(*future));
  }
  for (auto& future : futures) ASSERT_OK(future.get().status());

  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.queries_executed, 8u);
  EXPECT_GT(stats.chunk_evaluations, 0u);
  EXPECT_GT(stats.chunks_decoded, 0u);
  // 8 queries × 16 chunks of evaluations over at most 16 decodes.
  EXPECT_GE(stats.sharing_ratio(), 4.0)
      << "evaluations=" << stats.chunk_evaluations
      << " decodes=" << stats.chunks_decoded;
  EXPECT_LE(stats.chunks_decoded, 16u);
}

TEST(ServiceTest, ZeroSelectionCacheCapacityBuildsNoCache) {
  auto table = MakeTable(8 * kChunk, 914);
  ASSERT_OK(table.status());
  auto snap = table->Snapshot();
  ASSERT_OK(snap.status());
  // Windows of two identical queries. Without result caching (and so
  // without in-window dedup) both execute and share every chunk: each
  // window computes a chunk's selection once for both, and only a retained
  // selection cache could carry it into the next window.
  ServiceOptions options = WindowOf(2);
  options.selection_cache_capacity = 0;
  options.result_cache_bytes = 0;
  auto service = QueryService::Create(&*table, options);
  ASSERT_OK(service.status());
  QueryService& svc = **service;

  ScanSpec spec;
  spec.Filter("k", {1000, kValueBound / 2}).Project({"v"});
  auto solo = exec::Scan(*snap, spec);
  ASSERT_OK(solo.status());
  for (int window = 0; window < 3; ++window) {
    for (const auto& result : RunAll(svc, {spec, spec})) {
      ASSERT_OK(result.status()) << "window " << window;
      EXPECT_TRUE(ScanOutputsEqual(*result, *solo)) << "window " << window;
    }
  }
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.queries_executed, 6u);
  EXPECT_GT(stats.chunk_evaluations, 0u);
  EXPECT_EQ(stats.selection_cache_hits, 0u);
}

TEST(ServiceTest, ServiceMetricsLandInTheRegistry) {
  const obs::MetricsSnapshot before = Table::MetricsSnapshot();
  auto table = MakeTable(4 * kChunk, 910);
  ASSERT_OK(table.status());
  auto service = QueryService::Create(&*table, WindowOf(2));
  ASSERT_OK(service.status());
  QueryService& svc = **service;

  // Two distinct specs in one window over the same mid-range band: no
  // chunk is zone-contained, so both evaluate every chunk of "k", which
  // makes each chunk shared and decoded once.
  ScanSpec filter;
  filter.Filter("k", {1000, kValueBound / 2});
  ScanSpec project = filter;
  project.Project({"v"});
  for (const auto& result : RunAll(svc, {filter, project})) {
    ASSERT_OK(result.status());
  }
  svc.Flush();

  const obs::MetricsSnapshot after = Table::MetricsSnapshot();
  EXPECT_GT(after.counter("service.queries.admitted"),
            before.counter("service.queries.admitted"));
  EXPECT_GT(after.counter("service.queries.succeeded"),
            before.counter("service.queries.succeeded"));
  EXPECT_GT(after.counter("service.batches"),
            before.counter("service.batches"));
  EXPECT_GT(after.counter("service.chunk_evaluations"),
            before.counter("service.chunk_evaluations"));
  EXPECT_GT(after.counter("service.chunks_decoded"),
            before.counter("service.chunks_decoded"));
}

/// Per filter, the same zone-map and strategy counters as solo exec::Scan;
/// per gathered column, the same point-access paths.
void ExpectSoloExecution(const exec::ScanResult& got,
                         const exec::ScanResult& solo) {
  ASSERT_EQ(got.filters.size(), solo.filters.size());
  for (size_t f = 0; f < got.filters.size(); ++f) {
    const exec::ChunkedSelectionStats& a = got.filters[f].stats;
    const exec::ChunkedSelectionStats& b = solo.filters[f].stats;
    EXPECT_EQ(a.chunks_pruned, b.chunks_pruned);
    EXPECT_EQ(a.chunks_full, b.chunks_full);
    EXPECT_EQ(a.chunks_executed, b.chunks_executed);
    EXPECT_EQ(a.values_decoded, b.values_decoded);
    for (int s = 0; s < exec::kNumStrategies; ++s) {
      EXPECT_EQ(a.strategy_chunks[s], b.strategy_chunks[s])
          << exec::StrategyName(static_cast<exec::Strategy>(s));
    }
  }
  ASSERT_EQ(got.projections.size(), solo.projections.size());
  for (size_t p = 0; p < got.projections.size(); ++p) {
    const exec::GatherStats& a = got.projections[p].gather;
    const exec::GatherStats& b = solo.projections[p].gather;
    EXPECT_EQ(a.chunks_touched, b.chunks_touched);
    for (int s = 0; s < exec::kNumStrategies; ++s) {
      EXPECT_EQ(a.strategy_rows[s], b.strategy_rows[s])
          << exec::StrategyName(static_cast<exec::Strategy>(s));
    }
  }
}

TEST(ServiceTest, QueriesOnDisjointChunksRunTheirPushdownStrategies) {
  // "k" climbs in runs of 16 rows (64 values per chunk), so each band
  // touches only its own chunks, where its pushdown filters runs (rle-runs)
  // and "v" gathers by point access (ns-direct), never decompress-scan.
  Column<uint32_t> k(8 * kChunk);
  for (uint32_t i = 0; i < k.size(); ++i) k[i] = i / 16;
  auto table = Table::Create({{"k", TypeId::kUInt32, {kChunk}, ""},
                              {"v", TypeId::kUInt32, {kChunk}, ""}});
  ASSERT_OK(table.status());
  ASSERT_OK(table->AppendBatch(
      {AnyColumn(k), AnyColumn(testutil::UniformColumn<uint32_t>(
                         k.size(), kValueBound, 918))}));
  ASSERT_OK(table->Flush());
  auto snap = table->Snapshot();
  ASSERT_OK(snap.status());
  auto service = QueryService::Create(&*table, WindowOf(2));
  ASSERT_OK(service.status());
  QueryService& svc = **service;

  ScanSpec early;
  early.Filter("k", {10, 90}).Project({"v"});
  ScanSpec late;
  late.Filter("k", {260, 330}).Project({"v"}).Aggregate("v", AggregateOp::kSum);
  const std::vector<ScanSpec> specs{early, late};
  const auto results = RunAll(svc, specs);
  for (size_t q = 0; q < specs.size(); ++q) {
    SCOPED_TRACE(testing::Message() << "query " << q);
    ASSERT_OK(results[q].status());
    auto solo = exec::Scan(*snap, specs[q]);
    ASSERT_OK(solo.status());
    EXPECT_TRUE(ScanOutputsEqual(*results[q], *solo));
    ExpectSoloExecution(*results[q], *solo);
    const int decompress = static_cast<int>(exec::Strategy::kDecompressScan);
    EXPECT_EQ((*results[q])->filters[0].stats.strategy_chunks[decompress],
              0u);
    EXPECT_EQ((*results[q])->projections[0].gather.strategy_rows[decompress],
              0u);
  }
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.queries_executed, 2u);
  EXPECT_EQ(stats.chunks_decoded, 0u);
  EXPECT_EQ(stats.chunk_evaluations, 0u);
}

TEST(ServiceTest, QueriesOnTheSameChunksDecodeEachOnceAndSubsume) {
  auto table = MakeTable(8 * kChunk, 919);
  ASSERT_OK(table.status());
  auto snap = table->Snapshot();
  ASSERT_OK(snap.status());
  auto service = QueryService::Create(&*table, WindowOf(2));
  ASSERT_OK(service.status());
  QueryService& svc = **service;

  // Mid-range bands on uniform values: neither prunes or contains a chunk,
  // so both queries read every chunk of "k" and gather "v" from every
  // chunk. The narrow band sits strictly inside the wide one.
  ScanSpec wide;
  wide.Filter("k", {1000, kValueBound / 2}).Project({"v"});
  ScanSpec narrow;
  narrow.Filter("k", {2000, kValueBound / 4}).Project({"v"});
  const std::vector<ScanSpec> specs{wide, narrow};
  const auto results = RunAll(svc, specs);
  for (size_t q = 0; q < specs.size(); ++q) {
    ASSERT_OK(results[q].status()) << "query " << q;
    auto solo = exec::Scan(*snap, specs[q]);
    ASSERT_OK(solo.status());
    EXPECT_TRUE(ScanOutputsEqual(*results[q], *solo)) << "query " << q;
  }
  const uint64_t chunks = snap->column(0).chunked().num_chunks();
  ASSERT_EQ(chunks, 8u);
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.batches, 1u);
  // Each touched chunk of "k" and of "v" decoded exactly once.
  EXPECT_EQ(stats.chunks_decoded, 2 * chunks);
  // Both bands evaluated every chunk; the narrow one re-filtered the wide
  // one's selection instead of scanning.
  EXPECT_EQ(stats.chunk_evaluations, 2 * chunks);
  EXPECT_EQ(stats.subsumed_evaluations, chunks);
}

TEST(ServiceTest, SharedChunksRunTheirPushdownStrategies) {
  // "k" is pinned to RLE-NS and cycles through 0..63 in runs of 16 rows, so
  // every chunk's zone map is [0, 63] and both bands below overlap every
  // chunk without containing it: the two queries share every chunk of "k".
  Column<uint32_t> k(8 * kChunk);
  for (uint32_t i = 0; i < k.size(); ++i) k[i] = (i / 16) % 64;
  store::IngestOptions ingest;
  ingest.chunk_rows = kChunk;
  auto table = Table::Create({{"k", TypeId::kUInt32, ingest, "RLE-NS"},
                              {"v", TypeId::kUInt32, ingest, ""}});
  ASSERT_OK(table.status());
  ASSERT_OK(table->AppendBatch(
      {AnyColumn(k), AnyColumn(testutil::UniformColumn<uint32_t>(
                         k.size(), kValueBound, 920))}));
  ASSERT_OK(table->Flush());
  auto snap = table->Snapshot();
  ASSERT_OK(snap.status());
  const uint64_t chunks = snap->column(0).chunked().num_chunks();
  ASSERT_EQ(chunks, 8u);
  // Without the result cache both queries of each window execute, and the
  // second window can only reuse the first one's selections.
  ServiceOptions options = WindowOf(2);
  options.result_cache_bytes = 0;
  auto service = QueryService::Create(&*table, options);
  ASSERT_OK(service.status());
  QueryService& svc = **service;

  ScanSpec low;
  low.Filter("k", {10, 40});
  ScanSpec high;
  high.Filter("k", {20, 50});
  const std::vector<ScanSpec> specs{low, high};
  for (int window = 0; window < 2; ++window) {
    const auto results = RunAll(svc, specs);
    for (size_t q = 0; q < specs.size(); ++q) {
      SCOPED_TRACE(testing::Message()
                   << "window " << window << " query " << q);
      ASSERT_OK(results[q].status());
      auto solo = exec::Scan(*snap, specs[q]);
      ASSERT_OK(solo.status());
      EXPECT_TRUE(ScanOutputsEqual(*results[q], *solo));
      ExpectSoloExecution(*results[q], *solo);
      const int runs = static_cast<int>(exec::Strategy::kRleRuns);
      EXPECT_EQ((*results[q])->filters[0].stats.strategy_chunks[runs],
                chunks);
    }
    const service::ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.batches, window + 1u);
    EXPECT_EQ(stats.chunk_evaluations, (window + 1) * 2 * chunks);
    // Filter-only specs over pushdown chunks decode nothing.
    EXPECT_EQ(stats.chunks_decoded, 0u);
    // The second window finds every band's selection cached.
    EXPECT_EQ(stats.selection_cache_hits, window * 2 * chunks);
  }
}

TEST(ServiceTest, NestedBandReadsItsContainerWithoutItsDecodedChunk) {
  // "k" pinned to NS, which has a direct access path, and to DELTA-NS,
  // which has none.
  for (const bool direct : {true, false}) {
    const char* scheme = direct ? "NS" : "DELTA-NS";
    SCOPED_TRACE(scheme);
    store::IngestOptions ingest;
    ingest.chunk_rows = kChunk;
    auto table = Table::Create({{"k", TypeId::kUInt32, ingest, scheme},
                                {"v", TypeId::kUInt32, ingest, ""}});
    ASSERT_OK(table.status());
    ASSERT_OK(table->AppendBatch(
        {AnyColumn(testutil::UniformColumn<uint32_t>(8 * kChunk, kValueBound,
                                                     921)),
         AnyColumn(testutil::UniformColumn<uint32_t>(8 * kChunk, kValueBound,
                                                     922))}));
    ASSERT_OK(table->Flush());
    auto snap = table->Snapshot();
    ASSERT_OK(snap.status());
    const uint64_t chunks = snap->column(0).chunked().num_chunks();
    ASSERT_EQ(chunks, 8u);
    // No decoded chunk outlives its window, and no answer is reused.
    ServiceOptions options = WindowOf(3);
    options.decoded_cache_bytes = 0;
    options.result_cache_bytes = 0;
    auto service = QueryService::Create(&*table, options);
    ASSERT_OK(service.status());
    QueryService& svc = **service;

    // Mid-range bands on uniform values: no chunk is pruned or contained.
    // `low` and `high` sit strictly inside `wide`, not inside each other.
    ScanSpec wide;
    wide.Filter("k", {1000, kValueBound / 2});
    ScanSpec low;
    low.Filter("k", {2000, kValueBound / 4});
    ScanSpec high;
    high.Filter("k", {kValueBound / 4 + 1, kValueBound / 2 - 1000});
    const auto expect_solo = [&](const std::vector<ScanSpec>& specs) {
      const auto results = RunAll(svc, specs);
      for (size_t q = 0; q < specs.size(); ++q) {
        ASSERT_OK(results[q].status()) << "query " << q;
        auto solo = exec::Scan(*snap, specs[q]);
        ASSERT_OK(solo.status());
        EXPECT_TRUE(ScanOutputsEqual(*results[q], *solo)) << "query " << q;
      }
    };

    // Window 1: the wide band thrice shares and decodes every chunk of "k".
    expect_solo({wide, wide, wide});
    const service::ServiceStats first = svc.stats();
    EXPECT_EQ(first.chunks_decoded, chunks);
    EXPECT_EQ(first.subsumed_evaluations, 0u);

    // Window 2: the wide band's selections come from the selection cache,
    // and both nested bands re-read the wide band's rows, the chunks'
    // decoded buffers being gone. NS reads them by direct access and
    // decodes nothing; DELTA-NS decodes each chunk again exactly once, and
    // counts it, however many nested bands read it.
    expect_solo({wide, low, high});
    const service::ServiceStats second = svc.stats();
    EXPECT_EQ(second.batches, 2u);
    EXPECT_EQ(second.subsumed_evaluations, 2 * chunks);
    EXPECT_EQ(second.chunks_decoded,
              first.chunks_decoded + (direct ? 0 : chunks));
  }
}

TEST(ServiceTest, DeadlinePastTheClockRangeMeansNoDeadline) {
  auto table = MakeTable(4 * kChunk, 920);
  ASSERT_OK(table.status());
  auto snap = table->Snapshot();
  ASSERT_OK(snap.status());
  auto service = QueryService::Create(&*table);
  ASSERT_OK(service.status());
  QueryService& svc = **service;

  ScanSpec spec;
  spec.Filter("k", {1000, kValueBound / 2}).Aggregate("v", AggregateOp::kSum);
  auto future = svc.Submit(svc.RegisterClient(), spec,
                           std::chrono::nanoseconds::max());
  ASSERT_OK(future.status());
  Result<QueryService::Answer> result = future->get();
  ASSERT_OK(result.status());
  auto solo = exec::Scan(*snap, spec);
  ASSERT_OK(solo.status());
  EXPECT_TRUE(ScanOutputsEqual(*result, *solo));
}

TEST(ServiceTest, WindowPastTheClockRangeStillDispatches) {
  auto table = MakeTable(kChunk, 921);
  ASSERT_OK(table.status());
  ServiceOptions options;
  options.batch_window = std::chrono::microseconds::max();
  options.max_batch_queries = 1;
  auto service = QueryService::Create(&*table, options);
  ASSERT_OK(service.status());
  QueryService& svc = **service;

  ScanSpec spec;
  spec.Aggregate("v", AggregateOp::kCount);
  auto future = svc.Submit(svc.RegisterClient(), spec);
  ASSERT_OK(future.status());
  Result<QueryService::Answer> result = future->get();
  ASSERT_OK(result.status());
  EXPECT_EQ((*result)->aggregates[0].value(), kChunk);
}

TEST(ServiceTest, StopDrainsQueuedQueriesBeforeJoining) {
  auto table = MakeTable(2 * kChunk, 911);
  ASSERT_OK(table.status());
  ServiceOptions options;
  options.batch_window = std::chrono::microseconds(10 * 1000 * 1000);  // 10s.
  auto service = QueryService::Create(&*table, options);
  ASSERT_OK(service.status());
  QueryService& svc = **service;

  ScanSpec spec;
  spec.Aggregate("v", AggregateOp::kCount);
  const uint64_t client = svc.RegisterClient();
  std::vector<QueryService::ResultFuture> futures;
  for (int q = 0; q < 5; ++q) {
    auto future = svc.Submit(client, spec);
    ASSERT_OK(future.status());
    futures.push_back(std::move(*future));
  }
  // Stop must cut the 10s window short AND answer everything queued.
  svc.Stop();
  for (auto& future : futures) {
    Result<QueryService::Answer> result = future.get();
    ASSERT_OK(result.status());
    EXPECT_EQ((*result)->aggregates[0].value(), 2 * kChunk);
  }
}

TEST(ServiceTest, ScanPositionsAllocatedAtFinalSize) {
  auto table = MakeTable(16 * kChunk, 913);
  ASSERT_OK(table.status());
  auto snapshot = table->Snapshot();
  ASSERT_OK(snapshot.status());
  // One, two and three filters (wide bands, so most ranges stay live), each
  // without a limit, with one inside the first live range and with one
  // cutting a later range.
  std::vector<ScanSpec> specs;
  for (const uint64_t limit :
       {ScanSpec::kNoLimit, uint64_t{5}, uint64_t{3000}}) {
    ScanSpec one, two, three;
    one.Filter("k", {1000, 80000}).Limit(limit);
    two.Filter("k", {1000, 80000}).Filter("v", {5000, 95000}).Limit(limit);
    three.Filter("k", {1000, 80000})
        .Filter("v", {5000, 95000})
        .Filter("k", {20000, 99000})
        .Limit(limit);
    specs.insert(specs.end(), {one, two, three});
  }
  auto service = QueryService::Create(&*table);
  ASSERT_OK(service.status());
  const auto answers = RunAll(**service, specs);
  ASSERT_EQ(answers.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const auto solo = exec::Scan(*snapshot, specs[i]);
    ASSERT_OK(solo.status());
    ASSERT_OK(answers[i].status());
    EXPECT_GT(solo->positions.size(), 0u) << i;
    EXPECT_EQ(solo->positions.capacity(), solo->positions.size()) << i;
    const exec::ScanResult& served = *answers[i];
    EXPECT_EQ(served.positions, solo->positions) << i;
    EXPECT_EQ(served.positions.capacity(), served.positions.size()) << i;
  }
}

TEST(ServiceTest, CanonicalSpecKeyNormalizesConjunctionOrderOnly) {
  ScanSpec ab;
  ab.Filter("a", {1, 5}).Filter("b", {2, 6});
  ScanSpec ba;
  ba.Filter("b", {2, 6}).Filter("a", {1, 5});
  // A conjunction commutes, so filter order must not split cache entries.
  EXPECT_EQ(exec::CanonicalSpecKey(ab), exec::CanonicalSpecKey(ba));

  ScanSpec other_band;
  other_band.Filter("a", {1, 6}).Filter("b", {2, 6});
  EXPECT_NE(exec::CanonicalSpecKey(ab), exec::CanonicalSpecKey(other_band));

  // Projection order shapes the output and must stay significant.
  ScanSpec p1, p2;
  p1.Project({"a", "b"});
  p2.Project({"b", "a"});
  EXPECT_NE(exec::CanonicalSpecKey(p1), exec::CanonicalSpecKey(p2));

  ScanSpec limited = ab;
  limited.Limit(10);
  EXPECT_NE(exec::CanonicalSpecKey(ab), exec::CanonicalSpecKey(limited));
}

TEST(ServiceTest, ResultCacheBudgetsBytesAndInvalidatesOnVersion) {
  exec::ScanResult result;
  result.rows_scanned = 100;
  result.rows_matched = 3;
  result.positions = {1, 5, 9};
  const uint64_t entry_bytes = service::ApproxResultBytes(result);
  ASSERT_GT(entry_bytes, 0u);

  // Room for two entries, not three: the window's end evicts the oldest.
  service::ResultCache cache(2 * entry_bytes + entry_bytes / 2);
  EXPECT_EQ(cache.Find(1, "a"), nullptr);
  cache.Insert(1, "a", result);
  const service::ResultCache::Handle out = cache.Find(1, "a");
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->positions, result.positions);
  EXPECT_EQ(out->rows_matched, result.rows_matched);
  cache.Insert(1, "b", result);
  EXPECT_EQ(cache.size(), 2u);
  cache.Insert(1, "c", result);
  cache.EvictToBudget();
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Find(1, "a"), nullptr);  // FIFO: oldest evicted.
  EXPECT_NE(cache.Find(1, "b"), nullptr);
  EXPECT_NE(cache.Find(1, "c"), nullptr);
  EXPECT_LE(cache.cost(), 2 * entry_bytes + entry_bytes / 2);

  // A newer version purges everything; stale inserts never resurrect.
  EXPECT_EQ(cache.Find(2, "b"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.cost(), 0u);
  EXPECT_EQ(cache.version(), 2u);
  cache.Insert(1, "stale", result);
  EXPECT_EQ(cache.size(), 0u);

  // An entry alone exceeding the budget is not kept; 0 keeps nothing.
  service::ResultCache tiny(8);
  tiny.Insert(1, "big", result);
  tiny.EvictToBudget();
  EXPECT_EQ(tiny.size(), 0u);
  service::ResultCache disabled(0);
  disabled.Insert(1, "x", result);
  disabled.EvictToBudget();
  EXPECT_EQ(disabled.Find(1, "x"), nullptr);
}

TEST(ServiceTest, ResultCacheServesRepeatedSpecsWithoutExecuting) {
  const obs::MetricsSnapshot before = Table::MetricsSnapshot();
  auto table = MakeTable(8 * kChunk, 913);
  ASSERT_OK(table.status());
  auto service = QueryService::Create(&*table);
  ASSERT_OK(service.status());
  QueryService& svc = **service;

  ScanSpec spec;
  spec.Filter("k", {1000, kValueBound / 2}).Project({"v"});
  const uint64_t client = svc.RegisterClient();
  auto first = svc.Submit(client, spec);
  ASSERT_OK(first.status());
  Result<QueryService::Answer> cold = first->get();
  ASSERT_OK(cold.status());
  svc.Flush();
  const uint64_t executed_cold = svc.stats().queries_executed;

  // The same spec at the same data version: answered from the result cache,
  // bit-identical, with no new execution.
  auto second = svc.Submit(client, spec);
  ASSERT_OK(second.status());
  Result<QueryService::Answer> warm = second->get();
  ASSERT_OK(warm.status());
  EXPECT_TRUE(ScanOutputsEqual(*warm, *cold));
  auto snap = table->Snapshot();
  ASSERT_OK(snap.status());
  auto solo = exec::Scan(*snap, spec);
  ASSERT_OK(solo.status());
  EXPECT_TRUE(ScanOutputsEqual(*warm, *solo));

  const service::ServiceStats stats = svc.stats();
  EXPECT_GE(stats.result_cache_hits, 1u);
  EXPECT_EQ(stats.queries_executed, executed_cold);
  const obs::MetricsSnapshot after = Table::MetricsSnapshot();
  EXPECT_GE(after.counter("service.result_cache.hits"),
            before.counter("service.result_cache.hits") + 1);
}

TEST(ServiceTest, IdenticalSpecsInOneWindowExecuteOnce) {
  auto table = MakeTable(8 * kChunk, 914);
  ASSERT_OK(table.status());
  ServiceOptions options;
  options.batch_window = std::chrono::microseconds(50 * 1000);
  auto service = QueryService::Create(&*table, options);
  ASSERT_OK(service.status());
  QueryService& svc = **service;

  ScanSpec spec;
  spec.Filter("k", {1000, kValueBound / 2}).Aggregate("v", AggregateOp::kSum);
  const uint64_t client = svc.RegisterClient();
  std::vector<QueryService::ResultFuture> futures;
  for (int q = 0; q < 8; ++q) {
    auto future = svc.Submit(client, spec);
    ASSERT_OK(future.status());
    futures.push_back(std::move(*future));
  }
  auto snap = table->Snapshot();
  ASSERT_OK(snap.status());
  auto solo = exec::Scan(*snap, spec);
  ASSERT_OK(solo.status());
  for (auto& future : futures) {
    Result<QueryService::Answer> result = future.get();
    ASSERT_OK(result.status());
    EXPECT_TRUE(ScanOutputsEqual(*result, *solo));
  }
  // Wherever the batching fell, only the FIRST occurrence executed: its
  // window companions deduplicated onto it, later windows hit the cache.
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.queries_executed, 1u);
  EXPECT_EQ(stats.batch_dedup_hits + stats.result_cache_hits, 7u);
}

TEST(ServiceTest, NestedBandsEvaluateOverContainingSelection) {
  const obs::MetricsSnapshot before = Table::MetricsSnapshot();
  auto table = MakeTable(8 * kChunk, 915);
  ASSERT_OK(table.status());
  ServiceOptions options;
  options.batch_window = std::chrono::microseconds(50 * 1000);
  auto service = QueryService::Create(&*table, options);
  ASSERT_OK(service.status());
  QueryService& svc = **service;

  // Mid-range bands so no chunk zone-prunes or zone-contains; the narrow
  // band sits strictly inside the wide one, so it must evaluate by
  // re-filtering the wide band's selection, never touching the chunks.
  ScanSpec wide;
  wide.Filter("k", {1000, kValueBound / 2});
  ScanSpec narrow;
  narrow.Filter("k", {2000, kValueBound / 4}).Project({"v"});
  const uint64_t client = svc.RegisterClient();
  auto wide_future = svc.Submit(client, wide);
  auto narrow_future = svc.Submit(client, narrow);
  ASSERT_OK(wide_future.status());
  ASSERT_OK(narrow_future.status());

  auto snap = table->Snapshot();
  ASSERT_OK(snap.status());
  Result<QueryService::Answer> wide_batched = wide_future->get();
  ASSERT_OK(wide_batched.status());
  auto wide_solo = exec::Scan(*snap, wide);
  ASSERT_OK(wide_solo.status());
  EXPECT_TRUE(ScanOutputsEqual(*wide_batched, *wide_solo));
  Result<QueryService::Answer> narrow_batched = narrow_future->get();
  ASSERT_OK(narrow_batched.status());
  auto narrow_solo = exec::Scan(*snap, narrow);
  ASSERT_OK(narrow_solo.status());
  EXPECT_TRUE(ScanOutputsEqual(*narrow_batched, *narrow_solo));
  svc.Flush();
  EXPECT_GT(svc.stats().subsumed_evaluations, 0u);
  const obs::MetricsSnapshot after = Table::MetricsSnapshot();
  EXPECT_GT(after.counter("service.subsumed_evaluations"),
            before.counter("service.subsumed_evaluations"));
}

TEST(ServiceTest, QueuedDeadlineTighterThanWindowCutsTheWindowEarly) {
  const obs::MetricsSnapshot before = Table::MetricsSnapshot();
  auto table = MakeTable(2 * kChunk, 916);
  ASSERT_OK(table.status());
  ServiceOptions options;
  // A 10-second window: without the early cut, the query would sit queued
  // past its 500ms deadline and be refused at pickup (or the test would
  // time out waiting) — exactly the pre-fix dispatcher bug.
  options.batch_window = std::chrono::microseconds(10 * 1000 * 1000);
  auto service = QueryService::Create(&*table, options);
  ASSERT_OK(service.status());
  QueryService& svc = **service;

  ScanSpec spec;
  spec.Filter("k", {1000, kValueBound / 2}).Aggregate("v", AggregateOp::kSum);
  const uint64_t client = svc.RegisterClient();
  auto future = svc.Submit(client, spec, std::chrono::milliseconds(500));
  ASSERT_OK(future.status());
  ASSERT_EQ(future->wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "dispatcher held the full window despite the tighter deadline";
  EXPECT_OK(future->get().status());

  const obs::MetricsSnapshot after = Table::MetricsSnapshot();
  EXPECT_GE(after.counter("service.window_early_cuts"),
            before.counter("service.window_early_cuts") + 1);
}

TEST(ServiceTest, DeadlineMissedDuringExecutionIsDeadlineExceeded) {
  const obs::MetricsSnapshot before = Table::MetricsSnapshot();
  auto table = MakeTable(2 * kChunk, 917);
  ASSERT_OK(table.status());

  // Wedge both pool workers so the batch (whose second query fans out to
  // the pool) cannot finish until well past the queries' deadlines.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  for (int i = 0; i < 2; ++i) {
    pool.Submit([&release] {
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  while (pool.active_workers() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  ServiceOptions options;
  options.batch_window = std::chrono::microseconds(100 * 1000);
  auto service =
      QueryService::Create(&*table, options, ExecContext{&pool, 1});
  ASSERT_OK(service.status());
  QueryService& svc = **service;

  // Two DISTINCT specs: dedup must not collapse them, so the batch fans out
  // and its pool task blocks behind the wedge. Both deadlines comfortably
  // outlast the pickup (so the queued-expiry path stays silent) and expire
  // mid-execution.
  ScanSpec a;
  a.Filter("k", {1000, kValueBound / 2});
  ScanSpec b;
  b.Filter("k", {1000, kValueBound / 2}).Project({"v"});
  const uint64_t client = svc.RegisterClient();
  auto fa = svc.Submit(client, a, std::chrono::milliseconds(400));
  auto fb = svc.Submit(client, b, std::chrono::milliseconds(400));
  ASSERT_OK(fa.status());
  ASSERT_OK(fb.status());

  std::thread releaser([&release] {
    std::this_thread::sleep_for(std::chrono::milliseconds(900));
    release.store(true, std::memory_order_release);
  });
  Result<QueryService::Answer> ra = fa->get();
  Result<QueryService::Answer> rb = fb->get();
  releaser.join();

  // Pre-fix, both came back OK: the deadline was only checked at pickup.
  ASSERT_FALSE(ra.ok());
  EXPECT_EQ(ra.status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_FALSE(rb.ok());
  EXPECT_EQ(rb.status().code(), StatusCode::kDeadlineExceeded);

  const obs::MetricsSnapshot after = Table::MetricsSnapshot();
  EXPECT_GE(after.counter("service.deadline_missed_in_flight"),
            before.counter("service.deadline_missed_in_flight") + 2);
  EXPECT_EQ(after.counter("service.queries.deadline_expired"),
            before.counter("service.queries.deadline_expired"));
}

TEST(ServiceTest, OptionsValidate) {
  auto table = MakeTable(kChunk, 912);
  ASSERT_OK(table.status());
  ServiceOptions bad;
  bad.max_batch_queries = 0;
  EXPECT_FALSE(QueryService::Create(&*table, bad).ok());
  bad = ServiceOptions{};
  bad.max_queue_depth = 0;
  EXPECT_FALSE(QueryService::Create(&*table, bad).ok());
  bad = ServiceOptions{};
  bad.max_in_flight_per_client = 0;
  EXPECT_FALSE(QueryService::Create(&*table, bad).ok());
  EXPECT_FALSE(QueryService::Create(nullptr).ok());
}

}  // namespace
}  // namespace recomp
