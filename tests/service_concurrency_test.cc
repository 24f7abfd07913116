// QueryService under concurrency: clients racing submits against live
// ingest (AppendBatch/Seal/MaintenanceTick), and a fuzz sweep asserting
// batched execution is bit-identical to solo exec::Scan and to a
// plain-array oracle across pool sizes and batching windows. The CI
// thread-sanitizer job runs the full suite, so every interleaving exercised
// here must be TSan-clean.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/fused.h"
#include "exec/scan.h"
#include "service/query_service.h"
#include "service/shared_scan.h"
#include "store/table.h"
#include "test_util.h"
#include "util/macros.h"
#include "util/random.h"

namespace recomp {
namespace {

using exec::AggregateOp;
using exec::ScanOutputsEqual;
using exec::ScanSpec;
using service::QueryService;
using service::ServiceOptions;
using store::Table;

constexpr uint64_t kChunk = 1024;
constexpr uint64_t kValueBound = 1u << 20;

TEST(ServiceConcurrencyTest, SubmitsRaceAppendsSealsAndMaintenance) {
  constexpr uint64_t kRows = 24 * 1024;
  constexpr uint64_t kBatchRows = 1024;
  const Column<uint32_t> all_k =
      testutil::UniformColumn<uint32_t>(kRows, kValueBound, 1101);
  const Column<uint32_t> all_v =
      testutil::UniformColumn<uint32_t>(kRows, kValueBound, 1102);
  // Prefix sums let clients verify SUM over any consistent prefix in O(1).
  std::vector<uint64_t> prefix_sum(kRows + 1, 0);
  for (uint64_t i = 0; i < kRows; ++i) {
    prefix_sum[i + 1] = prefix_sum[i] + all_v[i];
  }

  ThreadPool pool(4);
  auto table = Table::Create({{"k", TypeId::kUInt32, {kChunk}, ""},
                              {"v", TypeId::kUInt32, {kChunk}, ""}},
                             ExecContext{&pool, 1});
  ASSERT_OK(table.status());
  ServiceOptions options;
  options.batch_window = std::chrono::microseconds(100);
  auto service =
      QueryService::Create(&*table, options, ExecContext{&pool, 1});
  ASSERT_OK(service.status());
  QueryService& svc = **service;

  std::atomic<bool> done{false};
  std::atomic<uint64_t> queries_checked{0};

  // Clients: every answer must reflect a consistent prefix of the appended
  // rows — rows_scanned is the prefix length, the v-sum must match its
  // prefix sum exactly. The all-pass filter keeps the selection path (and
  // the selection cache, invalidating on every append) in the race; the two
  // spec shapes repeat constantly, so the result cache serves hits between
  // version bumps and its invalidation races AppendBatch the whole run — a
  // stale cached result would break the prefix-sum invariant immediately.
  auto client_loop = [&](uint64_t seed) {
    Rng rng(seed);
    const uint64_t client = svc.RegisterClient();
    while (!done.load(std::memory_order_acquire)) {
      ScanSpec spec;
      if (rng.Below(2) == 0) {
        spec.Filter("k", {0, kValueBound}).Aggregate("v", AggregateOp::kSum);
      } else {
        spec.Aggregate("v", AggregateOp::kSum)
            .Aggregate("v", AggregateOp::kCount);
      }
      auto future = svc.Submit(client, spec);
      if (!future.ok()) {
        // Admission may refuse under overload; only those codes are legal.
        ASSERT_EQ(future.status().code(), StatusCode::kResourceExhausted);
        std::this_thread::yield();
        continue;
      }
      Result<QueryService::Answer> result = future->get();
      ASSERT_OK(result.status());
      const uint64_t n = (*result)->rows_scanned;
      ASSERT_LE(n, kRows);
      ASSERT_EQ(n % kBatchRows, 0u) << "snapshot cut mid-append";
      if (spec.filters().empty()) {
        ASSERT_EQ((*result)->aggregates[0].value(), prefix_sum[n]);
        ASSERT_EQ((*result)->aggregates[1].value(), n);
      } else {
        ASSERT_EQ((*result)->rows_matched, n) << "all-pass filter dropped rows";
        ASSERT_EQ((*result)->aggregates[0].value(), prefix_sum[n]);
      }
      queries_checked.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> clients;
  for (uint64_t t = 0; t < 2; ++t) {
    clients.emplace_back(client_loop, 1200 + t);
  }

  // Writer: appends batch by batch, racing seals and maintenance ticks into
  // the mix (representation-only work that must never disturb answers).
  for (uint64_t begin = 0; begin < kRows; begin += kBatchRows) {
    Column<uint32_t> batch_k(all_k.begin() + begin,
                             all_k.begin() + begin + kBatchRows);
    Column<uint32_t> batch_v(all_v.begin() + begin,
                             all_v.begin() + begin + kBatchRows);
    ASSERT_OK(table->AppendBatch({AnyColumn(batch_k), AnyColumn(batch_v)}));
    if ((begin / kBatchRows) % 5 == 2) ASSERT_OK(table->Seal());
    if ((begin / kBatchRows) % 7 == 3) {
      EXPECT_OK(table->MaintenanceTick().status());
    }
    std::this_thread::yield();
  }
  ASSERT_OK(table->Flush());

  // Let the clients observe the final state at least once before stopping.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  done.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();
  svc.Stop();

  EXPECT_GT(queries_checked.load(), 0u);

  // The fully-appended table answers with every row.
  auto snap = table->Snapshot();
  ASSERT_OK(snap.status());
  ScanSpec final_spec;
  final_spec.Aggregate("v", AggregateOp::kSum);
  auto final_result = exec::Scan(*snap, final_spec);
  ASSERT_OK(final_result.status());
  EXPECT_EQ(final_result->aggregates[0].value(), prefix_sum[kRows]);
}

/// A pseudo-random spec mixing filters, projections, aggregates, limits.
ScanSpec FuzzSpec(Rng& rng) {
  const uint64_t lo = rng.Below(kValueBound);
  const uint64_t hi = lo + rng.Below(kValueBound / 3);
  ScanSpec spec;
  switch (rng.Below(6)) {
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
      spec.Filter("k", {lo, hi})
          .Filter("v", {0, kValueBound / 2})
          .Aggregate("k", AggregateOp::kMin);
      break;
    case 4:
      spec.Aggregate("v", AggregateOp::kMax)
          .Aggregate("k", AggregateOp::kCount);
      break;
    default:
      spec.Filter("k", {lo, hi}).Project({"v", "k"}).Limit(1 + rng.Below(300));
      break;
  }
  return spec;
}

/// Every answer must equal solo exec::Scan's and the plain-array oracle's
/// (testutil::OracleScan) over the table's plain columns.
void ExpectMatchesSoloAndOracle(
    const Result<QueryService::Answer>& batched,
    const store::TableSnapshot& snap,
    const std::map<std::string, const Column<uint32_t>*>& plain,
    const ScanSpec& spec, size_t q) {
  ASSERT_OK(batched.status()) << "query " << q;
  auto solo = exec::Scan(snap, spec);
  ASSERT_OK(solo.status()) << "query " << q;
  EXPECT_TRUE(ScanOutputsEqual(*batched, *solo)) << "query " << q;
  EXPECT_TRUE(ScanOutputsEqual(
      *batched, testutil::OracleScan(plain, spec, snap.rows())))
      << "query " << q << " differs from the oracle";
}

TEST(ServiceConcurrencyTest, FuzzBatchedMatchesSoloAcrossPoolsAndWindows) {
  constexpr uint64_t kRows = 8 * kChunk;
  ThreadPool build_pool(2);
  auto table = Table::Create({{"k", TypeId::kUInt32, {kChunk}, ""},
                              {"v", TypeId::kUInt32, {kChunk}, ""}},
                             ExecContext{&build_pool, 1});
  ASSERT_OK(table.status());
  const Column<uint32_t> k =
      testutil::UniformColumn<uint32_t>(kRows, kValueBound, 1301);
  const Column<uint32_t> v =
      testutil::UniformColumn<uint32_t>(kRows, kValueBound, 1302);
  const std::map<std::string, const Column<uint32_t>*> plain{{"k", &k},
                                                             {"v", &v}};
  ASSERT_OK(table->AppendBatch({AnyColumn(k), AnyColumn(v)}));
  ASSERT_OK(table->Seal());
  ASSERT_OK(table->Flush());
  auto snap = table->Snapshot();
  ASSERT_OK(snap.status());

  uint64_t seed = 1303;
  for (const uint64_t threads : {uint64_t{0}, uint64_t{2}, uint64_t{4}}) {
    std::unique_ptr<ThreadPool> pool;
    ExecContext ctx;
    if (threads > 0) {
      pool = std::make_unique<ThreadPool>(threads);
      ctx = ExecContext{pool.get(), 1};
    }
    for (const uint64_t window_us :
         {uint64_t{0}, uint64_t{200}, uint64_t{2000}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " window_us=" + std::to_string(window_us));
      ServiceOptions options;
      options.batch_window = std::chrono::microseconds(window_us);
      auto service = QueryService::Create(&*table, options, ctx);
      ASSERT_OK(service.status());
      QueryService& svc = **service;

      Rng rng(seed++);
      const uint64_t client_a = svc.RegisterClient();
      const uint64_t client_b = svc.RegisterClient();
      std::vector<ScanSpec> specs;
      std::vector<QueryService::ResultFuture> futures;
      for (int q = 0; q < 32; ++q) {
        specs.push_back(FuzzSpec(rng));
        auto future = svc.Submit(q % 2 == 0 ? client_a : client_b,
                                 specs.back());
        ASSERT_OK(future.status());
        futures.push_back(std::move(*future));
      }
      for (size_t q = 0; q < futures.size(); ++q) {
        ExpectMatchesSoloAndOracle(futures[q].get(), *snap, plain, specs[q],
                                   q);
      }
      svc.Stop();
    }
  }
}

/// Fuzzes a workload that deliberately repeats itself and nests its bands
/// over `table`, drawing fresh specs from `fresh`: pools of 0, 2 and 4
/// workers, each workload run cold under three cache budgets and warm under
/// the defaults. Every answer must equal solo exec::Scan's and the
/// oracle's over `plain`.
void FuzzDuplicatesAndNestedBands(
    Table& table, const std::map<std::string, const Column<uint32_t>*>& plain,
    uint64_t seed, ScanSpec (*fresh)(Rng&)) {
  auto snap = table.Snapshot();
  ASSERT_OK(snap.status());

  // The cold pass runs at both edges of the three cache budgets, set
  // together: 0 keeps nothing past a batch, one chunk's worth sheds nearly
  // everything at each batch's end, and the defaults keep it all.
  // Only the default leg keeps every result, so only it replays warm.
  const auto with_budgets = [](uint64_t selections, uint64_t bytes) {
    ServiceOptions options;
    options.selection_cache_capacity = selections;
    options.decoded_cache_bytes = bytes;
    options.result_cache_bytes = bytes;
    return options;
  };
  struct Leg {
    const char* name;
    ServiceOptions options;
    bool warm;
  };
  const Leg legs[] = {
      {"budgets=0", with_budgets(0, 0), false},
      {"budgets=one-chunk", with_budgets(1, kChunk * sizeof(uint32_t)), false},
      {"budgets=default", ServiceOptions{}, true},
  };

  for (const uint64_t threads : {uint64_t{0}, uint64_t{2}, uint64_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::unique_ptr<ThreadPool> pool;
    ExecContext ctx;
    if (threads > 0) {
      pool = std::make_unique<ThreadPool>(threads);
      ctx = ExecContext{pool.get(), 1};
    }

    // A workload that deliberately repeats itself and nests its bands:
    // duplicates exercise the result cache / in-batch dedup, shrunken
    // copies of earlier bands exercise the subsumption lattice.
    Rng rng(seed++);
    std::vector<ScanSpec> specs;
    for (int q = 0; q < 32; ++q) {
      const uint64_t roll = rng.Below(4);
      if (roll == 0 && !specs.empty()) {
        specs.push_back(specs[rng.Below(specs.size())]);  // Duplicate.
      } else if (roll == 1 && !specs.empty()) {
        // Nest strictly inside an earlier filtered band when one exists.
        const ScanSpec& base = specs[rng.Below(specs.size())];
        if (!base.filters().empty()) {
          const exec::RangePredicate outer = base.filters()[0].predicate;
          const uint64_t width = outer.hi - outer.lo;
          exec::RangePredicate inner{outer.lo + 1 + rng.Below(width / 2 + 1),
                                     outer.hi - rng.Below(width / 4 + 1)};
          if (inner.lo > inner.hi) inner.lo = inner.hi;
          ScanSpec nested;
          nested.Filter(base.filters()[0].column, inner).Project({"v"});
          specs.push_back(nested);
        } else {
          specs.push_back(fresh(rng));
        }
      } else {
        specs.push_back(fresh(rng));
      }
    }

    for (const Leg& leg : legs) {
      SCOPED_TRACE(leg.name);
      ServiceOptions options = leg.options;
      options.batch_window = std::chrono::microseconds(2000);
      auto service = QueryService::Create(&table, options, ctx);
      ASSERT_OK(service.status());
      QueryService& svc = **service;

      const uint64_t client_a = svc.RegisterClient();
      const uint64_t client_b = svc.RegisterClient();
      const auto run_pass = [&](const char* pass) {
        SCOPED_TRACE(pass);
        std::vector<QueryService::ResultFuture> futures;
        for (size_t q = 0; q < specs.size(); ++q) {
          auto future =
              svc.Submit(q % 2 == 0 ? client_a : client_b, specs[q]);
          ASSERT_OK(future.status());
          futures.push_back(std::move(*future));
        }
        for (size_t q = 0; q < futures.size(); ++q) {
          ExpectMatchesSoloAndOracle(futures[q].get(), *snap, plain, specs[q],
                                     q);
        }
      };
      run_pass("cold");
      svc.Flush();
      if (leg.warm) {
        // The warm pass replays the identical workload at the same version:
        // every spec was cached by the cold pass, so nothing executes anew.
        const uint64_t executed_cold = svc.stats().queries_executed;
        run_pass("warm");
        const service::ServiceStats stats = svc.stats();
        EXPECT_EQ(stats.queries_executed, executed_cold);
        EXPECT_GE(stats.result_cache_hits, specs.size());
      }
      svc.Stop();
    }
  }
}

TEST(ServiceConcurrencyTest, FuzzDuplicatesAndNestedBandsMatchSolo) {
  constexpr uint64_t kRows = 8 * kChunk;
  ThreadPool build_pool(2);
  auto table = Table::Create({{"k", TypeId::kUInt32, {kChunk}, ""},
                              {"v", TypeId::kUInt32, {kChunk}, ""}},
                             ExecContext{&build_pool, 1});
  ASSERT_OK(table.status());
  const Column<uint32_t> k =
      testutil::UniformColumn<uint32_t>(kRows, kValueBound, 1401);
  const Column<uint32_t> v =
      testutil::UniformColumn<uint32_t>(kRows, kValueBound, 1402);
  const std::map<std::string, const Column<uint32_t>*> plain{{"k", &k},
                                                             {"v", &v}};
  ASSERT_OK(table->AppendBatch({AnyColumn(k), AnyColumn(v)}));
  ASSERT_OK(table->Seal());
  ASSERT_OK(table->Flush());
  FuzzDuplicatesAndNestedBands(*table, plain, 1403, FuzzSpec);
}

/// A pseudo-random spec over the shapes table of
/// FuzzEveryPathOfASharedChunkMatchesSolo: a band on one of its pinned
/// filter columns, alone or with a projection, a second filter and an
/// aggregate, or a limit.
ScanSpec ShapeSpec(Rng& rng) {
  static const char* const kFilterColumns[] = {"rle", "dict", "for",
                                                "delta", "ns"};
  const char* column = kFilterColumns[rng.Below(5)];
  const uint64_t lo = rng.Below(kValueBound);
  const uint64_t hi = lo + rng.Below(kValueBound / 3);
  ScanSpec spec;
  spec.Filter(column, {lo, hi});
  switch (rng.Below(4)) {
    case 0:
      break;
    case 1:
      spec.Project({"v", column});
      break;
    case 2:
      spec.Filter(kFilterColumns[rng.Below(5)], {0, kValueBound / 2})
          .Aggregate("v", AggregateOp::kSum);
      break;
    default:
      spec.Project({"v"}).Limit(1 + rng.Below(300));
      break;
  }
  return spec;
}

TEST(ServiceConcurrencyTest, FuzzEveryPathOfASharedChunkMatchesSolo) {
  // A shared filter chunk runs its pushdown (runs, dictionary, FOR
  // segments, the stored-plain tail) or, without one, filters the shared
  // decoded buffer or re-reads a containing band's rows (NS by direct
  // access, DELTA-NS by decoding privately when the buffer is gone). Every
  // filter column is pinned to one of those shapes, and the last rows stay
  // in the unsealed tail.
  constexpr uint64_t kSealed = 8 * kChunk;
  constexpr uint64_t kRows = kSealed + 300;
  ThreadPool build_pool(2);
  store::IngestOptions ingest;
  ingest.chunk_rows = kChunk;
  auto table = Table::Create({{"rle", TypeId::kUInt32, ingest, "RLE-NS"},
                              {"dict", TypeId::kUInt32, ingest, "DICT-NS"},
                              {"for", TypeId::kUInt32, ingest, "FOR"},
                              {"delta", TypeId::kUInt32, ingest, "DELTA-NS"},
                              {"ns", TypeId::kUInt32, ingest, "NS"},
                              {"v", TypeId::kUInt32, ingest, ""}},
                             ExecContext{&build_pool, 1});
  ASSERT_OK(table.status());
  Rng rng(1601);
  const Column<uint32_t> dictionary =
      testutil::UniformColumn<uint32_t>(64, kValueBound, 1602);
  std::vector<Column<uint32_t>> columns(6);
  uint64_t level = 0;
  for (uint64_t i = 0; i < kRows; ++i) {
    // Runs of 16 rows on average; a 64-entry dictionary; 128-row levels
    // with a 12-bit spread for FOR; uniform values for the rest.
    const bool run_starts = i == 0 || rng.Below(16) == 0;
    columns[0].push_back(run_starts
                             ? static_cast<uint32_t>(rng.Below(kValueBound))
                             : columns[0].back());
    columns[1].push_back(dictionary[rng.Below(dictionary.size())]);
    if (i % 128 == 0) level = rng.Below(kValueBound - 4096);
    columns[2].push_back(static_cast<uint32_t>(level + rng.Below(4096)));
    for (size_t c = 3; c < columns.size(); ++c) {
      columns[c].push_back(static_cast<uint32_t>(rng.Below(kValueBound)));
    }
  }
  const char* const names[] = {"rle", "dict", "for", "delta", "ns", "v"};
  std::map<std::string, const Column<uint32_t>*> plain;
  std::vector<AnyColumn> sealed;
  std::vector<AnyColumn> tail;
  for (size_t c = 0; c < columns.size(); ++c) {
    plain[names[c]] = &columns[c];
    sealed.emplace_back(Column<uint32_t>(columns[c].begin(),
                                         columns[c].begin() + kSealed));
    tail.emplace_back(
        Column<uint32_t>(columns[c].begin() + kSealed, columns[c].end()));
  }
  ASSERT_OK(table->AppendBatch(sealed));
  ASSERT_OK(table->Flush());
  ASSERT_OK(table->AppendBatch(tail));  // Stays unsealed: stored-plain.
  FuzzDuplicatesAndNestedBands(*table, plain, 1603, ShapeSpec);
  auto snap = table->Snapshot();
  ASSERT_OK(snap.status());

  // Selections outlive their window, decoded chunks and results do not. A
  // band runs twice in one window, which shares its chunks and caches its
  // selections; the next window runs it beside a band strictly inside it,
  // which re-reads the container's rows without a resident buffer: by
  // direct access, or by decoding a DELTA-NS chunk privately.
  ServiceOptions options;
  options.batch_window = std::chrono::microseconds(600 * 1000 * 1000);
  options.max_batch_queries = 2;
  options.decoded_cache_bytes = 0;
  options.result_cache_bytes = 0;
  for (const uint64_t threads : {uint64_t{0}, uint64_t{2}, uint64_t{4}}) {
    SCOPED_TRACE("containers first, threads=" + std::to_string(threads));
    std::unique_ptr<ThreadPool> pool;
    ExecContext ctx;
    if (threads > 0) {
      pool = std::make_unique<ThreadPool>(threads);
      ctx = ExecContext{pool.get(), 1};
    }
    auto service = QueryService::Create(&*table, options, ctx);
    ASSERT_OK(service.status());
    QueryService& svc = **service;
    const uint64_t client = svc.RegisterClient();
    for (const char* column : {"rle", "dict", "for", "delta", "ns"}) {
      const uint64_t lo = rng.Below(kValueBound / 2);
      const uint64_t hi = lo + kValueBound / 4 + rng.Below(kValueBound / 4);
      ScanSpec outer;
      outer.Filter(column, {lo, hi});
      ScanSpec projected = outer;
      projected.Project({"v"});
      ScanSpec inner;
      inner.Filter(column, {lo + 1 + rng.Below(kValueBound / 16),
                            hi - rng.Below(kValueBound / 16)});
      for (const std::vector<ScanSpec>& window :
           {std::vector<ScanSpec>{outer, projected},
            std::vector<ScanSpec>{projected, inner}}) {
        std::vector<QueryService::ResultFuture> futures;
        for (const ScanSpec& spec : window) {
          auto future = svc.Submit(client, spec);
          ASSERT_OK(future.status());
          futures.push_back(std::move(*future));
        }
        for (size_t q = 0; q < window.size(); ++q) {
          ExpectMatchesSoloAndOracle(futures[q].get(), *snap, plain,
                                     window[q], q);
        }
      }
    }
    svc.Stop();
  }
}

TEST(ServiceConcurrencyTest, DecodedCacheEvictionRacesDecodesSafely) {
  constexpr uint64_t kRows = 16 * kChunk;
  ThreadPool build_pool(2);
  auto table = Table::Create({{"k", TypeId::kUInt32, {kChunk}, ""}},
                             ExecContext{&build_pool, 1});
  ASSERT_OK(table.status());
  ASSERT_OK(table->AppendBatch(
      {AnyColumn(testutil::UniformColumn<uint32_t>(kRows, kValueBound,
                                                   1501))}));
  ASSERT_OK(table->Seal());
  ASSERT_OK(table->Flush());
  auto snap = table->Snapshot();
  ASSERT_OK(snap.status());
  const auto& chunked = snap->column(0).chunked();
  const uint64_t num_chunks = chunked.num_chunks();
  ASSERT_GE(num_chunks, 16u);

  // A 1-byte budget keeps every settled cell permanently over budget, so
  // the evictor thread is always trying to rip cells out while decoders
  // and straggler waiters latch onto them.
  service::DecodedChunkCache cache(/*budget=*/1);
  std::atomic<bool> stop{false};
  std::thread evictor([&] {
    while (!stop.load(std::memory_order_acquire)) {
      cache.EvictToBudget();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> decoders;
  for (int t = 0; t < 4; ++t) {
    decoders.emplace_back([&, t] {
      for (int round = 0; round < 8; ++round) {
        for (uint64_t c = 0; c < num_chunks; ++c) {
          // Stagger start points so threads collide on different cells.
          const uint64_t chunk = (c + t * 4) % num_chunks;
          auto values = cache.GetOrCompute(/*version=*/1, /*key=*/chunk, [&] {
            return FusedDecompress(chunked.chunk(chunk).column);
          });
          ASSERT_OK(values.status());
          ASSERT_NE(*values, nullptr);
          // A cell evicted out from under its decoder (or a waiter) would
          // surface as a wrong-sized or dead buffer here.
          ASSERT_EQ((*values)->size(), chunked.chunk(chunk).zone.row_count);
        }
      }
    });
  }
  for (std::thread& t : decoders) t.join();
  stop.store(true, std::memory_order_release);
  evictor.join();

  // With every decode settled, one final pass must drain the cache to
  // nothing — and the byte ledger must land on exactly zero. Pre-fix, a
  // cell evicted mid-decode leaked its bytes forever: the map emptied but
  // the ledger stayed stuck above the budget with nothing left to evict.
  cache.EvictToBudget();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.cost(), 0u);
}

}  // namespace
}  // namespace recomp
