// Recompression racing everything else: swap-vs-scan correctness is the
// headline risk of the subsystem, so these tests put snapshot scans,
// GetAtBatch point access, AppendBatch/Seal ingest, and
// MaintenanceTick/background maintenance on the same table at once — the
// CI ThreadSanitizer job runs the whole file (Recompress* filter) — plus a
// randomized fuzz oracle: after arbitrary append/seal/recompress
// interleavings, every snapshot must agree bit-identically with
// CompressChunkedAuto over the same rows, across thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "core/chunked.h"
#include "exec/aggregate.h"
#include "exec/point_access.h"
#include "exec/scan.h"
#include "exec/selection.h"
#include "gen/generators.h"
#include "store/appendable_column.h"
#include "store/recompress.h"
#include "store/table.h"
#include "test_util.h"
#include "util/random.h"

namespace recomp {
namespace {

using exec::RangePredicate;
using store::AppendableColumn;
using store::RecompressionPolicy;
using store::Recompressor;
using store::Table;

TEST(RecompressionConcurrencyTest, ScansRaceIngestAndMaintenanceTicks) {
  // Deterministic columns — k[i] = i, v[i] = i / 8 (run-heavy) — let every
  // reader verify whole scan results with closed-form expectations over
  // whatever prefix its snapshot caught, no matter how many chunks the
  // maintenance thread has reswapped. "v" pins NS so recompression always
  // has genuine work racing the scans.
  constexpr uint64_t kRows = 20 * 1024;
  constexpr uint64_t kChunkRows = 1024;
  constexpr uint64_t kKeyCap = 4000;  // Filter: k < kKeyCap.

  ThreadPool pool(4);
  store::IngestOptions pinned;
  pinned.chunk_rows = kChunkRows + 300;  // Misaligned with "k" on purpose.
  pinned.descriptor = Ns();
  auto table = Table::Create(
      {
          {"k", TypeId::kUInt32, {kChunkRows}, ""},
          {"v", TypeId::kUInt32, pinned, ""},
      },
      ExecContext{&pool, 1});
  ASSERT_OK(table.status());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> scans_run{0};

  auto reader = [&]() {
    exec::ScanSpec spec;
    spec.Filter("k", RangePredicate{0, kKeyCap - 1})
        .Project({"v"})
        .Aggregate("v", exec::AggregateOp::kSum)
        .Aggregate("k", exec::AggregateOp::kCount);
    Rng rng(123);
    while (!done.load(std::memory_order_acquire)) {
      auto snap = table->Snapshot();
      ASSERT_OK(snap.status());
      const uint64_t n = snap->rows();
      auto result = exec::Scan(*snap, spec, ExecContext{&pool, 1});
      ASSERT_OK(result.status());
      scans_run.fetch_add(1, std::memory_order_relaxed);

      const uint64_t matches = std::min(n, kKeyCap);
      ASSERT_EQ(result->rows_matched, matches) << "snapshot rows " << n;
      const Column<uint32_t>& v =
          result->projections[0].values.As<uint32_t>();
      ASSERT_EQ(v.size(), matches);
      uint64_t expected_sum = 0;
      for (uint64_t i = 0; i < matches; ++i) {
        ASSERT_EQ(v[i], i / 8);
        expected_sum += i / 8;
      }
      ASSERT_EQ(result->aggregates[0].value(), expected_sum);
      ASSERT_EQ(result->aggregates[1].value(), matches);

      if (n == 0) continue;
      // Batch point probes race the swaps too (chunk-grouped decompress).
      std::vector<uint64_t> probe;
      for (int p = 0; p < 12; ++p) probe.push_back(rng.Below(n));
      auto k_col = snap->column("k");
      ASSERT_OK(k_col.status());
      auto batch = exec::GetAtBatch((*k_col)->chunked(), probe);
      ASSERT_OK(batch.status());
      for (size_t p = 0; p < probe.size(); ++p) {
        ASSERT_EQ((*batch)[p].value, probe[p]);
      }
    }
  };

  auto maintainer = [&]() {
    RecompressionPolicy policy;
    policy.recompress_pinned = true;
    policy.min_gain = 1.0;
    while (!done.load(std::memory_order_acquire)) {
      auto tick = table->MaintenanceTick(policy);
      ASSERT_OK(tick.status());
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) threads.emplace_back(reader);
  threads.emplace_back(maintainer);

  {
    Rng rng(77);
    uint64_t at = 0;
    while (at < kRows) {
      const uint64_t take = std::min<uint64_t>(1 + rng.Below(2000), kRows - at);
      Column<uint32_t> k, v;
      for (uint64_t i = at; i < at + take; ++i) {
        k.push_back(static_cast<uint32_t>(i));
        v.push_back(static_cast<uint32_t>(i / 8));
      }
      ASSERT_OK(table->AppendBatch({AnyColumn(k), AnyColumn(v)}));
      at += take;
      if (rng.Bernoulli(0.2)) ASSERT_OK(table->Seal());
    }
  }
  ASSERT_OK(table->Flush());
  // One more racing pass after the flush so sealed-chunk swaps definitely
  // overlap the readers, then drain completely.
  RecompressionPolicy policy;
  policy.recompress_pinned = true;
  policy.min_gain = 1.0;
  auto drained = table->RecompressAll(policy);
  ASSERT_OK(drained.status());
  // Keep the table live until slow-starting readers have scanned at least
  // once (the writer can outrun thread startup on a loaded machine).
  for (int spin = 0; spin < 10000 && scans_run.load() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  EXPECT_GT(scans_run.load(), 0u);

  // After the dust settles: no stored-plain chunk remains in "v", and the
  // final contents are exact.
  auto v_col = table->column("v");
  ASSERT_OK(v_col.status());
  for (const auto& info : (*v_col)->ChunkInfos()) {
    EXPECT_TRUE(info.sealed);
  }
  auto snap = table->Snapshot();
  ASSERT_OK(snap.status());
  auto back = DecompressChunked((*snap->column("v"))->chunked());
  ASSERT_OK(back.status());
  const Column<uint32_t>& values = back->As<uint32_t>();
  ASSERT_EQ(values.size(), kRows);
  for (uint64_t i = 0; i < kRows; ++i) ASSERT_EQ(values[i], i / 8);
}

TEST(RecompressionConcurrencyTest, BackgroundMaintenanceRacesIngestAndScans) {
  // The background mode under load: the maintenance thread ticks on its
  // own cadence while appends roll chunks and readers scan snapshots.
  constexpr uint64_t kRows = 16 * 1024;
  ThreadPool pool(4);
  auto table = Table::Create(
      {
          {"a", TypeId::kUInt32, {512}, "NS"},
      },
      ExecContext{&pool, 1});
  ASSERT_OK(table.status());

  RecompressionPolicy policy;
  policy.recompress_pinned = true;
  policy.min_gain = 1.0;
  ASSERT_OK(table->StartMaintenance(policy, std::chrono::milliseconds(1)));

  const Column<uint32_t> rows = gen::SortedRuns(kRows, 25.0, 3, 20260727);
  std::vector<uint64_t> prefix_sum(kRows + 1, 0);
  for (uint64_t i = 0; i < kRows; ++i) {
    prefix_sum[i + 1] = prefix_sum[i] + rows[i];
  }

  std::atomic<bool> done{false};
  std::atomic<uint64_t> snapshots_taken{0};
  auto reader = [&]() {
    while (!done.load(std::memory_order_acquire)) {
      auto snap = table->Snapshot();
      ASSERT_OK(snap.status());
      const uint64_t n = snap->rows();
      snapshots_taken.fetch_add(1, std::memory_order_relaxed);
      auto sum = exec::SumCompressed((*snap->column("a"))->chunked(),
                                     ExecContext{&pool, 1});
      ASSERT_OK(sum.status());
      ASSERT_EQ(sum->value, prefix_sum[n]) << "snapshot rows " << n;
    }
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) readers.emplace_back(reader);

  {
    Rng rng(5);
    uint64_t at = 0;
    while (at < kRows) {
      const uint64_t take = std::min<uint64_t>(1 + rng.Below(1500), kRows - at);
      Column<uint32_t> batch(rows.begin() + at, rows.begin() + at + take);
      ASSERT_OK(table->AppendBatch({AnyColumn(batch)}));
      at += take;
      if (rng.Bernoulli(0.25)) ASSERT_OK(table->Seal());
    }
  }
  ASSERT_OK(table->Flush());
  // Keep the table live until slow-starting readers have scanned at least
  // once (the writer can outrun thread startup on a loaded machine).
  for (int spin = 0; spin < 10000 && snapshots_taken.load() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  // A fast writer can outrun the first 1ms maintenance sleep; give the
  // thread a chance to tick over the flushed chunks before stopping so the
  // examined counter is meaningful.
  for (int spin = 0; spin < 10000; ++spin) {
    if (table->maintenance_report().chunks_examined > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  table->StopMaintenance();
  EXPECT_GT(snapshots_taken.load(), 0u);
  EXPECT_GT(table->maintenance_report().chunks_examined, 0u);

  auto snap = table->Snapshot();
  ASSERT_OK(snap.status());
  auto back = DecompressChunked((*snap->column("a"))->chunked());
  ASSERT_OK(back.status());
  EXPECT_TRUE(*back == AnyColumn(rows));
}

TEST(RecompressionConcurrencyTest, FuzzRecompressionOracleAgreement) {
  // Random data shape, chunk size, pool size, policy knobs, and
  // interleaving of AppendBatch / Seal / Tick: at every probe point the
  // live snapshot must answer exactly like CompressChunkedAuto over the
  // same prefix — for select, sum, min, max, and batch point access, under
  // the same ExecContext — and the flushed, fully recompressed column must
  // reproduce the rows bit for bit.
  Rng rng(86420);
  for (int round = 0; round < 8; ++round) {
    const uint64_t n = 500 + rng.Below(6000);
    Column<uint32_t> rows;
    switch (rng.Below(3)) {
      case 0:
        rows = gen::SortedRuns(n, 1.0 + rng.NextDouble() * 30, 3, rng.Next());
        break;
      case 1:
        rows = gen::Uniform(n, uint64_t{1} << (1 + rng.Below(30)), rng.Next());
        break;
      default:
        rows = gen::StepLevels(n, 64 << rng.Below(4), 20, rng.Below(10),
                               rng.Next());
        break;
    }
    const uint64_t chunk_rows = 16 + rng.Below(1500);
    ThreadPool pool(rng.Below(4));  // 0 = inline seals and scans.
    const ExecContext ctx{&pool, 1};
    AppendableColumn column(TypeId::kUInt32, {chunk_rows}, ctx);

    RecompressionPolicy policy;
    policy.min_gain = 1.0 + rng.NextDouble() * (rng.Bernoulli(0.3) ? 10 : 0.1);
    policy.min_age_chunks = rng.Below(3);
    policy.max_chunks_per_tick = 1 + rng.Below(8);
    Recompressor recompressor(policy, ctx);

    uint64_t at = 0;
    while (at < rows.size()) {
      const uint64_t take =
          std::min<uint64_t>(1 + rng.Below(900), rows.size() - at);
      Column<uint32_t> batch(rows.begin() + at, rows.begin() + at + take);
      ASSERT_OK(column.AppendBatch(AnyColumn(batch)));
      at += take;
      if (rng.Bernoulli(0.2)) ASSERT_OK(column.Seal());
      if (rng.Bernoulli(0.4)) ASSERT_OK(recompressor.Tick(column).status());
      if (rng.Bernoulli(0.3)) {
        const Column<uint32_t> prefix(rows.begin(), rows.begin() + at);
        auto snap = column.Snapshot();
        ASSERT_OK(snap.status());
        ASSERT_EQ(snap->size(), at);
        auto oracle = CompressChunkedAuto(AnyColumn(prefix), {chunk_rows});
        ASSERT_OK(oracle.status());

        const uint64_t a = rng.Below(uint64_t{1} << 32);
        const uint64_t b = rng.Below(uint64_t{1} << 32);
        const RangePredicate pred{std::min(a, b), std::max(a, b)};
        auto live_sel = exec::SelectCompressed(snap->chunked(), pred, ctx);
        auto ref_sel = exec::SelectCompressed(*oracle, pred, ctx);
        ASSERT_OK(live_sel.status());
        ASSERT_OK(ref_sel.status());
        ASSERT_EQ(live_sel->positions, ref_sel->positions);

        auto live_sum = exec::SumCompressed(snap->chunked(), ctx);
        auto ref_sum = exec::SumCompressed(*oracle, ctx);
        ASSERT_OK(live_sum.status());
        ASSERT_OK(ref_sum.status());
        ASSERT_EQ(live_sum->value, ref_sum->value);

        auto live_min = exec::MinCompressed(snap->chunked(), ctx);
        auto ref_min = exec::MinCompressed(*oracle, ctx);
        ASSERT_OK(live_min.status());
        ASSERT_OK(ref_min.status());
        ASSERT_EQ(live_min->value, ref_min->value);

        auto live_max = exec::MaxCompressed(snap->chunked(), ctx);
        auto ref_max = exec::MaxCompressed(*oracle, ctx);
        ASSERT_OK(live_max.status());
        ASSERT_OK(ref_max.status());
        ASSERT_EQ(live_max->value, ref_max->value);

        std::vector<uint64_t> probe;
        for (int p = 0; p < 16; ++p) probe.push_back(rng.Below(at));
        auto live_batch = exec::GetAtBatch(snap->chunked(), probe, ctx);
        auto ref_batch = exec::GetAtBatch(*oracle, probe, ctx);
        ASSERT_OK(live_batch.status());
        ASSERT_OK(ref_batch.status());
        for (size_t p = 0; p < probe.size(); ++p) {
          ASSERT_EQ((*live_batch)[p].value, (*ref_batch)[p].value);
        }
      }
    }

    ASSERT_OK(column.Flush());
    auto drained = recompressor.RecompressAll(column);
    ASSERT_OK(drained.status());
    auto snap = column.Snapshot();
    ASSERT_OK(snap.status());
    EXPECT_EQ(snap->unsealed_chunks(), 0u) << "round " << round;
    auto back = DecompressChunked(snap->chunked(), ctx);
    ASSERT_OK(back.status());
    ASSERT_TRUE(*back == AnyColumn(rows)) << "round " << round;
  }
}

}  // namespace
}  // namespace recomp
