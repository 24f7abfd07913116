// Concurrent append-while-scan: snapshot readers race AppendBatch/Seal on a
// live AppendableColumn. Every snapshot must be a consistent prefix of the
// appended rows — verified against the plain reference — and the whole test
// must be TSan-clean (the CI thread-sanitizer job runs Store*). Plus a
// randomized fuzz case: arbitrary interleavings of AppendBatch/Seal/
// Snapshot under arbitrary thread counts must match the sealed-column
// oracle (CompressChunkedAuto over the same rows) bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/chunked.h"
#include "exec/aggregate.h"
#include "exec/point_access.h"
#include "exec/scan.h"
#include "exec/selection.h"
#include "gen/generators.h"
#include "store/appendable_column.h"
#include "store/table.h"
#include "test_util.h"
#include "util/random.h"

namespace recomp {
namespace {

using exec::RangePredicate;
using store::AppendableColumn;
using store::ColumnSnapshot;

TEST(StoreConcurrencyTest, SnapshotScansRaceAppendsAndSeals) {
  constexpr uint64_t kRows = 40 * 1024;
  constexpr uint64_t kChunkRows = 2048;
  const Column<uint32_t> rows =
      gen::Uniform(kRows, uint64_t{1} << 20, 20240511);
  // Prefix sums let readers verify SUM over any prefix in O(1).
  std::vector<uint64_t> prefix_sum(kRows + 1, 0);
  for (uint64_t i = 0; i < kRows; ++i) {
    prefix_sum[i + 1] = prefix_sum[i] + rows[i];
  }

  ThreadPool pool(4);
  AppendableColumn column(TypeId::kUInt32, {kChunkRows},
                          ExecContext{&pool, 1});

  std::atomic<bool> done{false};
  std::atomic<uint64_t> snapshots_taken{0};

  auto reader = [&](uint64_t seed) {
    Rng rng(seed);
    while (!done.load(std::memory_order_acquire)) {
      auto snap = column.Snapshot();
      ASSERT_OK(snap.status());
      const uint64_t n = snap->size();
      ASSERT_LE(n, kRows);
      snapshots_taken.fetch_add(1, std::memory_order_relaxed);

      // SUM over the snapshot == prefix sum of the appended rows.
      auto sum = exec::SumCompressed(snap->chunked());
      ASSERT_OK(sum.status());
      ASSERT_EQ(sum->value, prefix_sum[n]) << "snapshot rows " << n;

      if (n == 0) continue;
      // Random point probes against the reference.
      for (int p = 0; p < 8; ++p) {
        const uint64_t row = rng.Below(n);
        auto point = exec::GetAt(snap->chunked(), row);
        ASSERT_OK(point.status());
        ASSERT_EQ(point->value, rows[row]) << "row " << row;
      }
      // One range selection against the reference filter over the prefix.
      const uint64_t lo = rng.Below(uint64_t{1} << 20);
      const uint64_t hi = lo + rng.Below(uint64_t{1} << 18);
      auto selection =
          exec::SelectCompressed(snap->chunked(), RangePredicate{lo, hi});
      ASSERT_OK(selection.status());
      uint64_t expected = 0, at = 0;
      for (uint64_t i = 0; i < n; ++i) {
        if (rows[i] >= lo && rows[i] <= hi) {
          ASSERT_LT(at, selection->positions.size());
          ASSERT_EQ(selection->positions[at], i);
          ++expected;
          ++at;
        }
      }
      ASSERT_EQ(selection->positions.size(), expected);
    }
  };

  std::vector<std::thread> readers;
  for (uint64_t t = 0; t < 3; ++t) {
    readers.emplace_back(reader, 100 + t);
  }

  // The writer: uneven batches, occasional explicit seals.
  {
    Rng rng(7);
    uint64_t at = 0;
    while (at < kRows) {
      const uint64_t take =
          std::min<uint64_t>(1 + rng.Below(3000), kRows - at);
      Column<uint32_t> batch(rows.begin() + at, rows.begin() + at + take);
      ASSERT_OK(column.AppendBatch(AnyColumn(batch)));
      at += take;
      if (rng.Bernoulli(0.15)) ASSERT_OK(column.Seal());
    }
  }
  ASSERT_OK(column.Flush());
  // On an oversubscribed machine the writer can finish before a reader
  // thread is ever scheduled; keep the column live until every reader has
  // observed at least one snapshot so the assertions below mean something.
  for (int spin = 0; spin < 10000 && snapshots_taken.load() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(snapshots_taken.load(), 0u);
  EXPECT_EQ(column.size(), kRows);
  EXPECT_EQ(column.pending_seals(), 0u);

  // After the dust settles: the final column equals the reference.
  auto snap = column.Snapshot();
  ASSERT_OK(snap.status());
  EXPECT_EQ(snap->unsealed_chunks(), 0u);
  auto back = DecompressChunked(snap->chunked());
  ASSERT_OK(back.status());
  EXPECT_TRUE(*back == AnyColumn(rows));
}

TEST(StoreConcurrencyTest, ConcurrentAppendersInterleaveWholeBatches) {
  // Batches from racing appenders may interleave in any order, but each
  // batch must stay contiguous and nothing may be lost: the multiset of
  // batch sums and the total size must come out exact.
  constexpr uint64_t kBatch = 257;
  constexpr uint64_t kBatchesPerWriter = 40;
  ThreadPool pool(4);
  AppendableColumn column(TypeId::kUInt32, {1024}, ExecContext{&pool, 1});

  auto writer = [&](uint32_t tag) {
    for (uint64_t b = 0; b < kBatchesPerWriter; ++b) {
      Column<uint32_t> batch(kBatch, tag);
      ASSERT_OK(column.AppendBatch(AnyColumn(batch)));
    }
  };
  std::vector<std::thread> writers;
  for (uint32_t t = 1; t <= 3; ++t) writers.emplace_back(writer, t * 1000);
  for (std::thread& t : writers) t.join();
  ASSERT_OK(column.Flush());

  ASSERT_EQ(column.size(), 3 * kBatchesPerWriter * kBatch);
  auto snap = column.Snapshot();
  ASSERT_OK(snap.status());
  auto back = DecompressChunked(snap->chunked());
  ASSERT_OK(back.status());
  const Column<uint32_t>& values = back->As<uint32_t>();
  // Every value present the exact number of times...
  uint64_t counts[4] = {};
  for (const uint32_t v : values) {
    ASSERT_EQ(v % 1000, 0u);
    ASSERT_GE(v / 1000, 1u);
    ASSERT_LE(v / 1000, 3u);
    ++counts[v / 1000];
  }
  for (int t = 1; t <= 3; ++t) {
    EXPECT_EQ(counts[t], kBatchesPerWriter * kBatch);
  }
  // ...and each batch contiguous: runs of equal values have lengths that
  // are multiples of kBatch (neighboring equal-tag batches merge runs).
  uint64_t run = 1;
  for (uint64_t i = 1; i <= values.size(); ++i) {
    if (i < values.size() && values[i] == values[i - 1]) {
      ++run;
    } else {
      EXPECT_EQ(run % kBatch, 0u) << "at row " << i;
      run = 1;
    }
  }
}

TEST(StoreConcurrencyTest, FuzzLiveColumnMatchesSealedOracle) {
  // Random chunk size, thread count, batch sizes, and interleaving of
  // AppendBatch/Seal/Snapshot: at every step the live snapshot must answer
  // exactly like CompressChunkedAuto over the same prefix, and the flushed
  // column must answer exactly like the oracle over all rows.
  Rng rng(97531);
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
    ThreadPool pool(1 + rng.Below(4));
    AppendableColumn column(TypeId::kUInt32, {chunk_rows},
                            ExecContext{&pool, 1});

    uint64_t at = 0;
    while (at < rows.size()) {
      const uint64_t take =
          std::min<uint64_t>(1 + rng.Below(900), rows.size() - at);
      Column<uint32_t> batch(rows.begin() + at, rows.begin() + at + take);
      ASSERT_OK(column.AppendBatch(AnyColumn(batch)));
      at += take;
      if (rng.Bernoulli(0.2)) ASSERT_OK(column.Seal());
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
        auto live_sel = exec::SelectCompressed(snap->chunked(), pred);
        auto ref_sel = exec::SelectCompressed(*oracle, pred);
        ASSERT_OK(live_sel.status());
        ASSERT_OK(ref_sel.status());
        ASSERT_EQ(live_sel->positions, ref_sel->positions);

        auto live_sum = exec::SumCompressed(snap->chunked());
        auto ref_sum = exec::SumCompressed(*oracle);
        ASSERT_OK(live_sum.status());
        ASSERT_OK(ref_sum.status());
        ASSERT_EQ(live_sum->value, ref_sum->value);

        auto live_min = exec::MinCompressed(snap->chunked());
        auto ref_min = exec::MinCompressed(*oracle);
        ASSERT_OK(live_min.status());
        ASSERT_OK(ref_min.status());
        ASSERT_EQ(live_min->value, ref_min->value);

        auto live_max = exec::MaxCompressed(snap->chunked());
        auto ref_max = exec::MaxCompressed(*oracle);
        ASSERT_OK(live_max.status());
        ASSERT_OK(ref_max.status());
        ASSERT_EQ(live_max->value, ref_max->value);

        std::vector<uint64_t> probe;
        for (int p = 0; p < 16; ++p) probe.push_back(rng.Below(at));
        auto live_batch = exec::GetAtBatch(snap->chunked(), probe);
        auto ref_batch = exec::GetAtBatch(*oracle, probe);
        ASSERT_OK(live_batch.status());
        ASSERT_OK(ref_batch.status());
        for (size_t p = 0; p < probe.size(); ++p) {
          ASSERT_EQ((*live_batch)[p].value, (*ref_batch)[p].value);
        }
      }
    }

    ASSERT_OK(column.Flush());
    auto snap = column.Snapshot();
    ASSERT_OK(snap.status());
    auto back = DecompressChunked(snap->chunked());
    ASSERT_OK(back.status());
    ASSERT_TRUE(*back == AnyColumn(rows)) << "round " << round;
  }
}

TEST(StoreConcurrencyTest, ScansRaceTableAppendsAndSeals) {
  // Multi-column scans (filter + gather + aggregate via exec::Scan) race
  // AppendBatch/Seal on a live table. Deterministic column contents — k[i]
  // = i, v[i] = 3i + 1 — let every reader verify a whole scan result over
  // whatever row prefix its snapshot caught, with closed-form expectations.
  // Runs under the CI ThreadSanitizer job (Scan*/Store* filter).
  constexpr uint64_t kRows = 24 * 1024;
  constexpr uint64_t kChunkRows = 1024;
  constexpr uint64_t kKeyCap = 5000;  // Filter: k < kKeyCap.

  ThreadPool pool(4);
  auto table = store::Table::Create(
      {
          {"k", TypeId::kUInt32, {kChunkRows}, ""},
          {"v", TypeId::kUInt32, {kChunkRows + 300}, ""},  // Misaligned.
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
    while (!done.load(std::memory_order_acquire)) {
      auto snap = table->Snapshot();
      ASSERT_OK(snap.status());
      const uint64_t n = snap->rows();
      auto result = exec::Scan(*snap, spec);
      ASSERT_OK(result.status());
      scans_run.fetch_add(1, std::memory_order_relaxed);

      const uint64_t matches = std::min(n, kKeyCap);
      ASSERT_EQ(result->rows_matched, matches) << "snapshot rows " << n;
      ASSERT_EQ(result->positions.size(), matches);
      const Column<uint32_t>& v =
          result->projections[0].values.As<uint32_t>();
      ASSERT_EQ(v.size(), matches);
      for (uint64_t i = 0; i < matches; ++i) {
        ASSERT_EQ(result->positions[i], i);
        ASSERT_EQ(v[i], 3 * i + 1);
      }
      // Σ (3i + 1) for i in [0, matches).
      const uint64_t expected_sum =
          matches == 0 ? 0 : 3 * (matches * (matches - 1) / 2) + matches;
      ASSERT_EQ(result->aggregates[0].value(), expected_sum);
      ASSERT_EQ(result->aggregates[1].value(), matches);
    }
  };

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) readers.emplace_back(reader);

  {
    Rng rng(31);
    uint64_t at = 0;
    while (at < kRows) {
      const uint64_t take = std::min<uint64_t>(1 + rng.Below(2500), kRows - at);
      Column<uint32_t> k, v;
      for (uint64_t i = at; i < at + take; ++i) {
        k.push_back(static_cast<uint32_t>(i));
        v.push_back(static_cast<uint32_t>(3 * i + 1));
      }
      ASSERT_OK(table->AppendBatch({AnyColumn(k), AnyColumn(v)}));
      at += take;
      if (rng.Bernoulli(0.2)) ASSERT_OK(table->Seal());
    }
  }
  ASSERT_OK(table->Flush());
  // See SnapshotScansRaceAppendsAndSeals: let slow-starting readers catch
  // the live table at least once.
  for (int spin = 0; spin < 10000 && scans_run.load() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(scans_run.load(), 0u);
  EXPECT_EQ(table->num_rows(), kRows);
}

TEST(StoreConcurrencyTest, SnapshotsRaceInlineSealsOfTableAppends) {
  // A zero-worker pool seals inline, inside Table::AppendBatch: a reader
  // snapshotting in a loop meanwhile must see whole rows in every column,
  // and every row it sees must be the appended one.
  constexpr uint64_t kChunkRows = 1024;
  constexpr uint64_t kRows = 10 * kChunkRows + 300;  // Rolls 10 chunks.
  ThreadPool pool(0);
  auto table = store::Table::Create(
      {
          {"k", TypeId::kUInt32, {kChunkRows}, ""},
          {"v", TypeId::kUInt64, {kChunkRows}, ""},
      },
      ExecContext{&pool});
  ASSERT_OK(table.status());
  Column<uint32_t> k(kRows);
  Column<uint64_t> v(kRows);
  for (uint64_t i = 0; i < kRows; ++i) {
    k[i] = static_cast<uint32_t>(i * 7 % 1000);
    v[i] = (i << 20) + i % 3;
  }

  std::atomic<bool> done{false};
  std::atomic<uint64_t> snapshots_taken{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto snap = table->Snapshot();
      ASSERT_OK(snap.status());
      const uint64_t n = snap->rows();
      ASSERT_LE(n, kRows);
      auto keys = DecompressChunked(snap->column(0).chunked());
      auto values = DecompressChunked(snap->column(1).chunked());
      ASSERT_OK(keys.status());
      ASSERT_OK(values.status());
      ASSERT_EQ(keys->size(), n);
      ASSERT_EQ(values->size(), n);
      ASSERT_TRUE(std::equal(k.begin(), k.begin() + n,
                             keys->As<uint32_t>().begin()));
      ASSERT_TRUE(std::equal(v.begin(), v.begin() + n,
                             values->As<uint64_t>().begin()));
      snapshots_taken.fetch_add(1, std::memory_order_relaxed);
    }
  });

  Rng rng(19);
  uint64_t at = 0;
  while (at < kRows) {
    const uint64_t take = std::min<uint64_t>(1 + rng.Below(700), kRows - at);
    ASSERT_OK(table->AppendBatch(
        {AnyColumn(Column<uint32_t>(k.begin() + at, k.begin() + at + take)),
         AnyColumn(Column<uint64_t>(v.begin() + at, v.begin() + at + take))}));
    at += take;
  }
  for (int spin = 0; spin < 10000 && snapshots_taken.load() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(snapshots_taken.load(), 0u);

  // The inline seals all landed before their AppendBatch returned.
  for (const char* name : {"k", "v"}) {
    auto column = table->column(name);
    ASSERT_OK(column.status());
    EXPECT_EQ((*column)->num_chunks(), kRows / kChunkRows);
    EXPECT_EQ((*column)->sealed_chunks(), kRows / kChunkRows);
  }
}

}  // namespace
}  // namespace recomp
