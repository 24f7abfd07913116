// Background recompression lifecycle: the Recompressor must drain the
// stored-plain backlog (rolled chunks whose seal job is stuck or queued),
// reswap sealed chunks a fresh analyzer choice beats by the policy's gain
// threshold, honor every policy knob (age, budget, pin handling), and never
// disturb readers: an in-flight snapshot keeps the exact chunk objects it
// pinned while the slots swap under it.

#include <gtest/gtest.h>

#include <set>

#include "core/catalog.h"
#include "core/chunked.h"
#include "exec/aggregate.h"
#include "exec/point_access.h"
#include "exec/selection.h"
#include "store/appendable_column.h"
#include "store/recompress.h"
#include "store/table.h"
#include "test_util.h"
#include "util/random.h"

namespace recomp {
namespace {

using store::AppendableColumn;
using store::IngestOptions;
using store::RecompressionPolicy;
using store::RecompressionReport;
using store::Recompressor;
using store::Table;

using testutil::PoolBlocker;

TEST(RecompressionTest, DrainsStoredPlainBacklog) {
  // A 1-worker pool wedged by a blocker: every rolled chunk stays a
  // stored-plain ID envelope. A sequential-context recompressor must seal
  // the whole backlog itself, and the late seal jobs — released afterwards
  // — must observe the swapped slots and drop their results.
  ThreadPool pool(1);
  const Column<uint32_t> rows = testutil::RunsColumn(4096, 0.03, 11);
  AppendableColumn column(TypeId::kUInt32, {512}, ExecContext{&pool, 1});
  // Declared after the column: destroyed (and released) first, so an early
  // test failure cannot leave ~AppendableColumn waiting on a wedged pool.
  PoolBlocker blocker(pool, 1);
  ASSERT_OK(column.AppendBatch(AnyColumn(rows)));

  ASSERT_EQ(column.num_chunks(), 8u);
  ASSERT_EQ(column.sealed_chunks(), 0u);
  for (const auto& info : column.ChunkInfos()) {
    EXPECT_FALSE(info.sealed);
    ASSERT_TRUE(StoredPlainData(info.chunk->column.root()) != nullptr)
        << "slot " << info.slot;
  }

  Recompressor recompressor({}, ExecContext{});  // Inline, off the pool.
  auto report = recompressor.Tick(column);
  ASSERT_OK(report.status());
  EXPECT_EQ(report->chunks_examined, 8u);
  EXPECT_EQ(report->chunks_scheduled, 8u);
  EXPECT_EQ(report->chunks_reswapped, 8u);
  EXPECT_EQ(report->stored_plain_drained, 8u);
  EXPECT_EQ(report->chunks_failed, 0u);
  EXPECT_GT(report->BytesSaved(), 0u);  // Runs compress well below plain.
  EXPECT_EQ(column.sealed_chunks(), 8u);

  // Release the wedged seal jobs: they must lose the pointer CAS, not
  // double-count sealed chunks or clobber the recompressed envelopes.
  blocker.Release();
  column.WaitForSeals();
  ASSERT_OK(column.status());
  EXPECT_EQ(column.sealed_chunks(), 8u);
  for (const auto& info : column.ChunkInfos()) {
    EXPECT_TRUE(info.sealed);
    EXPECT_EQ(info.recompress_count, 1u) << "slot " << info.slot;
  }

  auto snap = column.Snapshot();
  ASSERT_OK(snap.status());
  auto back = DecompressChunked(snap->chunked());
  ASSERT_OK(back.status());
  EXPECT_TRUE(*back == AnyColumn(rows));

  // Fixpoint: a second pass finds nothing left to do at default min_gain.
  auto again = recompressor.Tick(column);
  ASSERT_OK(again.status());
  EXPECT_EQ(again->chunks_reswapped, 0u);
}

TEST(RecompressionTest, BacklogOfPinnedColumnHonorsThePin) {
  // Draining a pinned column's backlog finishes the seal job's work with
  // the pinned descriptor — it does not second-guess the pin.
  ThreadPool pool(1);
  IngestOptions options;
  options.chunk_rows = 256;
  options.descriptor = MakeRle();
  AppendableColumn column(TypeId::kUInt32, options, ExecContext{&pool, 1});
  PoolBlocker blocker(pool, 1);  // After the column; see above.
  const Column<uint32_t> rows = testutil::RunsColumn(1024, 0.05, 13);
  ASSERT_OK(column.AppendBatch(AnyColumn(rows)));
  ASSERT_EQ(column.sealed_chunks(), 0u);

  Recompressor recompressor({}, ExecContext{});
  auto report = recompressor.Tick(column);
  ASSERT_OK(report.status());
  EXPECT_EQ(report->stored_plain_drained, 4u);
  for (const auto& info : column.ChunkInfos()) {
    EXPECT_EQ(info.chunk->column.Descriptor().kind, MakeRle().kind);
  }
  blocker.Release();
  column.WaitForSeals();
  auto back = DecompressChunked(column.Snapshot()->chunked());
  ASSERT_OK(back.status());
  EXPECT_TRUE(*back == AnyColumn(rows));
}

TEST(RecompressionTest, ReswapsSealedChunksAFreshChoiceBeats) {
  // Ingest pinned to plain NS; the data is run-heavy, so a fresh analyzer
  // finds a much smaller composition. recompress_pinned lets the pass
  // migrate the column off its pin.
  IngestOptions options;
  options.chunk_rows = 512;
  options.descriptor = Ns();
  AppendableColumn column(TypeId::kUInt32, options);  // Inline seals.
  const Column<uint32_t> rows = testutil::RunsColumn(4096, 0.02, 17);
  ASSERT_OK(column.AppendBatch(AnyColumn(rows)));
  ASSERT_OK(column.Flush());
  const uint64_t bytes_pinned = column.Snapshot()->chunked().PayloadBytes();

  RecompressionPolicy policy;
  policy.recompress_pinned = true;
  policy.min_gain = 1.0;
  Recompressor recompressor(policy, ExecContext{});
  auto report = recompressor.RecompressAll(column);
  ASSERT_OK(report.status());
  EXPECT_EQ(report->chunks_reswapped, 8u);
  EXPECT_EQ(report->stored_plain_drained, 0u);
  EXPECT_EQ(report->swaps.size(), 8u);
  for (const auto& swap : report->swaps) {
    EXPECT_EQ(swap.scheme_before.substr(0, 2), "NS");
    EXPECT_NE(swap.scheme_after.substr(0, 2), "NS");
    EXPECT_LT(swap.bytes_after, swap.bytes_before);
  }

  auto snap = column.Snapshot();
  ASSERT_OK(snap.status());
  EXPECT_LT(snap->chunked().PayloadBytes(), bytes_pinned);
  EXPECT_EQ(snap->chunked().PayloadBytes(), report->bytes_after);
  auto back = DecompressChunked(snap->chunked());
  ASSERT_OK(back.status());
  EXPECT_TRUE(*back == AnyColumn(rows));

  // The report's ToString carries the scheme migration for observability.
  const std::string text = report->ToString();
  EXPECT_NE(text.find("reswapped=8"), std::string::npos) << text;
  EXPECT_NE(text.find("NS"), std::string::npos) << text;
}

TEST(RecompressionTest, PolicyKnobsGateCandidates) {
  IngestOptions options;
  options.chunk_rows = 256;
  options.descriptor = Ns();
  const Column<uint32_t> rows = testutil::RunsColumn(2048, 0.02, 19);

  // Pinned columns are skipped by default (the pin exists on purpose).
  {
    AppendableColumn column(TypeId::kUInt32, options);
    ASSERT_OK(column.AppendBatch(AnyColumn(rows)));
    ASSERT_OK(column.Flush());
    Recompressor recompressor({}, ExecContext{});
    auto report = recompressor.Tick(column);
    ASSERT_OK(report.status());
    EXPECT_EQ(report->chunks_examined, 8u);
    EXPECT_EQ(report->chunks_scheduled, 0u);
  }

  // An impossible gain threshold keeps everything.
  {
    AppendableColumn column(TypeId::kUInt32, options);
    ASSERT_OK(column.AppendBatch(AnyColumn(rows)));
    ASSERT_OK(column.Flush());
    RecompressionPolicy policy;
    policy.recompress_pinned = true;
    policy.min_gain = 1e9;
    Recompressor recompressor(policy, ExecContext{});
    auto report = recompressor.Tick(column);
    ASSERT_OK(report.status());
    EXPECT_EQ(report->chunks_reswapped, 0u);
    EXPECT_EQ(report->chunks_kept, 8u);
  }

  // min_age_chunks excludes the young end of the column.
  {
    AppendableColumn column(TypeId::kUInt32, options);
    ASSERT_OK(column.AppendBatch(AnyColumn(rows)));
    ASSERT_OK(column.Flush());
    RecompressionPolicy policy;
    policy.recompress_pinned = true;
    policy.min_gain = 1.0;
    policy.min_age_chunks = 6;  // Only slots 0 and 1 have 6+ younger chunks.
    Recompressor recompressor(policy, ExecContext{});
    auto report = recompressor.Tick(column);
    ASSERT_OK(report.status());
    EXPECT_EQ(report->chunks_scheduled, 2u);
    EXPECT_EQ(report->chunks_reswapped, 2u);
  }

  // The per-tick budget bounds one pass; RecompressAll still drains.
  {
    AppendableColumn column(TypeId::kUInt32, options);
    ASSERT_OK(column.AppendBatch(AnyColumn(rows)));
    ASSERT_OK(column.Flush());
    RecompressionPolicy policy;
    policy.recompress_pinned = true;
    policy.min_gain = 1.0;
    policy.max_chunks_per_tick = 3;
    Recompressor recompressor(policy, ExecContext{});
    auto tick = recompressor.Tick(column);
    ASSERT_OK(tick.status());
    EXPECT_EQ(tick->chunks_scheduled, 3u);
    auto all = recompressor.RecompressAll(column);
    ASSERT_OK(all.status());
    EXPECT_EQ(all->chunks_reswapped, 5u);  // The remaining chunks.
  }

  // min_gain below 1 is rejected (a swap must never grow a chunk).
  {
    AppendableColumn column(TypeId::kUInt32, {256});
    RecompressionPolicy policy;
    policy.min_gain = 0.5;
    Recompressor recompressor(policy, ExecContext{});
    EXPECT_FALSE(recompressor.Tick(column).ok());
  }
}

TEST(RecompressionTest, RecompressionHealsAFailedSealPin) {
  // NS(1) cannot represent the ingested values: the seal jobs fail (inline
  // — no pool) and the column refuses further ingest. Draining the backlog
  // with the pin still in force fails the same way; a policy that may
  // override pins re-seals the chunks with the analyzer's choice, and the
  // column heals: status clears and ingest resumes, because the
  // stored-plain rows were correct all along.
  IngestOptions options;
  options.chunk_rows = 16;
  options.descriptor = Ns(1);
  AppendableColumn column(TypeId::kUInt32, options);
  const Column<uint32_t> wide(32, 1000);  // Needs 10 bits.
  ASSERT_OK(column.AppendBatch(AnyColumn(wide)));
  EXPECT_FALSE(column.status().ok());
  EXPECT_FALSE(column.Snapshot().ok());
  EXPECT_FALSE(column.Append(1).ok());

  // Honoring the pin cannot help: both chunks fail again, status stays.
  Recompressor pinned_drain({}, ExecContext{});
  auto failed = pinned_drain.Tick(column);
  ASSERT_OK(failed.status());
  EXPECT_EQ(failed->chunks_failed, 2u);
  EXPECT_FALSE(column.status().ok());

  // Overriding the pin re-seals both chunks and heals the column.
  RecompressionPolicy policy;
  policy.recompress_pinned = true;
  Recompressor healer(policy, ExecContext{});
  auto report = healer.RecompressAll(column);
  ASSERT_OK(report.status());
  EXPECT_EQ(report->stored_plain_drained, 2u);
  ASSERT_OK(column.status());
  EXPECT_EQ(column.sealed_chunks(), 2u);

  ASSERT_OK(column.Append(7));
  auto snap = column.Snapshot();
  ASSERT_OK(snap.status());
  auto back = DecompressChunked(snap->chunked());
  ASSERT_OK(back.status());
  Column<uint32_t> expected = wide;
  expected.push_back(7);
  EXPECT_TRUE(*back == AnyColumn(expected));
}

TEST(RecompressionTest, InFlightSnapshotKeepsPinnedChunksAcrossSwap) {
  // The snapshot-pinning guarantee the scan layer relies on: a snapshot
  // taken before recompression keeps the exact chunk objects it pinned —
  // same pointers, same descriptors — while new snapshots see the swapped
  // envelopes. Both answer queries identically.
  IngestOptions options;
  options.chunk_rows = 512;
  options.descriptor = Ns();
  AppendableColumn column(TypeId::kUInt32, options);
  const Column<uint32_t> rows = testutil::RunsColumn(2048, 0.02, 23);
  ASSERT_OK(column.AppendBatch(AnyColumn(rows)));
  ASSERT_OK(column.Flush());

  auto before = column.Snapshot();
  ASSERT_OK(before.status());
  std::vector<const CompressedChunk*> pinned;
  for (const auto& chunk : before->chunked().chunks()) {
    pinned.push_back(chunk.get());
  }

  RecompressionPolicy policy;
  policy.recompress_pinned = true;
  policy.min_gain = 1.0;
  Recompressor recompressor(policy, ExecContext{});
  auto report = recompressor.RecompressAll(column);
  ASSERT_OK(report.status());
  ASSERT_EQ(report->chunks_reswapped, 4u);

  // The old snapshot still holds the original objects, byte for byte.
  for (size_t i = 0; i < pinned.size(); ++i) {
    EXPECT_EQ(before->chunked().chunks()[i].get(), pinned[i]);
    EXPECT_EQ(before->chunked().chunk(i).column.Descriptor().kind,
              SchemeKind::kNs);
  }
  auto after = column.Snapshot();
  ASSERT_OK(after.status());
  for (uint64_t i = 0; i < after->chunked().num_chunks(); ++i) {
    EXPECT_NE(after->chunked().chunks()[i].get(), pinned[i]);
    EXPECT_NE(after->chunked().chunk(i).column.Descriptor().kind,
              SchemeKind::kNs);
  }

  auto sum_before = exec::SumCompressed(before->chunked());
  auto sum_after = exec::SumCompressed(after->chunked());
  ASSERT_OK(sum_before.status());
  ASSERT_OK(sum_after.status());
  EXPECT_EQ(sum_before->value, sum_after->value);
  auto back_before = DecompressChunked(before->chunked());
  auto back_after = DecompressChunked(after->chunked());
  ASSERT_OK(back_before.status());
  ASSERT_OK(back_after.status());
  EXPECT_TRUE(*back_before == *back_after);
}

TEST(RecompressionTest, ChunkStatsTrackAgeAccessesAndSwaps) {
  AppendableColumn column(TypeId::kUInt32, {128});
  const Column<uint32_t> rows = testutil::RunsColumn(512, 0.05, 29);
  ASSERT_OK(column.AppendBatch(AnyColumn(rows)));
  ASSERT_OK(column.Flush());

  auto infos = column.ChunkInfos();
  ASSERT_EQ(infos.size(), 4u);
  for (uint64_t i = 0; i < infos.size(); ++i) {
    EXPECT_EQ(infos[i].slot, i);
    EXPECT_EQ(infos[i].age_chunks, infos.size() - i - 1);
    EXPECT_EQ(infos[i].snapshot_accesses, 0u);
    EXPECT_EQ(infos[i].recompress_count, 0u);
    EXPECT_TRUE(infos[i].sealed);
    EXPECT_FALSE(infos[i].recompress_pending);
  }

  // Every snapshot that includes a chunk counts as one access.
  for (int s = 0; s < 3; ++s) ASSERT_OK(column.Snapshot().status());
  for (const auto& info : column.ChunkInfos()) {
    EXPECT_EQ(info.snapshot_accesses, 3u);
  }

  // The tail chunk a snapshot copies is not a rolled slot: appending a few
  // rows and snapshotting again bumps only the rolled chunks' counters.
  ASSERT_OK(column.Append(1));
  ASSERT_OK(column.Snapshot().status());
  infos = column.ChunkInfos();
  ASSERT_EQ(infos.size(), 4u);
  for (const auto& info : infos) EXPECT_EQ(info.snapshot_accesses, 4u);
}

TEST(RecompressionTest, TableMaintenanceTickAndRecompressAll) {
  ThreadPool pool(2);
  auto table = Table::Create(
      {
          {"keys", TypeId::kUInt32, {256}, "NS"},
          {"values", TypeId::kUInt32, {256}, ""},
      },
      ExecContext{&pool, 1});
  ASSERT_OK(table.status());
  const Column<uint32_t> keys = testutil::RunsColumn(2048, 0.02, 31);
  const Column<uint32_t> values = testutil::RunsColumn(2048, 0.04, 37);
  ASSERT_OK(table->AppendBatch({AnyColumn(keys), AnyColumn(values)}));
  ASSERT_OK(table->Flush());

  // Default policy: the analyzer-sealed column is already optimal, and the
  // pinned column is skipped — a tick is a no-op.
  auto tick = table->MaintenanceTick();
  ASSERT_OK(tick.status());
  EXPECT_EQ(tick->chunks_examined, 16u);
  EXPECT_EQ(tick->chunks_reswapped, 0u);

  // recompress_pinned migrates "keys" off NS; swap entries carry the
  // column name.
  RecompressionPolicy policy;
  policy.recompress_pinned = true;
  policy.min_gain = 1.0;
  auto report = table->RecompressAll(policy);
  ASSERT_OK(report.status());
  EXPECT_EQ(report->chunks_reswapped, 8u);
  for (const auto& swap : report->swaps) {
    EXPECT_EQ(swap.column, "keys");
  }

  auto snap = table->Snapshot();
  ASSERT_OK(snap.status());
  auto back = DecompressChunked((*snap->column("keys"))->chunked());
  ASSERT_OK(back.status());
  EXPECT_TRUE(*back == AnyColumn(keys));
}

/// Default ingest options with `rows` rows per chunk.
IngestOptions ChunkRows(uint64_t rows) {
  IngestOptions options;
  options.chunk_rows = rows;
  return options;
}

TEST(RecompressionTest, BudgetedTableTicksReachEverySlot) {
  // Table::MaintenanceTick builds a fresh Recompressor per call; a budget
  // of one chunk must still move on each call, because the slot it judged
  // drops out of the candidates.
  auto table = Table::Create({{"k", TypeId::kUInt32, ChunkRows(256), "NS"}});
  ASSERT_OK(table.status());
  const Column<uint32_t> rows = testutil::RunsColumn(2048, 0.02, 43);
  ASSERT_OK(table->AppendBatch({AnyColumn(rows)}));
  ASSERT_OK(table->Flush());

  RecompressionPolicy policy;
  policy.recompress_pinned = true;
  policy.min_gain = 1.0;
  policy.max_chunks_per_tick = 1;
  std::set<uint64_t> swapped;
  for (int call = 0; call < 8; ++call) {
    auto tick = table->MaintenanceTick(policy);
    ASSERT_OK(tick.status());
    EXPECT_EQ(tick->chunks_examined, 8u);
    ASSERT_EQ(tick->swaps.size(), 1u) << "call " << call;
    EXPECT_TRUE(swapped.insert(tick->swaps[0].slot).second)
        << "slot " << tick->swaps[0].slot << " swapped twice";
  }
  auto ninth = table->MaintenanceTick(policy);
  ASSERT_OK(ninth.status());
  EXPECT_EQ(ninth->chunks_scheduled, 0u);

  auto snap = table->Snapshot();
  ASSERT_OK(snap.status());
  auto back = DecompressChunked((*snap->column("k"))->chunked());
  ASSERT_OK(back.status());
  EXPECT_TRUE(*back == AnyColumn(rows));
}

TEST(RecompressionTest, TickSkipsChunksTheIngestAnalyzerJudged) {
  // Seal jobs record the analyzer options that chose each chunk; the
  // default policy prices with the same options, so re-running the search
  // could only answer "keep" and a tick schedules nothing.
  ThreadPool pool(2);
  auto table = Table::Create(
      {
          {"a", TypeId::kUInt32, ChunkRows(256), ""},
          {"b", TypeId::kUInt32, ChunkRows(256), ""},
      },
      ExecContext{&pool, 1});
  ASSERT_OK(table.status());
  ASSERT_OK(table->AppendBatch(
      {AnyColumn(testutil::RunsColumn(2048, 0.02, 47)),
       AnyColumn(testutil::UniformColumn<uint32_t>(2048, 1u << 12, 53))}));
  ASSERT_OK(table->Flush());

  auto tick = table->MaintenanceTick();
  ASSERT_OK(tick.status());
  EXPECT_EQ(tick->chunks_examined, 16u);
  EXPECT_EQ(tick->chunks_scheduled, 0u);
}

TEST(RecompressionTest, TickRepricesOnlyChunksNewToItsAnalyzer) {
  // A policy whose analyzer differs from ingest's prices every chunk once.
  // Under min_gain 1.0 each is either swapped or found no better, so the
  // next tick has nothing left; chunks sealed later by the ingest analyzer
  // are the only new work.
  auto table = Table::Create({{"v", TypeId::kUInt32, ChunkRows(256), ""}});
  ASSERT_OK(table.status());
  ASSERT_OK(
      table->AppendBatch({AnyColumn(testutil::RunsColumn(2048, 0.03, 59))}));
  ASSERT_OK(table->Flush());

  RecompressionPolicy policy;
  policy.analyzer.max_cost_per_value = 1.5;
  policy.min_gain = 1.0;
  auto first = table->MaintenanceTick(policy);
  ASSERT_OK(first.status());
  EXPECT_EQ(first->chunks_scheduled, 8u);
  EXPECT_EQ(first->chunks_failed, 0u);
  auto second = table->MaintenanceTick(policy);
  ASSERT_OK(second.status());
  EXPECT_EQ(second->chunks_scheduled, 0u);

  constexpr uint64_t kNewChunks = 3;
  ASSERT_OK(table->AppendBatch(
      {AnyColumn(testutil::RunsColumn(kNewChunks * 256, 0.03, 61))}));
  ASSERT_OK(table->Flush());
  auto third = table->MaintenanceTick(policy);
  ASSERT_OK(third.status());
  EXPECT_EQ(third->chunks_examined, 8u + kNewChunks);
  EXPECT_LE(third->chunks_scheduled, kNewChunks);
}

TEST(RecompressionTest, BudgetedTicksMovePastAChunkKeptForMinGain) {
  // Slot 0's fresh choice beats its NS pin, but by less than min_gain; the
  // other slots beat it by far more. The kept slot is judged like a swapped
  // one, so a reused Recompressor under a one-chunk budget reaches every
  // other slot in turn instead of re-pricing slot 0 on every tick.
  IngestOptions options = ChunkRows(256);
  options.descriptor = Ns();
  AppendableColumn column(TypeId::kUInt32, options);
  Column<uint32_t> rows = testutil::UniformColumn<uint32_t>(256, 1u << 16, 67);
  rows[7] = 1u << 31;  // One outlier: the pin packs every value in 32 bits.
  const Column<uint32_t> first_chunk = rows;
  for (uint32_t c = 1; c < 8; ++c) {
    for (uint32_t i = 0; i < 256; ++i) rows.push_back(c * 10 + i / 64);
  }
  ASSERT_OK(column.AppendBatch(AnyColumn(rows)));
  ASSERT_OK(column.Flush());

  RecompressionPolicy policy;
  policy.recompress_pinned = true;
  policy.min_gain = 10.0;
  policy.max_chunks_per_tick = 1;
  const uint64_t pinned_bytes =
      column.ChunkInfos()[0].chunk->column.PayloadBytes();
  auto fresh = CompressChunkedAuto(AnyColumn(first_chunk), {256},
                                   policy.analyzer);
  ASSERT_OK(fresh.status());
  ASSERT_GT(pinned_bytes, fresh->PayloadBytes());
  ASSERT_LE(pinned_bytes, fresh->PayloadBytes() * policy.min_gain);

  const Recompressor recompressor(policy);
  auto kept = recompressor.Tick(column);
  ASSERT_OK(kept.status());
  EXPECT_EQ(kept->chunks_scheduled, 1u);
  EXPECT_EQ(kept->chunks_kept, 1u);
  std::set<uint64_t> swapped;
  for (int call = 1; call < 8; ++call) {
    auto tick = recompressor.Tick(column);
    ASSERT_OK(tick.status());
    ASSERT_EQ(tick->swaps.size(), 1u) << "call " << call;
    swapped.insert(tick->swaps[0].slot);
  }
  EXPECT_EQ(swapped, (std::set<uint64_t>{1, 2, 3, 4, 5, 6, 7}));
  auto last = recompressor.Tick(column);
  ASSERT_OK(last.status());
  EXPECT_EQ(last->chunks_scheduled, 0u);
}

TEST(RecompressionTest, TableBackgroundMaintenanceLifecycle) {
  ThreadPool pool(2);
  auto table = Table::Create(
      {
          {"k", TypeId::kUInt32, {128}, "NS"},
      },
      ExecContext{&pool, 1});
  ASSERT_OK(table.status());

  RecompressionPolicy policy;
  policy.recompress_pinned = true;
  policy.min_gain = 1.0;
  EXPECT_FALSE(table->maintenance_running());
  EXPECT_FALSE(table->StartMaintenance({.min_gain = 0.5}).ok());
  ASSERT_OK(table->StartMaintenance(policy, std::chrono::milliseconds(1)));
  EXPECT_TRUE(table->maintenance_running());
  EXPECT_FALSE(table->StartMaintenance(policy).ok());  // Already running.

  const Column<uint32_t> rows = testutil::RunsColumn(1024, 0.02, 41);
  ASSERT_OK(table->AppendBatch({AnyColumn(rows)}));
  ASSERT_OK(table->Flush());

  // The background thread must reswap all 8 pinned chunks eventually.
  for (int spin = 0; spin < 10000; ++spin) {
    if (table->maintenance_report().chunks_reswapped >= 8) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  table->StopMaintenance();
  EXPECT_FALSE(table->maintenance_running());
  table->StopMaintenance();  // Idempotent.

  const RecompressionReport report = table->maintenance_report();
  // >= and not ==: a chunk the maintenance thread caught as stored-plain
  // backlog drains to the pinned NS form first and migrates off the pin in
  // a later tick — two legitimate swaps for one slot.
  EXPECT_GE(report.chunks_reswapped, 8u);
  EXPECT_GT(report.BytesSaved(), 0u);

  // A restart keeps the accumulated history.
  ASSERT_OK(table->StartMaintenance(policy, std::chrono::milliseconds(1)));
  table->StopMaintenance();
  EXPECT_GE(table->maintenance_report().chunks_reswapped, 8u);

  auto snap = table->Snapshot();
  ASSERT_OK(snap.status());
  auto back = DecompressChunked((*snap->column("k"))->chunked());
  ASSERT_OK(back.status());
  EXPECT_TRUE(*back == AnyColumn(rows));
}

}  // namespace
}  // namespace recomp
