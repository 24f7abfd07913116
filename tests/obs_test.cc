// Tests for the observability layer (src/obs/): metric primitives, the
// registry and its snapshots, scoped tracing, and the instrumentation wired
// through the subsystems. The registry is process-wide and other tests in
// this binary move its counters, so every assertion here is DELTA-based —
// snapshot before, act, snapshot after — never an absolute value.
//
// The concurrent cases double as the TSan coverage for metrics: CI runs the
// whole binary under -fsanitize=thread, so writers racing Snapshot() here
// prove the relaxed-atomic contract (untorn cells, monotone counters).

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "core/descriptor.h"
#include "core/fused.h"
#include "core/serialize.h"
#include "exec/scan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ops/dispatch.h"
#include "store/table.h"
#include "test_util.h"

namespace recomp {
namespace {

using obs::MetricsSnapshot;
using obs::Registry;

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

TEST(ObsCounterTest, AddsAndSums) {
  obs::Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(ObsCounterTest, ConcurrentAddsAreExactAfterJoin) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(ObsGaugeTest, SetAddSubtract) {
  obs::Gauge g;
  EXPECT_EQ(g.Value(), 0);
  g.Set(10);
  g.Add(5);
  g.Subtract(20);
  EXPECT_EQ(g.Value(), -5);
}

TEST(ObsHistogramTest, BucketsByBitWidth) {
  obs::Histogram h;
  h.Record(0);     // bucket 0
  h.Record(1);     // bucket 1
  h.Record(2);     // bucket 2: [2, 4)
  h.Record(3);     // bucket 2
  h.Record(1024);  // bucket 11: [1024, 2048)
  const obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 0u + 1 + 2 + 3 + 1024);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 2u);
  EXPECT_EQ(snap.buckets[11], 1u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 1030.0 / 5.0);
}

TEST(ObsHistogramTest, BucketBounds) {
  EXPECT_EQ(obs::HistogramBucketBound(0), 0u);
  EXPECT_EQ(obs::HistogramBucketBound(1), 1u);
  EXPECT_EQ(obs::HistogramBucketBound(2), 3u);
  EXPECT_EQ(obs::HistogramBucketBound(11), 2047u);
  EXPECT_EQ(obs::HistogramBucketBound(obs::kHistogramBuckets - 1),
            ~uint64_t{0});
}

TEST(ObsHistogramTest, QuantileReturnsBucketUpperBound) {
  obs::Histogram h;
  for (int i = 0; i < 99; ++i) h.Record(2);  // bucket 2, bound 3
  h.Record(1u << 20);                        // bucket 21
  const obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.Quantile(0.5), 3u);
  EXPECT_EQ(snap.Quantile(0.0), 3u);
  EXPECT_EQ(snap.Quantile(1.0), obs::HistogramBucketBound(21));
  EXPECT_EQ(obs::HistogramSnapshot{}.Quantile(0.5), 0u);
}

TEST(ObsEnabledTest, KillSwitchDropsUpdates) {
  obs::Counter c;
  obs::Gauge g;
  obs::Histogram h;
  ASSERT_TRUE(obs::Enabled());
  obs::SetEnabled(false);
  c.Increment();
  g.Set(7);
  h.Record(100);
  obs::SetEnabled(true);
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(g.Value(), 0);
  EXPECT_EQ(h.Snapshot().count, 0u);
  c.Increment();  // And back on.
  EXPECT_EQ(c.Value(), 1u);
}

// ---------------------------------------------------------------------------
// Registry and snapshots
// ---------------------------------------------------------------------------

TEST(ObsRegistryTest, SameNameSameMetric) {
  obs::Counter& a = Registry::Get().GetCounter("obs_test.same_name");
  obs::Counter& b = Registry::Get().GetCounter("obs_test.same_name");
  EXPECT_EQ(&a, &b);
  obs::Histogram& ha = Registry::Get().GetHistogram("obs_test.same_hist");
  obs::Histogram& hb = Registry::Get().GetHistogram("obs_test.same_hist");
  EXPECT_EQ(&ha, &hb);
}

TEST(ObsRegistryTest, SnapshotReflectsUpdates) {
  obs::Counter& c = Registry::Get().GetCounter("obs_test.snap_counter");
  obs::Gauge& g = Registry::Get().GetGauge("obs_test.snap_gauge");
  obs::Histogram& h = Registry::Get().GetHistogram("obs_test.snap_hist");
  const MetricsSnapshot before = Registry::Get().Snapshot();
  c.Add(3);
  g.Add(-2);
  h.Record(5);
  const MetricsSnapshot after = Registry::Get().Snapshot();
  EXPECT_EQ(after.counter("obs_test.snap_counter") -
                before.counter("obs_test.snap_counter"),
            3u);
  EXPECT_EQ(after.gauge("obs_test.snap_gauge") -
                before.gauge("obs_test.snap_gauge"),
            -2);
  EXPECT_EQ(after.histogram("obs_test.snap_hist").count -
                before.histogram("obs_test.snap_hist").count,
            1u);
}

TEST(ObsRegistryTest, AbsentNamesReadAsZero) {
  const MetricsSnapshot snap = Registry::Get().Snapshot();
  EXPECT_EQ(snap.counter("obs_test.never_created"), 0u);
  EXPECT_EQ(snap.gauge("obs_test.never_created"), 0);
  EXPECT_EQ(snap.histogram("obs_test.never_created").count, 0u);
}

TEST(ObsRegistryTest, SnapshotSectionsAreSortedByName) {
  Registry::Get().GetCounter("obs_test.sort.b");
  Registry::Get().GetCounter("obs_test.sort.a");
  const MetricsSnapshot snap = Registry::Get().Snapshot();
  for (size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
}

TEST(ObsRegistryTest, TextAndJsonExposition) {
  Registry::Get().GetCounter("obs_test.expo_counter").Add(12);
  Registry::Get().GetGauge("obs_test.expo_gauge").Set(-4);
  Registry::Get().GetHistogram("obs_test.expo_hist").Record(9);
  const MetricsSnapshot snap = Registry::Get().Snapshot();
  const std::string text = snap.ToText();
  EXPECT_NE(text.find("obs_test.expo_counter"), std::string::npos);
  EXPECT_NE(text.find("obs_test.expo_gauge"), std::string::npos);
  EXPECT_NE(text.find("obs_test.expo_hist"), std::string::npos);
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.expo_counter\""), std::string::npos);
}

// Satellite 4 (TSan coverage): writer threads hammer one counter, one gauge,
// and one histogram while the main thread snapshots concurrently. Under
// -fsanitize=thread this proves the relaxed-atomic update/snapshot contract;
// everywhere it proves counters read monotone across snapshots and exact
// once writers quiesce.
TEST(ObsConcurrencyTest, SnapshotsRaceWritersSafely) {
  obs::Counter& c = Registry::Get().GetCounter("obs_test.race_counter");
  obs::Gauge& g = Registry::Get().GetGauge("obs_test.race_gauge");
  obs::Histogram& h = Registry::Get().GetHistogram("obs_test.race_hist");
  const MetricsSnapshot before = Registry::Get().Snapshot();
  const uint64_t base = before.counter("obs_test.race_counter");

  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        c.Increment();
        g.Add(1);
        h.Record(i & 1023);
      }
    });
  }

  uint64_t last = base;
  for (int i = 0; i < 50; ++i) {
    const MetricsSnapshot snap = Registry::Get().Snapshot();
    const uint64_t now = snap.counter("obs_test.race_counter");
    EXPECT_GE(now, last) << "counter went backwards across snapshots";
    last = now;
    // A histogram snapshot derives count from its buckets, so it is
    // self-consistent even mid-write.
    const obs::HistogramSnapshot hist = snap.histogram("obs_test.race_hist");
    uint64_t bucket_total = 0;
    for (uint64_t b : hist.buckets) bucket_total += b;
    EXPECT_EQ(hist.count, bucket_total);
  }
  for (auto& t : writers) t.join();

  const MetricsSnapshot after = Registry::Get().Snapshot();
  EXPECT_EQ(after.counter("obs_test.race_counter") - base,
            kThreads * kPerThread);
  EXPECT_EQ(after.gauge("obs_test.race_gauge") -
                before.gauge("obs_test.race_gauge"),
            static_cast<int64_t>(kThreads * kPerThread));
  EXPECT_EQ(after.histogram("obs_test.race_hist").count -
                before.histogram("obs_test.race_hist").count,
            kThreads * kPerThread);
}

// ---------------------------------------------------------------------------
// Tracing: spans, profiles, thread-local context
// ---------------------------------------------------------------------------

TEST(ObsTraceTest, SpanRecordsIntoRegistryHistogram) {
  const MetricsSnapshot before = Registry::Get().Snapshot();
  { const obs::Span span("obs_test.span"); }
  const MetricsSnapshot after = Registry::Get().Snapshot();
  EXPECT_EQ(after.histogram("span.obs_test.span").count -
                before.histogram("span.obs_test.span").count,
            1u);
}

TEST(ObsTraceTest, ProfileCapturesPhasesAndCounters) {
  obs::ScanProfile profile;
  EXPECT_EQ(obs::CurrentProfile(), nullptr);
  {
    const obs::ProfileScope scope(&profile);
    EXPECT_EQ(obs::CurrentProfile(), &profile);
    { const obs::Span span("obs_test.phase_a"); }
    { const obs::Span span("obs_test.phase_b"); }
    profile.AddCounter("rows", 10);
    profile.AddCounter("rows", 5);
  }
  EXPECT_EQ(obs::CurrentProfile(), nullptr);
  ASSERT_EQ(profile.phases().size(), 2u);
  EXPECT_EQ(profile.phases()[0].name, "obs_test.phase_a");
  EXPECT_EQ(profile.phases()[1].name, "obs_test.phase_b");
  EXPECT_EQ(profile.counter("rows"), 15u);
  EXPECT_EQ(profile.counter("absent"), 0u);
  const std::string text = profile.ToString();
  EXPECT_NE(text.find("obs_test.phase_a"), std::string::npos);
  EXPECT_NE(text.find("rows"), std::string::npos);
}

TEST(ObsTraceTest, TotalCountsOnlyOutermostSpans) {
  obs::ScanProfile profile;
  {
    const obs::ProfileScope scope(&profile);
    const obs::Span outer("obs_test.outer");
    const obs::Span inner("obs_test.inner");  // Nested: not in total_ns.
  }
  ASSERT_EQ(profile.phases().size(), 2u);
  // Inner closes first (reverse destruction order); only the outer phase
  // contributes to total_ns, so total equals the outer phase exactly.
  EXPECT_EQ(profile.phases()[0].name, "obs_test.inner");
  EXPECT_EQ(profile.total_ns(), profile.phases()[1].ns);
  EXPECT_LE(profile.phases()[0].ns, profile.total_ns());
}

TEST(ObsTraceTest, ProfileScopesNestAndRestore) {
  obs::ScanProfile outer_profile;
  obs::ScanProfile inner_profile;
  {
    const obs::ProfileScope outer(&outer_profile);
    {
      const obs::ProfileScope inner(&inner_profile);
      EXPECT_EQ(obs::CurrentProfile(), &inner_profile);
      { const obs::Span span("obs_test.nested_scope"); }
    }
    EXPECT_EQ(obs::CurrentProfile(), &outer_profile);
  }
  EXPECT_EQ(inner_profile.phases().size(), 1u);
  EXPECT_TRUE(outer_profile.phases().empty());
}

TEST(ObsTraceTest, SpansOnOtherThreadsSkipTheProfile) {
  obs::ScanProfile profile;
  {
    const obs::ProfileScope scope(&profile);
    std::thread worker([] {
      // The profile context is thread-local: this span must not land in the
      // installing thread's profile (only in the global histogram).
      const obs::Span span("obs_test.other_thread");
    });
    worker.join();
  }
  EXPECT_TRUE(profile.phases().empty());
}

// ---------------------------------------------------------------------------
// Dispatch counters (satellite: prove the AVX2 kernels actually execute)
// ---------------------------------------------------------------------------

// Regression test for "the build quietly lost its vector kernels": when
// AVX2 is compiled in and the CPU supports it, a fused decode of a u32
// column must count on the avx2 side of the dispatch counters, not the
// scalar side.
TEST(ObsDispatchTest, Avx2PathCountsWhenAvailable) {
  if (std::getenv("RECOMP_FORCE_SCALAR") != nullptr) {
    GTEST_SKIP() << "RECOMP_FORCE_SCALAR is set: scalar dispatch is forced";
  }
  if (!ops::HasAvx2()) {
    GTEST_SKIP() << "AVX2 not compiled in or not supported by this CPU";
  }
  const auto col = testutil::UniformColumn<uint32_t>(4096, 1u << 20, 99);
  const auto compressed = Compress(AnyColumn(col), Ns());
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();

  const MetricsSnapshot before = Registry::Get().Snapshot();
  const auto back = FusedDecompress(*compressed);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const MetricsSnapshot after = Registry::Get().Snapshot();

  EXPECT_EQ(after.counter("fused.decode.ns.avx2") -
                before.counter("fused.decode.ns.avx2"),
            1u);
  EXPECT_EQ(after.counter("fused.decode.ns.scalar") -
                before.counter("fused.decode.ns.scalar"),
            0u);
  EXPECT_EQ(after.counter("fused.decoded_bytes.ns.avx2") -
                before.counter("fused.decoded_bytes.ns.avx2"),
            4096u * sizeof(uint32_t));
  EXPECT_EQ(after.gauge("dispatch.avx2_live"), 1);

  // The AVX2 kernels are u32-only: a u64 column decodes, and counts, on the
  // scalar side while AVX2 dispatch stays live.
  const auto wide = testutil::UniformColumn<uint64_t>(4096, 1ull << 40, 98);
  const auto compressed64 = Compress(AnyColumn(wide), Ns());
  ASSERT_TRUE(compressed64.ok()) << compressed64.status().ToString();
  const MetricsSnapshot before64 = Registry::Get().Snapshot();
  ASSERT_TRUE(FusedDecompress(*compressed64).ok());
  const MetricsSnapshot after64 = Registry::Get().Snapshot();
  EXPECT_EQ(after64.counter("fused.decode.ns.scalar") -
                before64.counter("fused.decode.ns.scalar"),
            1u);
  EXPECT_EQ(after64.counter("fused.decode.ns.avx2") -
                before64.counter("fused.decode.ns.avx2"),
            0u);
  EXPECT_EQ(after64.gauge("dispatch.avx2_live"), 1);
}

TEST(ObsDispatchTest, ForcedScalarCountsOnTheScalarSide) {
  const auto col = testutil::UniformColumn<uint32_t>(1024, 1u << 16, 7);
  const auto compressed = Compress(AnyColumn(col), Ns());
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();

  ops::ForceScalar(true);
  const MetricsSnapshot before = Registry::Get().Snapshot();
  const auto back = FusedDecompress(*compressed);
  const MetricsSnapshot after = Registry::Get().Snapshot();
  ops::ForceScalar(false);
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  EXPECT_EQ(after.counter("fused.decode.ns.scalar") -
                before.counter("fused.decode.ns.scalar"),
            1u);
  EXPECT_EQ(after.counter("fused.decode.ns.avx2") -
                before.counter("fused.decode.ns.avx2"),
            0u);
  EXPECT_EQ(after.gauge("dispatch.avx2_live"), 0);
}

// ---------------------------------------------------------------------------
// Subsystem rollups: scan, stats ToString, serialize, end-to-end
// ---------------------------------------------------------------------------

// Satellite 3: the per-scan stats structs roll up into the global registry
// at scan exit, and both render via ToString().
TEST(ObsScanRollupTest, ScanFoldsStatsIntoRegistryAndProfile) {
  ThreadPool pool(2);
  const ExecContext ctx{&pool};
  std::vector<store::ColumnSpec> specs(2);
  specs[0].name = "k";
  specs[0].type = TypeId::kUInt32;
  specs[1].name = "v";
  specs[1].type = TypeId::kUInt32;
  auto table = store::Table::Create(specs, ctx);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  std::vector<AnyColumn> batch(2);
  batch[0] = AnyColumn(testutil::RunsColumn(20000, 0.01, 3));
  batch[1] = AnyColumn(testutil::UniformColumn<uint32_t>(20000, 1000, 4));
  ASSERT_OK(table->AppendBatch(batch));
  ASSERT_OK(table->Flush());
  const auto snap = table->Snapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  exec::ScanSpec spec;
  spec.Filter("v", {0, 499}).Project({"k"});
  const MetricsSnapshot before = Registry::Get().Snapshot();
  obs::ScanProfile profile;
  Result<exec::ScanResult> result{exec::ScanResult{}};
  {
    const obs::ProfileScope scope(&profile);
    result = exec::Scan(*snap, spec, ctx);
  }
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const MetricsSnapshot after = Registry::Get().Snapshot();

  // Registry deltas match the result's own stats.
  EXPECT_EQ(after.counter("scan.queries") - before.counter("scan.queries"),
            1u);
  EXPECT_EQ(after.counter("scan.rows_scanned") -
                before.counter("scan.rows_scanned"),
            result->rows_scanned);
  EXPECT_EQ(after.counter("scan.rows_matched") -
                before.counter("scan.rows_matched"),
            result->rows_matched);
  ASSERT_EQ(result->filters.size(), 1u);
  const exec::ChunkedSelectionStats& fstats = result->filters[0].stats;
  EXPECT_EQ(after.counter("scan.chunks_executed") -
                before.counter("scan.chunks_executed"),
            fstats.chunks_executed);
  ASSERT_EQ(result->projections.size(), 1u);
  const exec::GatherStats& gstats = result->projections[0].gather;
  EXPECT_EQ(after.counter("gather.rows") - before.counter("gather.rows"),
            gstats.rows);
  EXPECT_EQ(after.counter("gather.chunks_touched") -
                before.counter("gather.chunks_touched"),
            gstats.chunks_touched);
  EXPECT_EQ(after.histogram("scan.selectivity_permille").count -
                before.histogram("scan.selectivity_permille").count,
            1u);

  // The profile got the same numbers via the thread-local context.
  EXPECT_EQ(profile.counter("rows_scanned"), result->rows_scanned);
  EXPECT_EQ(profile.counter("rows_matched"), result->rows_matched);
  EXPECT_EQ(profile.counter("gather_rows"), gstats.rows);
  // And the scan phases were spanned.
  bool saw_filter = false;
  bool saw_materialize = false;
  for (const auto& phase : profile.phases()) {
    saw_filter |= phase.name == "scan.filter";
    saw_materialize |= phase.name == "scan.materialize";
  }
  EXPECT_TRUE(saw_filter);
  EXPECT_TRUE(saw_materialize);

  // Both stats structs render human-readably.
  const std::string ftext = fstats.ToString();
  EXPECT_NE(ftext.find("chunks total="), std::string::npos);
  EXPECT_NE(ftext.find("executed="), std::string::npos);
  const std::string gtext = gstats.ToString();
  EXPECT_NE(gtext.find("rows="), std::string::npos);
  EXPECT_NE(gtext.find("chunks_touched="), std::string::npos);
}

TEST(ObsSerializeTest, RoundTripCountsBytesBothWays) {
  const auto col = testutil::UniformColumn<uint32_t>(2048, 1u << 12, 11);
  const auto compressed = Compress(AnyColumn(col), Ns());
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  const MetricsSnapshot before = Registry::Get().Snapshot();
  const auto buffer = Serialize(*compressed);
  ASSERT_TRUE(buffer.ok()) << buffer.status().ToString();
  const auto back = Deserialize(*buffer);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const MetricsSnapshot after = Registry::Get().Snapshot();
  EXPECT_EQ(after.counter("serialize.bytes_written") -
                before.counter("serialize.bytes_written"),
            buffer->size());
  EXPECT_EQ(after.counter("serialize.bytes_read") -
                before.counter("serialize.bytes_read"),
            buffer->size());
  EXPECT_EQ(after.counter("serialize.envelopes_written") -
                before.counter("serialize.envelopes_written"),
            1u);
  EXPECT_EQ(after.counter("serialize.envelopes_read") -
                before.counter("serialize.envelopes_read"),
            1u);
}

// Recompression's analyzer choices are priced (analyzer.estimated_bytes)
// and realized (analyzer.actual_bytes) like ingest's: migrating a pinned
// column, which ingest sealed without the analyzer, moves both.
TEST(ObsRecompressTest, MigrationCountsActualBytes) {
  store::IngestOptions options;
  options.chunk_rows = 512;
  options.descriptor = Ns();
  store::AppendableColumn column(TypeId::kUInt32, options);
  ASSERT_OK(column.AppendBatch(AnyColumn(testutil::RunsColumn(4096, 0.02, 7))));
  ASSERT_OK(column.Flush());

  const MetricsSnapshot before = Registry::Get().Snapshot();
  store::RecompressionPolicy policy;
  policy.recompress_pinned = true;
  policy.min_gain = 1.0;
  const auto report = store::Recompressor(policy).RecompressAll(column);
  ASSERT_OK(report.status());
  ASSERT_EQ(report->chunks_reswapped, 8u);
  const MetricsSnapshot after = Registry::Get().Snapshot();

  EXPECT_GT(after.counter("analyzer.estimated_bytes"),
            before.counter("analyzer.estimated_bytes"));
  // Each chunk is chosen once and swapped: the realized bytes are exactly
  // the migrated chunks' payloads.
  EXPECT_EQ(after.counter("analyzer.actual_bytes") -
                before.counter("analyzer.actual_bytes"),
            report->bytes_after);
}

// The acceptance-style end-to-end: one mixed ingest/scan/recompress workload
// moves counters in every instrumented subsystem.
TEST(ObsIntegrationTest, MixedWorkloadTouchesEverySubsystem) {
  const MetricsSnapshot before = Registry::Get().Snapshot();
  {
    ThreadPool pool(2);
    const ExecContext ctx{&pool};
    std::vector<store::ColumnSpec> specs(2);
    specs[0].name = "a";
    specs[0].type = TypeId::kUInt32;
    specs[1].name = "b";
    specs[1].type = TypeId::kUInt32;
    auto table = store::Table::Create(specs, ctx);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    std::vector<AnyColumn> batch(2);
    batch[0] = AnyColumn(testutil::RunsColumn(30000, 0.02, 5));
    batch[1] = AnyColumn(testutil::UniformColumn<uint32_t>(30000, 50000, 6));
    ASSERT_OK(table->AppendBatch(batch));
    ASSERT_OK(table->Flush());

    const auto snap = table->Snapshot();
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    exec::ScanSpec spec;
    spec.Filter("b", {0, 25000}).Aggregate("a", exec::AggregateOp::kSum);
    const auto scanned = exec::Scan(*snap, spec, ctx);
    ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();

    store::RecompressionPolicy policy;
    // Analyzer options unlike ingest's: no sealed chunk is judged under
    // them yet, so the pass re-prices every one.
    policy.analyzer.max_cost_per_value = 1.5;
    policy.min_age_chunks = 0;
    const auto recompressed = table->RecompressAll(policy);
    ASSERT_TRUE(recompressed.ok()) << recompressed.status().ToString();

    // DebugString includes the column shapes and the registry exposition.
    const std::string debug = table->DebugString();
    EXPECT_NE(debug.find("column a"), std::string::npos);
    EXPECT_NE(debug.find("scan.queries"), std::string::npos);
  }
  const MetricsSnapshot after = store::Table::MetricsSnapshot();

  const auto delta = [&](const char* name) {
    return after.counter(name) - before.counter(name);
  };
  // Pool: seal jobs ran on workers.
  EXPECT_GT(delta("pool.tasks.normal"), 0u);
  // Store: tails sealed; the recompressor examined the sealed chunks.
  EXPECT_GT(delta("store.seal.completed"), 0u);
  EXPECT_GT(delta("store.recompress.swapped") + delta("store.recompress.kept"),
            0u);
  // Analyzer: per-chunk choices were made and priced.
  EXPECT_GT(delta("analyzer.choices"), 0u);
  EXPECT_GT(delta("analyzer.estimated_bytes"), 0u);
  EXPECT_GT(delta("analyzer.actual_bytes"), 0u);
  // Scan: one query with real pruning counters.
  EXPECT_GT(delta("scan.queries"), 0u);
  EXPECT_GT(delta("scan.rows_scanned"), 0u);
  // Fused decode: some path (scalar or avx2) moved.
  uint64_t decode_delta = 0;
  for (const auto& cv : after.counters) {
    if (cv.name.rfind("fused.decode.", 0) == 0) {
      decode_delta += cv.value - before.counter(cv.name);
    }
  }
  EXPECT_GT(decode_delta, 0u);
  // Latency histograms observed the seal and recompress jobs.
  EXPECT_GT(after.histogram("store.seal_ns").count -
                before.histogram("store.seal_ns").count,
            0u);
  EXPECT_GT(after.histogram("store.recompress_ns").count -
                before.histogram("store.recompress_ns").count,
            0u);
}

}  // namespace
}  // namespace recomp
