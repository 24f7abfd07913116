// The composable scan (exec/scan.h): multi-column filter → gather →
// aggregate over table snapshots and single chunked columns.
//
// Everything is checked two ways: against a decompress-everything oracle
// (filter the plain rows, gather the plain values, fold plainly), and for
// bit-identical results — positions, values, aggregates, every stats
// counter — across thread counts. Plus the zone-map intersection edge
// cases: a chunk pruned on one column but not another, empty chunks,
// chunks without min/max, and predicates over a live table's stored-plain
// ID tail.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/catalog.h"
#include "core/chunked.h"
#include "core/descriptor.h"
#include "core/pipeline.h"
#include "exec/aggregate.h"
#include "exec/point_access.h"
#include "exec/scan.h"
#include "exec/selection.h"
#include "gen/generators.h"
#include "store/table.h"
#include "test_util.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace recomp {
namespace {

using exec::AggregateOp;
using exec::RangePredicate;
using exec::Scan;
using exec::ScanResult;
using exec::ScanSpec;
using testutil::OracleSelect;

constexpr uint64_t kChunk = 1024;

/// A drifting column: runs, then noise, then a sorted stretch.
Column<uint32_t> MixedShapes(uint64_t part, uint64_t seed) {
  Column<uint32_t> out = gen::SortedRuns(part, 40.0, 2, seed);
  Column<uint32_t> noise = gen::Uniform(part, uint64_t{1} << 24, seed + 1);
  out.insert(out.end(), noise.begin(), noise.end());
  for (uint64_t i = 0; i < part; ++i) {
    out.push_back((uint32_t{1} << 25) + static_cast<uint32_t>(3 * i));
  }
  return out;
}

void ExpectFilterStatsIdentical(const exec::ChunkedSelectionStats& a,
                                const exec::ChunkedSelectionStats& b) {
  EXPECT_EQ(a.chunks_total, b.chunks_total);
  EXPECT_EQ(a.chunks_pruned, b.chunks_pruned);
  EXPECT_EQ(a.chunks_full, b.chunks_full);
  EXPECT_EQ(a.chunks_executed, b.chunks_executed);
  EXPECT_EQ(a.values_decoded, b.values_decoded);
  for (int s = 0; s < exec::kNumStrategies; ++s) {
    EXPECT_EQ(a.strategy_chunks[s], b.strategy_chunks[s]) << s;
  }
  ASSERT_EQ(a.per_chunk.size(), b.per_chunk.size());
  for (size_t i = 0; i < a.per_chunk.size(); ++i) {
    EXPECT_EQ(a.per_chunk[i].chunk_index, b.per_chunk[i].chunk_index);
    EXPECT_EQ(static_cast<int>(a.per_chunk[i].stats.strategy),
              static_cast<int>(b.per_chunk[i].stats.strategy));
  }
}

/// Asserts two scan results are bit-identical (the thread-count contract).
void ExpectScansIdentical(const ScanResult& a, const ScanResult& b) {
  EXPECT_EQ(a.rows_scanned, b.rows_scanned);
  EXPECT_EQ(a.rows_matched, b.rows_matched);
  EXPECT_EQ(a.positions, b.positions);
  ASSERT_EQ(a.filters.size(), b.filters.size());
  for (size_t f = 0; f < a.filters.size(); ++f) {
    ExpectFilterStatsIdentical(a.filters[f].stats, b.filters[f].stats);
  }
  ASSERT_EQ(a.projections.size(), b.projections.size());
  for (size_t p = 0; p < a.projections.size(); ++p) {
    EXPECT_TRUE(a.projections[p].values == b.projections[p].values);
    EXPECT_EQ(a.projections[p].gather.rows, b.projections[p].gather.rows);
    EXPECT_EQ(a.projections[p].gather.chunks_touched,
              b.projections[p].gather.chunks_touched);
  }
  ASSERT_EQ(a.aggregates.size(), b.aggregates.size());
  for (size_t g = 0; g < a.aggregates.size(); ++g) {
    EXPECT_EQ(a.aggregates[g].value(), b.aggregates[g].value());
    EXPECT_EQ(a.aggregates[g].rows, b.aggregates[g].rows);
    EXPECT_EQ(a.aggregates[g].agg.chunks_pruned,
              b.aggregates[g].agg.chunks_pruned);
    EXPECT_EQ(a.aggregates[g].agg.chunks_executed,
              b.aggregates[g].agg.chunks_executed);
  }
}

// ---------------------------------------------------------------------------
// Spec validation.
// ---------------------------------------------------------------------------

TEST(ScanTest, EmptySpecRejected) {
  const Column<uint32_t> col = MixedShapes(100, 3);
  auto chunked = CompressChunkedAuto(AnyColumn(col), {kChunk});
  ASSERT_OK(chunked.status());
  const auto result = Scan(*chunked, ScanSpec{});
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().code() == StatusCode::kInvalidArgument)
      << result.status().ToString();
}

TEST(ScanTest, SingleColumnScanRejectsNamedColumns) {
  const Column<uint32_t> col = MixedShapes(100, 5);
  auto chunked = CompressChunkedAuto(AnyColumn(col), {kChunk});
  ASSERT_OK(chunked.status());
  ScanSpec spec;
  spec.Filter("amount", RangePredicate{});
  const auto result = Scan(*chunked, spec);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().code() == StatusCode::kKeyError)
      << result.status().ToString();
}

TEST(ScanTest, UnknownSnapshotColumnRejected) {
  auto table = store::Table::Create({{"a", TypeId::kUInt32, {kChunk}, ""}});
  ASSERT_OK(table.status());
  ASSERT_OK(table->AppendRow({1}));
  auto snap = table->Snapshot();
  ASSERT_OK(snap.status());
  for (ScanSpec spec : {ScanSpec().Filter("nope", RangePredicate{}),
                        ScanSpec().Project({"nope"}),
                        ScanSpec().Aggregate("nope", AggregateOp::kSum)}) {
    const auto result = Scan(*snap, spec);
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(result.status().code() == StatusCode::kKeyError)
        << result.status().ToString();
  }
}

TEST(ScanTest, LookupErrorsNameTheRoleAndColumn) {
  // A failing multi-column spec must say which reference broke and in what
  // role — "projection column 'gone': …", not a bare "no column named".
  auto table = store::Table::Create({{"a", TypeId::kUInt32, {kChunk}, ""}});
  ASSERT_OK(table.status());
  ASSERT_OK(table->AppendRow({1}));
  auto snap = table->Snapshot();
  ASSERT_OK(snap.status());

  struct Case {
    ScanSpec spec;
    std::string needle;
  };
  const Case cases[] = {
      {ScanSpec().Filter("nope", RangePredicate{}), "filter column 'nope'"},
      {ScanSpec().Project({"gone"}), "projection column 'gone'"},
      {ScanSpec().Aggregate("axed", AggregateOp::kSum),
       "aggregate column 'axed'"},
  };
  for (const Case& c : cases) {
    const auto result = Scan(*snap, c.spec);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kKeyError);
    EXPECT_NE(result.status().message().find(c.needle), std::string::npos)
        << result.status().ToString();
  }

  // Mixed specs report the first failing reference in spec-section order
  // (filters, then projections, then aggregates).
  ScanSpec mixed;
  mixed.Filter("a", RangePredicate{}).Project({"gone"}).Aggregate(
      "axed", AggregateOp::kSum);
  const auto result = Scan(*snap, mixed);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("projection column 'gone'"),
            std::string::npos)
      << result.status().ToString();
}

TEST(ScanTest, EmptyNameErrorsKeepTheLegacyMessages) {
  // The single-column API addresses its column with the empty name; its
  // errors must stay byte-identical to the per-operator free functions'
  // (no "filter column ''" prefix).
  const Column<uint32_t> col = MixedShapes(100, 7);
  auto chunked = CompressChunkedAuto(AnyColumn(col), {kChunk});
  ASSERT_OK(chunked.status());
  const auto result =
      Scan(*chunked, ScanSpec().Filter("missing", RangePredicate{}));
  ASSERT_FALSE(result.ok());
  // A *named* reference on the single-column API is wrapped with its role…
  EXPECT_NE(result.status().message().find("filter column 'missing'"),
            std::string::npos)
      << result.status().ToString();
  // …while empty-name specs never gain a prefix (an empty scan spec is the
  // simplest probe: its message has no column role in it).
  const auto empty = Scan(*chunked, ScanSpec{});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().message().find("column '"), std::string::npos)
      << empty.status().ToString();
}

// ---------------------------------------------------------------------------
// Single-column scans vs the oracle and the legacy wrappers.
// ---------------------------------------------------------------------------

TEST(ScanTest, SingleFilterAgreesWithLegacySelectAndOracle) {
  const Column<uint32_t> col = MixedShapes(2 * kChunk + 77, 11);
  auto chunked = CompressChunkedAuto(AnyColumn(col), {kChunk});
  ASSERT_OK(chunked.status());
  ThreadPool pool(4);
  const std::vector<RangePredicate> preds = {
      {0, ~uint64_t{0}},
      {1u << 25, (1u << 25) + 900},
      {5, 1u << 23},
      {~uint64_t{0} - 1, ~uint64_t{0}},
  };
  for (const RangePredicate& pred : preds) {
    ScanSpec spec;
    spec.Filter(pred);
    auto seq = Scan(*chunked, spec);
    ASSERT_OK(seq.status());
    auto par = Scan(*chunked, spec, ExecContext{&pool, 1});
    ASSERT_OK(par.status());
    ExpectScansIdentical(*seq, *par);

    // The legacy overload is a wrapper over this scan: identical output.
    auto legacy = exec::SelectCompressed(*chunked, pred);
    ASSERT_OK(legacy.status());
    EXPECT_EQ(seq->positions, legacy->positions);
    ExpectFilterStatsIdentical(seq->filters[0].stats, legacy->stats);

    // And both equal the plain reference.
    const Column<uint32_t> expected =
        OracleSelect({&col}, {{0, pred}}, col.size());
    EXPECT_EQ(seq->positions, expected);
    EXPECT_EQ(seq->rows_matched, expected.size());
  }
}

TEST(ScanTest, SingleAggregateAgreesWithLegacyAndOracle) {
  const Column<uint32_t> col = MixedShapes(2 * kChunk + 33, 13);
  auto chunked = CompressChunkedAuto(AnyColumn(col), {kChunk});
  ASSERT_OK(chunked.status());
  ThreadPool pool(4);
  uint64_t oracle_sum = 0;
  for (const uint32_t v : col) oracle_sum += v;

  ScanSpec spec;
  spec.Aggregate(AggregateOp::kSum)
      .Aggregate(AggregateOp::kMin)
      .Aggregate(AggregateOp::kMax)
      .Aggregate(AggregateOp::kCount);
  auto seq = Scan(*chunked, spec);
  ASSERT_OK(seq.status());
  auto par = Scan(*chunked, spec, ExecContext{&pool, 1});
  ASSERT_OK(par.status());
  ExpectScansIdentical(*seq, *par);

  EXPECT_EQ(seq->aggregates[0].value(), oracle_sum);
  EXPECT_EQ(seq->aggregates[1].value(),
            *std::min_element(col.begin(), col.end()));
  EXPECT_EQ(seq->aggregates[2].value(),
            *std::max_element(col.begin(), col.end()));
  EXPECT_EQ(seq->aggregates[3].value(), col.size());

  auto legacy_sum = exec::SumCompressed(*chunked);
  ASSERT_OK(legacy_sum.status());
  EXPECT_EQ(seq->aggregates[0].value(), legacy_sum->value);
  EXPECT_EQ(seq->aggregates[0].agg.chunks_total, legacy_sum->chunks_total);
  EXPECT_EQ(seq->aggregates[0].agg.chunks_executed,
            legacy_sum->chunks_executed);
  auto legacy_min = exec::MinCompressed(*chunked);
  ASSERT_OK(legacy_min.status());
  EXPECT_EQ(seq->aggregates[1].value(), legacy_min->value);
  EXPECT_EQ(seq->aggregates[1].agg.chunks_pruned, legacy_min->chunks_pruned);
}

TEST(ScanTest, FilteredAggregateAndProjectionMatchOracle) {
  const Column<uint32_t> col = MixedShapes(3 * kChunk, 17);
  auto chunked = CompressChunkedAuto(AnyColumn(col), {kChunk});
  ASSERT_OK(chunked.status());
  const RangePredicate pred{100, 1u << 22};

  ScanSpec spec;
  spec.Filter(pred)
      .Project()
      .Aggregate(AggregateOp::kSum)
      .Aggregate(AggregateOp::kMin)
      .Aggregate(AggregateOp::kCount);
  auto result = Scan(*chunked, spec);
  ASSERT_OK(result.status());

  const Column<uint32_t> expected = OracleSelect({&col}, {{0, pred}},
                                                 col.size());
  ASSERT_EQ(result->positions, expected);
  ASSERT_EQ(result->projections.size(), 1u);
  const Column<uint32_t>& values =
      result->projections[0].values.As<uint32_t>();
  ASSERT_EQ(values.size(), expected.size());
  uint64_t oracle_sum = 0, oracle_min = ~uint64_t{0};
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(values[i], col[expected[i]]);
    oracle_sum += col[expected[i]];
    oracle_min = std::min<uint64_t>(oracle_min, col[expected[i]]);
  }
  EXPECT_EQ(result->aggregates[0].value(), oracle_sum);
  EXPECT_EQ(result->aggregates[0].rows, expected.size());
  EXPECT_EQ(result->aggregates[1].value(), oracle_min);
  EXPECT_EQ(result->aggregates[2].value(), expected.size());
  EXPECT_EQ(result->projections[0].gather.rows, expected.size());
  EXPECT_GE(result->projections[0].gather.chunks_touched, 1u);
}

TEST(ScanTest, MinMaxOfEmptySelectionIsZeroRowsNotError) {
  const Column<uint32_t> col = MixedShapes(kChunk, 19);
  auto chunked = CompressChunkedAuto(AnyColumn(col), {kChunk});
  ASSERT_OK(chunked.status());
  ScanSpec spec;
  spec.Filter(RangePredicate{~uint64_t{0} - 1, ~uint64_t{0}})
      .Aggregate(AggregateOp::kMin)
      .Aggregate(AggregateOp::kSum);
  auto result = Scan(*chunked, spec);
  ASSERT_OK(result.status());
  EXPECT_EQ(result->rows_matched, 0u);
  EXPECT_EQ(result->aggregates[0].rows, 0u);
  EXPECT_EQ(result->aggregates[0].value(), 0u);
  EXPECT_EQ(result->aggregates[1].value(), 0u);

  // The whole-column min of an empty column still fails (legacy contract).
  ChunkedCompressedColumn empty;
  ScanSpec min_spec;
  min_spec.Aggregate(AggregateOp::kMin);
  EXPECT_FALSE(Scan(empty, min_spec).ok());
}

TEST(ScanTest, LimitTruncatesSelectionButCountsAllMatches) {
  const Column<uint32_t> col = MixedShapes(3 * kChunk, 23);
  auto chunked = CompressChunkedAuto(AnyColumn(col), {kChunk});
  ASSERT_OK(chunked.status());
  const RangePredicate pred{0, 1u << 24};
  const Column<uint32_t> all = OracleSelect({&col}, {{0, pred}}, col.size());
  ASSERT_GT(all.size(), 100u);

  ScanSpec spec;
  spec.Filter(pred).Project().Aggregate(AggregateOp::kSum).Limit(100);
  auto result = Scan(*chunked, spec);
  ASSERT_OK(result.status());
  EXPECT_EQ(result->rows_matched, all.size());
  ASSERT_EQ(result->positions.size(), 100u);
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(result->positions[i], all[i]);
  EXPECT_EQ(result->projections[0].values.size(), 100u);
  uint64_t oracle_sum = 0;
  for (size_t i = 0; i < 100; ++i) oracle_sum += col[all[i]];
  EXPECT_EQ(result->aggregates[0].value(), oracle_sum);
  EXPECT_EQ(result->aggregates[0].rows, 100u);

  // Filterless limit: the first n rows.
  ScanSpec head;
  head.Project().Limit(7);
  auto prefix = Scan(*chunked, head);
  ASSERT_OK(prefix.status());
  const Column<uint32_t>& head_values =
      prefix->projections[0].values.As<uint32_t>();
  ASSERT_EQ(head_values.size(), 7u);
  for (size_t i = 0; i < 7; ++i) EXPECT_EQ(head_values[i], col[i]);
}

TEST(ScanTest, ProjectionKeepsNativeType) {
  const Column<uint64_t> col =
      gen::Uniform64(2 * kChunk, uint64_t{1} << 40, 29);
  auto chunked = CompressChunkedAuto(AnyColumn(col), {kChunk});
  ASSERT_OK(chunked.status());
  ScanSpec spec;
  spec.Filter(RangePredicate{0, uint64_t{1} << 39}).Project();
  auto result = Scan(*chunked, spec);
  ASSERT_OK(result.status());
  ASSERT_EQ(result->projections[0].values.type(), TypeId::kUInt64);
  const Column<uint64_t>& values =
      result->projections[0].values.As<uint64_t>();
  ASSERT_EQ(values.size(), result->positions.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i], col[result->positions[i]]);
  }
}

// ---------------------------------------------------------------------------
// Multi-column scans over table snapshots.
// ---------------------------------------------------------------------------

/// A three-column table: "date" sorted runs (RLE-friendly, prunable),
/// "amount" noise, "qty" small values; appended in one batch.
struct TestTable {
  store::Table table;
  Column<uint32_t> date, amount, qty;
};

TestTable MakeTestTable(uint64_t rows, uint64_t chunk_rows, ExecContext ctx,
                        uint64_t seed = 41) {
  auto table = store::Table::Create(
      {
          {"date", TypeId::kUInt32, {chunk_rows}, ""},
          {"amount", TypeId::kUInt32, {chunk_rows}, ""},
          {"qty", TypeId::kUInt32, {chunk_rows}, ""},
      },
      ctx);
  EXPECT_OK(table.status());
  TestTable t{std::move(*table), gen::SortedRuns(rows, 30.0, 2, seed),
              gen::Uniform(rows, uint64_t{1} << 20, seed + 1),
              gen::Uniform(rows, 50, seed + 2)};
  EXPECT_OK(t.table.AppendBatch(
      {AnyColumn(t.date), AnyColumn(t.amount), AnyColumn(t.qty)}));
  return t;
}

TEST(ScanTest, MultiColumnFilterGatherAggregateMatchesOracle) {
  ThreadPool pool(4);
  const ExecContext ctx{&pool, 1};
  TestTable t = MakeTestTable(5 * kChunk + 123, kChunk, ctx);
  ASSERT_OK(t.table.Flush());
  auto snap = t.table.Snapshot();
  ASSERT_OK(snap.status());

  const uint64_t date_lo = t.date[t.date.size() / 4];
  const uint64_t date_hi = t.date[t.date.size() / 2];
  const RangePredicate date_pred{date_lo, date_hi};
  const RangePredicate amount_pred{0, 1u << 19};

  ScanSpec spec;
  spec.Filter("date", date_pred)
      .Filter("amount", amount_pred)
      .Project({"qty", "amount"})
      .Aggregate("qty", AggregateOp::kSum)
      .Aggregate("amount", AggregateOp::kMax)
      .Aggregate("date", AggregateOp::kCount);

  const Column<uint32_t> expected =
      OracleSelect({&t.date, &t.amount, &t.qty},
                   {{0, date_pred}, {1, amount_pred}}, snap->rows());

  // Sequential and every thread count agree with each other and the oracle.
  auto seq = Scan(*snap, spec);
  ASSERT_OK(seq.status());
  for (const uint64_t threads : {1ull, 2ull, 8ull}) {
    ThreadPool scan_pool(threads);
    auto par = Scan(*snap, spec, ExecContext{&scan_pool, 1});
    ASSERT_OK(par.status());
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    ExpectScansIdentical(*seq, *par);
  }

  ASSERT_EQ(seq->positions, expected);
  EXPECT_EQ(seq->rows_matched, expected.size());
  const Column<uint32_t>& qty = seq->projections[0].values.As<uint32_t>();
  const Column<uint32_t>& amount = seq->projections[1].values.As<uint32_t>();
  ASSERT_EQ(qty.size(), expected.size());
  uint64_t qty_sum = 0, amount_max = 0;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(qty[i], t.qty[expected[i]]);
    EXPECT_EQ(amount[i], t.amount[expected[i]]);
    qty_sum += t.qty[expected[i]];
    amount_max = std::max<uint64_t>(amount_max, t.amount[expected[i]]);
  }
  EXPECT_EQ(seq->aggregates[0].value(), qty_sum);
  EXPECT_EQ(seq->aggregates[1].value(), amount_max);
  EXPECT_EQ(seq->aggregates[2].value(), expected.size());
  EXPECT_EQ(seq->aggregates[0].rows, expected.size());
}

TEST(ScanTest, MisalignedChunkBoundariesRefineIntoRanges) {
  // Different chunk_rows per column: the scan partitions rows by the union
  // of both filter columns' chunk boundaries.
  ThreadPool pool(3);
  const ExecContext ctx{&pool, 1};
  auto table = store::Table::Create(
      {
          {"a", TypeId::kUInt32, {kChunk}, ""},
          {"b", TypeId::kUInt32, {kChunk + 300}, ""},
      },
      ctx);
  ASSERT_OK(table.status());
  const uint64_t rows = 4 * kChunk + 99;
  const Column<uint32_t> a = gen::SortedRuns(rows, 25.0, 2, 57);
  const Column<uint32_t> b = gen::Uniform(rows, uint64_t{1} << 16, 58);
  ASSERT_OK(table->AppendBatch({AnyColumn(a), AnyColumn(b)}));
  ASSERT_OK(table->Flush());
  auto snap = table->Snapshot();
  ASSERT_OK(snap.status());

  const RangePredicate pa{a[rows / 3], a[2 * rows / 3]};
  const RangePredicate pb{100, 1u << 15};
  ScanSpec spec;
  spec.Filter("a", pa).Filter("b", pb).Project({"b"});
  auto seq = Scan(*snap, spec);
  ASSERT_OK(seq.status());
  auto par = Scan(*snap, spec, ctx);
  ASSERT_OK(par.status());
  ExpectScansIdentical(*seq, *par);

  const Column<uint32_t> expected =
      OracleSelect({&a, &b}, {{0, pa}, {1, pb}}, rows);
  ASSERT_EQ(seq->positions, expected);
  const Column<uint32_t>& bv = seq->projections[0].values.As<uint32_t>();
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(bv[i], b[expected[i]]);
  }

  // Even though chunks straddle ranges, each chunk executes (and counts)
  // at most once per filter.
  for (const exec::ScanFilterStats& f : seq->filters) {
    EXPECT_LE(f.stats.chunks_pruned + f.stats.chunks_full +
                  f.stats.chunks_executed,
              f.stats.chunks_total);
    EXPECT_EQ(f.stats.chunks_executed, f.stats.per_chunk.size());
  }
}

// ---------------------------------------------------------------------------
// Zone-map intersection edge cases.
// ---------------------------------------------------------------------------

TEST(ScanTest, ChunkPrunedOnOneColumnSkipsTheOther) {
  // "key" holds the chunk index as a constant per chunk: a point predicate
  // prunes every chunk but one. "payload" is noise whose zone map overlaps
  // the predicate everywhere — standalone it would execute every chunk, but
  // the intersected scan must only touch it inside the surviving chunk.
  ThreadPool pool(2);
  const ExecContext ctx{&pool, 1};
  constexpr uint64_t kChunks = 6;
  auto table = store::Table::Create(
      {
          {"key", TypeId::kUInt32, {kChunk}, ""},
          {"payload", TypeId::kUInt32, {kChunk}, ""},
      },
      ctx);
  ASSERT_OK(table.status());
  Column<uint32_t> key, payload;
  for (uint64_t c = 0; c < kChunks; ++c) {
    for (uint64_t i = 0; i < kChunk; ++i) {
      key.push_back(static_cast<uint32_t>(c));
      payload.push_back(static_cast<uint32_t>((i * 37) % 1000));
    }
  }
  ASSERT_OK(table->AppendBatch({AnyColumn(key), AnyColumn(payload)}));
  ASSERT_OK(table->Flush());
  auto snap = table->Snapshot();
  ASSERT_OK(snap.status());

  ScanSpec spec;
  spec.Filter("key", RangePredicate{2, 2})
      .Filter("payload", RangePredicate{0, 500});
  auto result = Scan(*snap, spec, ctx);
  ASSERT_OK(result.status());

  // The key filter prunes 5 of 6 chunks and is contained in the sixth.
  EXPECT_EQ(result->filters[0].stats.chunks_total, kChunks);
  EXPECT_EQ(result->filters[0].stats.chunks_pruned, kChunks - 1);
  EXPECT_EQ(result->filters[0].stats.chunks_full, 1u);
  // The payload filter only ever ran inside the surviving chunk.
  EXPECT_EQ(result->filters[1].stats.chunks_executed, 1u);
  EXPECT_EQ(result->filters[1].stats.chunks_pruned, 0u);
  EXPECT_LE(result->filters[1].stats.values_decoded, kChunk);

  // Standalone, the payload filter would execute every chunk.
  auto standalone = exec::SelectCompressed(
      snap->column(1).chunked(), RangePredicate{0, 500}, ctx);
  ASSERT_OK(standalone.status());
  EXPECT_EQ(standalone->stats.chunks_executed, kChunks);

  const Column<uint32_t> expected = OracleSelect(
      {&key, &payload}, {{0, {2, 2}}, {1, {0, 500}}}, key.size());
  EXPECT_EQ(result->positions, expected);
}

/// A hand-built chunked column with irregularities: a normal chunk, an
/// empty chunk, a chunk without min/max, then another normal chunk.
ChunkedCompressedColumn IrregularChunks(const Column<uint32_t>& a,
                                        const Column<uint32_t>& b,
                                        const Column<uint32_t>& c) {
  ChunkedCompressedColumn out;
  uint64_t row = 0;
  auto append = [&](const Column<uint32_t>& values, bool with_minmax) {
    CompressedChunk chunk;
    chunk.zone.row_begin = row;
    chunk.zone.row_count = values.size();
    if (with_minmax && !values.empty()) {
      chunk.zone.has_minmax = true;
      chunk.zone.min = *std::min_element(values.begin(), values.end());
      chunk.zone.max = *std::max_element(values.begin(), values.end());
    }
    auto compressed = Compress(AnyColumn(values), Ns());
    EXPECT_OK(compressed.status());
    chunk.column = std::move(*compressed);
    EXPECT_OK(out.AppendChunk(std::move(chunk)));
    row += values.size();
  };
  append(a, true);
  append({}, true);
  append(b, false);
  append(c, true);
  return out;
}

TEST(ScanTest, EmptyAndMinMaxlessChunksUnderConjunctiveFilters) {
  Column<uint32_t> a, b, c;
  for (uint32_t i = 0; i < 500; ++i) a.push_back(100 + i % 50);
  for (uint32_t i = 0; i < 300; ++i) b.push_back(10000 + (i * 37) % 2000);
  for (uint32_t i = 0; i < 400; ++i) c.push_back(50000 + i);
  Column<uint32_t> all = a;
  all.insert(all.end(), b.begin(), b.end());
  all.insert(all.end(), c.begin(), c.end());
  const ChunkedCompressedColumn chunked = IrregularChunks(a, b, c);
  ASSERT_EQ(chunked.num_chunks(), 4u);

  ThreadPool pool(3);
  // Two conjunctive predicates on the same column: the minmax-less chunk is
  // never pruned (it must execute for both), the empty chunk is invisible.
  ScanSpec spec;
  spec.Filter(RangePredicate{100, 60000})
      .Filter(RangePredicate{120, 50100})
      .Project();
  auto seq = Scan(chunked, spec);
  ASSERT_OK(seq.status());
  auto par = Scan(chunked, spec, ExecContext{&pool, 1});
  ASSERT_OK(par.status());
  ExpectScansIdentical(*seq, *par);

  const Column<uint32_t> expected = OracleSelect(
      {&all, &all}, {{0, {100, 60000}}, {1, {120, 50100}}}, all.size());
  EXPECT_EQ(seq->positions, expected);
  const Column<uint32_t>& values = seq->projections[0].values.As<uint32_t>();
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(values[i], all[expected[i]]);
  }

  // The minmax-less chunk executes under both filters even when a predicate
  // could never match it; chunks with zone maps prune normally.
  ScanSpec nothing;
  nothing.Filter(RangePredicate{1, 2}).Filter(RangePredicate{3, 4});
  auto none = Scan(chunked, nothing);
  ASSERT_OK(none.status());
  EXPECT_EQ(none->rows_matched, 0u);
  // Both predicates prune the zone-mapped chunks; only the minmax-less
  // chunk must execute — once per filter, never once per range.
  EXPECT_EQ(none->filters[0].stats.chunks_pruned, 2u);
  EXPECT_EQ(none->filters[0].stats.chunks_executed, 1u);
  EXPECT_EQ(none->filters[1].stats.chunks_pruned, 2u);
  EXPECT_EQ(none->filters[1].stats.chunks_executed, 1u);
}

TEST(ScanTest, PredicateOverStoredPlainIdTailUsesPlainScan) {
  // A live table whose tail has not sealed: the tail chunk is served as a
  // stored-plain ID envelope, and a predicate overlapping it must run the
  // kPlainScan fast path rather than decompressing.
  auto table = store::Table::Create(
      {
          {"k", TypeId::kUInt32, {kChunk}, ""},
          {"v", TypeId::kUInt32, {kChunk}, ""},
      },
      ExecContext{});
  ASSERT_OK(table.status());
  const uint64_t rows = kChunk + kChunk / 2;  // One sealed chunk + half tail.
  Column<uint32_t> k, v;
  for (uint64_t i = 0; i < rows; ++i) {
    k.push_back(static_cast<uint32_t>(i));
    v.push_back(static_cast<uint32_t>(7 * i % 4096));
  }
  ASSERT_OK(table->AppendBatch({AnyColumn(k), AnyColumn(v)}));
  auto snap = table->Snapshot();  // No flush: the tail stays plain.
  ASSERT_OK(snap.status());

  // The predicate selects rows only inside the tail chunk.
  ScanSpec spec;
  spec.Filter("k", RangePredicate{kChunk + 10, rows - 10})
      .Project({"v"})
      .Aggregate("v", AggregateOp::kSum);
  auto result = Scan(*snap, spec);
  ASSERT_OK(result.status());

  const Column<uint32_t> expected =
      OracleSelect({&k}, {{0, {kChunk + 10, rows - 10}}}, rows);
  ASSERT_EQ(result->positions, expected);
  // The sealed chunk was pruned via its zone map; the tail ran kPlainScan.
  EXPECT_EQ(result->filters[0].stats.chunks_pruned, 1u);
  EXPECT_EQ(result->filters[0].stats.chunks_executed, 1u);
  EXPECT_EQ(result->filters[0]
                .stats.strategy_chunks[static_cast<int>(
                    exec::Strategy::kPlainScan)],
            1u);
  // The gather over v touched the plain tail in place too.
  EXPECT_GE(result->projections[0]
                .gather.strategy_rows[static_cast<int>(
                    exec::Strategy::kPlainScan)],
            1u);
  uint64_t oracle_sum = 0;
  for (const uint32_t p : expected) oracle_sum += v[p];
  EXPECT_EQ(result->aggregates[0].value(), oracle_sum);
}

// ---------------------------------------------------------------------------
// Fuzz: random multi-column scans vs the decompress-everything oracle.
// ---------------------------------------------------------------------------

TEST(ScanTest, FuzzAgainstOracleAcrossThreadCounts) {
  Rng rng(20260727);
  for (int round = 0; round < 12; ++round) {
    const uint64_t rows = 500 + rng.Below(4000);
    const uint64_t chunk_a = 200 + rng.Below(800);
    const uint64_t chunk_b = 200 + rng.Below(800);
    auto table = store::Table::Create(
        {
            {"a", TypeId::kUInt32, {chunk_a}, ""},
            {"b", TypeId::kUInt32, {chunk_b}, ""},
        },
        ExecContext{});
    ASSERT_OK(table.status());
    const Column<uint32_t> a =
        rng.Bernoulli(0.5) ? gen::SortedRuns(rows, 20.0, 2, 900 + round)
                           : gen::Uniform(rows, 1u << 16, 900 + round);
    const Column<uint32_t> b = gen::Uniform(rows, 1u << 12, 950 + round);
    ASSERT_OK(table->AppendBatch({AnyColumn(a), AnyColumn(b)}));
    if (rng.Bernoulli(0.7)) ASSERT_OK(table->Flush());  // Else: plain tails.
    auto snap = table->Snapshot();
    ASSERT_OK(snap.status());

    const uint64_t a_lo = rng.Below(1u << 16);
    const uint64_t b_lo = rng.Below(1u << 12);
    const RangePredicate pa{a_lo, a_lo + rng.Below(1u << 15)};
    const RangePredicate pb{b_lo, b_lo + rng.Below(1u << 11)};
    ScanSpec spec;
    spec.Filter("a", pa).Filter("b", pb).Project({"b"}).Aggregate(
        "b", AggregateOp::kSum);
    if (rng.Bernoulli(0.3)) spec.Limit(rng.Below(200));

    auto seq = Scan(*snap, spec);
    ASSERT_OK(seq.status());
    for (const uint64_t threads : {2ull, 5ull}) {
      ThreadPool pool(threads);
      auto par = Scan(*snap, spec, ExecContext{&pool, 1 + rng.Below(3)});
      ASSERT_OK(par.status());
      SCOPED_TRACE(testing::Message()
                   << "round=" << round << " threads=" << threads);
      ExpectScansIdentical(*seq, *par);
    }

    Column<uint32_t> expected =
        OracleSelect({&a, &b}, {{0, pa}, {1, pb}}, rows);
    const uint64_t matched = expected.size();
    if (expected.size() > spec.limit()) expected.resize(spec.limit());
    SCOPED_TRACE(testing::Message() << "round=" << round);
    ASSERT_EQ(seq->positions, expected);
    EXPECT_EQ(seq->rows_matched, matched);
    const Column<uint32_t>& bv = seq->projections[0].values.As<uint32_t>();
    uint64_t oracle_sum = 0;
    ASSERT_EQ(bv.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(bv[i], b[expected[i]]);
      oracle_sum += b[expected[i]];
    }
    EXPECT_EQ(seq->aggregates[0].value(), oracle_sum);
  }
}

// ---------------------------------------------------------------------------
// Zero-filter specs and Limit × Aggregate interaction.
// ---------------------------------------------------------------------------

TEST(ScanTest, ZeroFilterPureProjectionIsTheFullColumn) {
  // A projection-only spec is a full scan: every row gathers in order,
  // rows_matched covers the column, and positions stay empty (the implicit
  // everything-selection is never materialized). Checked over a sealed
  // column and over a live snapshot whose tail is a stored-plain ID chunk.
  const Column<uint32_t> col = MixedShapes(kChunk + 150, 47);
  auto chunked = CompressChunkedAuto(AnyColumn(col), {kChunk});
  ASSERT_OK(chunked.status());
  ThreadPool pool(4);

  ScanSpec spec;
  spec.Project();
  auto seq = Scan(*chunked, spec);
  ASSERT_OK(seq.status());
  auto par = Scan(*chunked, spec, ExecContext{&pool, 1});
  ASSERT_OK(par.status());
  ExpectScansIdentical(*seq, *par);

  EXPECT_EQ(seq->rows_scanned, col.size());
  EXPECT_EQ(seq->rows_matched, col.size());
  EXPECT_TRUE(seq->positions.empty());
  ASSERT_EQ(seq->projections.size(), 1u);
  EXPECT_TRUE(seq->projections[0].values == AnyColumn(col));
  EXPECT_EQ(seq->projections[0].gather.rows, col.size());

  // Live table: the tail rows come off the kPlainScan point-access path.
  auto table = store::Table::Create({{"x", TypeId::kUInt32, {kChunk}, ""}});
  ASSERT_OK(table.status());
  ASSERT_OK(table->AppendBatch({AnyColumn(col)}));  // Tail stays unsealed.
  auto snap = table->Snapshot();
  ASSERT_OK(snap.status());
  ScanSpec named;
  named.Project({"x"});
  auto live = Scan(*snap, named);
  ASSERT_OK(live.status());
  EXPECT_TRUE(live->projections[0].values == AnyColumn(col));
  EXPECT_GT(live->projections[0].gather.strategy_rows[static_cast<int>(
                exec::Strategy::kPlainScan)],
            0u);
}

TEST(ScanTest, ZeroFilterProjectionDoesNotDisturbAggregatePushdown) {
  // Projection and aggregate in one filterless, unlimited spec: the
  // aggregate still pushes down per chunk (counters identical to the
  // standalone chunked aggregate), while the projection gathers every row.
  const Column<uint32_t> col = MixedShapes(2 * kChunk + 77, 53);
  auto chunked = CompressChunkedAuto(AnyColumn(col), {kChunk});
  ASSERT_OK(chunked.status());

  ScanSpec spec;
  spec.Project().Aggregate(AggregateOp::kSum).Aggregate(AggregateOp::kMin);
  auto result = Scan(*chunked, spec);
  ASSERT_OK(result.status());
  EXPECT_TRUE(result->projections[0].values == AnyColumn(col));

  auto legacy_sum = exec::SumCompressed(*chunked);
  ASSERT_OK(legacy_sum.status());
  EXPECT_EQ(result->aggregates[0].value(), legacy_sum->value);
  EXPECT_EQ(result->aggregates[0].rows, col.size());
  EXPECT_EQ(result->aggregates[0].agg.chunks_total, legacy_sum->chunks_total);
  EXPECT_EQ(result->aggregates[0].agg.chunks_executed,
            legacy_sum->chunks_executed);
  EXPECT_EQ(result->aggregates[0].agg.chunks_pruned, legacy_sum->chunks_pruned);
  auto legacy_min = exec::MinCompressed(*chunked);
  ASSERT_OK(legacy_min.status());
  EXPECT_EQ(result->aggregates[1].value(), legacy_min->value);
  EXPECT_EQ(result->aggregates[1].agg.chunks_pruned, legacy_min->chunks_pruned);
}

TEST(ScanTest, LimitSwitchesAggregatesFromPushdownToGatheredPrefix) {
  // Filterless aggregates interact with Limit by folding over exactly the
  // first `limit` rows — the documented "aggregates see only those rows"
  // semantics — which forces the gather path instead of chunk pushdown.
  const Column<uint32_t> col = MixedShapes(2 * kChunk, 59);
  auto chunked = CompressChunkedAuto(AnyColumn(col), {kChunk});
  ASSERT_OK(chunked.status());
  ThreadPool pool(4);
  constexpr uint64_t kTake = 700;

  ScanSpec spec;
  spec.Aggregate(AggregateOp::kSum)
      .Aggregate(AggregateOp::kMin)
      .Aggregate(AggregateOp::kMax)
      .Aggregate(AggregateOp::kCount)
      .Limit(kTake);
  auto seq = Scan(*chunked, spec);
  ASSERT_OK(seq.status());
  auto par = Scan(*chunked, spec, ExecContext{&pool, 1});
  ASSERT_OK(par.status());
  ExpectScansIdentical(*seq, *par);

  uint64_t sum = 0, lo = ~uint64_t{0}, hi = 0;
  for (uint64_t i = 0; i < kTake; ++i) {
    sum += col[i];
    lo = std::min<uint64_t>(lo, col[i]);
    hi = std::max<uint64_t>(hi, col[i]);
  }
  EXPECT_EQ(seq->aggregates[0].value(), sum);
  EXPECT_EQ(seq->aggregates[1].value(), lo);
  EXPECT_EQ(seq->aggregates[2].value(), hi);
  EXPECT_EQ(seq->aggregates[3].value(), kTake);
  for (int g = 0; g < 3; ++g) {
    EXPECT_EQ(seq->aggregates[g].rows, kTake);
    // No pushdown: the fold ran over gathered values, not chunk payloads.
    EXPECT_EQ(seq->aggregates[g].agg.chunks_executed, 0u);
    EXPECT_EQ(seq->aggregates[g].agg.chunks_pruned, 0u);
    EXPECT_EQ(seq->aggregates[g].gather.rows, kTake);
  }

  // A limit covering the whole column is no limit at all: back to the
  // pushdown path, bit-identical to the unlimited spec.
  ScanSpec covering;
  covering.Aggregate(AggregateOp::kSum).Limit(col.size());
  auto whole = Scan(*chunked, covering);
  ASSERT_OK(whole.status());
  ScanSpec unlimited;
  unlimited.Aggregate(AggregateOp::kSum);
  auto reference = Scan(*chunked, unlimited);
  ASSERT_OK(reference.status());
  ExpectScansIdentical(*whole, *reference);
  EXPECT_GT(whole->aggregates[0].agg.chunks_executed, 0u);
}

TEST(ScanTest, LimitZeroYieldsEmptyAggregatesNotErrors) {
  // Limit(0) is a valid answer, not an error — even for min/max, which
  // fail on an empty *column* but not on an empty *selection*.
  const Column<uint32_t> col = MixedShapes(kChunk, 61);
  auto chunked = CompressChunkedAuto(AnyColumn(col), {kChunk});
  ASSERT_OK(chunked.status());

  for (const bool filtered : {false, true}) {
    ScanSpec spec;
    if (filtered) spec.Filter(RangePredicate{0, ~uint64_t{0}});
    spec.Project()
        .Aggregate(AggregateOp::kSum)
        .Aggregate(AggregateOp::kMin)
        .Aggregate(AggregateOp::kCount)
        .Limit(0);
    auto result = Scan(*chunked, spec);
    ASSERT_OK(result.status()) << "filtered=" << filtered;
    EXPECT_TRUE(result->positions.empty());
    EXPECT_EQ(result->projections[0].values.size(), 0u);
    EXPECT_EQ(result->aggregates[0].value(), 0u);
    EXPECT_EQ(result->aggregates[0].rows, 0u);
    EXPECT_EQ(result->aggregates[1].value(), 0u);  // Empty-selection min.
    EXPECT_EQ(result->aggregates[1].rows, 0u);
    EXPECT_EQ(result->aggregates[2].value(), 0u);
    // The match count is unaffected by the limit.
    EXPECT_EQ(result->rows_matched, col.size());
  }
}

TEST(ScanTest, FilteredLimitFoldsAggregatesOverTheLimitedPrefix) {
  // Filter × Limit × min/max/count: the aggregates fold over the first
  // `limit` *matching* rows in row order (not over all matches).
  const Column<uint32_t> col = MixedShapes(3 * kChunk, 67);
  auto chunked = CompressChunkedAuto(AnyColumn(col), {kChunk});
  ASSERT_OK(chunked.status());
  const RangePredicate pred{0, 1u << 24};
  const Column<uint32_t> all = OracleSelect({&col}, {{0, pred}}, col.size());
  constexpr uint64_t kTake = 150;
  ASSERT_GT(all.size(), kTake);

  ScanSpec spec;
  spec.Filter(pred)
      .Aggregate(AggregateOp::kMin)
      .Aggregate(AggregateOp::kMax)
      .Aggregate(AggregateOp::kCount)
      .Limit(kTake);
  auto result = Scan(*chunked, spec);
  ASSERT_OK(result.status());
  uint64_t lo = ~uint64_t{0}, hi = 0;
  for (uint64_t i = 0; i < kTake; ++i) {
    lo = std::min<uint64_t>(lo, col[all[i]]);
    hi = std::max<uint64_t>(hi, col[all[i]]);
  }
  EXPECT_EQ(result->rows_matched, all.size());
  EXPECT_EQ(result->aggregates[0].value(), lo);
  EXPECT_EQ(result->aggregates[1].value(), hi);
  EXPECT_EQ(result->aggregates[2].value(), kTake);
  for (int g = 0; g < 3; ++g) EXPECT_EQ(result->aggregates[g].rows, kTake);
}

TEST(ScanTest, GatherPastUint32RowsIsRefusedBeforeAnyWork) {
  // Gathers address rows as uint32, like selections. A filterless aggregate
  // under a limit below the row count gathers the prefix [0, take), so a
  // take of 2^32 or more gets the refusal filters and projections get —
  // before a single row is listed or read — while a smaller limit still
  // gathers. A zero-width NS envelope claims the rows with no payload byte.
  constexpr uint64_t kRows = (uint64_t{1} << 32) + 8;
  CompressedNode node;
  node.scheme = Ns(0);
  node.n = kRows;
  node.out_type = TypeId::kUInt32;
  PackedColumn packed;
  packed.n = kRows;
  CompressedPart part;
  part.column = AnyColumn(std::move(packed));
  node.parts.emplace("packed", std::move(part));
  const ChunkedCompressedColumn chunked =
      ChunkedCompressedColumn::FromSingle(CompressedColumn(std::move(node)));
  ASSERT_EQ(chunked.size(), kRows);

  ScanSpec spec;
  spec.Aggregate(AggregateOp::kSum).Limit(kRows - 4);
  const auto result = Scan(chunked, spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(result.status().message(),
            "selections support columns below 2^32 rows");

  ScanSpec small;
  small.Aggregate(AggregateOp::kSum).Limit(100);
  const auto answered = Scan(chunked, small);
  ASSERT_OK(answered.status());
  EXPECT_EQ(answered->aggregates[0].value(), 0u);
  EXPECT_EQ(answered->aggregates[0].rows, 100u);
  EXPECT_EQ(answered->aggregates[0].gather.rows, 100u);
}

}  // namespace
}  // namespace recomp
