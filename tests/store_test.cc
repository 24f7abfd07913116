// Streaming ingest lifecycle: append → seal → snapshot. A live
// AppendableColumn — at any point of its append/seal/flush lifecycle — must
// answer select/aggregate/point-access queries bit-identically to
// compressing the same rows once with CompressChunkedAuto, and its
// serialized form must round-trip through the v2 wire format.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/catalog.h"
#include "core/chunked.h"
#include "core/serialize.h"
#include "exec/aggregate.h"
#include "exec/point_access.h"
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
using store::ColumnSpec;
using store::IngestOptions;
using store::Table;

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

/// Asserts a snapshot answers select/sum/min/max/point queries exactly like
/// the oracle: the same rows compressed once with CompressChunkedAuto.
void ExpectSnapshotMatchesOracle(const ColumnSnapshot& snap,
                                 const Column<uint32_t>& rows,
                                 const std::vector<RangePredicate>& preds) {
  ASSERT_EQ(snap.size(), rows.size());
  auto oracle = CompressChunkedAuto(AnyColumn(rows), {kChunk});
  ASSERT_OK(oracle.status());

  for (const RangePredicate& pred : preds) {
    auto live = exec::SelectCompressed(snap.chunked(), pred);
    auto ref = exec::SelectCompressed(*oracle, pred);
    ASSERT_OK(live.status());
    ASSERT_OK(ref.status());
    EXPECT_EQ(live->positions, ref->positions);
  }

  auto live_sum = exec::SumCompressed(snap.chunked());
  auto ref_sum = exec::SumCompressed(*oracle);
  ASSERT_OK(live_sum.status());
  ASSERT_OK(ref_sum.status());
  EXPECT_EQ(live_sum->value, ref_sum->value);

  if (!rows.empty()) {
    auto live_min = exec::MinCompressed(snap.chunked());
    auto ref_min = exec::MinCompressed(*oracle);
    ASSERT_OK(live_min.status());
    ASSERT_OK(ref_min.status());
    EXPECT_EQ(live_min->value, ref_min->value);

    auto live_max = exec::MaxCompressed(snap.chunked());
    auto ref_max = exec::MaxCompressed(*oracle);
    ASSERT_OK(live_max.status());
    ASSERT_OK(ref_max.status());
    EXPECT_EQ(live_max->value, ref_max->value);

    Rng rng(4242);
    std::vector<uint64_t> probe;
    for (int i = 0; i < 64; ++i) probe.push_back(rng.Below(rows.size()));
    auto live_batch = exec::GetAtBatch(snap.chunked(), probe);
    ASSERT_OK(live_batch.status());
    for (size_t i = 0; i < probe.size(); ++i) {
      EXPECT_EQ((*live_batch)[i].value, rows[probe[i]]) << probe[i];
    }
  }

  auto back = DecompressChunked(snap.chunked());
  ASSERT_OK(back.status());
  EXPECT_TRUE(*back == AnyColumn(rows));
}

const std::vector<RangePredicate>& Predicates() {
  static const std::vector<RangePredicate> preds = {
      {0, ~uint64_t{0}},             // Everything.
      {1u << 25, (1u << 25) + 500},  // The sorted tail.
      {5, 1u << 23},                 // Partial overlap everywhere.
      {~uint64_t{0} - 1, ~uint64_t{0}},  // Nothing.
  };
  return preds;
}

TEST(StoreTest, AppendBatchSealSnapshotLifecycle) {
  const Column<uint32_t> rows = MixedShapes(kChunk + 321, 51);
  ThreadPool pool(4);
  AppendableColumn column(TypeId::kUInt32, {kChunk}, ExecContext{&pool, 1});

  // Append in uneven batches; snapshot mid-stream after every batch.
  Column<uint32_t> appended;
  uint64_t at = 0;
  Rng rng(52);
  while (at < rows.size()) {
    const uint64_t take = std::min<uint64_t>(1 + rng.Below(700),
                                             rows.size() - at);
    Column<uint32_t> batch(rows.begin() + at, rows.begin() + at + take);
    ASSERT_OK(column.AppendBatch(AnyColumn(batch)));
    appended.insert(appended.end(), batch.begin(), batch.end());
    at += take;

    auto snap = column.Snapshot();
    ASSERT_OK(snap.status());
    ExpectSnapshotMatchesOracle(*snap, appended, Predicates());
  }

  // Mid-stream Seal(): short chunks are fine, results unchanged.
  ASSERT_OK(column.Seal());
  auto sealed_snap = column.Snapshot();
  ASSERT_OK(sealed_snap.status());
  ExpectSnapshotMatchesOracle(*sealed_snap, rows, Predicates());

  // Flush: every chunk compressed, nothing pending.
  ASSERT_OK(column.Flush());
  EXPECT_EQ(column.pending_seals(), 0u);
  EXPECT_EQ(column.sealed_chunks(), column.num_chunks());
  auto flushed = column.Snapshot();
  ASSERT_OK(flushed.status());
  EXPECT_EQ(flushed->unsealed_chunks(), 0u);
  EXPECT_EQ(flushed->sealed_chunks(), column.num_chunks());
  ExpectSnapshotMatchesOracle(*flushed, rows, Predicates());

  // The column stays appendable after a flush.
  ASSERT_OK(column.Append(7));
  EXPECT_EQ(column.size(), rows.size() + 1);
  auto point = exec::GetAt(column.Snapshot()->chunked(), rows.size());
  ASSERT_OK(point.status());
  EXPECT_EQ(point->value, 7u);
}

TEST(StoreTest, SnapshotIsImmutableWhileColumnGrows) {
  ThreadPool pool(2);
  AppendableColumn column(TypeId::kUInt32, {64}, ExecContext{&pool, 1});
  Column<uint32_t> first;
  for (uint32_t i = 0; i < 100; ++i) first.push_back(i * 3);
  ASSERT_OK(column.AppendBatch(AnyColumn(first)));

  auto snap = column.Snapshot();
  ASSERT_OK(snap.status());
  ASSERT_EQ(snap->size(), 100u);

  // Grow and flush the column; the old snapshot must keep answering with
  // the rows it captured.
  for (uint32_t i = 0; i < 500; ++i) ASSERT_OK(column.Append(1000000 + i));
  ASSERT_OK(column.Flush());
  EXPECT_EQ(column.size(), 600u);

  ASSERT_EQ(snap->size(), 100u);
  auto sum = exec::SumCompressed(snap->chunked());
  ASSERT_OK(sum.status());
  uint64_t expected = 0;
  for (const uint32_t v : first) expected += v;
  EXPECT_EQ(sum->value, expected);
  auto max = exec::MaxCompressed(snap->chunked());
  ASSERT_OK(max.status());
  EXPECT_EQ(max->value, 99u * 3);
}

TEST(StoreTest, SealedColumnMatchesCompressChunkedAutoChunkForChunk) {
  // Batch appends aligned to nothing in particular, then Flush: the sealed
  // chunks must carry the same boundaries and zone maps CompressChunkedAuto
  // produces for the same chunk_rows.
  const Column<uint32_t> rows = MixedShapes(kChunk, 57);
  AppendableColumn column(TypeId::kUInt32, {kChunk});  // No pool: seal inline.
  ASSERT_OK(column.AppendBatch(AnyColumn(rows)));
  ASSERT_OK(column.Flush());

  auto snap = column.Snapshot();
  ASSERT_OK(snap.status());
  auto oracle = CompressChunkedAuto(AnyColumn(rows), {kChunk});
  ASSERT_OK(oracle.status());
  ASSERT_EQ(snap->chunked().num_chunks(), oracle->num_chunks());
  for (uint64_t i = 0; i < oracle->num_chunks(); ++i) {
    const CompressedChunk& live = snap->chunked().chunk(i);
    const CompressedChunk& ref = oracle->chunk(i);
    EXPECT_EQ(live.zone.row_begin, ref.zone.row_begin) << i;
    EXPECT_EQ(live.zone.row_count, ref.zone.row_count) << i;
    EXPECT_EQ(live.zone.has_minmax, ref.zone.has_minmax) << i;
    EXPECT_EQ(live.zone.min, ref.zone.min) << i;
    EXPECT_EQ(live.zone.max, ref.zone.max) << i;
    EXPECT_EQ(live.column.Descriptor(), ref.column.Descriptor()) << i;
    EXPECT_EQ(live.column.PayloadBytes(), ref.column.PayloadBytes()) << i;
  }
}

TEST(StoreTest, SerializeRoundTripsThroughV2) {
  const Column<uint32_t> rows = MixedShapes(kChunk / 2 + 77, 61);
  ThreadPool pool(2);
  const ExecContext ctx{&pool, 1};
  AppendableColumn column(TypeId::kUInt32, {kChunk / 4}, ctx);
  ASSERT_OK(column.AppendBatch(AnyColumn(rows)));

  auto buffer = column.Serialize();
  ASSERT_OK(buffer.status());
  auto restored = DeserializeChunked(*buffer, ctx);
  ASSERT_OK(restored.status());
  auto back = DecompressChunked(*restored, ctx);
  ASSERT_OK(back.status());
  EXPECT_TRUE(*back == AnyColumn(rows));
}

TEST(StoreTest, EmptyColumnSnapshotAndSerialize) {
  AppendableColumn column(TypeId::kUInt64, {kChunk});
  EXPECT_EQ(column.size(), 0u);
  auto snap = column.Snapshot();
  ASSERT_OK(snap.status());
  EXPECT_EQ(snap->size(), 0u);
  EXPECT_EQ(snap->chunked().type(), TypeId::kUInt64);
  auto selection =
      exec::SelectCompressed(snap->chunked(), RangePredicate{0, 100});
  ASSERT_OK(selection.status());
  EXPECT_TRUE(selection->positions.empty());

  auto buffer = column.Serialize();
  ASSERT_OK(buffer.status());
  auto restored = DeserializeChunked(*buffer);
  ASSERT_OK(restored.status());
  EXPECT_EQ(restored->size(), 0u);
  EXPECT_EQ(restored->type(), TypeId::kUInt64);
}

TEST(StoreTest, FixedDescriptorPinsEverySealedChunk) {
  IngestOptions options;
  options.chunk_rows = 256;
  options.descriptor = MakeRle();
  AppendableColumn column(TypeId::kUInt32, options);
  const Column<uint32_t> rows = testutil::RunsColumn(1000, 0.05, 63);
  ASSERT_OK(column.AppendBatch(AnyColumn(rows)));
  ASSERT_OK(column.Flush());
  auto snap = column.Snapshot();
  ASSERT_OK(snap.status());
  const SchemeDescriptor want = MakeRle();
  for (const auto& chunk : snap->chunked().chunks()) {
    EXPECT_EQ(chunk->column.Descriptor().kind, want.kind);
  }
  auto back = DecompressChunked(snap->chunked());
  ASSERT_OK(back.status());
  EXPECT_TRUE(*back == AnyColumn(rows));
}

TEST(StoreTest, ErrorPaths) {
  AppendableColumn column(TypeId::kUInt8, {16});
  // Value does not fit the column type.
  EXPECT_FALSE(column.Append(300).ok());
  // Wrong append type.
  EXPECT_FALSE(column.AppendBatch(AnyColumn(Column<uint32_t>{1, 2})).ok());
  // Packed input.
  // (packed columns cannot be built trivially here; type mismatch covers
  // the validation path)

  // chunk_rows == 0 is rejected up front and sticks.
  AppendableColumn bad(TypeId::kUInt32, {0});
  EXPECT_FALSE(bad.Append(1).ok());
  EXPECT_FALSE(bad.Snapshot().ok());
  EXPECT_FALSE(bad.Flush().ok());

  // A signed column without a pinned descriptor is rejected up front (the
  // analyzer searches unsigned data only): no data is ever accepted that
  // could not seal.
  AppendableColumn signed_col(TypeId::kInt32, {8});
  Column<int32_t> values;
  for (int32_t i = 0; i < 32; ++i) values.push_back(-i);
  EXPECT_FALSE(signed_col.AppendBatch(AnyColumn(values)).ok());
  EXPECT_FALSE(signed_col.Flush().ok());
  EXPECT_FALSE(signed_col.Snapshot().ok());
  EXPECT_FALSE(signed_col.Append(1).ok());

  // With an explicit ZIGZAG composition, signed ingest works end to end.
  IngestOptions zz;
  zz.chunk_rows = 8;
  zz.descriptor = ZigZag().With("recoded", Ns());
  AppendableColumn zigzag_col(TypeId::kInt32, zz);
  ASSERT_OK(zigzag_col.AppendBatch(AnyColumn(values)));
  ASSERT_OK(zigzag_col.Flush());
  auto zz_snap = zigzag_col.Snapshot();
  ASSERT_OK(zz_snap.status());
  auto zz_back = DecompressChunked(zz_snap->chunked());
  ASSERT_OK(zz_back.status());
  EXPECT_TRUE(*zz_back == AnyColumn(values));
}

TEST(StoreTest, IdFastPathRejectsLengthMismatchedEnvelopes) {
  // A corrupt ID envelope claiming more rows than its data part holds must
  // not be indexed in place: the fast path declines (PlainIdData's length
  // check) and the decompress fallback reports Corruption, exactly as the
  // pre-fast-path behavior did.
  CompressedNode node;
  node.scheme = SchemeDescriptor(SchemeKind::kId);
  node.n = 100;
  node.out_type = TypeId::kUInt32;
  Column<uint32_t> data(50, 7);
  CompressedPart part;
  part.column = AnyColumn(data);
  node.parts.emplace("data", std::move(part));
  const CompressedColumn corrupt(std::move(node));
  EXPECT_FALSE(exec::GetAt(corrupt, 99).ok());
  EXPECT_FALSE(exec::SumCompressed(corrupt).ok());
  EXPECT_FALSE(exec::SelectCompressed(corrupt, RangePredicate{0, 10}).ok());
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(StoreTest, TableRowAlignedAppendsAndSnapshot) {
  ThreadPool pool(2);
  auto table = Table::Create(
      {
          {"orders", TypeId::kUInt32, {256}, "RLE"},
          {"amounts", TypeId::kUInt32, {256}, ""},
          {"wide", TypeId::kUInt64, {256}, ""},
      },
      ExecContext{&pool, 1});
  ASSERT_OK(table.status());
  EXPECT_EQ(table->num_columns(), 3u);

  Column<uint32_t> orders = testutil::RunsColumn(900, 0.1, 71);
  Column<uint32_t> amounts = testutil::UniformColumn<uint32_t>(900, 50000, 72);
  Column<uint64_t> wide =
      testutil::UniformColumn<uint64_t>(900, 1ull << 40, 73);
  ASSERT_OK(table->AppendBatch(
      {AnyColumn(orders), AnyColumn(amounts), AnyColumn(wide)}));
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(table->AppendRow({orders[i], amounts[i], wide[i]}));
  }
  EXPECT_EQ(table->num_rows(), 910u);

  auto snap = table->Snapshot();
  ASSERT_OK(snap.status());
  EXPECT_EQ(snap->rows(), 910u);
  EXPECT_EQ(snap->num_columns(), 3u);
  auto amounts_snap = snap->column("amounts");
  ASSERT_OK(amounts_snap.status());
  EXPECT_EQ((*amounts_snap)->size(), 910u);
  EXPECT_FALSE(snap->column("nope").ok());

  // Point access across columns reconstructs appended rows.
  for (const uint64_t row : {uint64_t{0}, uint64_t{899}, uint64_t{905}}) {
    const uint64_t logical = row < 900 ? row : row - 900;
    auto o = exec::GetAt(snap->column("orders").ValueOrDie()->chunked(), row);
    auto w = exec::GetAt(snap->column("wide").ValueOrDie()->chunked(), row);
    ASSERT_OK(o.status());
    ASSERT_OK(w.status());
    EXPECT_EQ(o->value, orders[logical]);
    EXPECT_EQ(w->value, wide[logical]);
  }

  ASSERT_OK(table->Flush());
  // The pinned catalog scheme really is RLE on every sealed chunk.
  auto orders_col = table->column("orders");
  ASSERT_OK(orders_col.status());
  auto orders_view = (*orders_col)->Snapshot();
  ASSERT_OK(orders_view.status());
  for (const auto& chunk : orders_view->chunked().chunks()) {
    EXPECT_EQ(chunk->column.Descriptor().kind, MakeRle().kind);
  }
}

TEST(StoreTest, TableRefusesIngestAfterColumnSealFailure) {
  // One column pins NS(1), which cannot represent the ingested values: its
  // seal job fails and sets the column's sticky status. The table must then
  // refuse whole rows up front — keeping the columns row-aligned — and
  // snapshots must surface the failure instead of silently dropping data.
  store::IngestOptions bad;
  bad.chunk_rows = 16;
  bad.descriptor = Ns(1);
  auto broken = Table::Create({
      {"good", TypeId::kUInt32, {16}, ""},
      {"bad", TypeId::kUInt32, bad, ""},
  });
  ASSERT_OK(broken.status());

  Column<uint32_t> wide(32, 1000);  // Needs 10 bits; NS(1) cannot pack it.
  ASSERT_OK(broken->AppendBatch({AnyColumn(wide), AnyColumn(wide)}));
  // The inline seal failed and stuck; the next row is refused before any
  // column is touched, so alignment holds.
  EXPECT_FALSE(broken->AppendRow({1, 1}).ok());
  auto good = broken->column("good");
  auto bad_col = broken->column("bad");
  ASSERT_OK(good.status());
  ASSERT_OK(bad_col.status());
  EXPECT_EQ((*good)->size(), (*bad_col)->size());
  EXPECT_FALSE((*bad_col)->status().ok());
  EXPECT_FALSE(broken->Snapshot().ok());
  EXPECT_FALSE(broken->Flush().ok());
}

TEST(StoreTest, TableCreateAndAppendValidation) {
  EXPECT_FALSE(Table::Create({}).ok());
  EXPECT_FALSE(Table::Create({{"", TypeId::kUInt32, {}, ""}}).ok());
  EXPECT_FALSE(Table::Create({{"a", TypeId::kUInt32, {}, ""},
                              {"a", TypeId::kUInt32, {}, ""}})
                   .ok());
  EXPECT_FALSE(Table::Create({{"a", TypeId::kUInt32, {}, "NOPE"}}).ok());

  auto table = Table::Create({{"a", TypeId::kUInt8, {}, ""},
                              {"b", TypeId::kUInt32, {}, ""}});
  ASSERT_OK(table.status());
  // Arity and fit are validated before any column is touched.
  EXPECT_FALSE(table->AppendRow({1}).ok());
  EXPECT_FALSE(table->AppendRow({300, 1}).ok());
  EXPECT_EQ(table->num_rows(), 0u);
  EXPECT_FALSE(table
                   ->AppendBatch({AnyColumn(Column<uint8_t>{1}),
                                  AnyColumn(Column<uint32_t>{})})
                   .ok());
  EXPECT_EQ(table->num_rows(), 0u);
  ASSERT_OK(table->AppendRow({2, 9}));
  EXPECT_EQ(table->num_rows(), 1u);
}

TEST(StoreTest, SnapshotColumnLookupIsIndexedAndRejectsUnknownNames) {
  // Many columns: the snapshot's name→index map (built once at snapshot
  // creation) must send every name to the right slot, and unknown names —
  // including near-misses and the empty string — to KeyError, for both
  // column() and column_index().
  std::vector<store::ColumnSpec> specs;
  for (int c = 0; c < 24; ++c) {
    specs.push_back({"col" + std::to_string(c), TypeId::kUInt32, {64}, ""});
  }
  auto table = Table::Create(specs);
  ASSERT_OK(table.status());
  std::vector<AnyColumn> batch;
  for (int c = 0; c < 24; ++c) {
    batch.emplace_back(Column<uint32_t>(100, static_cast<uint32_t>(c)));
  }
  ASSERT_OK(table->AppendBatch(batch));
  auto snap = table->Snapshot();
  ASSERT_OK(snap.status());

  for (int c = 0; c < 24; ++c) {
    const std::string name = "col" + std::to_string(c);
    auto index = snap->column_index(name);
    ASSERT_OK(index.status());
    EXPECT_EQ(*index, static_cast<uint64_t>(c));
    auto view = snap->column(name);
    ASSERT_OK(view.status());
    auto value = exec::GetAt((*view)->chunked(), 0);
    ASSERT_OK(value.status());
    EXPECT_EQ(value->value, static_cast<uint64_t>(c));
  }
  for (const std::string& unknown : {std::string("col24"), std::string("COL0"),
                                     std::string("col"), std::string()}) {
    auto index = snap->column_index(unknown);
    ASSERT_FALSE(index.ok());
    EXPECT_EQ(index.status().code(), StatusCode::kKeyError);
    EXPECT_EQ(snap->column(unknown).status().code(), StatusCode::kKeyError);
  }
}

}  // namespace
}  // namespace recomp
