// Tests for chunked compressed columns: chunked <-> whole-column agreement
// for every exec operator on mixed-shape data, zone-map pruning, per-chunk
// scheme selection, and the v1/v2 serialization roundtrips.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/catalog.h"
#include "core/chunked.h"
#include "core/pipeline.h"
#include "core/serialize.h"
#include "exec/aggregate.h"
#include "exec/point_access.h"
#include "exec/selection.h"
#include "gen/generators.h"
#include "test_util.h"
#include "util/random.h"

namespace recomp {
namespace {

using exec::RangePredicate;

constexpr uint64_t kChunk = 4096;

/// A drifting column: runs, then noise, then a sorted stretch — the shape
/// where one whole-column scheme choice leaves ratio on the table.
Column<uint32_t> MixedShapes(uint64_t part, uint64_t seed) {
  Column<uint32_t> out = gen::SortedRuns(part, 40.0, 2, seed);
  Column<uint32_t> noise = gen::Uniform(part, uint64_t{1} << 24, seed + 1);
  out.insert(out.end(), noise.begin(), noise.end());
  for (uint64_t i = 0; i < part; ++i) {
    out.push_back((uint32_t{1} << 25) + static_cast<uint32_t>(3 * i));
  }
  return out;
}

/// Reference: decompress every chunk, filter the plain rows.
Column<uint32_t> ReferenceSelect(const Column<uint32_t>& col,
                                 const RangePredicate& pred) {
  Column<uint32_t> positions;
  for (uint64_t i = 0; i < col.size(); ++i) {
    if (col[i] >= pred.lo && col[i] <= pred.hi) {
      positions.push_back(static_cast<uint32_t>(i));
    }
  }
  return positions;
}

TEST(ChunkedTest, RoundTripsAcrossChunkBoundaryShapes) {
  // n < chunk, n == chunk, n % chunk != 0, n % chunk == 0.
  const uint64_t sizes[] = {kChunk - 1, kChunk, kChunk + 1, 3 * kChunk + 77,
                            4 * kChunk};
  for (const uint64_t n : sizes) {
    const Column<uint32_t> col = gen::SortedRuns(n, 12.0, 3, n);
    const AnyColumn input(col);
    auto chunked = CompressChunked(input, MakeRle(), {kChunk});
    ASSERT_OK(chunked.status()) << n;
    EXPECT_EQ(chunked->size(), n);
    EXPECT_EQ(chunked->num_chunks(), (n + kChunk - 1) / kChunk);
    auto back = DecompressChunked(*chunked);
    ASSERT_OK(back.status()) << n;
    EXPECT_TRUE(*back == input) << n;
  }
}

TEST(ChunkedTest, EmptyColumnIsOneEmptyChunk) {
  const AnyColumn input((Column<uint32_t>{}));
  auto chunked = CompressChunked(input, MakeRle(), {kChunk});
  ASSERT_OK(chunked.status());
  EXPECT_EQ(chunked->num_chunks(), 1u);
  EXPECT_EQ(chunked->size(), 0u);
  auto back = DecompressChunked(*chunked);
  ASSERT_OK(back.status());
  EXPECT_TRUE(*back == input);

  auto sum = exec::SumCompressed(*chunked);
  ASSERT_OK(sum.status());
  EXPECT_EQ(sum->value, 0u);
  EXPECT_FALSE(exec::MinCompressed(*chunked).ok());
  EXPECT_FALSE(exec::MaxCompressed(*chunked).ok());
  auto selection = exec::SelectCompressed(*chunked, RangePredicate{});
  ASSERT_OK(selection.status());
  EXPECT_TRUE(selection->positions.empty());
  EXPECT_FALSE(exec::GetAt(*chunked, 0).ok());

  auto auto_chunked = CompressChunkedAuto(input, {kChunk});
  ASSERT_OK(auto_chunked.status());
  EXPECT_EQ(auto_chunked->num_chunks(), 1u);
  EXPECT_EQ(auto_chunked->size(), 0u);
}

TEST(ChunkedTest, ZeroChunkRowsRejected) {
  const AnyColumn input(Column<uint32_t>{1, 2, 3});
  EXPECT_FALSE(CompressChunked(input, MakeRle(), {0}).ok());
  EXPECT_FALSE(CompressChunkedAuto(input, {0}).ok());
}

TEST(ChunkedTest, ZoneMapsMatchChunkExtrema) {
  const Column<uint32_t> col = MixedShapes(kChunk, 17);
  auto chunked = CompressChunked(AnyColumn(col), Ns(), {kChunk});
  ASSERT_OK(chunked.status());
  for (uint64_t i = 0; i < chunked->num_chunks(); ++i) {
    const ZoneMap& zone = chunked->chunk(i).zone;
    ASSERT_TRUE(zone.has_minmax);
    const auto begin = col.begin() + zone.row_begin;
    const auto end = begin + zone.row_count;
    EXPECT_EQ(zone.min, *std::min_element(begin, end)) << i;
    EXPECT_EQ(zone.max, *std::max_element(begin, end)) << i;
  }
}

TEST(ChunkedTest, AutoPicksDifferentDescriptorsPerChunk) {
  const Column<uint32_t> col = MixedShapes(2 * kChunk, 23);
  const AnyColumn input(col);
  auto chunked = CompressChunkedAuto(input, {kChunk});
  ASSERT_OK(chunked.status());
  std::set<std::string> descriptors;
  for (const auto& chunk : chunked->chunks()) {
    descriptors.insert(chunk->column.Descriptor().ToString());
  }
  EXPECT_GE(descriptors.size(), 2u) << chunked->ToString();
  auto back = DecompressChunked(*chunked);
  ASSERT_OK(back.status());
  EXPECT_TRUE(*back == input);
}

TEST(ChunkedTest, WholeColumnIsTheSingleChunkSpecialCase) {
  const Column<uint32_t> col = gen::SortedRuns(10000, 20.0, 3, 29);
  auto whole = Compress(AnyColumn(col), MakeRle());
  ASSERT_OK(whole.status());
  auto chunked = CompressChunked(AnyColumn(col), MakeRle(), {col.size()});
  ASSERT_OK(chunked.status());
  ASSERT_EQ(chunked->num_chunks(), 1u);
  EXPECT_EQ(chunked->chunk(0).column.Descriptor(), whole->Descriptor());
  EXPECT_EQ(chunked->PayloadBytes(), whole->PayloadBytes());

  const ChunkedCompressedColumn wrapped =
      ChunkedCompressedColumn::FromSingle(whole->Clone());
  EXPECT_EQ(wrapped.num_chunks(), 1u);
  EXPECT_EQ(wrapped.size(), col.size());
  auto back = DecompressChunked(wrapped);
  ASSERT_OK(back.status());
  EXPECT_TRUE(*back == AnyColumn(col));
}

// ---------------------------------------------------------------------------
// Chunked <-> whole-column operator agreement
// ---------------------------------------------------------------------------

void ExpectOperatorsAgree(const Column<uint32_t>& col,
                          const ChunkedCompressedColumn& chunked) {
  // Selection over randomized predicates.
  Rng rng(101);
  const uint64_t hi_bound = uint64_t{1} << 26;
  for (int trial = 0; trial < 12; ++trial) {
    uint64_t a = rng.Below(hi_bound);
    uint64_t b = rng.Below(hi_bound);
    RangePredicate pred{std::min(a, b), std::max(a, b)};
    auto result = exec::SelectCompressed(chunked, pred);
    ASSERT_OK(result.status());
    EXPECT_EQ(result->positions, ReferenceSelect(col, pred))
        << "[" << pred.lo << "," << pred.hi << "]";
  }

  // Aggregates.
  uint64_t ref_sum = 0;
  for (const uint32_t v : col) ref_sum += v;
  auto sum = exec::SumCompressed(chunked);
  auto min = exec::MinCompressed(chunked);
  auto max = exec::MaxCompressed(chunked);
  ASSERT_OK(sum.status());
  ASSERT_OK(min.status());
  ASSERT_OK(max.status());
  EXPECT_EQ(sum->value, ref_sum);
  EXPECT_EQ(min->value, *std::min_element(col.begin(), col.end()));
  EXPECT_EQ(max->value, *std::max_element(col.begin(), col.end()));

  // Point access, including every chunk boundary.
  std::vector<uint64_t> rows = {0, col.size() - 1, col.size() / 2};
  for (uint64_t i = 0; i < chunked.num_chunks(); ++i) {
    rows.push_back(chunked.chunk(i).zone.row_begin);
  }
  for (int trial = 0; trial < 20; ++trial) {
    rows.push_back(rng.Below(col.size()));
  }
  for (const uint64_t row : rows) {
    auto point = exec::GetAt(chunked, row);
    ASSERT_OK(point.status()) << row;
    EXPECT_EQ(point->value, col[row]) << row;
  }
}

TEST(ChunkedTest, OperatorsAgreeWithSharedDescriptor) {
  const Column<uint32_t> col = MixedShapes(kChunk + 123, 31);
  for (const SchemeDescriptor& desc :
       {MakeRle(), MakeFor(256), Ns(), MakeDeltaNs()}) {
    auto chunked = CompressChunked(AnyColumn(col), desc, {kChunk});
    ASSERT_OK(chunked.status()) << desc.ToString();
    ExpectOperatorsAgree(col, *chunked);
  }
}

TEST(ChunkedTest, OperatorsAgreeWithAutoDescriptors) {
  const Column<uint32_t> col = MixedShapes(kChunk + 123, 37);
  auto chunked = CompressChunkedAuto(AnyColumn(col), {kChunk});
  ASSERT_OK(chunked.status());
  ExpectOperatorsAgree(col, *chunked);
}

TEST(ChunkedTest, ZoneMapsPruneChunksOnSortedRuns) {
  // Globally sorted data: chunk value ranges are nearly disjoint, so a
  // narrow predicate must skip most chunks without touching their payloads.
  const Column<uint32_t> col = gen::SortedRuns(16 * kChunk, 25.0, 3, 41);
  auto chunked = CompressChunked(AnyColumn(col), MakeRle(), {kChunk});
  ASSERT_OK(chunked.status());
  const uint32_t pivot = col[col.size() / 2];
  RangePredicate pred{pivot, pivot + 5};
  auto result = exec::SelectCompressed(*chunked, pred);
  ASSERT_OK(result.status());
  EXPECT_EQ(result->positions, ReferenceSelect(col, pred));
  EXPECT_EQ(result->stats.chunks_total, chunked->num_chunks());
  EXPECT_GE(result->stats.chunks_pruned, 1u);
  EXPECT_GE(result->stats.chunks_pruned, chunked->num_chunks() - 3);
  EXPECT_LE(result->stats.chunks_executed, 3u);

  // A predicate covering everything: chunks are emitted from zone maps
  // alone, with no per-chunk dispatch at all.
  auto all = exec::SelectCompressed(*chunked, RangePredicate{});
  ASSERT_OK(all.status());
  EXPECT_EQ(all->positions.size(), col.size());
  EXPECT_EQ(all->stats.chunks_full, chunked->num_chunks());
  EXPECT_EQ(all->stats.values_decoded, 0u);
}

TEST(ChunkedTest, ChunkedStatsReportPerChunkStrategies) {
  const Column<uint32_t> col = MixedShapes(kChunk, 43);
  auto chunked = CompressChunkedAuto(AnyColumn(col), {kChunk});
  ASSERT_OK(chunked.status());
  // A predicate overlapping every zone forces per-chunk dispatch.
  const uint64_t lo = 1;
  auto result =
      exec::SelectCompressed(*chunked, RangePredicate{lo, lo + (1u << 25)});
  ASSERT_OK(result.status());
  uint64_t strategy_total = 0;
  for (int s = 0; s < exec::kNumStrategies; ++s) {
    strategy_total += result->stats.strategy_chunks[s];
  }
  EXPECT_EQ(strategy_total, result->stats.chunks_executed);
  EXPECT_EQ(result->stats.per_chunk.size(), result->stats.chunks_executed);

  // Min/max never touch payloads when every chunk has a zone map.
  auto min = exec::MinCompressed(*chunked);
  ASSERT_OK(min.status());
  EXPECT_EQ(min->chunks_executed, 0u);
  EXPECT_EQ(min->chunks_pruned, chunked->num_chunks());
  EXPECT_EQ(min->strategy_chunks[static_cast<int>(
                exec::Strategy::kZoneMapOnly)],
            chunked->num_chunks());
}

TEST(ChunkedTest, SignedColumnsRejectedByChunkedOperators) {
  auto chunked = CompressChunked(AnyColumn(Column<int32_t>{1, -2, 3}),
                                 Rpe(), {kChunk});
  ASSERT_OK(chunked.status());
  EXPECT_FALSE(chunked->chunk(0).zone.has_minmax);
  EXPECT_FALSE(exec::SelectCompressed(*chunked, RangePredicate{}).ok());
  EXPECT_FALSE(exec::SumCompressed(*chunked).ok());
}

// ---------------------------------------------------------------------------
// Serialization v2
// ---------------------------------------------------------------------------

TEST(ChunkedTest, SerializeV2RoundTrip) {
  const Column<uint32_t> col = MixedShapes(kChunk + 200, 47);
  const AnyColumn input(col);
  auto chunked = CompressChunkedAuto(input, {kChunk});
  ASSERT_OK(chunked.status());
  auto buffer = Serialize(*chunked);
  ASSERT_OK(buffer.status());
  EXPECT_EQ(buffer->size(), SerializedSize(*chunked));
  auto restored = DeserializeChunked(*buffer);
  ASSERT_OK(restored.status());
  ASSERT_EQ(restored->num_chunks(), chunked->num_chunks());
  for (uint64_t i = 0; i < restored->num_chunks(); ++i) {
    const ZoneMap& a = chunked->chunk(i).zone;
    const ZoneMap& b = restored->chunk(i).zone;
    EXPECT_EQ(a.row_begin, b.row_begin);
    EXPECT_EQ(a.row_count, b.row_count);
    EXPECT_EQ(a.has_minmax, b.has_minmax);
    EXPECT_EQ(a.min, b.min);
    EXPECT_EQ(a.max, b.max);
    EXPECT_EQ(chunked->chunk(i).column.Descriptor(),
              restored->chunk(i).column.Descriptor());
  }
  auto back = DecompressChunked(*restored);
  ASSERT_OK(back.status());
  EXPECT_TRUE(*back == input);
}

TEST(ChunkedTest, DeserializeChunkedReadsV1Buffers) {
  const Column<uint32_t> col = gen::SortedRuns(5000, 15.0, 2, 53);
  auto whole = Compress(AnyColumn(col), MakeRle());
  ASSERT_OK(whole.status());
  auto buffer = Serialize(*whole);
  ASSERT_OK(buffer.status());
  auto restored = DeserializeChunked(*buffer);
  ASSERT_OK(restored.status());
  EXPECT_EQ(restored->num_chunks(), 1u);
  EXPECT_EQ(restored->size(), col.size());
  EXPECT_FALSE(restored->chunk(0).zone.has_minmax);
  auto back = DecompressChunked(*restored);
  ASSERT_OK(back.status());
  EXPECT_TRUE(*back == AnyColumn(col));
}

TEST(ChunkedTest, DeserializeRejectsV2ForWholeColumnReader) {
  auto chunked =
      CompressChunked(AnyColumn(Column<uint32_t>{1, 2, 3}), Ns(), {2});
  ASSERT_OK(chunked.status());
  auto buffer = Serialize(*chunked);
  ASSERT_OK(buffer.status());
  EXPECT_EQ(Deserialize(*buffer).status().code(), StatusCode::kCorruption);
}

TEST(ChunkedTest, V2EveryTruncationRejected) {
  const Column<uint32_t> col = gen::SortedRuns(2000, 8.0, 2, 59);
  auto chunked = CompressChunked(AnyColumn(col), MakeRle(), {512});
  ASSERT_OK(chunked.status());
  auto buffer = Serialize(*chunked);
  ASSERT_OK(buffer.status());
  for (size_t len = 0; len < buffer->size(); len += 7) {
    std::vector<uint8_t> prefix(buffer->begin(), buffer->begin() + len);
    EXPECT_FALSE(DeserializeChunked(prefix).ok()) << "prefix length " << len;
  }
  std::vector<uint8_t> extended = *buffer;
  extended.push_back(0);
  EXPECT_EQ(DeserializeChunked(extended).status().code(),
            StatusCode::kCorruption);
}

TEST(ChunkedTest, V2RandomBitFlipsNeverCrash) {
  const Column<uint32_t> col = gen::SortedRuns(600, 6.0, 2, 61);
  auto chunked = CompressChunked(AnyColumn(col), MakeRleNs(), {256});
  ASSERT_OK(chunked.status());
  auto buffer = Serialize(*chunked);
  ASSERT_OK(buffer.status());
  Rng rng(67);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> corrupted = *buffer;
    corrupted[rng.Below(corrupted.size())] ^=
        static_cast<uint8_t>(1 + rng.Below(255));
    auto restored = DeserializeChunked(corrupted);
    if (restored.ok()) {
      auto back = DecompressChunked(*restored);  // Either is acceptable.
      (void)back;
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace recomp
