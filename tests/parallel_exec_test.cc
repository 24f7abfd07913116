// Parallel chunked execution: for every thread count and grain size, the
// parallel path must produce results bit-identical to the sequential path —
// positions, aggregate values, and every stats counter — plus zone-map edge
// cases (all chunks pruned, contained-emit without decode, empty chunks,
// chunks without min/max) where sequential and parallel must agree.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/catalog.h"
#include "core/chunked.h"
#include "core/pipeline.h"
#include "exec/aggregate.h"
#include "exec/point_access.h"
#include "exec/selection.h"
#include "gen/generators.h"
#include "test_util.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace recomp {
namespace {

using exec::RangePredicate;

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

void ExpectSelectionsIdentical(const exec::ChunkedSelectionResult& a,
                               const exec::ChunkedSelectionResult& b) {
  EXPECT_EQ(a.positions, b.positions);
  EXPECT_EQ(a.stats.chunks_total, b.stats.chunks_total);
  EXPECT_EQ(a.stats.chunks_pruned, b.stats.chunks_pruned);
  EXPECT_EQ(a.stats.chunks_full, b.stats.chunks_full);
  EXPECT_EQ(a.stats.chunks_executed, b.stats.chunks_executed);
  EXPECT_EQ(a.stats.values_decoded, b.stats.values_decoded);
  for (int s = 0; s < exec::kNumStrategies; ++s) {
    EXPECT_EQ(a.stats.strategy_chunks[s], b.stats.strategy_chunks[s]) << s;
  }
  ASSERT_EQ(a.stats.per_chunk.size(), b.stats.per_chunk.size());
  for (size_t i = 0; i < a.stats.per_chunk.size(); ++i) {
    EXPECT_EQ(a.stats.per_chunk[i].chunk_index,
              b.stats.per_chunk[i].chunk_index);
    EXPECT_EQ(static_cast<int>(a.stats.per_chunk[i].stats.strategy),
              static_cast<int>(b.stats.per_chunk[i].stats.strategy));
    EXPECT_EQ(a.stats.per_chunk[i].stats.values_decoded,
              b.stats.per_chunk[i].stats.values_decoded);
  }
}

void ExpectAggregatesIdentical(const exec::ChunkedAggregateResult& a,
                               const exec::ChunkedAggregateResult& b) {
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.chunks_total, b.chunks_total);
  EXPECT_EQ(a.chunks_pruned, b.chunks_pruned);
  EXPECT_EQ(a.chunks_executed, b.chunks_executed);
  for (int s = 0; s < exec::kNumStrategies; ++s) {
    EXPECT_EQ(a.strategy_chunks[s], b.strategy_chunks[s]) << s;
  }
}

/// Runs every chunked operator sequentially and under `ctx`, asserting
/// bit-identical outcomes.
void ExpectParallelAgreesWithSequential(
    const ChunkedCompressedColumn& chunked, const ExecContext& ctx,
    const std::vector<RangePredicate>& preds) {
  for (const RangePredicate& pred : preds) {
    auto seq = exec::SelectCompressed(chunked, pred);
    auto par = exec::SelectCompressed(chunked, pred, ctx);
    ASSERT_OK(seq.status());
    ASSERT_OK(par.status());
    ExpectSelectionsIdentical(*seq, *par);
  }

  auto seq_sum = exec::SumCompressed(chunked);
  auto par_sum = exec::SumCompressed(chunked, ctx);
  ASSERT_OK(seq_sum.status());
  ASSERT_OK(par_sum.status());
  ExpectAggregatesIdentical(*seq_sum, *par_sum);

  if (chunked.size() > 0) {
    auto seq_min = exec::MinCompressed(chunked);
    auto par_min = exec::MinCompressed(chunked, ctx);
    ASSERT_OK(seq_min.status());
    ASSERT_OK(par_min.status());
    ExpectAggregatesIdentical(*seq_min, *par_min);

    auto seq_max = exec::MaxCompressed(chunked);
    auto par_max = exec::MaxCompressed(chunked, ctx);
    ASSERT_OK(seq_max.status());
    ASSERT_OK(par_max.status());
    ExpectAggregatesIdentical(*seq_max, *par_max);
  }

  auto seq_back = DecompressChunked(chunked);
  auto par_back = DecompressChunked(chunked, ctx);
  ASSERT_OK(seq_back.status());
  ASSERT_OK(par_back.status());
  EXPECT_TRUE(*seq_back == *par_back);
}

TEST(ParallelExecTest, EveryThreadCountMatchesSequential) {
  const Column<uint32_t> col = MixedShapes(2 * kChunk + 123, 71);
  auto chunked = CompressChunkedAuto(AnyColumn(col), {kChunk});
  ASSERT_OK(chunked.status());
  const std::vector<RangePredicate> preds = {
      {0, ~uint64_t{0}},                      // Everything (full chunks).
      {1u << 25, (1u << 25) + 500},           // The sorted tail.
      {5, 1u << 23},                          // Partial overlap everywhere.
      {~uint64_t{0} - 1, ~uint64_t{0}},       // Nothing.
  };
  for (const uint64_t threads : {1ull, 2ull, 4ull, 8ull}) {
    ThreadPool pool(threads);
    for (const uint64_t grain : {1ull, 4ull}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads
                                      << " grain=" << grain);
      ExpectParallelAgreesWithSequential(*chunked, ExecContext{&pool, grain},
                                         preds);
    }
  }
}

TEST(ParallelExecTest, ParallelCompressionMatchesSequential) {
  const Column<uint32_t> col = MixedShapes(kChunk + 321, 73);
  const AnyColumn input(col);
  ThreadPool pool(4);
  const ExecContext ctx{&pool, 1};

  // Shared descriptor.
  auto seq = CompressChunked(input, MakeRle(), {kChunk});
  auto par = CompressChunked(input, MakeRle(), {kChunk}, ctx);
  ASSERT_OK(seq.status());
  ASSERT_OK(par.status());
  ASSERT_EQ(seq->num_chunks(), par->num_chunks());
  for (uint64_t i = 0; i < seq->num_chunks(); ++i) {
    EXPECT_EQ(seq->chunk(i).zone.row_begin, par->chunk(i).zone.row_begin);
    EXPECT_EQ(seq->chunk(i).zone.min, par->chunk(i).zone.min);
    EXPECT_EQ(seq->chunk(i).zone.max, par->chunk(i).zone.max);
    EXPECT_EQ(seq->chunk(i).column.Descriptor(),
              par->chunk(i).column.Descriptor());
    EXPECT_EQ(seq->chunk(i).column.PayloadBytes(),
              par->chunk(i).column.PayloadBytes());
  }

  // Per-chunk analyzer choice: the embarrassingly parallel search must pick
  // the same descriptors chunk for chunk.
  auto seq_auto = CompressChunkedAuto(input, {kChunk});
  auto par_auto = CompressChunkedAuto(input, {kChunk}, {}, ctx);
  ASSERT_OK(seq_auto.status());
  ASSERT_OK(par_auto.status());
  ASSERT_EQ(seq_auto->num_chunks(), par_auto->num_chunks());
  for (uint64_t i = 0; i < seq_auto->num_chunks(); ++i) {
    EXPECT_EQ(seq_auto->chunk(i).column.Descriptor(),
              par_auto->chunk(i).column.Descriptor());
  }

  // Roundtrip through the parallel compressor and decompressor.
  auto back = DecompressChunked(*par_auto, ctx);
  ASSERT_OK(back.status());
  EXPECT_TRUE(*back == input);
}

TEST(ParallelExecTest, GetAtAcceptsContextAndBatchMatchesPointwise) {
  const Column<uint32_t> col = MixedShapes(kChunk, 79);
  auto chunked = CompressChunkedAuto(AnyColumn(col), {kChunk});
  ASSERT_OK(chunked.status());
  ThreadPool pool(4);
  const ExecContext ctx{&pool, 8};

  Rng rng(83);
  std::vector<uint64_t> rows;
  for (int i = 0; i < 100; ++i) rows.push_back(rng.Below(col.size()));
  auto batch = exec::GetAtBatch(*chunked, rows, ctx);
  ASSERT_OK(batch.status());
  ASSERT_EQ(batch->size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    auto point = exec::GetAt(*chunked, rows[i], ctx);
    ASSERT_OK(point.status());
    EXPECT_EQ(point->value, col[rows[i]]);
    EXPECT_EQ((*batch)[i].value, point->value);
    EXPECT_EQ(static_cast<int>((*batch)[i].strategy),
              static_cast<int>(point->strategy));
  }

  // Out-of-range rows fail, sequentially and in a batch.
  EXPECT_FALSE(exec::GetAt(*chunked, col.size(), ctx).ok());
  EXPECT_FALSE(exec::GetAtBatch(*chunked, {0, col.size()}, ctx).ok());
}

// ---------------------------------------------------------------------------
// Zone-map edge cases: sequential and parallel must agree.
// ---------------------------------------------------------------------------

TEST(ParallelExecTest, AllChunksPrunedSelection) {
  // Values live in [1000, ~2^14); a predicate far above prunes every chunk.
  const Column<uint32_t> col = gen::SortedRuns(8 * kChunk, 20.0, 3, 89);
  auto chunked = CompressChunked(AnyColumn(col), MakeRle(), {kChunk});
  ASSERT_OK(chunked.status());
  ThreadPool pool(4);
  const RangePredicate nothing{uint64_t{1} << 40, uint64_t{1} << 41};
  for (const ExecContext& ctx : {ExecContext{}, ExecContext{&pool, 1}}) {
    auto result = exec::SelectCompressed(*chunked, nothing, ctx);
    ASSERT_OK(result.status());
    EXPECT_TRUE(result->positions.empty());
    EXPECT_EQ(result->stats.chunks_pruned, chunked->num_chunks());
    EXPECT_EQ(result->stats.chunks_executed, 0u);
    EXPECT_EQ(result->stats.values_decoded, 0u);
  }
}

TEST(ParallelExecTest, ContainedChunksEmitWithoutDecoding) {
  const Column<uint32_t> col = gen::SortedRuns(4 * kChunk, 20.0, 3, 97);
  auto chunked = CompressChunked(AnyColumn(col), MakeRle(), {kChunk});
  ASSERT_OK(chunked.status());
  ThreadPool pool(4);
  for (const ExecContext& ctx : {ExecContext{}, ExecContext{&pool, 1}}) {
    auto result = exec::SelectCompressed(*chunked, RangePredicate{}, ctx);
    ASSERT_OK(result.status());
    EXPECT_EQ(result->positions.size(), col.size());
    EXPECT_EQ(result->stats.chunks_full, chunked->num_chunks());
    EXPECT_EQ(result->stats.values_decoded, 0u);
    // Positions are the identity, in order.
    for (uint32_t i = 0; i < result->positions.size(); ++i) {
      ASSERT_EQ(result->positions[i], i);
    }
  }
}

/// A chunked column with hand-built irregularities: a normal chunk, an empty
/// chunk, a chunk without min/max, then another normal chunk.
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
  append({}, true);       // Empty chunk: skipped by every operator.
  append(b, false);       // No min/max: never pruned, always executed.
  append(c, true);
  return out;
}

TEST(ParallelExecTest, EmptyAndMinMaxlessChunksAgree) {
  Column<uint32_t> a, b, c;
  for (uint32_t i = 0; i < 500; ++i) a.push_back(100 + i % 50);
  for (uint32_t i = 0; i < 300; ++i) b.push_back(10000 + (i * 37) % 2000);
  for (uint32_t i = 0; i < 400; ++i) c.push_back(50000 + i);
  Column<uint32_t> all = a;
  all.insert(all.end(), b.begin(), b.end());
  all.insert(all.end(), c.begin(), c.end());

  const ChunkedCompressedColumn chunked = IrregularChunks(a, b, c);
  ASSERT_EQ(chunked.num_chunks(), 4u);
  ASSERT_EQ(chunked.size(), all.size());

  ThreadPool pool(3);
  const std::vector<RangePredicate> preds = {
      {0, ~uint64_t{0}},    // Everything.
      {100, 149},           // Only chunk a (b still executes: no zone map).
      {50000, 50100},       // Only chunk c.
      {1, 2},               // Nothing, but b still executes.
  };
  for (const uint64_t grain : {1ull, 2ull}) {
    ExpectParallelAgreesWithSequential(chunked, ExecContext{&pool, grain},
                                       preds);
  }

  // The minmax-less chunk is executed even when its values cannot match.
  auto nothing = exec::SelectCompressed(chunked, RangePredicate{1, 2});
  ASSERT_OK(nothing.status());
  EXPECT_TRUE(nothing->positions.empty());
  EXPECT_EQ(nothing->stats.chunks_executed, 1u);
  EXPECT_EQ(nothing->stats.chunks_pruned, 2u);

  // Min/max must fall back to payloads for the minmax-less chunk only.
  auto min = exec::MinCompressed(chunked);
  auto max = exec::MaxCompressed(chunked);
  ASSERT_OK(min.status());
  ASSERT_OK(max.status());
  EXPECT_EQ(min->value, *std::min_element(all.begin(), all.end()));
  EXPECT_EQ(max->value, *std::max_element(all.begin(), all.end()));
  EXPECT_EQ(min->chunks_executed, 1u);

  // Selection equals the plain reference over the concatenation.
  for (const RangePredicate& pred : preds) {
    auto result = exec::SelectCompressed(chunked, pred);
    ASSERT_OK(result.status());
    Column<uint32_t> expected;
    for (uint64_t i = 0; i < all.size(); ++i) {
      if (all[i] >= pred.lo && all[i] <= pred.hi) {
        expected.push_back(static_cast<uint32_t>(i));
      }
    }
    EXPECT_EQ(result->positions, expected);
  }
}

TEST(ParallelExecTest, MinChunksPerTaskZeroBehavesLikeOne) {
  const Column<uint32_t> col = MixedShapes(kChunk, 101);
  auto chunked = CompressChunkedAuto(AnyColumn(col), {kChunk / 4});
  ASSERT_OK(chunked.status());
  ThreadPool pool(2);
  ExpectParallelAgreesWithSequential(*chunked, ExecContext{&pool, 0},
                                     {RangePredicate{}});
}

}  // namespace
}  // namespace recomp
