// Tests for point access on compressed columns: every strategy must agree
// with full decompression at every probed row.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "core/catalog.h"
#include "core/chunked.h"
#include "exec/point_access.h"
#include "exec/scan.h"
#include "gen/generators.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace recomp {
namespace {

void ExpectPointAccess(const Column<uint32_t>& col,
                       const SchemeDescriptor& desc,
                       exec::Strategy expected_strategy) {
  auto compressed = Compress(AnyColumn(col), desc);
  ASSERT_OK(compressed.status());
  Rng rng(99);
  std::vector<uint64_t> rows = {0, col.size() - 1, col.size() / 2};
  for (int i = 0; i < 20; ++i) rows.push_back(rng.Below(col.size()));
  for (uint64_t row : rows) {
    auto result = exec::GetAt(*compressed, row);
    ASSERT_OK(result.status()) << desc.ToString() << " row " << row;
    EXPECT_EQ(result->value, col[row]) << desc.ToString() << " row " << row;
    EXPECT_EQ(result->strategy, expected_strategy) << desc.ToString();
  }
}

TEST(PointAccessTest, NsDirect) {
  ExpectPointAccess(gen::Uniform(10000, 1 << 17, 1), Ns(),
                    exec::Strategy::kNsDirect);
}

TEST(PointAccessTest, ForDirect) {
  ExpectPointAccess(gen::StepLevels(20000, 512, 24, 6, 2), MakeFor(512),
                    exec::Strategy::kForDirect);
}

TEST(PointAccessTest, RpeBinarySearch) {
  ExpectPointAccess(gen::SortedRuns(20000, 30.0, 3, 3), Rpe(),
                    exec::Strategy::kRpeBinarySearch);
}

TEST(PointAccessTest, DictProbePlainCodes) {
  ExpectPointAccess(gen::ZipfValues(10000, 64, 1.1, 4), Dict(),
                    exec::Strategy::kDictProbe);
}

TEST(PointAccessTest, DictProbePackedCodes) {
  ExpectPointAccess(gen::ZipfValues(10000, 64, 1.1, 5), MakeDictNs(),
                    exec::Strategy::kDictProbe);
}

TEST(PointAccessTest, FallbackForSequentialSchemes) {
  ExpectPointAccess(gen::SortedRuns(5000, 10.0, 2, 6), MakeDeltaNs(),
                    exec::Strategy::kDecompressScan);
}

TEST(PointAccessTest, RleFallsBackWhenPositionsComposed) {
  // RLE's positions are DELTA-compressed: no random access to run ends
  // without integrating them, so GetAt degrades gracefully.
  ExpectPointAccess(gen::SortedRuns(5000, 10.0, 2, 7), MakeRle(),
                    exec::Strategy::kDecompressScan);
}

TEST(PointAccessTest, OutOfRangeRejected) {
  auto compressed = Compress(AnyColumn(Column<uint32_t>{1, 2}), Ns());
  ASSERT_OK(compressed.status());
  EXPECT_EQ(exec::GetAt(*compressed, 2).status().code(),
            StatusCode::kOutOfRange);
}

TEST(PointAccessTest, SignedRejected) {
  auto compressed = Compress(AnyColumn(Column<int32_t>{1}), Rpe());
  ASSERT_OK(compressed.status());
  EXPECT_FALSE(exec::GetAt(*compressed, 0).ok());
}

TEST(PointAccessTest, SingleRunColumn) {
  Column<uint32_t> col(1000, 7);
  auto compressed = Compress(AnyColumn(col), Rpe());
  ASSERT_OK(compressed.status());
  for (uint64_t row : {0u, 500u, 999u}) {
    auto result = exec::GetAt(*compressed, row);
    ASSERT_OK(result.status());
    EXPECT_EQ(result->value, 7u);
  }
}

TEST(PointAccessTest, Uint64ThroughFor) {
  Rng rng(8);
  Column<uint64_t> col;
  for (int i = 0; i < 8192; ++i) {
    col.push_back((uint64_t{1} << 50) + rng.Below(4096));
  }
  auto compressed =
      Compress(AnyColumn(col), MakeFor(256));
  ASSERT_OK(compressed.status());
  for (uint64_t row : {0u, 100u, 8191u}) {
    auto result = exec::GetAt(*compressed, row);
    ASSERT_OK(result.status());
    EXPECT_EQ(result->value, col[row]);
    EXPECT_EQ(result->strategy, exec::Strategy::kForDirect);
  }
}

// ---------------------------------------------------------------------------
// GetAtBatch: chunk-grouped gather.
// ---------------------------------------------------------------------------

/// Batch lookups with duplicate and unsorted row ids must agree row for row
/// (value and strategy) with per-row GetAt — the regression contract for the
/// chunk-grouped rewrite, which decompresses each touched chunk once rather
/// than once per requested row.
void ExpectBatchAgreesWithPointwise(const ChunkedCompressedColumn& chunked,
                                    const Column<uint32_t>& reference,
                                    const std::vector<uint64_t>& rows,
                                    const ExecContext& ctx) {
  auto batch = exec::GetAtBatch(chunked, rows, ctx);
  ASSERT_OK(batch.status());
  ASSERT_EQ(batch->size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    auto point = exec::GetAt(chunked, rows[i]);
    ASSERT_OK(point.status()) << "row " << rows[i];
    EXPECT_EQ((*batch)[i].value, reference[rows[i]]) << "row " << rows[i];
    EXPECT_EQ((*batch)[i].value, point->value) << "row " << rows[i];
    EXPECT_EQ(static_cast<int>((*batch)[i].strategy),
              static_cast<int>(point->strategy))
        << "row " << rows[i];
  }
}

TEST(PointAccessTest, BatchDuplicateAndUnsortedRowsAgreeWithGetAt) {
  constexpr uint64_t kChunk = 512;
  const Column<uint32_t> col = gen::SortedRuns(8 * kChunk, 12.0, 2, 21);

  // A fallback shape (DELTA(NS): no direct access path — every per-row
  // lookup decompresses) and a direct shape (NS) side by side.
  for (const SchemeDescriptor& desc :
       {MakeDeltaNs(), Ns()}) {
    auto chunked = CompressChunked(AnyColumn(col), desc, {kChunk});
    ASSERT_OK(chunked.status());

    Rng rng(22);
    std::vector<uint64_t> rows;
    // Duplicates, reverse order, chunk-boundary rows, interleaved chunks.
    for (int i = 0; i < 64; ++i) rows.push_back(rng.Below(col.size()));
    rows.push_back(rows[0]);
    rows.push_back(rows[0]);
    for (uint64_t c = 0; c <= 8; ++c) {
      if (c * kChunk < col.size()) rows.push_back(c * kChunk);
      if (c * kChunk >= 1) rows.push_back(c * kChunk - 1);
    }
    std::sort(rows.begin(), rows.end(), std::greater<uint64_t>());
    rows.insert(rows.end(), {0, col.size() - 1, 0, col.size() - 1});

    ThreadPool pool(4);
    SCOPED_TRACE(desc.ToString());
    ExpectBatchAgreesWithPointwise(*chunked, col, rows, ExecContext{});
    ExpectBatchAgreesWithPointwise(*chunked, col, rows, ExecContext{&pool, 1});
  }
}

/// Successful fused decodes so far, over every shape and dispatch path.
uint64_t FusedDecodes() {
  uint64_t total = 0;
  for (const auto& counter : obs::Registry::Get().Snapshot().counters) {
    if (counter.name.rfind("fused.decode.", 0) == 0) total += counter.value;
  }
  return total;
}

TEST(PointAccessTest, EachTouchedChunkDecodesOnce) {
  // DELTA(NS) has no direct access path: every read decodes its chunk, so
  // the fused.decode.* counters count how often each touched chunk was
  // decoded — exactly once, for a batch of unsorted, duplicated rows and
  // for a filterless scan projecting every row, on any pool.
  constexpr uint64_t kChunk = 512;
  const Column<uint32_t> col = gen::SortedRuns(8 * kChunk, 12.0, 2, 21);
  auto chunked = CompressChunked(AnyColumn(col), MakeDeltaNs(), {kChunk});
  ASSERT_OK(chunked.status());
  // Chunks 6, 1, 3 and 0, out of order and repeated.
  const std::vector<uint64_t> rows = {
      6 * kChunk + 9, kChunk,     3 * kChunk + 511, 7,          kChunk,
      6 * kChunk + 9, 3 * kChunk, 0,                kChunk + 17};

  for (const uint64_t workers : {0, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ThreadPool pool(workers);
    const ExecContext ctx{workers == 0 ? nullptr : &pool, 1};

    uint64_t before = FusedDecodes();
    uint64_t touched = 0;
    const auto batch = exec::GetAtBatch(*chunked, rows, ctx, &touched);
    ASSERT_OK(batch.status());
    EXPECT_EQ(touched, 4u);
    EXPECT_EQ(FusedDecodes() - before, 4u);
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ((*batch)[i].value, col[rows[i]]) << "row " << rows[i];
    }

    before = FusedDecodes();
    const auto scan = exec::Scan(*chunked, exec::ScanSpec().Project(), ctx);
    ASSERT_OK(scan.status());
    EXPECT_EQ(FusedDecodes() - before, chunked->num_chunks());
    EXPECT_TRUE(scan->projections[0].values == AnyColumn(col));
    EXPECT_EQ(scan->projections[0].gather.chunks_touched,
              chunked->num_chunks());
  }
}

TEST(PointAccessTest, BatchOutOfRangeReportsFirstFailingRowUpFront) {
  const Column<uint32_t> col = gen::SortedRuns(1000, 10.0, 2, 23);
  auto chunked = CompressChunked(AnyColumn(col), MakeDeltaNs(), {256});
  ASSERT_OK(chunked.status());
  const auto result =
      exec::GetAtBatch(*chunked, {5, col.size() + 7, 3}, ExecContext{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  // An empty batch stays OK.
  auto empty = exec::GetAtBatch(*chunked, {}, ExecContext{});
  ASSERT_OK(empty.status());
  EXPECT_TRUE(empty->empty());
}

}  // namespace
}  // namespace recomp
