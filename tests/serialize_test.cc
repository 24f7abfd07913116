// Tests for binary serialization: roundtrips across the catalog, exact size
// accounting, and hostile-input robustness (truncation, bit flips, bad
// headers must produce Corruption, never crashes or bogus data).

#include <gtest/gtest.h>

#include <cstring>
#include <future>

#include "core/catalog.h"
#include "core/serialize.h"
#include "gen/generators.h"
#include "store/recompress.h"
#include "test_util.h"
#include "util/random.h"

namespace recomp {
namespace {

CompressedColumn RoundTripThroughBytes(const CompressedColumn& original) {
  auto buffer = Serialize(original);
  EXPECT_OK(buffer.status());
  EXPECT_EQ(buffer->size(), SerializedSize(original));
  auto restored = Deserialize(*buffer);
  EXPECT_OK(restored.status());
  return std::move(*restored);
}

TEST(SerializeTest, RoundTripsEveryCatalogEntry) {
  Column<uint32_t> col = gen::SortedRuns(20000, 20.0, 3, 1);
  for (const CatalogEntry& entry : ClassicCatalog()) {
    auto compressed = Compress(AnyColumn(col), entry.descriptor);
    ASSERT_OK(compressed.status()) << entry.name;
    CompressedColumn restored = RoundTripThroughBytes(*compressed);
    EXPECT_EQ(restored.Descriptor(), compressed->Descriptor()) << entry.name;
    EXPECT_EQ(restored.PayloadBytes(), compressed->PayloadBytes());
    auto back = Decompress(restored);
    ASSERT_OK(back.status()) << entry.name;
    EXPECT_EQ(back->As<uint32_t>(), col) << entry.name;
  }
}

TEST(SerializeTest, RoundTripsAllTypesAndEmpty) {
  for (const AnyColumn& input :
       {AnyColumn(Column<uint8_t>{1, 2, 255}),
        AnyColumn(Column<uint64_t>{~uint64_t{0}, 0}),
        AnyColumn(Column<int32_t>{-5, 5}),
        AnyColumn(Column<uint32_t>{})}) {
    auto compressed = Compress(input, Rpe());
    ASSERT_OK(compressed.status());
    CompressedColumn restored = RoundTripThroughBytes(*compressed);
    auto back = Decompress(restored);
    ASSERT_OK(back.status());
    EXPECT_TRUE(*back == input);
  }
}

TEST(SerializeTest, BufferIsCloseToPayload) {
  // The envelope overhead must be O(nodes), not O(n).
  Column<uint32_t> col = gen::Uniform(100000, 1 << 20, 2);
  auto compressed = Compress(AnyColumn(col), MakeFor(1024));
  ASSERT_OK(compressed.status());
  auto buffer = Serialize(*compressed);
  ASSERT_OK(buffer.status());
  EXPECT_LT(buffer->size(), compressed->PayloadBytes() + 1024);
}

TEST(SerializeTest, BadMagicRejected) {
  Column<uint32_t> col{1, 2, 3};
  auto compressed = Compress(AnyColumn(col), Ns());
  ASSERT_OK(compressed.status());
  auto buffer = Serialize(*compressed);
  ASSERT_OK(buffer.status());
  (*buffer)[0] = 'X';
  EXPECT_EQ(Deserialize(*buffer).status().code(), StatusCode::kCorruption);
}

TEST(SerializeTest, BadVersionRejected) {
  auto compressed = Compress(AnyColumn(Column<uint32_t>{1}), Ns());
  ASSERT_OK(compressed.status());
  auto buffer = Serialize(*compressed);
  ASSERT_OK(buffer.status());
  (*buffer)[4] = 0xFF;
  EXPECT_EQ(Deserialize(*buffer).status().code(), StatusCode::kCorruption);
}

TEST(SerializeTest, EveryTruncationRejected) {
  Column<uint32_t> col = gen::SortedRuns(500, 10.0, 2, 3);
  auto compressed = Compress(AnyColumn(col), MakeRle());
  ASSERT_OK(compressed.status());
  auto buffer = Serialize(*compressed);
  ASSERT_OK(buffer.status());
  // Every proper prefix must fail cleanly (stride keeps the test fast).
  for (size_t len = 0; len < buffer->size(); len += 7) {
    std::vector<uint8_t> prefix(buffer->begin(), buffer->begin() + len);
    auto restored = Deserialize(prefix);
    EXPECT_FALSE(restored.ok()) << "prefix length " << len;
  }
}

TEST(SerializeTest, TrailingBytesRejected) {
  auto compressed = Compress(AnyColumn(Column<uint32_t>{1, 2}), Ns());
  ASSERT_OK(compressed.status());
  auto buffer = Serialize(*compressed);
  ASSERT_OK(buffer.status());
  buffer->push_back(0);
  EXPECT_EQ(Deserialize(*buffer).status().code(), StatusCode::kCorruption);
}

TEST(SerializeTest, RandomBitFlipsNeverCrash) {
  // Fuzz-lite: flip one byte at a time; deserialization either fails
  // cleanly or yields an envelope whose decompression also behaves (errors
  // or produces *some* column) - it must never crash or hang.
  Column<uint32_t> col = gen::SortedRuns(300, 5.0, 2, 4);
  auto compressed = Compress(AnyColumn(col), MakeRleNs());
  ASSERT_OK(compressed.status());
  auto buffer = Serialize(*compressed);
  ASSERT_OK(buffer.status());
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> corrupted = *buffer;
    corrupted[rng.Below(corrupted.size())] ^=
        static_cast<uint8_t>(1 + rng.Below(255));
    auto restored = Deserialize(corrupted);
    if (restored.ok()) {
      auto back = Decompress(*restored);  // Either is acceptable.
      (void)back;
    }
  }
  SUCCEED();
}

TEST(SerializeTest, EmptyBufferRejected) {
  EXPECT_FALSE(Deserialize({}).ok());
}

// ---------------------------------------------------------------------------
// Malformed v2 chunk directories
// ---------------------------------------------------------------------------

// v2 layout offsets (serialize.h): magic(4) + version(2) + out_type(1) +
// total_rows(8) + chunk_count(4) = 19 header bytes, then 41-byte directory
// entries { row_begin(8), row_count(8), has_minmax(1), min(8), max(8),
// node_bytes(8) }.
constexpr size_t kV2HeaderBytes = 19;
constexpr size_t kV2EntryBytes = 41;

size_t EntryOffset(size_t chunk, size_t field_offset) {
  return kV2HeaderBytes + chunk * kV2EntryBytes + field_offset;
}

void PokeU64(std::vector<uint8_t>& buffer, size_t offset, uint64_t value) {
  ASSERT_LE(offset + 8, buffer.size());
  std::memcpy(buffer.data() + offset, &value, 8);
}

/// A 3-chunk v2 buffer over [0, 12) with 4 rows per chunk.
std::vector<uint8_t> SmallChunkedBuffer() {
  Column<uint32_t> col;
  for (uint32_t i = 0; i < 12; ++i) col.push_back(i * 7 + 1);
  auto chunked = CompressChunked(AnyColumn(col), Ns(), {4});
  EXPECT_OK(chunked.status());
  auto buffer = Serialize(*chunked);
  EXPECT_OK(buffer.status());
  return *buffer;
}

TEST(SerializeTest, V2OverlappingChunksRejected) {
  std::vector<uint8_t> buffer = SmallChunkedBuffer();
  // Chunk 1 claims to start inside chunk 0's rows.
  PokeU64(buffer, EntryOffset(1, 0), 2);
  auto restored = DeserializeChunked(buffer);
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruption);
}

TEST(SerializeTest, V2NonContiguousChunksRejected) {
  std::vector<uint8_t> buffer = SmallChunkedBuffer();
  // Chunk 2 leaves a gap after chunk 1's rows.
  PokeU64(buffer, EntryOffset(2, 0), 9);
  auto restored = DeserializeChunked(buffer);
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruption);
}

TEST(SerializeTest, V2NonzeroFirstRowBeginRejected) {
  std::vector<uint8_t> buffer = SmallChunkedBuffer();
  PokeU64(buffer, EntryOffset(0, 0), 1);
  auto restored = DeserializeChunked(buffer);
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruption);
}

TEST(SerializeTest, V2RowCountDisagreeingWithHeaderRejected) {
  std::vector<uint8_t> buffer = SmallChunkedBuffer();
  // The last chunk shrinks: the directory no longer tiles [0, total_rows).
  PokeU64(buffer, EntryOffset(2, 8), 3);
  auto restored = DeserializeChunked(buffer);
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruption);
}

TEST(SerializeTest, V2RowCountOverflowRejected) {
  std::vector<uint8_t> buffer = SmallChunkedBuffer();
  PokeU64(buffer, EntryOffset(1, 8), ~uint64_t{0} - 1);
  auto restored = DeserializeChunked(buffer);
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruption);
}

TEST(SerializeTest, V2EmptyDirectoryRejected) {
  // The writer always emits at least one chunk, so a zero-chunk directory is
  // corrupt whether or not the header claims rows.
  for (const uint8_t rows : {uint8_t{5}, uint8_t{0}}) {
    // Hand-built header: magic, version 2, uint32 type, rows, zero chunks.
    std::vector<uint8_t> buffer = {'R', 'C', 'M', 'P'};
    buffer.push_back(2);
    buffer.push_back(0);  // u16 version = 2.
    buffer.push_back(static_cast<uint8_t>(TypeId::kUInt32));
    for (int i = 0; i < 8; ++i) buffer.push_back(i == 0 ? rows : 0);  // u64.
    for (int i = 0; i < 4; ++i) buffer.push_back(0);  // u32 chunk_count = 0.
    auto restored = DeserializeChunked(buffer);
    EXPECT_EQ(restored.status().code(), StatusCode::kCorruption)
        << "rows=" << static_cast<int>(rows);
  }
}

TEST(SerializeTest, V2NodeBytesPastBufferRejected) {
  std::vector<uint8_t> buffer = SmallChunkedBuffer();
  // A payload length reaching past the end of the buffer must be rejected
  // from the directory alone, before any chunk payload is parsed.
  PokeU64(buffer, EntryOffset(1, 33), buffer.size());
  auto restored = DeserializeChunked(buffer);
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruption);
}

TEST(SerializeTest, V2NodeBytesSumOverflowRejected) {
  std::vector<uint8_t> buffer = SmallChunkedBuffer();
  // Lengths whose sum wraps around 2^64 must not bypass the bounds check.
  PokeU64(buffer, EntryOffset(0, 33), ~uint64_t{0} / 2 + 1);
  PokeU64(buffer, EntryOffset(1, 33), ~uint64_t{0} / 2 + 1);
  auto restored = DeserializeChunked(buffer);
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruption);
}

TEST(SerializeTest, V2NodeBytesDisagreeingWithPayloadRejected) {
  std::vector<uint8_t> buffer = SmallChunkedBuffer();
  // Shift one byte of claimed length from chunk 0 to chunk 1: the total
  // still fits, but each chunk's parsed length disagrees with its entry.
  size_t off0 = EntryOffset(0, 33);
  uint64_t n0;
  std::memcpy(&n0, buffer.data() + off0, 8);
  PokeU64(buffer, off0, n0 - 1);
  size_t off1 = EntryOffset(1, 33);
  uint64_t n1;
  std::memcpy(&n1, buffer.data() + off1, 8);
  PokeU64(buffer, off1, n1 + 1);
  auto restored = DeserializeChunked(buffer);
  EXPECT_EQ(restored.status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Parallel deserialization
// ---------------------------------------------------------------------------

TEST(SerializeTest, ParallelDeserializeChunkedAgreesWithSequential) {
  // The per-chunk payload parses fan out over the pool; the restored column
  // must be structurally identical to the sequential parse for any thread
  // count and grain.
  Column<uint32_t> col = gen::SortedRuns(40000, 15.0, 3, 29);
  {
    Column<uint32_t> noise = gen::Uniform(20000, uint64_t{1} << 24, 30);
    col.insert(col.end(), noise.begin(), noise.end());
  }
  auto chunked = CompressChunkedAuto(AnyColumn(col), {4096});
  ASSERT_OK(chunked.status());
  auto buffer = Serialize(*chunked);
  ASSERT_OK(buffer.status());

  auto sequential = DeserializeChunked(*buffer);
  ASSERT_OK(sequential.status());
  for (const uint64_t threads : {1ull, 2ull, 4ull, 8ull}) {
    ThreadPool pool(threads);
    for (const uint64_t grain : {1ull, 4ull}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads
                                      << " grain=" << grain);
      auto parallel = DeserializeChunked(*buffer, ExecContext{&pool, grain});
      ASSERT_OK(parallel.status());
      ASSERT_EQ(parallel->num_chunks(), sequential->num_chunks());
      ASSERT_EQ(parallel->size(), sequential->size());
      for (uint64_t i = 0; i < sequential->num_chunks(); ++i) {
        EXPECT_EQ(parallel->chunk(i).zone.row_begin,
                  sequential->chunk(i).zone.row_begin);
        EXPECT_EQ(parallel->chunk(i).zone.min, sequential->chunk(i).zone.min);
        EXPECT_EQ(parallel->chunk(i).zone.max, sequential->chunk(i).zone.max);
        EXPECT_EQ(parallel->chunk(i).column.Descriptor(),
                  sequential->chunk(i).column.Descriptor());
        EXPECT_EQ(parallel->chunk(i).column.PayloadBytes(),
                  sequential->chunk(i).column.PayloadBytes());
      }
      auto back = DecompressChunked(*parallel);
      ASSERT_OK(back.status());
      EXPECT_TRUE(*back == AnyColumn(col));
    }
  }
}

TEST(SerializeTest, ParallelDeserializeReportsSameErrorAsSequential) {
  // A corrupt chunk payload must surface the same first-in-chunk-order
  // error whether the parses run sequentially or on a pool.
  std::vector<uint8_t> buffer = SmallChunkedBuffer();
  // Shift one byte of claimed length between the entries (total preserved):
  // chunk 0's parse no longer matches its directory entry.
  size_t off0 = EntryOffset(0, 33);
  uint64_t n0;
  std::memcpy(&n0, buffer.data() + off0, 8);
  PokeU64(buffer, off0, n0 - 1);
  size_t off1 = EntryOffset(1, 33);
  uint64_t n1;
  std::memcpy(&n1, buffer.data() + off1, 8);
  PokeU64(buffer, off1, n1 + 1);

  auto sequential = DeserializeChunked(buffer);
  ASSERT_FALSE(sequential.ok());
  ThreadPool pool(4);
  auto parallel = DeserializeChunked(buffer, ExecContext{&pool, 1});
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(parallel.status().code(), sequential.status().code());
  EXPECT_EQ(parallel.status().ToString(), sequential.status().ToString());
}

TEST(SerializeTest, V2RoundTripsMixedOriginalRecompressedAndStoredPlain) {
  // A live column mid-recompression holds every chunk flavor at once:
  // original pinned seals, chunks a recompression already reswapped,
  // stored-plain backlog chunks whose seal job is wedged, and the
  // stored-plain tail. The v2 wire format must round-trip that mix
  // unchanged — chunk for chunk, descriptor for descriptor — sequentially
  // and with the payload parses fanned out over a pool.
  constexpr uint64_t kChunkRows = 512;
  store::IngestOptions options;
  options.chunk_rows = kChunkRows;
  options.descriptor = Ns();
  const Column<uint32_t> rows =
      gen::SortedRuns(4 * kChunkRows + 200, 25.0, 3, 43);

  ThreadPool pool(1);
  store::AppendableColumn column(TypeId::kUInt32, options,
                                 ExecContext{&pool, 1});
  // Phase 1: two chunks sealed normally (original pinned NS envelopes).
  ASSERT_OK(column.AppendBatch(AnyColumn(Column<uint32_t>(
      rows.begin(), rows.begin() + 2 * kChunkRows))));
  ASSERT_OK(column.Flush());

  // Phase 2: reswap only slot 0 (budget 1): one recompressed chunk.
  store::RecompressionPolicy policy;
  policy.recompress_pinned = true;
  policy.min_gain = 1.0;
  policy.max_chunks_per_tick = 1;
  store::Recompressor recompressor(policy, ExecContext{});
  auto tick = recompressor.Tick(column);
  ASSERT_OK(tick.status());
  ASSERT_EQ(tick->chunks_reswapped, 1u);

  // Phase 3: wedge the pool and keep appending — two stored-plain backlog
  // chunks plus a 200-row stored-plain tail. The blocker releases on every
  // exit path (including a failing ASSERT) so the wedged worker never
  // deadlocks the binary's teardown.
  testutil::PoolBlocker blocker(pool, 1);
  ASSERT_OK(column.AppendBatch(AnyColumn(Column<uint32_t>(
      rows.begin() + 2 * kChunkRows, rows.end()))));

  auto snap = column.Snapshot();
  ASSERT_OK(snap.status());
  ASSERT_EQ(snap->chunked().num_chunks(), 5u);
  EXPECT_EQ(snap->sealed_chunks(), 2u);
  EXPECT_EQ(snap->unsealed_chunks(), 3u);
  EXPECT_NE(snap->chunked().chunk(0).column.Descriptor().kind, SchemeKind::kNs);
  EXPECT_EQ(snap->chunked().chunk(1).column.Descriptor().kind, SchemeKind::kNs);
  for (uint64_t i = 2; i < 5; ++i) {
    EXPECT_TRUE(StoredPlainData(snap->chunked().chunk(i).column.root()) !=
                nullptr)
        << i;
  }

  auto buffer = Serialize(snap->chunked());
  ASSERT_OK(buffer.status());
  EXPECT_EQ(buffer->size(), SerializedSize(snap->chunked()));

  auto sequential = DeserializeChunked(*buffer);
  ASSERT_OK(sequential.status());
  ThreadPool readers(3);
  auto parallel = DeserializeChunked(*buffer, ExecContext{&readers, 1});
  ASSERT_OK(parallel.status());
  for (const auto* restored : {&*sequential, &*parallel}) {
    ASSERT_EQ(restored->num_chunks(), snap->chunked().num_chunks());
    for (uint64_t i = 0; i < restored->num_chunks(); ++i) {
      const CompressedChunk& got = restored->chunk(i);
      const CompressedChunk& want = snap->chunked().chunk(i);
      EXPECT_EQ(got.zone.row_begin, want.zone.row_begin) << i;
      EXPECT_EQ(got.zone.row_count, want.zone.row_count) << i;
      EXPECT_EQ(got.zone.has_minmax, want.zone.has_minmax) << i;
      EXPECT_EQ(got.zone.min, want.zone.min) << i;
      EXPECT_EQ(got.zone.max, want.zone.max) << i;
      EXPECT_EQ(got.column.Descriptor(), want.column.Descriptor()) << i;
      EXPECT_EQ(got.column.PayloadBytes(), want.column.PayloadBytes()) << i;
    }
    auto back = DecompressChunked(*restored);
    ASSERT_OK(back.status());
    EXPECT_TRUE(*back == AnyColumn(rows));
  }

  blocker.Release();
  ASSERT_OK(column.Flush());
}

}  // namespace
}  // namespace recomp
