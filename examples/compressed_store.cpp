// A miniature compressed column store, chunked edition: ingest a drifting
// column, let the analyzer pick a composition *per chunk*, serialize the
// chunked envelope (v2: chunk directory + zone maps) to a file, load it
// back, and serve point lookups and zone-map-pruned range queries without
// ever materializing the column — the library's pieces composed the way a
// DBMS buffer pool would use them.

#include <cstdio>
#include <fstream>

#include "core/analyzer.h"
#include "core/chunked.h"
#include "core/pipeline.h"
#include "core/serialize.h"
#include "exec/point_access.h"
#include "exec/selection.h"
#include "gen/generators.h"
#include "util/thread_pool.h"

int main() {
  using namespace recomp;

  // One pool for the whole store: per-chunk compression, scans, and batch
  // lookups all fan out over it; results are identical to sequential.
  ThreadPool pool(ThreadPool::DefaultThreadCount());
  const ExecContext ctx{&pool, 1};
  std::printf("execution pool: %llu threads\n",
              static_cast<unsigned long long>(pool.num_threads()));

  // Ingest: a column that drifts — run-heavy, then noisy, then sorted — so
  // no single whole-column descriptor fits all of it.
  constexpr uint64_t kPart = 1u << 18;
  Column<uint32_t> column = gen::SortedRuns(kPart, 50.0, 2, 99);
  {
    Column<uint32_t> noise = gen::Uniform(kPart, 1u << 22, 100);
    column.insert(column.end(), noise.begin(), noise.end());
    for (uint64_t i = 0; i < kPart; ++i) {
      column.push_back((1u << 23) + static_cast<uint32_t>(2 * i));
    }
  }

  // Chunk-at-a-time compression with per-chunk scheme selection; the
  // analyzer search runs per chunk, in parallel.
  auto compressed =
      CompressChunkedAuto(AnyColumn(column), {64 * 1024}, {}, ctx);
  if (!compressed.ok()) return 1;
  std::printf("per-chunk analyzer choices (%.1fx overall):\n",
              compressed->Ratio());
  for (uint64_t i = 0; i < compressed->num_chunks(); ++i) {
    const CompressedChunk& chunk = compressed->chunk(i);
    std::printf("  chunk %2llu rows [%8llu, %8llu) zone [%8llu, %8llu]  %s\n",
                static_cast<unsigned long long>(i),
                static_cast<unsigned long long>(chunk.zone.row_begin),
                static_cast<unsigned long long>(chunk.zone.row_begin +
                                                chunk.zone.row_count),
                static_cast<unsigned long long>(chunk.zone.min),
                static_cast<unsigned long long>(chunk.zone.max),
                chunk.column.Descriptor().ToString().c_str());
  }

  // Persist as a v2 buffer (chunk directory + per-chunk payloads).
  auto buffer = Serialize(*compressed);
  if (!buffer.ok()) return 1;
  const char* path = "/tmp/recomp_column.bin";
  {
    std::ofstream file(path, std::ios::binary);
    file.write(reinterpret_cast<const char*>(buffer->data()),
               static_cast<std::streamsize>(buffer->size()));
  }
  std::printf("wrote %zu bytes to %s (payload %llu + directory/envelope)\n",
              buffer->size(), path,
              static_cast<unsigned long long>(compressed->PayloadBytes()));

  // Load.
  std::vector<uint8_t> loaded;
  {
    std::ifstream file(path, std::ios::binary);
    loaded.assign(std::istreambuf_iterator<char>(file),
                  std::istreambuf_iterator<char>());
  }
  auto restored = DeserializeChunked(loaded);
  if (!restored.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 restored.status().ToString().c_str());
    return 1;
  }

  // Point lookups straight off the loaded chunked form.
  for (uint64_t row : {uint64_t{0}, 2 * kPart + 12345, 3 * kPart - 1}) {
    auto point = exec::GetAt(*restored, row, ctx);
    if (!point.ok() || point->value != column[row]) {
      std::fprintf(stderr, "point lookup mismatch at %llu\n",
                   static_cast<unsigned long long>(row));
      return 1;
    }
    std::printf("row %8llu -> %10llu   (%s)\n",
                static_cast<unsigned long long>(row),
                static_cast<unsigned long long>(point->value),
                exec::StrategyName(point->strategy));
  }

  // A range query over the sorted tail: the zone maps prune the run-heavy
  // and noisy chunks before any per-chunk strategy runs, and the chunks
  // that do overlap execute concurrently on the pool.
  exec::RangePredicate predicate{1u << 23, (1u << 23) + (1u << 17)};
  auto selection = exec::SelectCompressed(*restored, predicate, ctx);
  if (!selection.ok()) return 1;
  std::printf(
      "range query matched %zu rows: %llu/%llu chunks zone-map-pruned, "
      "%llu emitted whole, %llu executed (decoded %llu values)\n",
      selection->positions.size(),
      static_cast<unsigned long long>(selection->stats.chunks_pruned),
      static_cast<unsigned long long>(selection->stats.chunks_total),
      static_cast<unsigned long long>(selection->stats.chunks_full),
      static_cast<unsigned long long>(selection->stats.chunks_executed),
      static_cast<unsigned long long>(selection->stats.values_decoded));
  if (selection->stats.chunks_pruned == 0) {
    std::fprintf(stderr, "expected zone maps to prune at least one chunk\n");
    return 1;
  }

  std::remove(path);
  std::printf("store roundtrip: OK\n");
  return 0;
}
