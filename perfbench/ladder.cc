#include "ladder.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <future>
#include <set>
#include <thread>
#include <utility>

#include "common.h"
#include "core/fused.h"
#include "exec/selection.h"
#include "ops/pack.h"
#include "service/shared_scan.h"
#include "util/bits.h"
#include "util/thread_pool.h"

namespace perfbench {

using recomp::AnyColumn;
using recomp::CompressedNode;
using recomp::ExecContext;
using recomp::TaskPriority;
using recomp::exec::ScanResult;
using recomp::exec::ScanSpec;

namespace {

/// Every rung is timed this many times per query; the median counts.
constexpr int kRepeats = 3;

enum Rung : int { kMemcpy = 0, kUnpack, kDecode, kSelect, kScan1t, kScanPool, kBatch, kService, kRungs };
constexpr const char* kRungNames[kRungs] = {"rung.memcpy",  "rung.unpack",   "rung.decode",
                                            "rung.select",  "rung.scan_1t",  "rung.scan_pool",
                                            "rung.batch",   "rung.service"};

/// One (column, chunk) pair a query's filters evaluate or its gather reads.
struct Touched {
  uint64_t column = 0;
  uint64_t chunk = 0;
  bool operator<(const Touched& o) const {
    return column != o.column ? column < o.column : chunk < o.chunk;
  }
};

/// A touched chunk, decoded once up front for the memcpy and unpack rungs.
struct DecodedChunk {
  const recomp::CompressedChunk* chunk = nullptr;
  AnyColumn values;  // plain uint32
  recomp::PackedColumn packed;
  uint64_t bytes = 0;
  bool generic = false;
};

/// Widest bit-packed terminal in the chunk's cascade; 0 when none.
int WidestPackedTerminal(const CompressedNode& node) {
  int width = 0;
  for (const auto& [name, part] : node.parts) {
    if (part.sub) {
      width = std::max(width, WidestPackedTerminal(*part.sub));
    } else if (part.column && part.column->is_packed()) {
      width = std::max(width, part.column->packed().bit_width);
    }
  }
  return width;
}

struct QueryPlan {
  ScanResult solo;
  std::vector<const DecodedChunk*> touched;
  uint64_t bytes = 0;         // decoded bytes of every touched chunk
  uint64_t filter_bytes = 0;  // decoded bytes of touched filter-column chunks
};

/// Times `fn` kRepeats times and returns the median run's [start, end).
template <typename F>
std::pair<Clock::time_point, Clock::time_point> TimeMedian(F&& fn) {
  std::vector<std::pair<Clock::time_point, Clock::time_point>> runs;
  for (int r = 0; r < kRepeats; ++r) {
    const auto start = Clock::now();
    fn();
    runs.emplace_back(start, Clock::now());
  }
  std::sort(runs.begin(), runs.end(), [](const auto& a, const auto& b) {
    return a.second - a.first < b.second - b.first;
  });
  return runs[kRepeats / 2];
}

void RequireEqual(const ScanResult& got, const ScanResult& want, const char* rung) {
  if (!recomp::exec::ScanOutputsEqual(got, want)) {
    Die(std::string("ladder: ") + rung + " answer differs from solo exec::Scan");
  }
}

}  // namespace

std::string RunLadder(const LadderInput& input, SpanLog* log,
                      std::map<std::string, double>* per_layer) {
  const auto snapshot = Check(input.table->Snapshot(), "ladder snapshot");
  const size_t n = input.sample.size();
  const ExecContext solo_ctx{};
  recomp::ThreadPool pool(input.pool_workers);
  const ExecContext pool_ctx{&pool};

  // Plan: solo answers and the chunks each query touches.
  std::map<Touched, DecodedChunk> decoded;
  std::vector<std::vector<Touched>> touched_by_query(n);
  std::vector<QueryPlan> plans(n);
  uint64_t chunks_total = 0, chunks_pruned = 0, values_decoded = 0, rows_matched = 0;
  for (size_t q = 0; q < n; ++q) {
    const ScanSpec& spec = input.sample[q];
    plans[q].solo = Check(recomp::exec::Scan(snapshot, spec, solo_ctx), "ladder solo scan");
    const ScanResult& solo = plans[q].solo;
    std::set<Touched> touched;
    std::set<Touched> filter_touched;
    for (const auto& f : solo.filters) {
      const uint64_t col = Check(snapshot.column_index(f.column), "ladder filter column");
      for (const auto& pc : f.stats.per_chunk) filter_touched.insert({col, pc.chunk_index});
      chunks_total += f.stats.chunks_total;
      chunks_pruned += f.stats.chunks_pruned;
      values_decoded += f.stats.values_decoded;
    }
    rows_matched += solo.rows_matched;
    std::vector<std::string> gathered = spec.projections();
    for (const auto& agg : spec.aggregates()) {
      if (agg.op != recomp::exec::AggregateOp::kCount) gathered.push_back(agg.column);
    }
    for (const std::string& name : gathered) {
      const uint64_t col = Check(snapshot.column_index(name), "ladder gather column");
      const auto& chunked = snapshot.column(col).chunked();
      uint64_t chunk_end = 0;  // positions ascend: look a chunk up once
      for (const uint32_t row : solo.positions) {
        if (row < chunk_end) continue;
        const uint64_t chunk = chunked.ChunkIndexOf(row);
        touched.insert({col, chunk});
        chunk_end = chunked.chunk(chunk).zone.row_begin + chunked.chunk(chunk).zone.row_count;
      }
    }
    touched.insert(filter_touched.begin(), filter_touched.end());
    touched_by_query[q].assign(touched.begin(), touched.end());
    for (const Touched& t : touched) {
      const auto& chunk = snapshot.column(t.column).chunked().chunk(t.chunk);
      const uint64_t bytes = chunk.column.UncompressedBytes();
      plans[q].bytes += bytes;
      if (filter_touched.count(t)) plans[q].filter_bytes += bytes;
      if (decoded.count(t)) continue;
      DecodedChunk& d = decoded[t];
      d.chunk = &chunk;
      d.values = Check(recomp::FusedDecompress(chunk.column), "ladder decode");
      d.bytes = bytes;
      d.generic = recomp::ClassifyFusedShape(chunk.column.root()) == recomp::FusedShape::kGeneric;
      int width = WidestPackedTerminal(chunk.column.root());
      if (width == 0) width = recomp::bits::BitWidth(chunk.zone.max);
      d.packed = Check(recomp::ops::PackTruncating(d.values.As<uint32_t>(), std::max(width, 1)),
                       "ladder pack");
    }
  }
  for (size_t q = 0; q < n; ++q) {
    for (const Touched& t : touched_by_query[q]) plans[q].touched.push_back(&decoded.at(t));
  }

  // Per-query rungs. The memcpy rung copies a query's chunks back to back,
  // so the destination streams like a decode's output does.
  uint64_t scratch_bytes = 0;
  for (const QueryPlan& plan : plans) scratch_bytes = std::max(scratch_bytes, plan.bytes);
  std::vector<uint8_t> scratch(scratch_bytes);
  const uint64_t root = log->NewId();
  const auto ladder_start = Clock::now();
  std::vector<uint64_t> query_span(n);
  std::vector<std::array<double, kRungs>> rung_ms(n);
  std::vector<Clock::time_point> query_start(n);
  auto record = [&](size_t q, Rung rung, std::pair<Clock::time_point, Clock::time_point> span) {
    rung_ms[q][rung] = Seconds(span.first, span.second) * 1e3;
    log->Record(kRungNames[rung], span.first, span.second, query_span[q], q + 1);
  };
  uint64_t generic_chunks = 0, all_chunks = 0;
  for (size_t q = 0; q < n; ++q) {
    query_span[q] = log->NewId();
    query_start[q] = Clock::now();
    const ScanSpec& spec = input.sample[q];
    const QueryPlan& plan = plans[q];
    for (const DecodedChunk* d : plan.touched) {
      generic_chunks += d->generic;
      ++all_chunks;
    }
    record(q, kMemcpy, TimeMedian([&] {
             uint8_t* out = scratch.data();
             for (const DecodedChunk* d : plan.touched) {
               std::memcpy(out, d->values.As<uint32_t>().data(), d->bytes);
               out += d->bytes;
             }
             // Keeps the copies from being optimized away.
             asm volatile("" : : "r"(scratch.data()) : "memory");
           }));
    record(q, kUnpack, TimeMedian([&] {
             for (const DecodedChunk* d : plan.touched) {
               Check(recomp::ops::Unpack<uint32_t>(d->packed), "ladder unpack");
             }
           }));
    record(q, kDecode, TimeMedian([&] {
             for (const DecodedChunk* d : plan.touched) {
               Check(recomp::FusedDecompress(d->chunk->column), "ladder decode");
             }
           }));
    record(q, kSelect, TimeMedian([&] {
             for (const auto& f : spec.filters()) {
               const auto* col = Check(snapshot.column(f.column), "ladder select column");
               Check(recomp::exec::SelectCompressed(col->chunked(), f.predicate, solo_ctx),
                     "ladder select");
             }
           }));
    ScanResult answer;
    record(q, kScan1t, TimeMedian([&] {
             answer = Check(recomp::exec::Scan(snapshot, spec, solo_ctx), "ladder scan");
           }));
    RequireEqual(answer, plan.solo, "exec::Scan (1 thread)");
    record(q, kScanPool, TimeMedian([&] {
             answer = Check(recomp::exec::Scan(snapshot, spec, pool_ctx), "ladder scan");
           }));
    RequireEqual(answer, plan.solo, "exec::Scan (pool)");
  }

  // Windowed rungs: ExecuteBatch in windows of the observed batch size, with
  // caches shared across windows as within one table version, then the same
  // windows through a fresh QueryService.
  const uint64_t window = std::max<uint64_t>(1, input.window);
  const ExecContext batch_ctx{&pool, 1, TaskPriority::kHigh};
  // The pool's busy time and high-priority waits over the windowed rungs.
  const auto pool_before = recomp::store::Table::MetricsSnapshot();
  const auto windows_start = Clock::now();
  std::vector<double> window_ms;
  std::vector<double> service_ms;  // per query, Submit to its own completion
  double service_windows_ms = 0;   // summed first-Submit-to-last-answer walls
  for (size_t begin = 0; begin < n; begin += window) {
    const size_t end = std::min(n, begin + window);
    std::vector<const ScanSpec*> specs;
    for (size_t q = begin; q < end; ++q) specs.push_back(&input.sample[q]);
    std::vector<recomp::Result<ScanResult>> results;
    const auto span = TimeMedian([&] {
      recomp::service::SelectionVectorCache selections(input.options.selection_cache_capacity);
      recomp::service::DecodedChunkCache chunks(input.options.decoded_cache_bytes);
      results = recomp::service::ExecuteBatch(snapshot, specs, batch_ctx, &selections, &chunks,
                                              nullptr, input.options.subsume_predicates);
    });
    for (size_t i = 0; i < results.size(); ++i) {
      RequireEqual(Check(std::move(results[i]), "ladder batch"), plans[begin + i].solo,
                   "ExecuteBatch");
    }
    window_ms.push_back(Seconds(span.first, span.second) * 1e3);
    for (size_t q = begin; q < end; ++q) record(q, kBatch, span);
  }
  for (int r = 0; r < kRepeats; ++r) {
    auto service = Check(recomp::service::QueryService::Create(input.table, input.options,
                                                               pool_ctx),
                         "ladder service");
    const uint64_t client = service->RegisterClient();
    for (size_t begin = 0; begin < n; begin += window) {
      const size_t end = std::min(n, begin + window);
      std::vector<recomp::service::QueryService::ResultFuture> futures;
      std::vector<Clock::time_point> submitted;
      for (size_t q = begin; q < end; ++q) {
        submitted.push_back(Clock::now());
        futures.push_back(Check(service->Submit(client, input.sample[q]), "ladder submit"));
      }
      // Each query is timed to its own completion, not in drain order.
      std::vector<bool> done(futures.size(), false);
      Clock::time_point last = submitted.front();
      for (size_t left = futures.size(); left > 0;) {
        for (size_t i = 0; i < futures.size(); ++i) {
          if (done[i] || futures[i].wait_for(std::chrono::seconds(0)) !=
                             std::future_status::ready) {
            continue;
          }
          const auto completed = Clock::now();
          last = std::max(last, completed);
          done[i] = true;
          --left;
          const size_t q = begin + i;
          RequireEqual(Check(futures[i].get(), "ladder service answer"), plans[q].solo,
                       "QueryService");
          service_ms.push_back(Seconds(submitted[i], completed) * 1e3);
          if (r == kRepeats - 1) record(q, kService, {submitted[i], completed});
        }
        if (left > 0) std::this_thread::yield();
      }
      service_windows_ms += Seconds(submitted.front(), last) * 1e3 / kRepeats;
    }
  }
  const double windows_s = Seconds(windows_start, Clock::now());
  const auto pool_after = recomp::store::Table::MetricsSnapshot();
  for (size_t q = 0; q < n; ++q) {
    log->Record("ladder.query", query_start[q], Clock::now(), root, q + 1, query_span[q]);
  }
  log->Record("ladder", ladder_start, Clock::now(), 0, 0, root);

  // Totals over the sample.
  std::array<double, kRungs> total_ms{};
  uint64_t bytes = 0, filter_bytes = 0;
  for (size_t q = 0; q < n; ++q) {
    for (int r = 0; r < kRungs; ++r) total_ms[r] += rung_ms[q][r];
    bytes += plans[q].bytes;
    filter_bytes += plans[q].filter_bytes;
  }
  double window_total = 0;
  for (const double ms : window_ms) window_total += ms;
  auto gb_s = [](uint64_t b, double ms) { return Ratio(static_cast<double>(b) / 1e9, ms / 1e3); };
  auto& m = *per_layer;
  m["ops.memcpy_gb_s"] = gb_s(bytes, total_ms[kMemcpy]);
  m["ops.unpack_gb_s"] = gb_s(bytes, total_ms[kUnpack]);
  m["core.decode_gb_s"] = gb_s(bytes, total_ms[kDecode]);
  m["core.decode_over_memcpy"] = Ratio(m["core.decode_gb_s"], m["ops.memcpy_gb_s"]);
  m["core.generic_decode_frac"] = Ratio(generic_chunks, all_chunks);
  m["exec.select_gb_s"] = gb_s(filter_bytes, total_ms[kSelect]);
  m["exec.scan_1t_ms"] = total_ms[kScan1t] / static_cast<double>(n);
  m["exec.scan_ms"] = total_ms[kScanPool] / static_cast<double>(n);
  m["exec.chunks_pruned_frac"] = Ratio(chunks_pruned, chunks_total);
  m["exec.values_decoded_per_match"] = Ratio(values_decoded, rows_matched);
  m["service.batch_ms"] = Median(window_ms);
  m["service.batch_over_solo"] = Ratio(window_total, total_ms[kScanPool]);
  m["service.e2e_over_batch"] = Ratio(Median(service_ms), Median(window_ms));
  Buckets pool_wait_high{};
  AddBucketDelta(pool_before, pool_after, "pool.wait_ns.high", &pool_wait_high);
  m["util.pool_wait_ms.high"] = BucketMedianMs(pool_wait_high);
  m["util.pool_busy_frac"] =
      Ratio(static_cast<double>(pool_after.counter("pool.busy_ns") -
                                pool_before.counter("pool.busy_ns")) / 1e9,
            static_cast<double>(input.pool_workers) * windows_s);

  // The rung table: per-query cost, effective GB/s over the touched bytes,
  // and each rung's cost over the rung beneath it.
  std::string table = "ladder: " + std::to_string(n) + " queries, " +
                      std::to_string(bytes / 1024) + " KiB touched, window " +
                      std::to_string(window) + "\n";
  char line[160];
  std::snprintf(line, sizeof(line), "  %-16s %12s %10s %10s\n", "rung", "ms/query", "GB/s",
                "x below");
  table += line;
  total_ms[kBatch] = window_total;
  total_ms[kService] = service_windows_ms;
  for (int r = 0; r < kRungs; ++r) {
    std::snprintf(line, sizeof(line), "  %-16s %12.4f %10.3f %10.2f\n", kRungNames[r],
                  total_ms[r] / static_cast<double>(n), gb_s(bytes, total_ms[r]),
                  r == 0 ? 1.0 : Ratio(total_ms[r], total_ms[r - 1]));
    table += line;
  }
  return table;
}

}  // namespace perfbench
