// A2 (decode bandwidth) — the fused decode cascade against the seed's
// materializing decode, in bytes of output per cycle with a memcpy ceiling.
//
// "Decode at memory bandwidth" is the tentpole claim behind the fused
// kernels (core/fused.h): common cascades decompress register-to-register
// in one pass instead of materializing every operator's output. This bench
// makes that a tracked number. For each shape the deterministic table
// reports
//   - fused:    FusedDecompress under the live dispatch (AVX2 when present),
//   - seed:     the materializing per-scheme recursion with every kernel
//               forced scalar — exactly what the tree decoded before the
//               cascade existed,
//   - memcpy:   a copy of the same output bytes, the bandwidth ceiling.
// Scalar and AVX2 dispatch are asserted bit-identical in-bench before any
// timing, and the gated shapes must decode at >= 2x the seed's bytes/cycle
// whenever AVX2 is live. A second table times the other direction,
// ops::Pack of u32 values (what sealing an NS chunk runs; the AVX2 kernels
// are u32-only), scalar against AVX2 in GB/s of input per width; it exits 1
// when the two payloads differ or one does not unpack to its input. Run
// with --json[=PATH] to dump shape -> bytes/cycle and
// pack.u32.w<width>[.scalar] -> GB/s (BENCH_A2.json by default).

#include <chrono>
#include <cstring>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "bench_common.h"
#include "core/catalog.h"
#include "core/fused.h"
#include "gen/generators.h"
#include "obs/metrics.h"
#include "ops/dispatch.h"
#include "ops/pack.h"
#include "util/bits.h"
#include "util/random.h"
#include "util/string_util.h"

namespace {

using namespace recomp;

constexpr uint64_t kValues = uint64_t{1} << 22;  // 16 MiB of u32 output.
constexpr int kRepetitions = 7;
constexpr double kRequiredSpeedup = 2.0;

/// Cycle counter on x86-64; nanoseconds elsewhere (the table's unit label
/// follows suit, and the 2x gates compare like against like either way).
uint64_t TicksNow() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now).count());
#endif
}

const char* TickUnit() {
#if defined(__x86_64__)
  return "cycle";
#else
  return "ns";
#endif
}

struct Measurement {
  double bytes_per_tick = 0.0;
  double mbps = 0.0;
};

/// Best-of-kRepetitions measurement of `fn`, which must produce (and
/// consume) `bytes` bytes of output per call.
template <typename Fn>
Measurement MeasureBest(uint64_t bytes, Fn&& fn) {
  fn();  // Warm caches and any lazy dispatch.
  Measurement best;
  for (int r = 0; r < kRepetitions; ++r) {
    const auto wall0 = std::chrono::steady_clock::now();
    const uint64_t t0 = TicksNow();
    fn();
    const uint64_t t1 = TicksNow();
    const auto wall1 = std::chrono::steady_clock::now();
    const double ticks = static_cast<double>(t1 - t0);
    const double seconds =
        std::chrono::duration<double>(wall1 - wall0).count();
    if (ticks > 0) {
      best.bytes_per_tick =
          std::max(best.bytes_per_tick, static_cast<double>(bytes) / ticks);
    }
    if (seconds > 0) {
      best.mbps =
          std::max(best.mbps, static_cast<double>(bytes) / seconds / 1e6);
    }
  }
  return best;
}

struct ShapeCase {
  std::string name;
  AnyColumn data;
  CompressedColumn compressed;
  uint64_t output_bytes = 0;
  bool gated = false;  // Subject to the >= 2x acceptance gate.
};

bool SameColumn(const AnyColumn& a, const AnyColumn& b) {
  if (a.is_packed() || b.is_packed() || a.type() != b.type() ||
      a.size() != b.size()) {
    return false;
  }
  switch (a.type()) {
    case TypeId::kUInt32:
      return std::memcmp(a.As<uint32_t>().data(), b.As<uint32_t>().data(),
                         a.size() * sizeof(uint32_t)) == 0;
    case TypeId::kUInt64:
      return std::memcmp(a.As<uint64_t>().data(), b.As<uint64_t>().data(),
                         a.size() * sizeof(uint64_t)) == 0;
    default:
      return false;
  }
}

uint64_t OutputBytes(const AnyColumn& col) {
  return col.size() *
         (col.type() == TypeId::kUInt64 ? sizeof(uint64_t) : sizeof(uint32_t));
}

ShapeCase MakeCase(std::string name, AnyColumn data,
                   const SchemeDescriptor& desc, bool gated) {
  ShapeCase c;
  c.output_bytes = OutputBytes(data);
  c.compressed = bench::MustCompress(data, desc);
  c.name = std::move(name);
  c.data = std::move(data);
  c.gated = gated;
  return c;
}

std::vector<ShapeCase>& Shapes() {
  static std::vector<ShapeCase>* shapes = [] {
    auto* s = new std::vector<ShapeCase>();
    s->push_back(MakeCase("NS-w13",
                          AnyColumn(gen::Uniform(kValues, 1u << 13, 1)), Ns(),
                          /*gated=*/true));
    s->push_back(MakeCase("NS-w27",
                          AnyColumn(gen::Uniform(kValues, 1u << 27, 2)), Ns(),
                          /*gated=*/false));
    s->push_back(MakeCase(
        "FOR-NS", AnyColumn(gen::StepLevels(kValues, 1024, 28, 6, 3)),
        MakeFor(1024), /*gated=*/true));
    s->push_back(MakeCase("DELTA-ZZ-NS",
                          AnyColumn(gen::SortedRuns(kValues, 1.0, 3, 4)),
                          MakeDeltaNs(), /*gated=*/true));
    s->push_back(MakeCase(
        "PATCHED-NS", AnyColumn(gen::OutlierMix(kValues, 8, 27, 0.01, 5)),
        Patched().With("base", Ns()), /*gated=*/false));
    s->push_back(MakeCase("RLE-NS",
                          AnyColumn(gen::SortedRuns(kValues, 64.0, 3, 6)),
                          MakeRleNs(), /*gated=*/false));
    // u64 via the same delta cascade: small sorted steps, wide values. The
    // AVX2 kernels are u32-only, so this row decodes on the scalar path under
    // either dispatch; it is not gated.
    {
      Column<uint64_t> steps = gen::Uniform64(kValues, 8, 7);
      uint64_t acc = uint64_t{1} << 40;
      for (uint64_t i = 0; i < steps.size(); ++i) {
        acc += steps[i] + 1;
        steps[i] = acc;
      }
      s->push_back(MakeCase("DELTA-ZZ-NS-u64", AnyColumn(std::move(steps)),
                            MakeDeltaNs(), /*gated=*/false));
    }
    return s;
  }();
  return *shapes;
}

/// The seed's decode: the materializing recursion with all-scalar kernels
/// (the AVX2 dispatch was not compiled in before the cascade landed).
Result<AnyColumn> SeedDecode(const CompressedColumn& compressed) {
  ops::ForceScalar(true);
  Result<AnyColumn> out = Decompress(compressed);
  ops::ForceScalar(false);
  return out;
}

/// Pack bandwidth per width, scalar against AVX2 (the live dispatch), in
/// GB/s of input. Both payloads must be identical and unpack to the input.
template <typename T>
void PrintPackTable(const char* type, std::initializer_list<int> widths) {
  bench::Section(std::string("A2: pack bandwidth, ") + type +
                 " (ops::Pack, GB/s of input)");
  std::printf("%-8s %10s %10s %9s\n", "width", "scalar", "avx2", "speedup");
  const uint64_t bytes = kValues * sizeof(T);
  Rng rng(13);
  for (const int width : widths) {
    Column<T> values(kValues);
    for (T& v : values) v = static_cast<T>(rng.Next() & bits::LowMask64(width));
    const std::string name = StringFormat("pack.%s.w%d", type, width);
    const PackedColumn simd =
        bench::ValueOrDie(ops::Pack(values, width), name.c_str());
    ops::ForceScalar(true);
    const PackedColumn scalar =
        bench::ValueOrDie(ops::Pack(values, width), name.c_str());
    ops::ForceScalar(false);
    const Column<T> back =
        bench::ValueOrDie(ops::Unpack<T>(simd), name.c_str());
    if (!(simd == scalar) || back != values) {
      std::fprintf(stderr,
                   "FATAL %s: scalar and AVX2 payloads differ or do not "
                   "round-trip\n",
                   name.c_str());
      std::exit(1);
    }
    const auto pack = [&] {
      auto out = ops::Pack(values, width);
      bench::CheckOk(out.status(), name.c_str());
      benchmark::DoNotOptimize(out->bytes.data());
      benchmark::ClobberMemory();
    };
    const Measurement simd_m = MeasureBest(bytes, pack);
    ops::ForceScalar(true);
    const Measurement scalar_m = MeasureBest(bytes, pack);
    ops::ForceScalar(false);
    const double simd_gb_s = simd_m.mbps / 1e3;
    const double scalar_gb_s = scalar_m.mbps / 1e3;
    std::printf("%-8d %10.2f %10.2f %8.2fx\n", width, scalar_gb_s, simd_gb_s,
                scalar_gb_s > 0 ? simd_gb_s / scalar_gb_s : 0.0);
    bench::JsonReport::Instance().Set(name, simd_gb_s);
    bench::JsonReport::Instance().Set(name + ".scalar", scalar_gb_s);
  }
}

void PrintTables() {
  bench::Section(
      "A2: decode bandwidth — fused cascade vs materializing decode");
  std::printf("AVX2 compiled in and supported: %s\n",
              ops::HasAvx2() ? "yes" : "no");

  // The bandwidth ceiling: copying the same output bytes.
  {
    const uint64_t bytes = kValues * sizeof(uint32_t);
    Column<uint32_t> src = gen::Uniform(kValues, ~uint32_t{0}, 11);
    Column<uint32_t> dst(kValues);
    const Measurement m = MeasureBest(bytes, [&] {
      std::memcpy(dst.data(), src.data(), bytes);
      benchmark::DoNotOptimize(dst.data());
    });
    std::printf("%-18s %8.3f bytes/%s  %9.1f MB/s\n", "memcpy",
                m.bytes_per_tick, TickUnit(), m.mbps);
    bench::JsonReport::Instance().Set("memcpy", m.bytes_per_tick);
  }

  std::printf("%-18s %7s %14s %15s %9s\n", "shape", "kernel",
              (std::string("fused B/") + TickUnit()).c_str(), "seed",
              "speedup");
  for (const ShapeCase& c : Shapes()) {
    // Agreement first: AVX2 dispatch, forced-scalar dispatch, and the
    // reference recursion must all decode to identical bytes.
    const AnyColumn fused =
        bench::ValueOrDie(FusedDecompress(c.compressed), c.name.c_str());
    ops::ForceScalar(true);
    const AnyColumn fused_scalar =
        bench::ValueOrDie(FusedDecompress(c.compressed), c.name.c_str());
    ops::ForceScalar(false);
    const AnyColumn reference =
        bench::ValueOrDie(Decompress(c.compressed), c.name.c_str());
    if (!SameColumn(fused, c.data) || !SameColumn(fused_scalar, c.data) ||
        !SameColumn(reference, c.data)) {
      std::fprintf(stderr, "FATAL %s: scalar/AVX2/reference decodes disagree\n",
                   c.name.c_str());
      std::exit(1);
    }

    const Measurement fused_m = MeasureBest(c.output_bytes, [&] {
      auto out = FusedDecompress(c.compressed);
      bench::CheckOk(out.status(), c.name.c_str());
      benchmark::DoNotOptimize(out->size());
    });
    const Measurement seed_m = MeasureBest(c.output_bytes, [&] {
      auto out = SeedDecode(c.compressed);
      bench::CheckOk(out.status(), c.name.c_str());
      benchmark::DoNotOptimize(out->size());
    });
    const double speedup =
        seed_m.bytes_per_tick > 0
            ? fused_m.bytes_per_tick / seed_m.bytes_per_tick
            : 0.0;
    const FusedShape shape = ClassifyFusedShape(c.compressed.root());
    std::printf("%-18s %7s %10.3f %17.3f %8.2fx\n", c.name.c_str(),
                shape == FusedShape::kGeneric ? "generic" : "fused",
                fused_m.bytes_per_tick, seed_m.bytes_per_tick, speedup);

    bench::JsonReport::Instance().Set(c.name, fused_m.bytes_per_tick);
    bench::JsonReport::Instance().Set(c.name + ".seed", seed_m.bytes_per_tick);
    bench::JsonReport::Instance().Set(c.name + ".fused_mbps", fused_m.mbps);
    bench::JsonReport::Instance().Set(c.name + ".speedup_vs_seed", speedup);

    if (shape == FusedShape::kGeneric) {
      std::fprintf(stderr, "FATAL %s: expected a fused shape, got generic\n",
                   c.name.c_str());
      std::exit(1);
    }
    if (c.gated && ops::HasAvx2() && speedup < kRequiredSpeedup) {
      std::fprintf(stderr,
                   "FATAL %s: fused decode is %.2fx the seed decode; the "
                   "acceptance gate requires >= %.1fx\n",
                   c.name.c_str(), speedup, kRequiredSpeedup);
      std::exit(1);
    }
  }

  PrintPackTable<uint32_t>("u32", {1, 5, 8, 13, 20, 27, 32});

  // Instrumentation overhead gate: the fused decode with the metric
  // registry live vs obs::SetEnabled(false) must stay within
  // kMaxObsOverhead on the gated shapes. The decode path's whole cost is
  // two sharded relaxed adds per column, so a failure here means someone
  // put metric work inside a per-value loop.
  bench::Section("A2: observability overhead (obs enabled vs disabled)");
  constexpr double kMaxObsOverhead = 0.02;
  std::printf("%-18s %14s %15s %9s\n", "shape",
              (std::string("on B/") + TickUnit()).c_str(), "off", "on/off");
  for (const ShapeCase& c : Shapes()) {
    if (!c.gated) continue;
    // The paired measurement is noisy at the ±3% level (frequency scaling,
    // neighbors on the core), so one unlucky pair must not fail the build:
    // retry up to 5 times and gate on the best ratio seen — real overhead
    // is deterministic and would depress every repeat, not just one.
    Measurement on{};
    Measurement off{};
    double ratio = 0.0;
    for (int attempt = 0; attempt < 5 && ratio < 1.0 - kMaxObsOverhead;
         ++attempt) {
      on = MeasureBest(c.output_bytes, [&] {
        auto out = FusedDecompress(c.compressed);
        bench::CheckOk(out.status(), c.name.c_str());
        benchmark::DoNotOptimize(out->size());
      });
      obs::SetEnabled(false);
      off = MeasureBest(c.output_bytes, [&] {
        auto out = FusedDecompress(c.compressed);
        bench::CheckOk(out.status(), c.name.c_str());
        benchmark::DoNotOptimize(out->size());
      });
      obs::SetEnabled(true);
      const double attempt_ratio = off.bytes_per_tick > 0
                                       ? on.bytes_per_tick / off.bytes_per_tick
                                       : 1.0;
      if (attempt_ratio > ratio) ratio = attempt_ratio;
    }
    std::printf("%-18s %10.3f %15.3f %8.3fx\n", c.name.c_str(),
                on.bytes_per_tick, off.bytes_per_tick, ratio);
    bench::JsonReport::Instance().Set(c.name + ".obs_overhead_ratio", ratio);
    if (ratio < 1.0 - kMaxObsOverhead) {
      std::fprintf(stderr,
                   "FATAL %s: instrumentation costs %.1f%% of decode "
                   "bandwidth; the gate allows %.0f%%\n",
                   c.name.c_str(), (1.0 - ratio) * 100.0,
                   kMaxObsOverhead * 100.0);
      std::exit(1);
    }
  }

  // Registry snapshot alongside the bench metrics — every decode above just
  // exercised the fused counters, so CI's artifact shows live numbers.
  if (bench::JsonReport::Instance().enabled()) {
    std::FILE* f = std::fopen("METRICS.json", "w");
    if (f == nullptr) {
      std::fprintf(stderr, "FATAL cannot write METRICS.json\n");
      std::exit(1);
    }
    const std::string json = obs::Registry::Get().Snapshot().ToJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("metrics snapshot: METRICS.json\n");
  }
}

void BM_Memcpy(benchmark::State& state) {
  const uint64_t bytes = kValues * sizeof(uint32_t);
  Column<uint32_t> src = gen::Uniform(kValues, ~uint32_t{0}, 11);
  Column<uint32_t> dst(kValues);
  for (auto _ : state) {
    std::memcpy(dst.data(), src.data(), bytes);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetLabel("memcpy ceiling");
  bench::SetThroughput(state, bytes);
}
BENCHMARK(BM_Memcpy);

void BM_FusedDecode(benchmark::State& state) {
  const ShapeCase& c = Shapes()[static_cast<size_t>(state.range(0))];
  for (auto _ : state) {
    auto out = FusedDecompress(c.compressed);
    bench::CheckOk(out.status(), c.name.c_str());
    benchmark::DoNotOptimize(out->size());
  }
  state.SetLabel(c.name + " fused");
  bench::SetThroughput(state, c.output_bytes);
}

void BM_SeedDecode(benchmark::State& state) {
  const ShapeCase& c = Shapes()[static_cast<size_t>(state.range(0))];
  for (auto _ : state) {
    auto out = SeedDecode(c.compressed);
    bench::CheckOk(out.status(), c.name.c_str());
    benchmark::DoNotOptimize(out->size());
  }
  state.SetLabel(c.name + " seed");
  bench::SetThroughput(state, c.output_bytes);
}

BENCHMARK(BM_FusedDecode)->DenseRange(0, 6);
BENCHMARK(BM_SeedDecode)->DenseRange(0, 6);

}  // namespace

RECOMP_BENCH_MAIN(PrintTables)
