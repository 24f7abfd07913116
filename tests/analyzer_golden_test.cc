// Golden prices: every candidate the analyzer lists, with its estimated
// bytes and cost, plus the parameters Compress resolves for the auto
// PATCHED, PFOR and FOR descriptors, over a fixed set of generator columns
// at every unsigned width. Each column's rendering is pinned as one 64-bit
// hash. A change to how statistics are gathered must leave every hash as
// it is; a deliberate change to the cost model updates them, and a failure
// prints the rendering so the two versions can be diffed.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/catalog.h"
#include "core/pipeline.h"
#include "gen/generators.h"
#include "util/string_util.h"

namespace recomp {
namespace {

constexpr uint64_t kRows = 20000;  // Ragged tails at both FOR lengths.

struct GoldenColumn {
  const char* name;
  Column<uint32_t> values;
  uint64_t hash;
};

std::vector<GoldenColumn> GoldenColumns() {
  return {
      {"shipped-dates", gen::ShippedOrderDates(kRows, 100.0, 1),
       0x08fdb5702fa736eaull},
      {"sorted-long-runs", gen::SortedRuns(kRows, 64.0, 3, 2),
       0x5ab3ffc9b6872e91ull},
      {"sorted-short-runs", gen::SortedRuns(kRows, 2.0, 3, 3),
       0x90e1b30523ea4781ull},
      {"uniform-2^20", gen::Uniform(kRows, uint64_t{1} << 20, 4),
       0xd00cc1f307380cecull},
      {"uniform-100", gen::Uniform(kRows, 100, 5), 0xa62ca739cfa60ce5ull},
      {"zipf", gen::ZipfValues(kRows, 200, 1.1, 6), 0x65a63c77bc21c255ull},
      {"step-levels", gen::StepLevels(kRows, 1024, 24, 6, 7),
       0x90d4cd92cb16f9f6ull},
      {"linear-trend", gen::LinearTrend(kRows, 2.5, 8, 8),
       0xdcfc216740e7c43eull},
      {"outlier-mix", gen::OutlierMix(kRows, 8, 28, 0.02, 9),
       0x405181de143fe158ull},
      {"constant", Column<uint32_t>(kRows, 123456), 0xf821533c222adbafull},
      {"empty", Column<uint32_t>{}, 0xfb4f5b8cbc7d2fddull},
      {"one-value", Column<uint32_t>{987654321}, 0x1223f02c2e1eaf64ull},
  };
}

/// The column at width T: u8 and u16 keep the low bits, u64 shifts the
/// values up 20 bits so the widths above 32 are priced too.
template <typename T>
AnyColumn AtWidth(const Column<uint32_t>& values) {
  Column<T> out(values.size());
  for (uint64_t i = 0; i < values.size(); ++i) {
    out[i] = sizeof(T) == 8 ? static_cast<T>(uint64_t{values[i]} << 20)
                            : static_cast<T>(values[i]);
  }
  return AnyColumn(std::move(out));
}

void RenderPrices(const AnyColumn& input, std::string& out) {
  for (const double budget : {std::numeric_limits<double>::infinity(), 1.5}) {
    AnalyzerOptions options;
    options.max_cost_per_value = budget;
    out += StringFormat(" budget %g:\n", budget);
    auto ranked = RankCandidates(input, options);
    if (!ranked.ok()) {
      out += "  " + ranked.status().ToString() + "\n";
      continue;
    }
    for (const CandidateEvaluation& c : *ranked) {
      out += StringFormat("  %s %llu %.17g\n", c.name.c_str(),
                          static_cast<unsigned long long>(c.estimated_bytes),
                          c.estimated_cost);
    }
  }
  const SchemeDescriptor autos[] = {Patched().With("base", Ns()), MakePfor(0),
                                    MakeFor(0, 0)};
  for (const SchemeDescriptor& desc : autos) {
    auto compressed = Compress(input, desc);
    out += " " + desc.ToString() + " -> " +
           (compressed.ok() ? compressed->Descriptor().ToString()
                            : compressed.status().ToString()) +
           "\n";
  }
}

std::string Render(const Column<uint32_t>& values) {
  std::string out;
  out += "u8\n";
  RenderPrices(AtWidth<uint8_t>(values), out);
  out += "u16\n";
  RenderPrices(AtWidth<uint16_t>(values), out);
  out += "u32\n";
  RenderPrices(AtWidth<uint32_t>(values), out);
  out += "u64\n";
  RenderPrices(AtWidth<uint64_t>(values), out);
  return out;
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

TEST(AnalyzerGoldenTest, PricesAndAutoParametersArePinned) {
  for (const GoldenColumn& column : GoldenColumns()) {
    const std::string rendering = Render(column.values);
    EXPECT_EQ(Fnv1a(rendering), column.hash)
        << column.name << " rendered as\n"
        << rendering;
  }
}

}  // namespace
}  // namespace recomp
