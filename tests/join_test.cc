// Tests for the compressed-domain semi-join: every pushdown strategy must
// equal the decompress-then-probe reference over randomized key sets, and
// on every shape a semi-join on a band's values must select, and be served,
// exactly as the range selection of that band.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <type_traits>
#include <vector>

#include "core/catalog.h"
#include "core/pipeline.h"
#include "exec/join.h"
#include "exec/selection.h"
#include "gen/generators.h"
#include "test_util.h"
#include "util/bits.h"
#include "util/random.h"

namespace recomp {
namespace {

Column<uint64_t> MakeKeys(const Column<uint32_t>& col, double hit_rate,
                          uint64_t extra, uint64_t seed) {
  Rng rng(seed);
  Column<uint64_t> keys;
  for (const uint32_t v : col) {
    if (rng.Bernoulli(hit_rate)) keys.push_back(v);
  }
  for (uint64_t i = 0; i < extra; ++i) {
    keys.push_back(rng.Next());  // Mostly misses.
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

Column<uint32_t> ReferenceSemiJoin(const Column<uint32_t>& col,
                                   const Column<uint64_t>& keys) {
  Column<uint32_t> out;
  for (uint64_t i = 0; i < col.size(); ++i) {
    if (std::binary_search(keys.begin(), keys.end(), col[i])) {
      out.push_back(static_cast<uint32_t>(i));
    }
  }
  return out;
}

void ExpectSemiJoin(const Column<uint32_t>& col, const SchemeDescriptor& desc,
                    exec::Strategy expected_strategy, uint64_t seed) {
  auto compressed = Compress(AnyColumn(col), desc);
  ASSERT_OK(compressed.status());
  for (double hit_rate : {0.0, 0.01, 0.3}) {
    Column<uint64_t> keys = MakeKeys(col, hit_rate, 50, seed);
    auto result = exec::SemiJoinCompressed(*compressed, keys);
    ASSERT_OK(result.status()) << desc.ToString();
    EXPECT_EQ(result->strategy, expected_strategy);
    EXPECT_EQ(result->positions, ReferenceSemiJoin(col, keys))
        << desc.ToString() << " hit_rate=" << hit_rate;
  }
}

TEST(SemiJoinTest, RleRuns) {
  ExpectSemiJoin(gen::SortedRuns(20000, 40.0, 3, 1), MakeRle(),
                 exec::Strategy::kRleRuns, 11);
}

TEST(SemiJoinTest, DictProbesDictionaryNotRows) {
  Column<uint32_t> col = gen::ZipfValues(50000, 200, 1.1, 2);
  auto compressed = Compress(AnyColumn(col), MakeDictNs());
  ASSERT_OK(compressed.status());
  Column<uint64_t> keys = MakeKeys(col, 0.1, 20, 12);
  auto result = exec::SemiJoinCompressed(*compressed, keys);
  ASSERT_OK(result.status());
  EXPECT_EQ(result->strategy, exec::Strategy::kDictProbe);
  EXPECT_LE(result->probes, 200u);  // One per dictionary entry, not per row.
  EXPECT_EQ(result->positions, ReferenceSemiJoin(col, keys));
}

TEST(SemiJoinTest, StepPrunedSkipsSegments) {
  Column<uint32_t> col = gen::StepLevels(65536, 512, 24, 6, 3);
  auto compressed = Compress(AnyColumn(col), MakeFor(512));
  ASSERT_OK(compressed.status());
  // A handful of keys: almost every segment window misses all of them.
  Column<uint64_t> keys = {col[100], col[40000], uint64_t{1} << 40};
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  auto result = exec::SemiJoinCompressed(*compressed, keys);
  ASSERT_OK(result.status());
  EXPECT_EQ(result->strategy, exec::Strategy::kStepPruned);
  EXPECT_LT(result->probes, col.size() / 8);  // Most segments never decoded.
  EXPECT_EQ(result->positions, ReferenceSemiJoin(col, keys));
}

TEST(SemiJoinTest, FallbackScan) {
  ExpectSemiJoin(gen::Uniform(10000, 1 << 20, 4), MakeDeltaNs(),
                 exec::Strategy::kDecompressScan, 13);
}

TEST(SemiJoinTest, EmptyKeySetAndEmptyColumn) {
  Column<uint32_t> col = gen::Uniform(100, 100, 5);
  auto compressed = Compress(AnyColumn(col), Rpe());
  ASSERT_OK(compressed.status());
  auto none = exec::SemiJoinCompressed(*compressed, {});
  ASSERT_OK(none.status());
  EXPECT_TRUE(none->positions.empty());

  auto empty_col = Compress(AnyColumn(Column<uint32_t>{}), Rpe());
  ASSERT_OK(empty_col.status());
  auto empty = exec::SemiJoinCompressed(*empty_col, Column<uint64_t>{1, 2});
  ASSERT_OK(empty.status());
  EXPECT_TRUE(empty->positions.empty());
}

TEST(SemiJoinTest, UnsortedKeysRejected) {
  auto compressed = Compress(AnyColumn(Column<uint32_t>{1}), Rpe());
  ASSERT_OK(compressed.status());
  EXPECT_FALSE(
      exec::SemiJoinCompressed(*compressed, Column<uint64_t>{2, 1}).ok());
  EXPECT_FALSE(
      exec::SemiJoinCompressed(*compressed, Column<uint64_t>{1, 1}).ok());
}

TEST(SemiJoinTest, RandomizedAgreement) {
  Rng rng(6);
  const std::vector<SchemeDescriptor> descriptors = {
      MakeRle(), MakeDictNs(), MakeFor(128), Ns()};
  for (int trial = 0; trial < 8; ++trial) {
    Column<uint32_t> col =
        gen::SortedRuns(2000 + rng.Below(3000), 5.0, 4, rng.Next());
    Column<uint64_t> keys = MakeKeys(col, rng.NextDouble() * 0.5, 30,
                                     rng.Next());
    const Column<uint32_t> expected = ReferenceSemiJoin(col, keys);
    for (const SchemeDescriptor& desc : descriptors) {
      auto compressed = Compress(AnyColumn(col), desc);
      ASSERT_OK(compressed.status());
      auto result = exec::SemiJoinCompressed(*compressed, keys);
      ASSERT_OK(result.status()) << desc.ToString();
      EXPECT_EQ(result->positions, expected) << desc.ToString();
    }
  }
}

/// What a semi-join's probes count on a shape.
enum class Probes { kRows, kRuns, kEntries, kSegmentValues };

struct AgreementShape {
  const char* name;
  SchemeDescriptor desc;
  AnyColumn data;
  exec::Strategy select;
  exec::Strategy join;
  Probes probes;
};

template <typename T>
Column<T> MaskedValues(Rng& rng, uint64_t n, int width) {
  Column<T> col(n);
  for (auto& v : col) v = static_cast<T>(rng.Next() & bits::LowMask64(width));
  return col;
}

/// Every shape of fused_fuzz_test.cc, plus RPE, DICT, DICT-NS and a
/// stored-plain ID, over one random size, width and segment length.
std::vector<AgreementShape> AgreementShapes(Rng& rng) {
  using exec::Strategy;
  const uint64_t n = 1 + rng.Below(4000);
  const int width = static_cast<int>(rng.Below(33));
  const uint64_t ell = uint64_t{16} << rng.Below(4);
  Column<uint32_t> outliers = MaskedValues<uint32_t>(rng, n, 6);
  for (auto& v : outliers) {
    if (rng.Below(20) == 0) v = static_cast<uint32_t>(rng.Next());
  }
  Column<uint32_t> runs;
  while (runs.size() < n) {
    const uint64_t len = std::min<uint64_t>(1 + rng.Below(40), n - runs.size());
    runs.insert(runs.end(), len,
                static_cast<uint32_t>(rng.Next() & bits::LowMask64(width)));
  }
  Column<uint64_t> sorted(n);
  uint64_t acc = rng.Next() >> 24;
  for (auto& v : sorted) {
    v = acc += rng.Below(1 + (uint64_t{1} << rng.Below(20)));
  }
  Column<uint32_t> few(n);
  for (auto& v : few) v = static_cast<uint32_t>(rng.Below(64) * 1000003);
  const SchemeDescriptor delta_zz_patched = Delta().With(
      "deltas", ZigZag().With("recoded", Patched().With("base", Ns())));

  const Strategy scan = Strategy::kDecompressScan;
  const Strategy runs_s = Strategy::kRleRuns;
  return {
      {"NS", Ns(), MaskedValues<uint32_t>(rng, n, width), scan, scan,
       Probes::kRows},
      {"NS-u64", Ns(),
       MaskedValues<uint64_t>(rng, n, static_cast<int>(rng.Below(65))), scan,
       scan, Probes::kRows},
      {"FOR", MakeFor(ell), MaskedValues<uint32_t>(rng, n, width),
       Strategy::kStepPruned, Strategy::kStepPruned, Probes::kSegmentValues},
      {"PFOR", MakePfor(ell), outliers, scan, scan, Probes::kRows},
      {"DELTA-ZZ-NS", MakeDeltaNs(), MaskedValues<uint32_t>(rng, n, width),
       scan, scan, Probes::kRows},
      {"DELTA-ZZ-NS-u64", MakeDeltaNs(), sorted, scan, scan, Probes::kRows},
      {"PATCHED-NS", Patched().With("base", Ns()), outliers, scan, scan,
       Probes::kRows},
      {"DELTA-ZZ-PATCHED-NS", delta_zz_patched, outliers, scan, scan,
       Probes::kRows},
      {"RLE", MakeRle(), runs, runs_s, runs_s, Probes::kRuns},
      {"RLE-NS", MakeRleNs(), runs, runs_s, runs_s, Probes::kRuns},
      {"RLE-DELTA", MakeRleDelta(), runs, runs_s, runs_s, Probes::kRuns},
      {"RPE", Rpe(), runs, runs_s, runs_s, Probes::kRuns},
      {"DICT", Dict(), few, Strategy::kDictCodes, Strategy::kDictProbe,
       Probes::kEntries},
      {"DICT-NS", MakeDictNs(), few, Strategy::kDictCodes,
       Strategy::kDictProbe, Probes::kEntries},
      {"ID", Id(), MaskedValues<uint32_t>(rng, n, width),
       Strategy::kPlainScan, Strategy::kPlainScan, Probes::kRows},
  };
}

/// The values a FOR envelope's segments decode when probed by `keys`: every
/// segment but those whose window [ref, ref + 2^w - 1] stays inside T's
/// range and holds no key.
template <typename T>
uint64_t ForProbedValues(const CompressedColumn& compressed,
                         const Column<uint64_t>& keys) {
  const CompressedNode& root = compressed.root();
  const Column<T>& refs = root.parts.at("refs").column->As<T>();
  const uint64_t mask =
      bits::LowMask64(root.parts.at("residual").sub->scheme.params.width);
  const uint64_t ell = root.scheme.args[0].params.segment_length;
  uint64_t probed = 0;
  for (uint64_t s = 0; s < refs.size(); ++s) {
    const uint64_t lo = refs[s];
    const bool wraps = mask > std::numeric_limits<T>::max() - lo;
    const auto key = std::lower_bound(keys.begin(), keys.end(), lo);
    if (wraps || (key != keys.end() && *key <= lo + mask)) {
      probed += std::min(ell, root.n - s * ell);
    }
  }
  return probed;
}

TEST(SemiJoinTest, AgreesWithSelectionOnEveryShape) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(7100 + seed);
    for (const AgreementShape& shape : AgreementShapes(rng)) {
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed << " " << shape.name);
      auto compressed = Compress(shape.data, shape.desc);
      ASSERT_OK(compressed.status());
      shape.data.VisitPlain([&](const auto& col) {
        using T = typename std::decay_t<decltype(col)>::value_type;
        // A band between two sampled values, keyed by its distinct values
        // plus values the column does not hold.
        exec::RangePredicate band{
            static_cast<uint64_t>(col[rng.Below(col.size())]),
            static_cast<uint64_t>(col[rng.Below(col.size())])};
        if (band.lo > band.hi) std::swap(band.lo, band.hi);
        Column<uint64_t> distinct(col.begin(), col.end());
        std::sort(distinct.begin(), distinct.end());
        distinct.erase(std::unique(distinct.begin(), distinct.end()),
                       distinct.end());
        Column<uint64_t> keys;
        for (const uint64_t v : distinct) {
          if (band.Matches(v)) keys.push_back(v);
        }
        for (int k = 0; k < 8; ++k) {
          const uint64_t miss =
              rng.Next() & bits::LowMask64(8 * static_cast<int>(sizeof(T)));
          if (!std::binary_search(distinct.begin(), distinct.end(), miss)) {
            keys.push_back(miss);
          }
        }
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

        const auto select = exec::SelectCompressed(*compressed, band);
        const auto join = exec::SemiJoinCompressed(*compressed, keys);
        ASSERT_OK(select.status());
        ASSERT_OK(join.status());
        EXPECT_EQ(join->positions, select->positions);
        EXPECT_EQ(select->stats.strategy, shape.select)
            << exec::StrategyName(select->stats.strategy);
        EXPECT_EQ(join->strategy, shape.join)
            << exec::StrategyName(join->strategy);

        uint64_t runs = 0;
        for (uint64_t i = 0; i < col.size(); ++i) {
          runs += i == 0 || col[i] != col[i - 1];
        }
        switch (shape.probes) {
          case Probes::kRows:
            EXPECT_EQ(join->probes, col.size());
            break;
          case Probes::kRuns:
            EXPECT_EQ(join->probes, runs);
            EXPECT_EQ(select->stats.runs_examined, runs);
            break;
          case Probes::kEntries:
            EXPECT_EQ(join->probes, distinct.size());
            break;
          case Probes::kSegmentValues:
            EXPECT_EQ(join->probes, ForProbedValues<T>(*compressed, keys));
            break;
        }
      });
    }
  }
}

}  // namespace
}  // namespace recomp
