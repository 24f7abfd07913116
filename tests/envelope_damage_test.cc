// Damage fuzz for the envelope view (core/envelope.h) and everything that
// reads compressed parts through it. Every shape of fused_fuzz_test.cc, plus
// plain RPE, DICT, DICT-NS, LFOR and a stored-plain ID chunk, is damaged in
// one part — an element type swapped (uint32 <-> uint64), an element dropped
// or added, FOR references dropped or added, the last run end moved past n,
// an NS payload's n shrunk, a payload bit flipped or its last byte cut — and
// round-tripped through Serialize / DeserializeChunked. Nothing may abort.
// Select, sum/min/max and semi-join refuse wherever FusedDecompress refuses;
// wherever it accepts, every operator (point access and the refined
// approximate sum included) equals decode-then-operate, with
// ops::SelectRange and plain folds as the reference. That includes the
// scan's gather, solo and from a shared decoded buffer, whose batch also
// refuses wherever FusedDecompress does. Each failure names the seed, shape
// and damage that replay it.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "core/catalog.h"
#include "core/fused.h"
#include "core/pipeline.h"
#include "core/serialize.h"
#include "exec/aggregate.h"
#include "exec/approx.h"
#include "exec/join.h"
#include "exec/point_access.h"
#include "exec/scan_batch.h"
#include "exec/selection.h"
#include "ops/select.h"
#include "util/bits.h"
#include "util/random.h"

namespace recomp {
namespace {

struct Shape {
  std::string name;
  SchemeDescriptor desc;
  AnyColumn data;
};

Column<uint32_t> Masked(Rng& rng, uint64_t n, int width) {
  Column<uint32_t> col(n);
  for (auto& v : col) {
    v = static_cast<uint32_t>(rng.Next() & bits::LowMask64(width));
  }
  return col;
}

/// Mostly 6-bit values with 5% full-width outliers (PATCHED exceptions).
Column<uint32_t> Outliers(Rng& rng, uint64_t n) {
  Column<uint32_t> col = Masked(rng, n, 6);
  for (auto& v : col) {
    if (rng.Below(20) == 0) v = static_cast<uint32_t>(rng.Next());
  }
  return col;
}

Column<uint32_t> Runs(Rng& rng, uint64_t n, int width) {
  Column<uint32_t> col;
  while (col.size() < n) {
    const uint32_t v =
        static_cast<uint32_t>(rng.Next() & bits::LowMask64(width));
    const uint64_t len = std::min<uint64_t>(1 + rng.Below(40), n - col.size());
    col.insert(col.end(), len, v);
  }
  return col;
}

/// Every fused shape (fused_fuzz_test.cc's list) plus the operator-only
/// shapes, over one random size, width and segment length.
std::vector<Shape> Shapes(Rng& rng) {
  const uint64_t n = 1 + rng.Below(3000);
  const int width = static_cast<int>(1 + rng.Below(32));
  const uint64_t ell = uint64_t{16} << rng.Below(4);
  Column<uint64_t> wide(n);
  for (auto& v : wide) v = rng.Next() >> rng.Below(64);
  Column<uint64_t> sorted(n);
  uint64_t acc = rng.Next() >> 24;
  for (auto& v : sorted) {
    v = acc += rng.Below(1 + (uint64_t{1} << rng.Below(20)));
  }
  Column<uint32_t> few(n);
  for (auto& v : few) v = static_cast<uint32_t>(rng.Below(64) * 1000003);

  return {
      {"NS", Ns(), Masked(rng, n, width)},
      {"NS-u64", Ns(), wide},
      {"FOR", MakeFor(ell), Masked(rng, n, width)},
      {"PFOR", MakePfor(ell), Outliers(rng, n)},
      {"DELTA-ZZ-NS", MakeDeltaNs(), Masked(rng, n, width)},
      {"DELTA-ZZ-NS-u64", MakeDeltaNs(), sorted},
      {"PATCHED-NS", Patched().With("base", Ns()), Outliers(rng, n)},
      {"DELTA-ZZ-PATCHED-NS",
       Delta().With("deltas",
                    ZigZag().With("recoded", Patched().With("base", Ns()))),
       Outliers(rng, n)},
      {"RLE", MakeRle(), Runs(rng, n, width)},
      {"RLE-NS", MakeRleNs(), Runs(rng, n, width)},
      {"RLE-DELTA", MakeRleDelta(), Runs(rng, n, width)},
      {"RPE", Rpe(), Runs(rng, n, width)},
      {"DICT", Dict(), few},
      {"DICT-NS", MakeDictNs(), few},
      {"LFOR", MakeLfor(ell), Masked(rng, n, width)},
      {"ID", Id(), Masked(rng, n, width)},
  };
}

// ---------------------------------------------------------------------------
// Damage
// ---------------------------------------------------------------------------

/// uint64 narrows to uint32; every other plain type widens to uint64; a
/// packed part toggles its logical type between the two.
AnyColumn SwapType(const AnyColumn& column) {
  if (column.is_packed()) {
    PackedColumn packed = column.packed();
    packed.logical_type = packed.logical_type == TypeId::kUInt32
                              ? TypeId::kUInt64
                              : TypeId::kUInt32;
    return packed;
  }
  return column.VisitPlain([](const auto& col) -> AnyColumn {
    using V = typename std::decay_t<decltype(col)>::value_type;
    if constexpr (std::is_same_v<V, uint64_t>) {
      Column<uint32_t> narrow(col.size());
      for (uint64_t i = 0; i < col.size(); ++i) {
        narrow[i] = static_cast<uint32_t>(col[i]);
      }
      return narrow;
    } else {
      return Column<uint64_t>(col.begin(), col.end());
    }
  });
}

/// A plain column rebuilt through `edit`, which gets a mutable copy.
template <typename Edit>
AnyColumn EditPlain(const AnyColumn& column, Edit edit) {
  return column.VisitPlain([&](const auto& col) -> AnyColumn {
    auto copy = col;
    edit(copy);
    return copy;
  });
}

/// Resizes a plain column to `size` rows, padding with `fill`.
AnyColumn Resize(const AnyColumn& column, uint64_t size, uint64_t fill) {
  return EditPlain(column, [&](auto& col) {
    using V = typename std::decay_t<decltype(col)>::value_type;
    col.resize(size, static_cast<V>(fill));
  });
}

void CollectNodes(CompressedNode* node, std::vector<CompressedNode*>* out) {
  out->push_back(node);
  for (auto& [name, part] : node->parts) {
    if (part.sub) CollectNodes(part.sub.get(), out);
  }
}

enum class Damage {
  kSwapType,
  kDropElement,
  kAddElement,
  kForRefs,
  kRunEndPastN,
  kShrinkNsN,
  kFlipBit,
  kTruncate,
};
constexpr int kNumDamages = 8;

const char* DamageName(Damage d) {
  static const char* kNames[] = {"swap-type",      "drop-element",
                                 "add-element",    "for-refs",
                                 "run-end-past-n", "shrink-ns-n",
                                 "flip-bit",       "truncate"};
  return kNames[static_cast<int>(d)];
}

/// Applies `damage` to one randomly chosen eligible part; returns a
/// description, or "" when the shape has no part the damage applies to.
std::string Apply(Damage damage, CompressedColumn* column, Rng& rng) {
  std::vector<CompressedNode*> nodes;
  CollectNodes(&column->root(), &nodes);
  struct Target {
    CompressedNode* node;
    std::string name;
  };
  std::vector<Target> targets;
  for (CompressedNode* node : nodes) {
    for (auto& [name, part] : node->parts) {
      if (!part.is_terminal()) continue;
      const bool packed = part.column->is_packed();
      const SchemeKind kind = node->scheme.kind;
      bool eligible = true;
      switch (damage) {
        case Damage::kForRefs:
          eligible = name == "refs" && !packed;
          break;
        case Damage::kRunEndPastN:
          eligible = !packed && ((kind == SchemeKind::kRpe &&
                                  name == "positions") ||
                                 (kind == SchemeKind::kDelta &&
                                  name == "deltas" && node != nodes[0]));
          break;
        case Damage::kShrinkNsN:
          eligible = kind == SchemeKind::kNs && packed;
          break;
        case Damage::kTruncate:
          eligible = packed && !part.column->packed().bytes.empty();
          break;
        case Damage::kFlipBit:
          eligible = part.column->ByteSize() > 0;
          break;
        default:
          break;
      }
      if (eligible) targets.push_back({node, name});
    }
  }
  if (targets.empty()) return "";
  const Target& target = targets[rng.Below(targets.size())];
  CompressedPart& part = target.node->parts.at(target.name);
  AnyColumn& col = *part.column;
  const uint64_t size = col.size();
  std::string detail = target.name;
  switch (damage) {
    case Damage::kSwapType:
      col = SwapType(col);
      break;
    case Damage::kDropElement:
    case Damage::kAddElement: {
      const uint64_t new_size =
          damage == Damage::kAddElement ? size + 1 : size - (size > 0);
      if (col.is_packed()) {
        PackedColumn packed = col.packed();
        packed.n = new_size;
        col = std::move(packed);
      } else {
        col = Resize(col, new_size, rng.Next());
      }
      break;
    }
    case Damage::kForRefs: {
      const uint64_t sizes[] = {0, size > 0 ? size - 1 : 0, size + 1,
                                2 * size, 2};
      const uint64_t new_size = sizes[rng.Below(5)];
      col = Resize(col, new_size, rng.Next());
      detail += " -> " + std::to_string(new_size);
      break;
    }
    case Damage::kRunEndPastN:
      // RPE ends move past n; RLE's last length grows by the same.
      col = EditPlain(col, [&](auto& c) {
        using V = typename std::decay_t<decltype(c)>::value_type;
        if (c.empty()) return;
        c.back() = static_cast<V>(c.back() + 1 + rng.Below(100000));
      });
      break;
    case Damage::kShrinkNsN: {
      PackedColumn packed = col.packed();
      packed.n = packed.n > 0 ? rng.Below(packed.n) : 0;
      detail += " n -> " + std::to_string(packed.n);
      col = std::move(packed);
      break;
    }
    case Damage::kFlipBit:
      if (col.is_packed()) {
        PackedColumn packed = col.packed();
        packed.bytes[rng.Below(packed.bytes.size())] ^=
            static_cast<uint8_t>(1u << rng.Below(8));
        col = std::move(packed);
      } else {
        col = EditPlain(col, [&](auto& c) {
          using V = typename std::decay_t<decltype(c)>::value_type;
          if (c.empty()) return;
          V& v = c[rng.Below(c.size())];
          v = static_cast<V>(v ^ static_cast<V>(uint64_t{1}
                                                << rng.Below(8 * sizeof(V))));
        });
      }
      break;
    case Damage::kTruncate: {
      PackedColumn packed = col.packed();
      packed.bytes.pop_back();
      col = std::move(packed);
      break;
    }
  }
  return std::string(DamageName(damage)) + " of " +
         SchemeKindName(target.node->scheme.kind) + "." + detail;
}

// ---------------------------------------------------------------------------
// Operators against decode-then-operate
// ---------------------------------------------------------------------------

/// How a damaged envelope fared: refused by DeserializeChunked, refused by
/// FusedDecompress, or decoded.
enum class Outcome { kUnread, kRefused, kDecoded };

/// Round-trips `damaged`, then runs FusedDecompress and every operator over
/// it. `original` supplies the predicate bounds and the semi-join keys.
void CheckOperators(const CompressedColumn& damaged, const AnyColumn& original,
                    Rng& rng, Outcome* outcome = nullptr) {
  const Result<std::vector<uint8_t>> buffer = Serialize(damaged);
  ASSERT_TRUE(buffer.ok()) << buffer.status().ToString();
  const Result<ChunkedCompressedColumn> chunked = DeserializeChunked(*buffer);
  if (outcome != nullptr) *outcome = Outcome::kUnread;
  if (!chunked.ok()) return;  // Structure the reader already refuses.
  const CompressedColumn& column = chunked->chunk(0).column;
  const uint64_t n = column.size();
  ASSERT_GT(n, 0u);

  // Bounds and keys sampled from the undamaged values.
  const auto sample = [&] {
    return original.VisitPlain([&](const auto& col) {
      return static_cast<uint64_t>(col[rng.Below(col.size())]);
    });
  };
  exec::RangePredicate pred{sample(), sample()};
  if (pred.lo > pred.hi) std::swap(pred.lo, pred.hi);
  Column<uint64_t> keys;
  for (int k = 0; k < 8; ++k) keys.push_back(sample());
  keys.push_back(rng.Next() >> rng.Below(64));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<uint64_t> rows = {0, n - 1, n / 2};
  for (int k = 0; k < 5; ++k) rows.push_back(rng.Below(n));

  const Result<AnyColumn> decoded = FusedDecompress(column);
  if (outcome != nullptr) {
    *outcome = decoded.ok() ? Outcome::kDecoded : Outcome::kRefused;
  }
  EXPECT_EQ(decoded.ok(), Decompress(column).ok())
      << "fused: " << decoded.status().ToString();
  const auto select = exec::SelectCompressed(column, pred);
  const auto select_chunked = exec::SelectCompressed(*chunked, pred);
  const auto sum = exec::SumCompressed(column);
  const auto min = exec::MinCompressed(column);
  const auto max = exec::MaxCompressed(column);
  const auto sum_chunked = exec::SumCompressed(*chunked);
  const auto min_chunked = exec::MinCompressed(*chunked);
  const auto max_chunked = exec::MaxCompressed(*chunked);
  const auto join = exec::SemiJoinCompressed(column, keys);
  const auto refined = exec::RefineSum(column, ~uint64_t{0});
  (void)exec::ApproximateSum(column);
  const auto batch = exec::GetAtBatch(*chunked, rows);
  std::vector<Result<exec::PointResult>> points, chunked_points;
  for (const uint64_t row : rows) {
    points.push_back(exec::GetAt(column, row));
    chunked_points.push_back(exec::GetAt(*chunked, row));
  }
  // The scan's gather: solo, each chunk through its point-access path; and
  // the same two specs as one batch, which shares the chunk and gathers
  // from its decoded buffer.
  exec::ScanSpec project_all, filtered_sum;
  project_all.Project();
  filtered_sum.Filter(pred).Aggregate(exec::AggregateOp::kSum);
  const auto scan_all = exec::Scan(*chunked, project_all);
  const auto scan_sum = exec::Scan(*chunked, filtered_sum);
  const auto shared =
      exec::ExecuteBatch(*chunked, {&project_all, &filtered_sum});

  if (!decoded.ok()) {
    const std::string why = decoded.status().ToString();
    EXPECT_FALSE(select.ok()) << why;
    EXPECT_FALSE(select_chunked.ok()) << why;
    EXPECT_FALSE(sum.ok()) << why;
    EXPECT_FALSE(min.ok()) << why;
    EXPECT_FALSE(max.ok()) << why;
    EXPECT_FALSE(sum_chunked.ok()) << why;
    EXPECT_FALSE(min_chunked.ok()) << why;
    EXPECT_FALSE(max_chunked.ok()) << why;
    EXPECT_FALSE(join.ok()) << why;
    EXPECT_FALSE(refined.ok()) << why;
    for (const auto& result : shared) EXPECT_FALSE(result.ok()) << why;
    return;
  }

  decoded->VisitPlain([&](const auto& col) {
    using T = typename std::decay_t<decltype(col)>::value_type;
    const uint64_t t_max = std::numeric_limits<T>::max();
    Column<uint32_t> want;
    if (pred.lo <= t_max) {
      want = *ops::SelectRange<T>(col, static_cast<T>(pred.lo),
                                  static_cast<T>(std::min(pred.hi, t_max)));
    }
    ASSERT_TRUE(select.ok()) << select.status().ToString();
    EXPECT_EQ(select->positions, want);
    ASSERT_TRUE(select_chunked.ok()) << select_chunked.status().ToString();
    EXPECT_EQ(select_chunked->positions, want);

    uint64_t want_sum = 0;
    for (const T v : col) want_sum += static_cast<uint64_t>(v);
    const uint64_t want_min = *std::min_element(col.begin(), col.end());
    const uint64_t want_max = *std::max_element(col.begin(), col.end());
    for (const auto* got : {&sum, &min, &max}) {
      ASSERT_TRUE(got->ok()) << got->status().ToString();
    }
    EXPECT_EQ(sum->value, want_sum);
    EXPECT_EQ(min->value, want_min);
    EXPECT_EQ(max->value, want_max);
    for (const auto* got : {&sum_chunked, &min_chunked, &max_chunked}) {
      ASSERT_TRUE(got->ok()) << got->status().ToString();
    }
    EXPECT_EQ(sum_chunked->value, want_sum);
    EXPECT_EQ(min_chunked->value, want_min);
    EXPECT_EQ(max_chunked->value, want_max);

    Column<uint32_t> want_join;
    for (uint64_t i = 0; i < col.size(); ++i) {
      if (std::binary_search(keys.begin(), keys.end(),
                             static_cast<uint64_t>(col[i]))) {
        want_join.push_back(static_cast<uint32_t>(i));
      }
    }
    ASSERT_TRUE(join.ok()) << join.status().ToString();
    EXPECT_EQ(join->positions, want_join);

    // Only MODELED(STEP){residual: NS} has a model to approximate from.
    if (refined.ok()) {
      EXPECT_EQ(refined->lower, want_sum);
      EXPECT_EQ(refined->upper, want_sum);
    } else {
      EXPECT_EQ(refined.status().code(), StatusCode::kInvalidArgument);
    }

    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    for (size_t k = 0; k < rows.size(); ++k) {
      const uint64_t want_value = static_cast<uint64_t>(col[rows[k]]);
      ASSERT_TRUE(points[k].ok()) << points[k].status().ToString();
      ASSERT_TRUE(chunked_points[k].ok())
          << chunked_points[k].status().ToString();
      EXPECT_EQ(points[k]->value, want_value) << "row " << rows[k];
      EXPECT_EQ(chunked_points[k]->value, want_value) << "row " << rows[k];
      EXPECT_EQ((*batch)[k].value, want_value) << "row " << rows[k];
    }

    uint64_t want_filtered_sum = 0;
    for (const uint32_t p : want) want_filtered_sum += col[p];
    ASSERT_EQ(shared.size(), 2u);
    for (const auto* got : {&scan_all, &shared[0]}) {
      ASSERT_TRUE(got->ok()) << got->status().ToString();
      ASSERT_EQ((*got)->projections.size(), 1u);
      EXPECT_TRUE((*got)->projections[0].values == AnyColumn(col));
    }
    for (const auto* got : {&scan_sum, &shared[1]}) {
      ASSERT_TRUE(got->ok()) << got->status().ToString();
      EXPECT_EQ((*got)->rows_matched, want.size());
      EXPECT_EQ((*got)->aggregates[0].value(), want_filtered_sum);
    }
  });
}

class EnvelopeDamage : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnvelopeDamage, OperatorsRefuseOrAgreeWithDecode) {
  Rng rng(77000 + GetParam());
  uint64_t outcomes[3] = {};
  for (const Shape& shape : Shapes(rng)) {
    const Result<CompressedColumn> compressed =
        Compress(shape.data, shape.desc);
    ASSERT_TRUE(compressed.ok())
        << shape.name << ": " << compressed.status().ToString();
    {
      SCOPED_TRACE(shape.name + " undamaged");
      CheckOperators(*compressed, shape.data, rng);
    }
    for (int d = 0; d < kNumDamages; ++d) {
      for (int rep = 0; rep < 2; ++rep) {
        CompressedColumn damaged = compressed->Clone();
        const std::string what =
            Apply(static_cast<Damage>(d), &damaged, rng);
        if (what.empty()) continue;
        SCOPED_TRACE("seed " + std::to_string(GetParam()) + " " + shape.name +
                     ": " + what);
        Outcome outcome = Outcome::kUnread;
        CheckOperators(damaged, shape.data, rng, &outcome);
        ++outcomes[static_cast<int>(outcome)];
      }
    }
  }
  // The damages reach both sides of the contract.
  EXPECT_GT(outcomes[static_cast<int>(Outcome::kRefused)], 0u);
  EXPECT_GT(outcomes[static_cast<int>(Outcome::kDecoded)], 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnvelopeDamage,
                         ::testing::Range(uint64_t{0}, uint64_t{16}));

/// The damages a part-damage probe found crashing, over-reading, or silently
/// answering at the parent of the envelope view: FusedDecompress refused
/// every one, and now every operator follows it.
TEST(EnvelopeDamageProbe, DamagesAreRefusedEverywhere) {
  Rng rng(5);
  const Column<uint32_t> steps = Masked(rng, 1000, 12);
  const Column<uint32_t> runs = Runs(rng, 1000, 12);
  Column<uint32_t> few(1000);
  for (auto& v : few) v = static_cast<uint32_t>(rng.Below(50));
  const Column<uint32_t> zeros(8);

  struct Probe {
    const char* name;
    SchemeDescriptor desc;
    const Column<uint32_t>* data;
    void (*damage)(CompressedNode*);
  };
  const Probe probes[] = {
      {"FOR refs -> uint64", MakeFor(128), &steps,
       [](CompressedNode* node) {
         AnyColumn& refs = *node->parts.at("refs").column;
         refs = SwapType(refs);
       }},
      {"FOR refs doubled", MakeFor(128), &steps,
       [](CompressedNode* node) {
         AnyColumn& refs = *node->parts.at("refs").column;
         refs = Resize(refs, 2 * refs.size(), 0);
       }},
      {"FOR refs cut to 2", MakeFor(128), &steps,
       [](CompressedNode* node) {
         AnyColumn& refs = *node->parts.at("refs").column;
         refs = Resize(refs, 2, 0);
       }},
      {"RLE positions -> terminal uint64", MakeRle(), &runs,
       [](CompressedNode* node) {
         const uint64_t count = node->parts.at("values").column->size();
         Column<uint64_t> ends(count);
         for (uint64_t r = 0; r < count; ++r) ends[r] = (r + 1) * 1000 / count;
         CompressedPart positions;
         positions.column = AnyColumn(std::move(ends));
         node->parts["positions"] = std::move(positions);
       }},
      {"RLE values -> uint64", MakeRle(), &runs,
       [](CompressedNode* node) {
         AnyColumn& values = *node->parts.at("values").column;
         values = SwapType(values);
       }},
      {"RPE values cut to 3", Rpe(), &runs,
       [](CompressedNode* node) {
         AnyColumn& values = *node->parts.at("values").column;
         values = Resize(values, 3, 0);
       }},
      {"RPE last end 100000", Rpe(), &runs,
       [](CompressedNode* node) {
         node->parts.at("positions").column->As<uint32_t>().back() = 100000;
       }},
      {"DICT codes -> uint64", Dict(), &few,
       [](CompressedNode* node) {
         AnyColumn& codes = *node->parts.at("codes").column;
         codes = SwapType(codes);
       }},
      {"NS packed.n 16", Ns(), &steps,
       [](CompressedNode* node) {
         PackedColumn packed = node->parts.at("packed").column->packed();
         packed.n = 16;
         *node->parts.at("packed").column = std::move(packed);
       }},
      // Width 0 packs no bytes, so the payload check alone passes any n.
      {"NS width 0 claims 2^62 rows", Ns(), &zeros,
       [](CompressedNode* node) {
         PackedColumn packed = node->parts.at("packed").column->packed();
         ASSERT_EQ(packed.bit_width, 0);
         node->n = packed.n = uint64_t{1} << 62;
         *node->parts.at("packed").column = std::move(packed);
       }},
  };
  for (const Probe& probe : probes) {
    SCOPED_TRACE(probe.name);
    Result<CompressedColumn> compressed =
        Compress(AnyColumn(*probe.data), probe.desc);
    ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
    probe.damage(&compressed->root());
    EXPECT_FALSE(FusedDecompress(*compressed).ok());
    EXPECT_FALSE(Decompress(*compressed).ok());
    CheckOperators(*compressed, AnyColumn(*probe.data), rng);
  }
}

/// FOR decodes ref + residual mod 2^32. A segment whose references sit near
/// the type's top while another segment sets a wide residual width has an
/// L∞ window past 2^32, so one flipped residual bit wraps a value to the
/// bottom of the domain: pruning and the step-mass folds must see the value
/// the decoder produces, not ref + residual in 64 bits.
TEST(EnvelopeDamageProbe, ForResidualWrappingPastTheTypeMatchesDecode) {
  constexpr uint64_t kEll = 128;
  Rng rng(11);
  Column<uint32_t> col;
  // Segment 0 spans 20 bits, which sets the residual width for both.
  col.push_back(0);
  col.push_back((1u << 20) - 1);
  while (col.size() < kEll) {
    col.push_back(static_cast<uint32_t>(rng.Below(1u << 20)));
  }
  for (uint64_t i = 0; i < kEll; ++i) {
    col.push_back(0xFFFFFF00u + static_cast<uint32_t>(rng.Below(256)));
  }
  Result<CompressedColumn> compressed = Compress(AnyColumn(col), MakeFor(kEll));
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  CompressedNode& residual = *compressed->root().parts.at("residual").sub;
  PackedColumn packed = residual.parts.at("packed").column->packed();
  ASSERT_EQ(packed.bit_width, 20);
  const uint64_t bit = (kEll + 5) * 20 + 19;  // Row 133's top residual bit.
  packed.bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  *residual.parts.at("packed").column = std::move(packed);

  const Result<AnyColumn> decoded = FusedDecompress(*compressed);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const Column<uint32_t>& values = decoded->As<uint32_t>();
  ASSERT_LT(values[kEll + 5], 1u << 20);  // Wrapped to the bottom.
  const auto select = exec::SelectCompressed(*compressed, {0, 1u << 20});
  ASSERT_TRUE(select.ok()) << select.status().ToString();
  EXPECT_EQ(select->positions,
            *ops::SelectRange<uint32_t>(values, 0, 1u << 20));
  for (int k = 0; k < 8; ++k) {
    Outcome outcome = Outcome::kUnread;
    CheckOperators(*compressed, AnyColumn(col), rng, &outcome);
    EXPECT_EQ(outcome, Outcome::kDecoded);
  }
}

/// A FOR descriptor's segment length comes off the wire: one segment of
/// 2^40 rows over a 1000-row column is a valid envelope (one reference),
/// and every operator must work in buffers sized by the column's rows.
TEST(EnvelopeDamageProbe, ForSegmentLongerThanTheColumn) {
  Rng rng(12);
  const Column<uint32_t> col = Masked(rng, 1000, 12);
  Result<CompressedColumn> compressed = Compress(AnyColumn(col), MakeFor(128));
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  CompressedNode& root = compressed->root();
  root.scheme.args[0].params.segment_length = uint64_t{1} << 40;
  AnyColumn& refs = *root.parts.at("refs").column;
  refs = Resize(refs, 1, 0);
  ASSERT_TRUE(FusedDecompress(*compressed).ok());
  for (int k = 0; k < 4; ++k) {
    Outcome outcome = Outcome::kUnread;
    CheckOperators(*compressed, AnyColumn(col), rng, &outcome);
    EXPECT_EQ(outcome, Outcome::kDecoded);
  }
}

}  // namespace
}  // namespace recomp
