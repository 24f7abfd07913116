// Shared helpers for recomp tests.

#ifndef RECOMP_TESTS_TEST_UTIL_H_
#define RECOMP_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "columnar/any_column.h"
#include "core/pipeline.h"
#include "exec/scan.h"
#include "util/random.h"
#include "util/thread_pool.h"

#define EXPECT_OK(expr) EXPECT_TRUE((expr).ok()) << (expr).ToString()
#define ASSERT_OK(expr) ASSERT_TRUE((expr).ok()) << (expr).ToString()

namespace recomp::testutil {

/// Compresses `input` with `desc`, decompresses, and asserts the roundtrip
/// reproduces the input exactly. Returns the compressed form for further
/// inspection.
inline CompressedColumn ExpectRoundTrip(const AnyColumn& input,
                                        const SchemeDescriptor& desc) {
  auto compressed = Compress(input, desc);
  EXPECT_TRUE(compressed.ok())
      << desc.ToString() << ": " << compressed.status().ToString();
  if (!compressed.ok()) return CompressedColumn{};
  auto back = Decompress(*compressed);
  EXPECT_TRUE(back.ok()) << desc.ToString() << ": "
                         << back.status().ToString();
  if (back.ok()) {
    EXPECT_TRUE(*back == input)
        << "roundtrip mismatch for " << desc.ToString();
  }
  return std::move(*compressed);
}

/// Sorted column with geometric runs (the paper's shipped-orders shape).
inline Column<uint32_t> RunsColumn(uint64_t n, double new_run_probability,
                                   uint64_t seed) {
  Rng rng(seed);
  Column<uint32_t> col;
  col.reserve(n);
  uint32_t value = 1000;
  for (uint64_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(new_run_probability)) {
      value += 1 + static_cast<uint32_t>(rng.Below(3));
    }
    col.push_back(value);
  }
  return col;
}

/// Uniform random column over [0, bound).
template <typename T>
Column<T> UniformColumn(uint64_t n, uint64_t bound, uint64_t seed) {
  Rng rng(seed);
  Column<T> col;
  col.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    col.push_back(static_cast<T>(rng.Below(bound)));
  }
  return col;
}

/// The plain-array reference for scans: the rows passing every filter, a
/// filter being (index into `columns`, predicate).
inline Column<uint32_t> OracleSelect(
    const std::vector<const Column<uint32_t>*>& columns,
    const std::vector<std::pair<size_t, exec::RangePredicate>>& filters,
    uint64_t rows) {
  Column<uint32_t> out;
  for (uint64_t i = 0; i < rows; ++i) {
    bool pass = true;
    for (const auto& [col, pred] : filters) {
      if (!pred.Matches((*columns[col])[i])) {
        pass = false;
        break;
      }
    }
    if (pass) out.push_back(static_cast<uint32_t>(i));
  }
  return out;
}

/// The plain-array reference for exec::Scan over u32 columns, looked up by
/// the spec's names: filters row by row, gathers and folds in plain C++,
/// and fills exactly the outputs ScanOutputsEqual compares.
inline exec::ScanResult OracleScan(
    const std::map<std::string, const Column<uint32_t>*>& columns,
    const exec::ScanSpec& spec, uint64_t rows) {
  exec::ScanResult out;
  out.rows_scanned = rows;
  Column<uint32_t> selected;  // The rows projections and aggregates see.
  if (spec.filters().empty()) {
    out.rows_matched = rows;
    for (uint64_t i = 0; i < std::min(rows, spec.limit()); ++i) {
      selected.push_back(static_cast<uint32_t>(i));
    }
  } else {
    std::vector<const Column<uint32_t>*> filtered;
    std::vector<std::pair<size_t, exec::RangePredicate>> filters;
    for (const exec::ScanSpec::FilterSpec& f : spec.filters()) {
      filters.push_back({filtered.size(), f.predicate});
      filtered.push_back(columns.at(f.column));
    }
    selected = OracleSelect(filtered, filters, rows);
    out.rows_matched = selected.size();
    if (selected.size() > spec.limit()) selected.resize(spec.limit());
    out.positions = selected;
  }
  for (const std::string& name : spec.projections()) {
    const Column<uint32_t>& column = *columns.at(name);
    Column<uint32_t> values;
    for (const uint32_t row : selected) values.push_back(column[row]);
    out.projections.push_back({name, AnyColumn(std::move(values)), {}});
  }
  for (const exec::ScanSpec::AggregateSpec& a : spec.aggregates()) {
    exec::ScanAggregate agg;
    agg.column = a.column;
    agg.op = a.op;
    agg.rows = selected.size();
    for (size_t i = 0; i < selected.size(); ++i) {
      const uint64_t v = (*columns.at(a.column))[selected[i]];
      switch (a.op) {
        case exec::AggregateOp::kSum:
          agg.agg.value += v;
          break;
        case exec::AggregateOp::kMin:
          agg.agg.value = i == 0 ? v : std::min(agg.agg.value, v);
          break;
        case exec::AggregateOp::kMax:
          agg.agg.value = std::max(agg.agg.value, v);
          break;
        case exec::AggregateOp::kCount:
          ++agg.agg.value;
          break;
      }
    }
    out.aggregates.push_back(std::move(agg));
  }
  return out;
}

/// Occupies `workers` workers of `pool` until Release() is called (idempotent,
/// and called by the destructor so a failing ASSERT cannot leave the pool
/// wedged): work submitted behind the blockers stays queued — e.g. seal jobs,
/// which is exactly the stored-plain backlog the recompression tests need.
/// Declare it AFTER any object whose destructor waits on the pool (such as an
/// AppendableColumn), so the gate opens before that destructor runs.
class PoolBlocker {
 public:
  PoolBlocker(ThreadPool& pool, uint64_t workers) {
    std::shared_future<void> gate = release_.get_future().share();
    for (uint64_t i = 0; i < workers; ++i) {
      pool.Submit([gate] { gate.wait(); });
    }
  }
  void Release() {
    if (!released_) release_.set_value();
    released_ = true;
  }
  ~PoolBlocker() { Release(); }

 private:
  std::promise<void> release_;
  bool released_ = false;
};

}  // namespace recomp::testutil

#endif  // RECOMP_TESTS_TEST_UTIL_H_
