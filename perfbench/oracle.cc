#include "oracle.h"

#include <algorithm>

#include "common.h"

namespace perfbench {

using recomp::exec::AggregateOp;
using recomp::exec::ScanResult;
using recomp::exec::ScanSpec;

namespace {

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void Add(uint64_t v) { h_ = (h_ ^ v) * 1099511628211ull; }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

int ColumnIndex(const std::string& name) {
  for (int c = 0; c < kNumColumns; ++c) {
    if (name == kColumnNames[c]) return c;
  }
  Die("oracle: unknown column " + name);
}

}  // namespace

std::string Answer::ToString() const {
  std::string s = "scanned=" + std::to_string(rows_scanned) +
                  " matched=" + std::to_string(rows_matched) +
                  " positions=" + std::to_string(positions);
  for (size_t i = 0; i < aggregate_values.size(); ++i) {
    s += " agg" + std::to_string(i) + "=" + std::to_string(aggregate_values[i]) + "/" +
         std::to_string(aggregate_rows[i]);
  }
  return s;
}

Answer Summarize(const ScanResult& result) {
  Answer answer;
  answer.rows_scanned = result.rows_scanned;
  answer.rows_matched = result.rows_matched;
  answer.positions = result.positions.size();
  Digest positions;
  for (const uint32_t p : result.positions) positions.Add(p);
  answer.positions_digest = positions.value();
  for (const auto& agg : result.aggregates) {
    answer.aggregate_values.push_back(agg.value());
    answer.aggregate_rows.push_back(agg.rows);
  }
  for (const auto& projection : result.projections) {
    Digest values;
    projection.values.VisitPlain([&](const auto& col) {
      for (const auto v : col) values.Add(static_cast<uint64_t>(v));
    });
    answer.projection_digests.push_back(values.value());
  }
  return answer;
}

Answer Evaluate(const PlainTable& plain, const ScanSpec& spec, uint64_t rows) {
  struct Filter {
    const std::vector<uint32_t>* col;
    uint64_t lo, hi;
  };
  std::vector<Filter> filters;
  uint64_t begin = 0;
  uint64_t end = rows;
  const std::vector<uint32_t>& dates = plain.cols[kDate];
  for (const auto& f : spec.filters()) {
    const int c = ColumnIndex(f.column);
    filters.push_back({&plain.cols[c], f.predicate.lo, f.predicate.hi});
    if (c == kDate) {
      // The date column is sorted: a date band is one row range.
      const auto first = dates.begin();
      const auto last = dates.begin() + static_cast<int64_t>(rows);
      const uint64_t lo = f.predicate.lo;
      const uint64_t hi = f.predicate.hi;
      begin = std::max<uint64_t>(
          begin, std::lower_bound(first, last, lo, [](uint32_t v, uint64_t x) { return v < x; }) - first);
      end = std::min<uint64_t>(
          end, std::upper_bound(first, last, hi, [](uint64_t x, uint32_t v) { return x < v; }) - first);
    }
  }

  Answer answer;
  answer.rows_scanned = rows;
  std::vector<uint32_t> selected;
  Digest positions;
  for (uint64_t r = begin; r < end; ++r) {
    bool pass = true;
    for (const Filter& f : filters) {
      const uint64_t v = (*f.col)[r];
      if (v < f.lo || v > f.hi) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    ++answer.rows_matched;
    if (selected.size() < spec.limit()) {
      selected.push_back(static_cast<uint32_t>(r));
      positions.Add(r);
    }
  }
  answer.positions = selected.size();
  answer.positions_digest = positions.value();

  for (const auto& agg : spec.aggregates()) {
    const std::vector<uint32_t>& col = plain.cols[ColumnIndex(agg.column)];
    uint64_t acc = agg.op == AggregateOp::kMin && !selected.empty() ? ~uint64_t{0} : 0;
    for (const uint32_t r : selected) {
      switch (agg.op) {
        case AggregateOp::kSum:
          acc += col[r];
          break;
        case AggregateOp::kMin:
          acc = std::min<uint64_t>(acc, col[r]);
          break;
        case AggregateOp::kMax:
          acc = std::max<uint64_t>(acc, col[r]);
          break;
        case AggregateOp::kCount:
          ++acc;
          break;
      }
    }
    answer.aggregate_values.push_back(acc);
    answer.aggregate_rows.push_back(selected.size());
  }
  for (const auto& name : spec.projections()) {
    const std::vector<uint32_t>& col = plain.cols[ColumnIndex(name)];
    Digest values;
    for (const uint32_t r : selected) values.Add(col[r]);
    answer.projection_digests.push_back(values.value());
  }
  return answer;
}

}  // namespace perfbench
