#include "data.h"

#include <algorithm>

namespace perfbench {

using recomp::AnyColumn;
using recomp::Column;
using recomp::Rng;
using recomp::exec::AggregateOp;
using recomp::exec::RangePredicate;
using recomp::exec::ScanSpec;

std::vector<recomp::store::ColumnSpec> TableSchema() {
  std::vector<recomp::store::ColumnSpec> specs;
  for (const char* name : kColumnNames) {
    specs.push_back({name, recomp::TypeId::kUInt32, {}, ""});
  }
  return specs;
}

RowGenerator::RowGenerator(uint64_t seed) : rng_(seed), regions_(kRegions, 1.1) {}

std::vector<AnyColumn> RowGenerator::Next(uint64_t n, PlainTable* plain) {
  std::array<Column<uint32_t>, kNumColumns> cols;
  for (auto& col : cols) col.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (++rows_in_day_ > kRowsPerDay) {
      ++day_;
      rows_in_day_ = 1;
    }
    if (rng_.Bernoulli(1.0 / 512)) price_level_ = static_cast<uint32_t>(rng_.Below(1u << 16));
    cols[kDate][i] = day_;
    cols[kAmount][i] = static_cast<uint32_t>(rng_.Below(kAmountBound));
    cols[kQty][i] = static_cast<uint32_t>(1 + rng_.Below(100));
    cols[kRegion][i] = static_cast<uint32_t>(regions_.Sample(rng_));
    cols[kPrice][i] = 1000 + price_level_ + static_cast<uint32_t>(rng_.Below(64));
  }
  std::vector<AnyColumn> batch;
  for (int c = 0; c < kNumColumns; ++c) {
    plain->cols[c].insert(plain->cols[c].end(), cols[c].begin(), cols[c].end());
    batch.emplace_back(std::move(cols[c]));
  }
  return batch;
}

namespace {

constexpr uint64_t kOpen = ~uint64_t{0};

RangePredicate Since(uint32_t newest, uint32_t days) {
  return {newest > days ? newest - days : 0, kOpen};
}

}  // namespace

std::vector<ScanSpec> DashboardPanels(uint64_t seed, uint32_t newest) {
  Rng rng(seed ^ 0xda5b0a4dull);
  // Six panel families, six (or four) panels each. They are interleaved so
  // that every popularity rank mixes cheap and heavy panels whatever the
  // seed; the seed moves band positions only.
  std::vector<std::vector<ScanSpec>> families(6);

  // Newest-window panels: nested, open-ended date bands, so appended rows
  // land in them.
  for (const uint32_t days : {1u, 2u, 3u, 5u, 7u, 14u}) {
    ScanSpec spec;
    spec.Filter("date", Since(newest, days))
        .Aggregate("amount", AggregateOp::kSum)
        .Aggregate("qty", AggregateOp::kSum);
    families[0].push_back(std::move(spec));
  }
  // Nested amount bands over the last two weeks: each lies inside the one
  // before, so subsumption can re-filter the wider band's selection.
  const uint64_t centre = kAmountBound / 4 + rng.Below(kAmountBound / 2);
  for (const uint64_t half : {kAmountBound / 8, kAmountBound / 16, kAmountBound / 32,
                              kAmountBound / 64, kAmountBound / 128, kAmountBound / 256}) {
    ScanSpec spec;
    spec.Filter("date", Since(newest, 14))
        .Filter("amount", {centre - half, centre + half})
        .Aggregate("qty", AggregateOp::kSum);
    families[1].push_back(std::move(spec));
  }
  // One region over the last week.
  for (const uint64_t region : {0u, 1u, 2u, 3u, 5u, 8u}) {
    ScanSpec spec;
    spec.Filter("date", Since(newest, 7))
        .Filter("region", {region, region})
        .Aggregate("amount", AggregateOp::kSum)
        .Aggregate("amount", AggregateOp::kCount);
    families[2].push_back(std::move(spec));
  }
  // Three filters: recent window, amount band, region band.
  for (uint32_t i = 0; i < 6; ++i) {
    const uint64_t lo = rng.Below(kAmountBound / 2);
    ScanSpec spec;
    spec.Filter("date", Since(newest, 3u + 4u * (i % 3)))
        .Filter("amount", {lo, lo + kAmountBound / 4})
        .Filter("region", {0, 3 + i})
        .Aggregate("price", AggregateOp::kMax)
        .Aggregate("qty", AggregateOp::kSum);
    families[3].push_back(std::move(spec));
  }
  // Drill-down lists: projections with a row limit.
  for (const uint64_t limit : {100u, 200u, 500u, 1000u}) {
    const uint64_t lo = rng.Below(kAmountBound / 2);
    ScanSpec spec;
    spec.Filter("date", Since(newest, 7))
        .Filter("amount", {lo, lo + kAmountBound / 8})
        .Project({"price", "qty"})
        .Limit(limit);
    families[4].push_back(std::move(spec));
  }
  // Price bands over the last week.
  for (uint32_t i = 0; i < 4; ++i) {
    const uint64_t lo = 1000 + rng.Below(1u << 15);
    ScanSpec spec;
    spec.Filter("date", Since(newest, 7))
        .Filter("price", {lo, lo + (1u << 13)})
        .Aggregate("amount", AggregateOp::kMin)
        .Aggregate("amount", AggregateOp::kCount);
    families[5].push_back(std::move(spec));
  }

  std::vector<ScanSpec> panels;
  for (size_t rank = 0; rank < 6; ++rank) {
    for (auto& family : families) {
      if (rank < family.size()) panels.push_back(family[rank]);
    }
  }
  return panels;
}

ScanSpec AdhocSpec(const PlainTable& plain, Rng& rng) {
  const std::vector<uint32_t>& dates = plain.cols[kDate];
  const uint64_t rows = plain.rows();
  const auto span = static_cast<uint64_t>((0.02 + 0.08 * rng.NextDouble()) * static_cast<double>(rows));
  const uint64_t first = rng.Below(rows - span);
  const uint64_t width = kAmountBound / 20 + rng.Below(kAmountBound * 9 / 20);
  const uint64_t lo = rng.Below(kAmountBound - width);
  ScanSpec spec;
  spec.Filter("date", {dates[first], dates[first + span - 1]})
      .Filter("amount", {lo, lo + width - 1});
  if (rng.Bernoulli(0.5)) {
    spec.Aggregate("qty", AggregateOp::kSum).Aggregate("price", AggregateOp::kMax);
  } else {
    spec.Project({"price", "qty"}).Limit(64 + rng.Below(192));
  }
  return spec;
}

ScanSpec FreshnessSpec(uint32_t newest) {
  ScanSpec spec;
  spec.Filter("date", {newest - 3, newest - 1})
      .Aggregate("amount", AggregateOp::kSum)
      .Aggregate("qty", AggregateOp::kSum);
  return spec;
}

}  // namespace perfbench
