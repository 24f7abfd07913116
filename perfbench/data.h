// The benchmark's data: one five-column orders table, generated from the seed,
// and the query specs each workload sends. Every generated row is also kept
// in plain arrays (PlainTable), which the oracle evaluates specs against.

#ifndef PERFBENCH_DATA_H_
#define PERFBENCH_DATA_H_

#include <array>
#include <cstdint>
#include <vector>

#include "columnar/any_column.h"
#include "exec/scan.h"
#include "store/table.h"
#include "util/random.h"

namespace perfbench {

/// Column order of the table; names in kColumnNames.
enum ColumnId : int { kDate = 0, kAmount, kQty, kRegion, kPrice, kNumColumns };
inline constexpr const char* kColumnNames[kNumColumns] = {
    "date", "amount", "qty", "region", "price"};

/// Orders arrive in date order, a fixed number a day: `date` is sorted, so
/// zone maps prune on it, and a day is a fixed amount of work.
inline constexpr uint64_t kRowsPerDay = 20000;
/// `amount` is uniform below this bound, so no zone map prunes a band on it.
inline constexpr uint32_t kAmountBound = 1u << 20;
inline constexpr uint64_t kRegions = 64;

/// Table schema: every column analyzer-chosen per 64Ki-row chunk.
std::vector<recomp::store::ColumnSpec> TableSchema();

/// Every row appended so far, column by column, in append order.
struct PlainTable {
  std::array<std::vector<uint32_t>, kNumColumns> cols;

  uint64_t rows() const { return cols[0].size(); }
  uint32_t max_date() const { return cols[kDate].empty() ? 0 : cols[kDate].back(); }
};

/// A deterministic row stream: the same seed yields the same rows, and
/// consecutive batches continue one sorted date column.
class RowGenerator {
 public:
  explicit RowGenerator(uint64_t seed);

  /// The next `n` rows as one plain column per table column; the rows are
  /// also appended to `*plain`.
  std::vector<recomp::AnyColumn> Next(uint64_t n, PlainTable* plain);

 private:
  recomp::Rng rng_;
  recomp::ZipfSampler regions_;
  uint32_t day_ = 1000;
  uint64_t rows_in_day_ = 0;
  uint32_t price_level_ = 0;
};

/// User bytes in a batch of `rows` rows (4 bytes a value).
inline uint64_t UserBytes(uint64_t rows) { return rows * 4 * kNumColumns; }

/// The 32 dashboard panels. Their shapes are fixed; the seed only moves band
/// positions. Every panel's date window ends open at `newest`, the newest
/// date in the table, and reaches a fixed number of days back.
std::vector<recomp::exec::ScanSpec> DashboardPanels(uint64_t seed, uint32_t newest);

/// One unique analyst query: a date window over 2–10% of the rows, ANDed with
/// a random band on `amount`, ending in a sum or a limited projection.
recomp::exec::ScanSpec AdhocSpec(const PlainTable& plain, recomp::Rng& rng);

/// The ingest reader's freshness query: the totals of the three newest
/// complete days before `newest`.
recomp::exec::ScanSpec FreshnessSpec(uint32_t newest);

}  // namespace perfbench

#endif  // PERFBENCH_DATA_H_
