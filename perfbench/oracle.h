// The correctness oracle: a plain loop over the generated rows, independent
// of the library's scan code. Answers are compared in a compact form —
// counts, aggregate values and digests of positions and projected values —
// so a run can keep thousands of them.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data.h"
#include "exec/scan.h"

namespace perfbench {

struct Answer {
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  uint64_t positions = 0;
  uint64_t positions_digest = 0;
  std::vector<uint64_t> aggregate_values;
  std::vector<uint64_t> aggregate_rows;
  std::vector<uint64_t> projection_digests;

  bool operator==(const Answer& other) const = default;
  std::string ToString() const;
};

/// The compact form of what the program answered.
Answer Summarize(const recomp::exec::ScanResult& result);

/// What `spec` must answer over the first `rows` rows of `plain`.
Answer Evaluate(const PlainTable& plain, const recomp::exec::ScanSpec& spec, uint64_t rows);

/// True for about one query in eight, chosen by the seed: the queries whose
/// answers the oracle checks.
inline bool Sampled(uint64_t seed, uint64_t stream, uint64_t seq) {
  uint64_t h = (seed * 0x9e3779b97f4a7c15ull) ^ (stream * 0xbf58476d1ce4e5b9ull) ^
               (seq * 0x94d049bb133111ebull);
  h ^= h >> 31;
  h *= 0xd6e8feb86659fd93ull;
  h ^= h >> 32;
  return h % 8 == 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
