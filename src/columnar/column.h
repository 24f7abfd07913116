// Column<T>: the library's "pure column" representation.
//
// The paper insists on viewing compressed forms as plain columns, stripped of
// blocks/headers/padding; accordingly a column here is nothing more than a
// SIMD-aligned contiguous vector of fixed-width integers.

#ifndef RECOMP_COLUMNAR_COLUMN_H_
#define RECOMP_COLUMNAR_COLUMN_H_

#include <cstdint>
#include <vector>

#include "util/align.h"

namespace recomp {

/// A contiguous, 64-byte-aligned column of T.
template <typename T>
using Column = std::vector<T, AlignedAllocator<T>>;

/// Raw byte footprint of a column's payload.
template <typename T>
uint64_t ColumnBytes(const Column<T>& col) {
  return col.size() * sizeof(T);
}

}  // namespace recomp

#endif  // RECOMP_COLUMNAR_COLUMN_H_
