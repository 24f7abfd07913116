// Bit-manipulation utilities shared by the packing kernels and schemes.

#ifndef RECOMP_UTIL_BITS_H_
#define RECOMP_UTIL_BITS_H_

#include <cstdint>
#include <limits>
#include <type_traits>

namespace recomp::bits {

/// Number of bits needed to represent `v` (0 for v == 0).
/// Equivalent to ceil(log2(v + 1)).
template <typename T>
constexpr int BitWidth(T v) {
  static_assert(std::is_unsigned_v<T>, "BitWidth requires an unsigned type");
  if (v == 0) return 0;
  if constexpr (sizeof(T) <= 4) {
    return 32 - __builtin_clz(static_cast<uint32_t>(v));
  } else {
    return 64 - __builtin_clzll(static_cast<uint64_t>(v));
  }
}

/// A mask with the low `width` bits set. `width` must be in [0, 64].
constexpr uint64_t LowMask64(int width) {
  return width >= 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
}

/// A mask with the low `width` bits set. `width` must be in [0, 32].
constexpr uint32_t LowMask32(int width) {
  return width >= 32 ? ~uint32_t{0} : ((uint32_t{1} << width) - 1);
}

/// ceil(a / b) for b > 0.
constexpr uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

/// Rounds `v` up to the next multiple of `multiple` (> 0).
constexpr uint64_t RoundUp(uint64_t v, uint64_t multiple) {
  return CeilDiv(v, multiple) * multiple;
}

/// Bytes needed to store `n` values of `bit_width` bits, bit-contiguously.
constexpr uint64_t PackedByteSize(uint64_t n, int bit_width) {
  return CeilDiv(n * static_cast<uint64_t>(bit_width), 8);
}

/// The number of bits in T's value representation.
template <typename T>
constexpr int TypeBits() {
  return static_cast<int>(sizeof(T) * 8);
}

}  // namespace recomp::bits

#endif  // RECOMP_UTIL_BITS_H_
