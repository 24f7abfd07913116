// Cache-line / SIMD-friendly aligned allocation.

#ifndef RECOMP_UTIL_ALIGN_H_
#define RECOMP_UTIL_ALIGN_H_

#include <cstddef>
#include <cstdlib>
#include <limits>
#include <new>

namespace recomp {

/// Alignment used for all column buffers; covers AVX-512 loads and avoids
/// split cache lines.
inline constexpr std::size_t kColumnAlignment = 64;

/// STL-compatible allocator returning kColumnAlignment-aligned memory.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_alloc();
    }
    // Aligned size must be a multiple of the alignment for std::aligned_alloc.
    std::size_t bytes = n * sizeof(T);
    bytes =
        (bytes + kColumnAlignment - 1) / kColumnAlignment * kColumnAlignment;
    void* p = std::aligned_alloc(kColumnAlignment, bytes);
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace recomp

#endif  // RECOMP_UTIL_ALIGN_H_
