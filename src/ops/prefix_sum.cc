#include "ops/prefix_sum.h"

#include "ops/dispatch.h"
#include "ops/kernels_avx2.h"

namespace recomp::ops {

template <typename T>
Column<T> PrefixSumInclusive(const Column<T>& in) {
  Column<T> out(in.size());
  if constexpr (std::is_same_v<T, uint32_t>) {
    if (HasAvx2() && !in.empty()) {
      avx2::PrefixSumInclusiveU32(in.data(), in.size(), out.data());
      return out;
    }
  }
  T acc{0};
  for (uint64_t i = 0; i < in.size(); ++i) {
    acc = static_cast<T>(acc + in[i]);
    out[i] = acc;
  }
  return out;
}

template <typename T>
Column<T> PrefixSumExclusive(const Column<T>& in) {
  Column<T> out(in.size());
  T acc{0};
  for (uint64_t i = 0; i < in.size(); ++i) {
    out[i] = acc;
    acc = static_cast<T>(acc + in[i]);
  }
  return out;
}

template <typename T>
void PrefixSumInclusiveInPlace(Column<T>* col) {
  T acc{0};
  for (auto& v : *col) {
    acc = static_cast<T>(acc + v);
    v = acc;
  }
}

#define RECOMP_INSTANTIATE_PREFIX_SUM(T)                      \
  template Column<T> PrefixSumInclusive<T>(const Column<T>&); \
  template Column<T> PrefixSumExclusive<T>(const Column<T>&); \
  template void PrefixSumInclusiveInPlace<T>(Column<T>*);

RECOMP_INSTANTIATE_PREFIX_SUM(uint8_t)
RECOMP_INSTANTIATE_PREFIX_SUM(uint16_t)
RECOMP_INSTANTIATE_PREFIX_SUM(uint32_t)
RECOMP_INSTANTIATE_PREFIX_SUM(uint64_t)
RECOMP_INSTANTIATE_PREFIX_SUM(int8_t)
RECOMP_INSTANTIATE_PREFIX_SUM(int16_t)
RECOMP_INSTANTIATE_PREFIX_SUM(int32_t)
RECOMP_INSTANTIATE_PREFIX_SUM(int64_t)

#undef RECOMP_INSTANTIATE_PREFIX_SUM

}  // namespace recomp::ops
