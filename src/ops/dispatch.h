// Runtime CPU-feature dispatch for SIMD kernels.
//
// Kernels compiled with -mavx2 live in kernels_avx2.cc; every call site
// consults HasAvx2() (cached) and falls back to the scalar kernel, so the
// library runs correctly on any x86-64 and the two paths can be tested
// against each other.

#ifndef RECOMP_OPS_DISPATCH_H_
#define RECOMP_OPS_DISPATCH_H_

namespace recomp::ops {

/// True iff AVX2 kernels were compiled in and the CPU supports AVX2.
bool HasAvx2();

/// Overrides dispatch for tests/benchmarks: force = true routes every call
/// to the scalar kernels regardless of CPU support.
void ForceScalar(bool force);

/// Current ForceScalar setting.
bool ScalarForced();

}  // namespace recomp::ops

#endif  // RECOMP_OPS_DISPATCH_H_
