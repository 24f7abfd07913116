#include "ops/dispatch.h"

#include <atomic>
#include <cstdlib>

namespace recomp::ops {

namespace {
std::atomic<bool> g_force_scalar{false};

bool DetectAvx2() {
#if defined(RECOMP_COMPILED_AVX2)
  // RECOMP_FORCE_SCALAR=1 in the environment pins the whole process to the
  // scalar kernels (the CI matrix leg); unlike ForceScalar() it is sticky —
  // tests that toggle the runtime knob back off still run scalar.
  const char* env = std::getenv("RECOMP_FORCE_SCALAR");
  if (env != nullptr && env[0] != '\0' && env[0] != '0') return false;
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}
}  // namespace

bool HasAvx2() {
  static const bool supported = DetectAvx2();
  return supported && !g_force_scalar.load(std::memory_order_relaxed);
}

void ForceScalar(bool force) {
  g_force_scalar.store(force, std::memory_order_relaxed);
}

bool ScalarForced() { return g_force_scalar.load(std::memory_order_relaxed); }

}  // namespace recomp::ops
