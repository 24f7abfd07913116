// Common macros used across the recomp library.
//
// Follows the Arrow/RocksDB convention of propagating recoverable errors via
// Status / Result<T> return values rather than exceptions; the macros below
// remove most of the boilerplate that convention creates.

#ifndef RECOMP_UTIL_MACROS_H_
#define RECOMP_UTIL_MACROS_H_

#define RECOMP_PREDICT_TRUE(x) (__builtin_expect(!!(x), 1))
#define RECOMP_PREDICT_FALSE(x) (__builtin_expect(!!(x), 0))

#define RECOMP_CONCAT_IMPL(x, y) x##y
#define RECOMP_CONCAT(x, y) RECOMP_CONCAT_IMPL(x, y)

/// Evaluates an expression returning Status; returns from the enclosing
/// function if it is not OK.
#define RECOMP_RETURN_NOT_OK(expr)                                   \
  do {                                                               \
    ::recomp::Status _recomp_status = (expr);                        \
    if (RECOMP_PREDICT_FALSE(!_recomp_status.ok())) {                \
      return _recomp_status;                                         \
    }                                                                \
  } while (false)

/// Evaluates an expression returning Result<T>; on success moves the value
/// into `lhs`, otherwise returns the error from the enclosing function.
#define RECOMP_ASSIGN_OR_RETURN_IMPL(result_name, lhs, rexpr) \
  auto&& result_name = (rexpr);                               \
  if (RECOMP_PREDICT_FALSE(!result_name.ok())) {              \
    return result_name.status();                              \
  }                                                           \
  lhs = std::move(result_name).ValueUnsafe();

#define RECOMP_ASSIGN_OR_RETURN(lhs, rexpr)                                 \
  RECOMP_ASSIGN_OR_RETURN_IMPL(RECOMP_CONCAT(_recomp_result_, __COUNTER__), \
                               lhs, rexpr)

/// Internal invariant check. Unlike Status propagation this is for programmer
/// errors; it aborts in all build types (database kernels must not run past
/// corrupted state).
#define RECOMP_DCHECK(cond, msg)                                              \
  do {                                                                        \
    if (RECOMP_PREDICT_FALSE(!(cond))) {                                      \
      ::recomp::internal::DCheckFailed(__FILE__, __LINE__, #cond, (msg));     \
    }                                                                         \
  } while (false)

namespace recomp::internal {
[[noreturn]] void DCheckFailed(const char* file, int line, const char* expr,
                               const char* msg);
}  // namespace recomp::internal

#endif  // RECOMP_UTIL_MACROS_H_
