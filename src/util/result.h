// Result<T>: a value-or-Status return type, modeled on arrow::Result.

#ifndef RECOMP_UTIL_RESULT_H_
#define RECOMP_UTIL_RESULT_H_

#include <utility>
#include <variant>

#include "util/macros.h"
#include "util/status.h"

namespace recomp {

/// Holds either a successfully produced T or the Status explaining why one
/// could not be produced. Accessing the value of an errored Result aborts.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit construction from a value (success).
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit construction from an error Status. Constructing from an OK
  /// status is a programmer error.
  Result(Status error) : repr_(std::move(error)) {  // NOLINT(runtime/explicit)
    RECOMP_DCHECK(!std::get<Status>(repr_).ok(),
                  "constructing Result<T> from OK Status");
  }

  bool ok() const { return std::holds_alternative<T>(repr_); }

  /// The error status, or OK when a value is held.
  Status status() const& {
    return ok() ? Status::OK() : std::get<Status>(repr_);
  }
  Status status() && {
    return ok() ? Status::OK() : std::move(std::get<Status>(repr_));
  }

  /// Returns the held value; aborts if this Result holds an error.
  const T& ValueOrDie() const& {
    RECOMP_DCHECK(ok(), status().ToString().c_str());
    return std::get<T>(repr_);
  }
  T& ValueOrDie() & {
    RECOMP_DCHECK(ok(), status().ToString().c_str());
    return std::get<T>(repr_);
  }
  T ValueOrDie() && {
    RECOMP_DCHECK(ok(), status().ToString().c_str());
    return std::move(std::get<T>(repr_));
  }

  /// Unchecked access used by RECOMP_ASSIGN_OR_RETURN after ok() was checked.
  T ValueUnsafe() && { return std::move(std::get<T>(repr_)); }

  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

 private:
  std::variant<T, Status> repr_;
};

}  // namespace recomp

#endif  // RECOMP_UTIL_RESULT_H_
