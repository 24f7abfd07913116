// Status: the library-wide recoverable-error type.
//
// Modeled on arrow::Status / rocksdb::Status. A Status is cheap to return in
// the OK case (single pointer compare) and carries a code plus a message in
// the error case.

#ifndef RECOMP_UTIL_STATUS_H_
#define RECOMP_UTIL_STATUS_H_

#include <memory>
#include <string>
#include <utility>

#include "util/macros.h"

namespace recomp {

/// Error categories used across the library.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,   ///< Caller passed something malformed.
  kOutOfRange = 2,        ///< Index/width/length outside the valid domain.
  kNotImplemented = 3,    ///< Feature intentionally absent (yet).
  kCorruption = 4,        ///< Compressed form failed validation.
  kKeyError = 5,          ///< Lookup of a named part/attribute failed.
  kUnknown = 6,
  kResourceExhausted = 7, ///< Admission control refused more work (queue
                          ///< depth, per-client in-flight limits).
  kDeadlineExceeded = 8,  ///< The caller's deadline passed before execution.
};

/// Returns a stable human-readable name for `code` (e.g. "Invalid argument").
const char* StatusCodeToString(StatusCode code);

/// A success-or-error return value; OK is represented by a null state
/// pointer so the happy path costs one branch.
class Status {
 public:
  /// Constructs an OK status.
  Status() noexcept = default;

  Status(StatusCode code, std::string msg)
      : state_(code == StatusCode::kOk
                   ? nullptr
                   : std::make_unique<State>(State{code, std::move(msg)})) {}

  Status(const Status& other) { *this = other; }
  Status& operator=(const Status& other) {
    state_ = other.state_ ? std::make_unique<State>(*other.state_) : nullptr;
    return *this;
  }
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status KeyError(std::string msg) {
    return Status(StatusCode::kKeyError, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  /// True iff this status represents success.
  bool ok() const { return state_ == nullptr; }

  StatusCode code() const { return state_ ? state_->code : StatusCode::kOk; }

  /// The error message; empty for OK.
  const std::string& message() const {
    static const std::string kEmpty;
    return state_ ? state_->msg : kEmpty;
  }

  /// "OK" or "<code name>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code() == other.code() && message() == other.message();
  }

 private:
  struct State {
    StatusCode code;
    std::string msg;
  };
  std::unique_ptr<State> state_;
};

}  // namespace recomp

#endif  // RECOMP_UTIL_STATUS_H_
