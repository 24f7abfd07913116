#include "util/status.h"

#include <cstdio>
#include <cstdlib>

namespace recomp {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "Invalid argument";
    case StatusCode::kOutOfRange:
      return "Out of range";
    case StatusCode::kNotImplemented:
      return "Not implemented";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kKeyError:
      return "Key error";
    case StatusCode::kUnknown:
      return "Unknown";
    case StatusCode::kResourceExhausted:
      return "Resource exhausted";
    case StatusCode::kDeadlineExceeded:
      return "Deadline exceeded";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code());
  out += ": ";
  out += message();
  return out;
}

namespace internal {

void DCheckFailed(const char* file, int line, const char* expr,
                  const char* msg) {
  std::fprintf(stderr, "recomp DCHECK failure at %s:%d: (%s) %s\n", file, line,
               expr, msg);
  std::abort();
}

}  // namespace internal
}  // namespace recomp
