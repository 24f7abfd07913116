// Spans the benchmark records around its own calls into the library: name,
// start, end, parent span and request id. They are kept in memory and
// written out as Chrome trace-event JSON when the run ends. Nothing inside
// the library is instrumented by this.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class SpanLog {
 public:
  /// A fresh span id, so children can name a parent recorded after them.
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Records a finished span; returns its id (`id` 0 draws a fresh one).
  uint64_t Record(const char* name, Clock::time_point start, Clock::time_point end,
                  uint64_t parent = 0, uint64_t request = 0, uint64_t id = 0);

  size_t size() const;

  /// Writes every span as one trace-event JSON array.
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t id, parent, request;
    Clock::time_point start, end;
  };
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
