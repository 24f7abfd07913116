#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

uint64_t SpanLog::Record(const char* name, Clock::time_point start, Clock::time_point end,
                         uint64_t parent, uint64_t request, uint64_t id) {
  if (id == 0) id = NewId();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, id, parent, request, start, end});
  return id;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  // Spans are appended as they end, so the earliest start can be anywhere.
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = Seconds(origin, s.start) * 1e6;
    const double dur = Seconds(s.start, s.end) * 1e6;
    std::fprintf(out,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,\"request\":%llu}}%s\n",
                 s.name, static_cast<unsigned long long>(s.request), ts, dur,
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
