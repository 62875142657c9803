#include "bench_util.h"

#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

int SpanRecorder::Begin(const char* name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, NowNs(), 0, open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

int64_t SpanRecorder::End(int id) {
  spans_[id].end_ns = NowNs();
  // Spans close in LIFO order.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  return spans_[id].end_ns - spans_[id].start_ns;
}

int64_t SpanRecorder::TotalNs(const std::string& name) const {
  int64_t total = 0;
  for (const Span& s : spans_) {
    if (name == s.name) total += s.end_ns - s.start_ns;
  }
  return total;
}

bool SpanRecorder::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d}}\n",
                 i == 0 ? "" : ",", s.name, (s.start_ns - t0) / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, i, s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
