// In-memory span recorder for the benchmark's traced runs.
//
// A span is one call into a rapt layer, timed from the benchmark's side of
// the call: name (the layer), start, end, the span that was open around it,
// and a trace id shared by every span of one loop or one request. Spans stay
// in memory until the run ends; then they are written out as JSON lines and
// folded into per-layer self time (a span's duration minus the part of it
// its child spans cover). A disabled recorder records nothing, so the
// untraced runs pay one branch per layer call.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  int parent = -1;  ///< index into the same recorder, -1 for a root
  std::int64_t traceId = 0;
};

/// Not thread-safe: one recorder per thread, merged with `absorb` at the end.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span; returns its handle (-1 when
  /// disabled). `name` must outlive the recorder (string literals).
  int begin(const char* name, std::int64_t traceId) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, nowNs(), 0, parent, traceId});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int handle) {
    if (handle < 0) return;
    spans_[static_cast<std::size_t>(handle)].endNs = nowNs();
    open_.pop_back();
  }

  /// RAII form of begin/end.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, std::int64_t traceId)
        : rec_(rec), handle_(rec.begin(name, traceId)) {}
    ~Scope() { rec_.end(handle_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    int handle_;
  };

  /// Appends `other`'s spans (re-basing their parent indices).
  void absorb(const SpanRecorder& other) {
    const int base = static_cast<int>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(s);
    }
  }

  /// Self time per span name, in nanoseconds.
  [[nodiscard]] std::map<std::string, std::int64_t> selfNs() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].endNs - spans_[i].startNs;
    for (const Span& s : spans_)
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.endNs - s.startNs;
    std::map<std::string, std::int64_t> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
    return out;
  }

  /// Writes one JSON object per span. Returns false on I/O failure.
  [[nodiscard]] bool writeJsonLines(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"trace\":" << s.traceId
          << ",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
          << ",\"parent\":" << s.parent << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
