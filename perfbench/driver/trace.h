#ifndef AUDITDB_PERFBENCH_TRACE_H_
#define AUDITDB_PERFBENCH_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "driver/stats.h"

namespace perfbench {

/// In-memory span recorder for the traced run. Spans are recorded by
/// the benchmark around its own calls into each layer's public
/// functions; each carries the identifier of the operation it belongs
/// to (one audit, one replayed write) and its parent span, and all are
/// kept until the run ends. Single-threaded: one driver thread records.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t op = 0;
    int parent = -1;
    Clock::time_point start;
    Clock::time_point end;
  };

  /// Opens a span under the innermost open one; returns its index.
  int Begin(const std::string& name, int64_t op) {
    int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, op, parent, Clock::now(), {}});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int index) {
    spans_[index].end = Clock::now();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
  }
  /// Adds `value` to a per-operation counter recorded at a layer
  /// boundary (rows produced, events replayed, calls made).
  void Count(const std::string& name, int64_t op, double value) {
    counts_[name][op] += value;
  }

  /// Per-operation total milliseconds of every span named `name`,
  /// one sample per operation that recorded one.
  Samples PerOpMillis(const std::string& name) const {
    std::map<int64_t, double> per_op;
    for (const auto& span : spans_) {
      if (span.name == name) {
        per_op[span.op] += MicrosBetween(span.start, span.end) / 1000.0;
      }
    }
    Samples out;
    for (const auto& [op, ms] : per_op) out.Add(ms);
    return out;
  }
  /// Every single span duration named `name`, in microseconds.
  Samples SpanMicros(const std::string& name) const {
    Samples out;
    for (const auto& span : spans_) {
      if (span.name == name) out.Add(MicrosBetween(span.start, span.end));
    }
    return out;
  }
  Samples PerOpCount(const std::string& name) const {
    Samples out;
    auto it = counts_.find(name);
    if (it == counts_.end()) return out;
    for (const auto& [op, value] : it->second) out.Add(value);
    return out;
  }

  /// Writes every span as one JSON object per line (times in
  /// microseconds from the first span). Returns false on IO failure.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    Clock::time_point origin =
        spans_.empty() ? Clock::now() : spans_.front().start;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"id\":%zu,\"name\":\"%s\",\"op\":%lld,\"parent\":%d,"
                   "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                   i, s.name.c_str(), static_cast<long long>(s.op), s.parent,
                   MicrosBetween(origin, s.start),
                   MicrosBetween(origin, s.end));
    }
    return std::fclose(out) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::map<std::string, std::map<int64_t, double>> counts_;
};

/// Scoped span; a null tracer records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t op)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Runs `call` inside a span and returns its result.
template <typename Call>
auto Traced(Tracer* tracer, const std::string& name, int64_t op,
            Call&& call) {
  ScopedSpan span(tracer, name, op);
  return call();
}

}  // namespace perfbench

#endif  // AUDITDB_PERFBENCH_TRACE_H_
