#ifndef AUDITDB_PERFBENCH_STATS_H_
#define AUDITDB_PERFBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline Clock::duration ToDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

inline double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Raw samples with exact order statistics. Percentiles use the
/// nearest-rank definition on the sorted samples (the reported value is
/// always one that was measured); there is no bucketing.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Nearest-rank percentile, q in (0, 1]. NaN when empty.
  double Percentile(double q) const {
    if (values_.empty()) return std::nan("");
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
    rank = std::clamp<size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
  }
  double Median() const { return Percentile(0.5); }
  /// Arithmetic mean. NaN when empty.
  double Mean() const {
    if (values_.empty()) return std::nan("");
    double sum = 0;
    for (double v : values_) sum += v;
    return sum / static_cast<double>(values_.size());
  }
  /// Samples strictly above the q-percentile's rank: the count the
  /// "at least ten samples beyond the tail" rule is checked against.
  size_t BeyondRank(double q) const {
    size_t rank = static_cast<size_t>(std::ceil(q * values_.size()));
    return values_.size() - std::min(rank, values_.size());
  }

 private:
  std::vector<double> values_;
};

/// Samples shared by several threads.
class SharedSamples {
 public:
  void Add(double v) {
    std::lock_guard<std::mutex> lock(mutex_);
    samples_.Add(v);
  }
  Samples Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_;
  }

 private:
  std::mutex mutex_;
  Samples samples_;
};

}  // namespace perfbench

#endif  // AUDITDB_PERFBENCH_STATS_H_
