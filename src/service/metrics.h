#ifndef AUDITDB_SERVICE_METRICS_H_
#define AUDITDB_SERVICE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace auditdb {
namespace service {

/// `text` as a JSON string literal, quotes included: `"` and `\` are
/// backslash-escaped and control bytes become \u00XX.
/// Every metrics emitter that interpolates a string (table names, peer
/// addresses, metric names) goes through it.
std::string JsonQuote(const std::string& text);

/// Monotonically increasing event count (jobs submitted, completed,
/// rejected, ...). Lock-free; safe to bump from any worker.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous signed level (queue depth, in-flight jobs) with an
/// all-time maximum, so watermarks survive the moment that caused them.
class Gauge {
 public:
  void Set(int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    UpdateMax(v);
  }
  void Add(int64_t delta) {
    int64_t now = value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    UpdateMax(now);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  int64_t max() const { return max_.load(std::memory_order_relaxed); }

 private:
  void UpdateMax(int64_t v) {
    int64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

/// Latency distribution over log-linear microsecond buckets: values
/// below kSubBuckets get one bucket each, and every power-of-two octave
/// [2^e, 2^(e+1)) above is split into kSubBuckets equal-width buckets.
/// A bucket is at most 1/kSubBuckets of its lower bound wide, so a
/// quantile read off its upper bound overstates the observation by at
/// most 12.5 %. Observe is lock-free (relaxed atomics only), cheap
/// enough for per-job timing.
class Histogram {
 public:
  static constexpr size_t kSubBuckets = 8;
  /// Exact buckets 0..7, then 8 per octave for 2^3 .. 2^63.
  static constexpr size_t kNumBuckets = kSubBuckets + (64 - 3) * kSubBuckets;

  void Observe(uint64_t micros);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum_micros() const {
    return sum_.load(std::memory_order_relaxed);
  }
  double mean_micros() const;
  /// Upper bound (µs) of the bucket containing quantile `q` in [0,1];
  /// 0 when empty.
  uint64_t QuantileUpperBound(double q) const;

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Named metrics for one service instance. Instruments are created on
/// first use and live as long as the registry; returned pointers are
/// stable, so hot paths resolve a name once and bump the pointer.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// One JSON object, keys sorted: counters as numbers, gauges as
  /// {"value","max"}, histograms as {"count","sum_micros","mean_micros",
  /// "p50_micros","p95_micros","p99_micros"}.
  std::string ToJson() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace service
}  // namespace auditdb

#endif  // AUDITDB_SERVICE_METRICS_H_
