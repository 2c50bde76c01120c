#ifndef AUDITDB_SERVICE_METRICS_H_
#define AUDITDB_SERVICE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>

namespace auditdb {
namespace service {

/// The one JSON writer: builds one object field by field, in call order.
/// Keys and string values are escaped here (`"` and `\` get a backslash,
/// control bytes become \u00XX), so no caller spells JSON syntax. A
/// nested object or array is a value another writer produced (AddJson).
/// Every metrics section and bench artifact is built with it.
class JsonObject {
 public:
  template <typename Int>
    requires(std::is_integral_v<Int> && !std::is_same_v<Int, bool>)
  JsonObject& Add(std::string_view key, Int value) {
    return AddJson(key, std::to_string(value));
  }
  JsonObject& Add(std::string_view key, bool value) {
    return AddJson(key, value ? "true" : "false");
  }
  JsonObject& Add(std::string_view key, std::string_view value);
  /// A string literal would otherwise convert to bool, not string_view.
  JsonObject& Add(std::string_view key, const char* value) {
    return Add(key, std::string_view(value));
  }
  /// `value` in fixed notation with `decimals` digits after the point.
  JsonObject& Add(std::string_view key, double value, int decimals);
  /// A double must state its decimals (it would otherwise become bool).
  JsonObject& Add(std::string_view key, double value) = delete;
  /// `json` is a complete value from another JsonObject or JsonArray.
  JsonObject& AddJson(std::string_view key, std::string_view json);

  /// The object built so far, closed.
  std::string str() const { return out_ + '}'; }

 private:
  std::string out_ = "{";
};

/// A JSON array whose elements other writers produced.
class JsonArray {
 public:
  JsonArray& Add(std::string_view json) {
    out_.append(out_.size() > 1 ? "," : "").append(json);
    return *this;
  }
  std::string str() const { return out_ + ']'; }

 private:
  std::string out_ = "[";
};

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

  /// One JSON object, keys sorted per kind: counters as numbers, gauges as
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
