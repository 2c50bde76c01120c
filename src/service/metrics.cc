#include "src/service/metrics.h"

#include <bit>
#include <cstdio>

namespace auditdb {
namespace service {

namespace {

constexpr size_t kSub = Histogram::kSubBuckets;
/// log2(kSub): the first octave split into kSub buckets is 2^kSubShift.
constexpr int kSubShift = std::countr_zero(kSub);

/// Index of the bucket holding `micros`: the value itself below kSub,
/// else its octave's first bucket plus which kSub-th of the octave it
/// falls in.
size_t BucketIndex(uint64_t micros) {
  if (micros < kSub) return static_cast<size_t>(micros);
  const int e = std::bit_width(micros) - 1;
  const int shift = e - kSubShift;
  const size_t sub = static_cast<size_t>(micros >> shift) - kSub;
  return kSub + static_cast<size_t>(shift) * kSub + sub;
}

/// Largest value bucket i holds.
uint64_t BucketUpperBound(size_t i) {
  if (i < kSub) return i;
  const size_t shift = (i - kSub) / kSub;
  const uint64_t lower = uint64_t{kSub + (i - kSub) % kSub} << shift;
  return lower + ((uint64_t{1} << shift) - 1);
}

}  // namespace

void Histogram::Observe(uint64_t micros) {
  buckets_[BucketIndex(micros)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(micros, std::memory_order_relaxed);
}

double Histogram::mean_micros() const {
  uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum_micros()) /
                            static_cast<double>(n);
}

uint64_t Histogram::QuantileUpperBound(double q) const {
  uint64_t n = count();
  if (n == 0) return 0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(n - 1)) + 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) return BucketUpperBound(i);
  }
  return BucketUpperBound(kNumBuckets - 1);
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::string JsonQuote(const std::string& text) {
  std::string out = "\"";
  out.reserve(text.size() + 2);
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x",
                    static_cast<unsigned>(c));
      out += escaped;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{";
  bool first = true;
  auto append = [&out, &first](const std::string& key,
                               const std::string& value) {
    if (!first) out += ",";
    first = false;
    out += JsonQuote(key) + ":" + value;
  };
  for (const auto& [name, c] : counters_) {
    append(name, std::to_string(c->value()));
  }
  for (const auto& [name, g] : gauges_) {
    append(name, "{\"value\":" + std::to_string(g->value()) +
                     ",\"max\":" + std::to_string(g->max()) + "}");
  }
  for (const auto& [name, h] : histograms_) {
    char mean[32];
    std::snprintf(mean, sizeof(mean), "%.1f", h->mean_micros());
    append(name,
           "{\"count\":" + std::to_string(h->count()) +
               ",\"sum_micros\":" + std::to_string(h->sum_micros()) +
               ",\"mean_micros\":" + mean +
               ",\"p50_micros\":" +
               std::to_string(h->QuantileUpperBound(0.50)) +
               ",\"p95_micros\":" +
               std::to_string(h->QuantileUpperBound(0.95)) +
               ",\"p99_micros\":" +
               std::to_string(h->QuantileUpperBound(0.99)) + "}");
  }
  out += "}";
  return out;
}

}  // namespace service
}  // namespace auditdb
