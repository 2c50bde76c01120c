#include "src/service/metrics.h"

#include <bit>
#include <charconv>

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

/// Appends `text` to *out as a JSON string literal, quotes included.
void AppendQuoted(std::string_view text, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  *out += '"';
  for (char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte < 0x20) {
      out->append("\\u00").append(1, kHex[byte >> 4]);
      *out += kHex[byte & 0xf];
      continue;
    }
    if (c == '"' || c == '\\') *out += '\\';
    *out += c;
  }
  *out += '"';
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

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonObject out;
  for (const auto& [name, c] : counters_) out.Add(name, c->value());
  for (const auto& [name, g] : gauges_) {
    out.AddJson(
        name, JsonObject().Add("value", g->value()).Add("max", g->max()).str());
  }
  for (const auto& [name, h] : histograms_) {
    out.AddJson(name, JsonObject()
                          .Add("count", h->count())
                          .Add("sum_micros", h->sum_micros())
                          .Add("mean_micros", h->mean_micros(), 1)
                          .Add("p50_micros", h->QuantileUpperBound(0.50))
                          .Add("p95_micros", h->QuantileUpperBound(0.95))
                          .Add("p99_micros", h->QuantileUpperBound(0.99))
                          .str());
  }
  return out.str();
}

JsonObject& JsonObject::Add(std::string_view key, std::string_view value) {
  std::string quoted;
  AppendQuoted(value, &quoted);
  return AddJson(key, quoted);
}

JsonObject& JsonObject::Add(std::string_view key, double value,
                            int decimals) {
  char text[512];
  auto [end, ec] = std::to_chars(text, text + sizeof(text), value,
                                 std::chars_format::fixed, decimals);
  return AddJson(key, ec == std::errc() ? std::string_view(text, end - text)
                                        : std::string_view("null"));
}

JsonObject& JsonObject::AddJson(std::string_view key, std::string_view json) {
  if (out_.size() > 1) out_ += ',';
  AppendQuoted(key, &out_);
  out_.append(":").append(json);
  return *this;
}

}  // namespace service
}  // namespace auditdb
