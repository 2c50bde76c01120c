#include "src/service/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

namespace auditdb {
namespace service {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsAllLand) {
  Counter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < 10000; ++i) counter.Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), 40000u);
}

TEST(GaugeTest, TracksValueAndAllTimeMax) {
  Gauge gauge;
  gauge.Set(3);
  gauge.Add(4);
  EXPECT_EQ(gauge.value(), 7);
  EXPECT_EQ(gauge.max(), 7);
  gauge.Add(-5);
  EXPECT_EQ(gauge.value(), 2);
  EXPECT_EQ(gauge.max(), 7);  // watermark survives the drop
  gauge.Set(10);
  EXPECT_EQ(gauge.max(), 10);
}

TEST(HistogramTest, EmptyHistogramIsAllZero) {
  Histogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.sum_micros(), 0u);
  EXPECT_EQ(histogram.mean_micros(), 0.0);
  EXPECT_EQ(histogram.QuantileUpperBound(0.5), 0u);
}

TEST(HistogramTest, ObservationsLandInPowerOfTwoBuckets) {
  Histogram histogram;
  histogram.Observe(0);
  histogram.Observe(100);
  histogram.Observe(1000);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_EQ(histogram.sum_micros(), 1100u);
  EXPECT_NEAR(histogram.mean_micros(), 1100.0 / 3.0, 1e-9);
  // All mass at or below the bucket holding 1000µs → [512, 1024).
  EXPECT_LE(histogram.QuantileUpperBound(1.0), 1024u);
  EXPECT_GE(histogram.QuantileUpperBound(1.0), 1000u);
  // The median observation (100µs) sits in [64, 128).
  EXPECT_LE(histogram.QuantileUpperBound(0.5), 128u);
}

TEST(HistogramTest, QuantilesAreMonotone) {
  Histogram histogram;
  for (uint64_t v = 1; v <= 4096; v *= 2) histogram.Observe(v);
  EXPECT_LE(histogram.QuantileUpperBound(0.5),
            histogram.QuantileUpperBound(0.95));
  EXPECT_LE(histogram.QuantileUpperBound(0.95),
            histogram.QuantileUpperBound(0.99));
}

TEST(HistogramTest, QuantilesWithinOneEighthOnUniform) {
  Histogram histogram;
  const uint64_t n = 10000;
  for (uint64_t v = 1; v <= n; ++v) histogram.Observe(v);
  for (double q : {0.50, 0.95, 0.99}) {
    // The rank-th smallest of 1..n is rank itself.
    const auto exact =
        static_cast<uint64_t>(q * static_cast<double>(n - 1)) + 1;
    const uint64_t got = histogram.QuantileUpperBound(q);
    EXPECT_GE(got, exact) << "q=" << q;
    EXPECT_LE(static_cast<double>(got), 1.125 * static_cast<double>(exact))
        << "q=" << q;
  }
}

TEST(HistogramTest, SmallValuesAreExactAndHugeValuesFit) {
  for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    Histogram single;
    single.Observe(v);
    EXPECT_EQ(single.QuantileUpperBound(0.5), v);
  }
  Histogram huge;
  huge.Observe(UINT64_MAX);
  EXPECT_EQ(huge.QuantileUpperBound(1.0), UINT64_MAX);
}

TEST(MetricsRegistryTest, InstrumentPointersAreStable) {
  MetricsRegistry registry;
  Counter* counter = registry.counter("jobs");
  counter->Increment(7);
  // Creating more instruments must not move the first one.
  for (int i = 0; i < 100; ++i) {
    registry.counter("other." + std::to_string(i));
  }
  EXPECT_EQ(registry.counter("jobs"), counter);
  EXPECT_EQ(registry.counter("jobs")->value(), 7u);
  EXPECT_EQ(registry.gauge("depth"), registry.gauge("depth"));
  EXPECT_EQ(registry.histogram("lat"), registry.histogram("lat"));
}

TEST(MetricsRegistryTest, ToJsonRendersEveryInstrumentKind) {
  MetricsRegistry registry;
  registry.counter("pool.jobs")->Increment(3);
  registry.gauge("pool.depth")->Set(5);
  registry.histogram("pool.wait")->Observe(100);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"pool.jobs\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pool.depth\":{\"value\":5,\"max\":5}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"pool.wait\":{\"count\":1"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"p95_micros\""), std::string::npos) << json;
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(MetricsRegistryTest, JsonQuoteEscapesQuotesBackslashesAndControlBytes) {
  // Keys and string values share one escaping routine.
  EXPECT_EQ(JsonObject().Add("net.frames_sent", "ok").str(),
            "{\"net.frames_sent\":\"ok\"}");
  EXPECT_EQ(JsonObject().Add("a\"b\\c", "a\"b\\c").str(),
            "{\"a\\\"b\\\\c\":\"a\\\"b\\\\c\"}");
  const std::string control("x\ny\x01\x1f", 5);
  EXPECT_EQ(JsonObject().Add(control, control).str(),
            "{\"x\\u000ay\\u0001\\u001f\":\"x\\u000ay\\u0001\\u001f\"}");
  // Bytes at and above 0x20 (including UTF-8) pass through unchanged.
  EXPECT_EQ(JsonObject().Add("k", " ~\x7f\xc3\xa9").str(),
            "{\"k\":\" ~\x7f\xc3\xa9\"}");
}

TEST(JsonObjectTest, StringLiteralRendersAsStringNotBool) {
  // A string literal converts to bool before string_view; the writer
  // must still render it as a string.
  EXPECT_EQ(JsonObject().Add("role", "primary").str(),
            "{\"role\":\"primary\"}");
  const char* name = "never";
  EXPECT_EQ(JsonObject().Add("fsync", name).str(), "{\"fsync\":\"never\"}");
  EXPECT_EQ(JsonObject().Add("upstream", std::string("h:1")).str(),
            "{\"upstream\":\"h:1\"}");
  EXPECT_EQ(JsonObject().Add("broken", true).Add("connected", false).str(),
            "{\"broken\":true,\"connected\":false}");
}

TEST(JsonObjectTest, FieldsKeepCallOrderAndIntegerWidths) {
  EXPECT_EQ(JsonObject().str(), "{}");
  EXPECT_EQ(JsonObject()
                .Add("z", uint64_t{18446744073709551615u})
                .Add("a", int64_t{-9223372036854775807 - 1})
                .Add("m", size_t{0})
                .Add("i", -1)
                .str(),
            "{\"z\":18446744073709551615,\"a\":-9223372036854775808,"
            "\"m\":0,\"i\":-1}");
}

TEST(JsonObjectTest, DoublesPrintAtTheStatedDecimals) {
  EXPECT_EQ(JsonObject()
                .Add("mean", 2690.6, 1)
                .Add("ratio", 1.5, 3)
                .Add("rate", 1234.5678, 0)
                .Add("zero", 0.0, 1)
                .str(),
            "{\"mean\":2690.6,\"ratio\":1.500,\"rate\":1235,"
            "\"zero\":0.0}");
}

TEST(JsonObjectTest, NestedValuesComeFromOtherWriters) {
  JsonArray empty;
  EXPECT_EQ(empty.str(), "[]");
  JsonArray rows;
  rows.Add(JsonObject().Add("id", 1).str()).Add(JsonObject().str());
  EXPECT_EQ(JsonObject()
                .AddJson("rows", rows.str())
                .AddJson("none", empty.str())
                .AddJson("inner", JsonObject().Add("k", "v").str())
                .str(),
            "{\"rows\":[{\"id\":1},{}],\"none\":[],"
            "\"inner\":{\"k\":\"v\"}}");
}

TEST(MetricsRegistryTest, EmptyRegistrySerializesToEmptyObject) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.ToJson(), "{}");
}

}  // namespace
}  // namespace service
}  // namespace auditdb
