// Golden bytes of every metrics section auditd emits, each built from a
// fixed state through the section's public entry point. The Metrics
// reply is a wire surface (perfbench and operators read it by substring),
// so any change to key order, nesting, number format or escaping shows
// up here as a byte diff.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/audit/audit_index.h"
#include "src/backlog/backlog.h"
#include "src/io/file.h"
#include "src/io/store.h"
#include "src/net/replication.h"
#include "src/net/server.h"
#include "src/net/subscription.h"
#include "src/policy/policy_engine.h"
#include "src/querylog/query_log.h"
#include "src/service/audit_service.h"
#include "src/service/metrics.h"
#include "src/storage/database.h"

namespace auditdb {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

/// End of the JSON value starting at `begin` (an object, array, string
/// or bare scalar), skipping over nested brackets and string contents.
size_t ValueEnd(const std::string& json, size_t begin) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = begin; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
        if (depth == 0) return i + 1;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (depth == 0) return i;
      if (--depth == 0) return i + 1;
    } else if (c == ',' && depth == 0) {
      return i;
    }
  }
  return json.size();
}

/// The top-level keys of a JSON object, in order, with their values.
std::vector<std::pair<std::string, std::string>> TopLevelFields(
    const std::string& json) {
  std::vector<std::pair<std::string, std::string>> fields;
  size_t i = 1;  // past '{'
  while (i < json.size() && json[i] == '"') {
    size_t key_end = ValueEnd(json, i);
    std::string key = json.substr(i + 1, key_end - i - 2);
    size_t value_begin = key_end + 1;  // past ':'
    size_t value_end = ValueEnd(json, value_begin);
    fields.emplace_back(key, json.substr(value_begin, value_end - value_begin));
    i = value_end + 1;  // past ',' or '}'
  }
  return fields;
}

std::string Field(const std::string& json, const std::string& key) {
  for (const auto& [name, value] : TopLevelFields(json)) {
    if (name == key) return value;
  }
  return "<missing " + key + ">";
}

TEST(MetricsGoldenTest, RegistryCounterGaugeHistogram) {
  service::MetricsRegistry registry;
  registry.counter("net.requests.Audit")->Increment(3);
  registry.counter("a\"b\\c")->Increment();
  service::Gauge* gauge = registry.gauge("pool.queue_depth");
  gauge->Set(5);
  gauge->Set(3);
  service::Histogram* histogram = registry.histogram("pool.wait_micros");
  for (uint64_t v : {1, 7, 100, 1000, 12345}) histogram->Observe(v);
  registry.histogram("pool.run_micros");
  EXPECT_EQ(registry.ToJson(),
            "{\"a\\\"b\\\\c\":1,\"net.requests.Audit\":3,"
            "\"pool.queue_depth\":{\"value\":3,\"max\":5},"
            "\"pool.run_micros\":{\"count\":0,\"sum_micros\":0,"
            "\"mean_micros\":0.0,\"p50_micros\":0,\"p95_micros\":0,"
            "\"p99_micros\":0},"
            "\"pool.wait_micros\":{\"count\":5,\"sum_micros\":13453,"
            "\"mean_micros\":2690.6,\"p50_micros\":103,"
            "\"p95_micros\":1023,\"p99_micros\":1023}}");
}

TEST(MetricsGoldenTest, EmptyRegistry) {
  service::MetricsRegistry registry;
  EXPECT_EQ(registry.ToJson(), "{}");
}

TEST(MetricsGoldenTest, AuditIndexStats) {
  audit::AuditIndexStats stats;
  stats.index_lookups = 11;
  stats.index_visited = 7;
  stats.index_skipped = 4;
  stats.index_fallbacks = 1;
  stats.cache_hits = 30;
  stats.cache_misses = 2;
  EXPECT_EQ(stats.ToJson(),
            "{\"lookups\":11,\"visited\":7,\"skipped\":4,\"fallbacks\":1,"
            "\"cache_hits\":30,\"cache_misses\":2}");
}

std::string FreshDir(const std::string& name) {
  io::Env* env = io::Env::Default();
  std::string dir = ::testing::TempDir() + "auditdb_metrics_golden_" + name;
  if (env->FileExists(dir)) {
    auto names = env->ListDir(dir);
    if (names.ok()) {
      for (const auto& entry : *names) {
        env->DeleteFile(io::JoinPath(dir, entry));
      }
    }
  }
  EXPECT_TRUE(env->CreateDirIfMissing(dir).ok());
  return dir;
}

LoggedQuery Entry(int64_t id) {
  LoggedQuery entry;
  entry.id = id;
  entry.timestamp = Ts(100 + id);
  entry.user = "u" + std::to_string(id);
  entry.role = "Doctor";
  entry.purpose = "care";
  entry.sql = "SELECT name FROM P-Personal WHERE pid = " + std::to_string(id);
  return entry;
}

TEST(MetricsGoldenTest, DurableStoreAfterTwoAppends) {
  Database db;
  QueryLog log;
  io::DurableStoreOptions options;
  options.fsync = querylog::FsyncPolicy::kNever;
  auto store = io::DurableStore::Open(io::Env::Default(), FreshDir("store"),
                                      &db, &log, Ts(1), options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (int64_t id = 1; id <= 2; ++id) {
    ASSERT_TRUE((*store)->AppendQuery(Entry(id)).ok());
  }
  EXPECT_EQ((*store)->MetricsJson(),
            "{\"wal_bytes\":166,\"wal_records\":2,\"recovered_records\":0,"
            "\"torn_tail_dropped\":0,\"last_checkpoint_seq\":1,"
            "\"checkpoints\":1,\"checkpoint_failures\":0,\"broken\":false,"
            "\"fsync_policy\":\"never\"}");
}

TEST(MetricsGoldenTest, SubscriptionRegistryAfterPublishes) {
  net::SubscriptionLimits limits;
  limits.push_queue_depth = 2;
  net::SubscriptionRegistry registry(limits);
  ASSERT_TRUE(registry.Subscribe(/*conn_id=*/1, /*expression_id=*/4).ok());
  ASSERT_TRUE(registry.Subscribe(/*conn_id=*/2, /*expression_id=*/4).ok());
  ASSERT_TRUE(registry.Subscribe(/*conn_id=*/2, /*expression_id=*/9).ok());
  for (int64_t log_id = 1; log_id <= 3; ++log_id) {
    registry.Publish(4, net::PushKind::kProgress, log_id, 0.5, false, "");
  }
  registry.Publish(9, net::PushKind::kAlert, 4, 1.0, true, "verdict");
  std::string frames;
  registry.DrainFrames(2, 1 << 20, &frames);
  EXPECT_EQ(registry.MetricsJson(),
            "{\"subscriptions_active\":3,\"pushes_sent\":3,"
            "\"pushes_dropped\":2,\"gap_frames_sent\":1,"
            "\"slow_subscribers_evicted\":0,\"queue_depth_peak\":2,"
            "\"pending_events\":3}");
}

TEST(MetricsGoldenTest, ReplicationHubWithoutFollowers) {
  net::ReplicationHub hub;
  EXPECT_EQ(hub.MetricsJson(),
            "{\"last_shipped\":0,\"followers_active\":0,"
            "\"records_shipped\":0,\"bytes_shipped\":0,"
            "\"acks_received\":0,\"ack_wait_timeouts\":0,"
            "\"followers_evicted\":0,\"followers\":[]}");
}

TEST(MetricsGoldenTest, ReplicationHubWithOneFollower) {
  net::ReplicationHub hub;
  hub.RegisterFollower(/*conn_id=*/7, /*acked_log_id=*/2, {});
  hub.Ship(3, "frame-3");
  hub.Ship(4, "frame-four");
  EXPECT_EQ(hub.MetricsJson(),
            "{\"last_shipped\":4,\"followers_active\":1,"
            "\"records_shipped\":2,\"bytes_shipped\":17,"
            "\"acks_received\":0,\"ack_wait_timeouts\":0,"
            "\"followers_evicted\":0,\"followers\":[{\"conn_id\":7,"
            "\"acked\":2,\"lag_records\":2,\"lag_bytes\":17,"
            "\"last_ack_latency_ms\":-1}]}");
}

TEST(MetricsGoldenTest, ReplicaSessionEscapesItsUpstream) {
  net::ReplicaSession session("pri\"mary\\1:7000", net::ReplicaApplier{});
  EXPECT_EQ(session.MetricsJson(),
            "{\"upstream\":\"pri\\\"mary\\\\1:7000\",\"connected\":false,"
            "\"reconnects\":0,\"resyncs\":0,\"records_applied\":0,"
            "\"bytes_received\":0,\"apply_errors\":0}");
}

/// A never-started server over a small world: one table whose name needs
/// escaping, three logged queries of two shapes, a durable store and a
/// policy engine, so every optional section is present.
TEST(MetricsGoldenTest, ServerReplyVersionsAndReplication) {
  Database db;
  Backlog backlog;
  backlog.Attach(&db);
  ASSERT_TRUE(db.CreateTable(TableSchema("a\"b\\c", {{"k", ValueType::kInt}}))
                  .ok());
  ASSERT_TRUE(db.CreateTable(TableSchema("T", {{"x", ValueType::kInt}})).ok());
  auto tid = db.Insert("a\"b\\c", {Value::Int(1)}, Ts(2));
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE(db.Insert("a\"b\\c", {Value::Int(2)}, Ts(3)).ok());
  ASSERT_TRUE(db.Update("a\"b\\c", *tid, {Value::Int(5)}, Ts(4)).ok());
  QueryLog log;
  log.Append("SELECT x FROM T WHERE x = 1", Ts(10), "u", "r", "p");
  log.Append("SELECT x FROM T WHERE x = 2", Ts(11), "u", "r", "p");
  log.Append("SELECT x FROM T WHERE x = 1", Ts(12), "u", "r", "p");

  io::DurableStoreOptions store_options;
  store_options.fsync = querylog::FsyncPolicy::kNever;
  Database store_db;
  QueryLog store_log;
  auto store =
      io::DurableStore::Open(io::Env::Default(), FreshDir("server"),
                             &store_db, &store_log, Ts(1), store_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  policy::PolicyEngine policy;

  service::AuditService service(&db, &backlog, &log);
  net::AuditServerOptions options;
  options.durable_store = store->get();
  options.policy = &policy;
  net::AuditServer server(&service, &db, &backlog, &log, options);
  const std::string reply = server.MetricsJson();

  std::vector<std::string> keys;
  for (const auto& field : TopLevelFields(reply)) keys.push_back(field.first);
  EXPECT_EQ(keys, (std::vector<std::string>{"server", "service", "index",
                                            "durability", "push", "policy",
                                            "replication", "versions"}))
      << reply;
  EXPECT_EQ(Field(reply, "durability"), (*store)->MetricsJson());
  EXPECT_EQ(Field(reply, "policy"), policy.MetricsJson());
  EXPECT_EQ(Field(reply, "service"), service.MetricsJson());
  EXPECT_EQ(Field(reply, "index"),
            "{\"lookups\":0,\"visited\":0,\"skipped\":0,\"fallbacks\":0,"
            "\"cache_hits\":0,\"cache_misses\":0}");
  EXPECT_EQ(Field(reply, "push"),
            "{\"subscriptions_active\":0,\"pushes_sent\":0,"
            "\"pushes_dropped\":0,\"gap_frames_sent\":0,"
            "\"slow_subscribers_evicted\":0,\"queue_depth_peak\":0,"
            "\"pending_events\":0}");
  EXPECT_EQ(Field(reply, "replication"),
            "{\"role\":\"primary\",\"ack_policy\":\"none\","
            "\"advertise\":\"\",\"applied_log_id\":3,\"load_generation\":0,"
            "\"hub\":{\"last_shipped\":0,\"followers_active\":0,"
            "\"records_shipped\":0,\"bytes_shipped\":0,"
            "\"acks_received\":0,\"ack_wait_timeouts\":0,"
            "\"followers_evicted\":0,\"followers\":[]}}");
  EXPECT_EQ(Field(reply, "versions"),
            "{\"catalog_epoch\":2,\"tables\":{"
            "\"T\":{\"epoch\":0,\"live_versions\":0,"
            "\"versions_published\":0,\"cow_rows\":0,\"cow_bytes\":0,"
            "\"columnar_builds\":0,\"columnar_hits\":0,"
            "\"join_index_builds\":0,\"join_index_hits\":0},"
            "\"a\\\"b\\\\c\":{\"epoch\":3,\"live_versions\":0,"
            "\"versions_published\":0,\"cow_rows\":0,\"cow_bytes\":0,"
            "\"columnar_builds\":0,\"columnar_hits\":0,"
            "\"join_index_builds\":0,\"join_index_hits\":0}},"
            "\"log_entries\":3,\"distinct_shapes\":2,"
            "\"shape_dedup_ratio\":1.500}");
}

}  // namespace
}  // namespace auditdb
