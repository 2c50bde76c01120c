#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "src/io/file.h"
#include "src/io/store.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/workload/hospital.h"

namespace auditdb {
namespace net {
namespace {

using std::chrono::milliseconds;

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

constexpr const char* kAuditExpr =
    "DURING 1/1/1970 to 2/1/1970 "
    "DATA-INTERVAL 1/1/1970 to 2/1/1970 "
    "AUDIT (name, disease) FROM P-Personal, P-Health "
    "WHERE P-Personal.pid = P-Health.pid AND disease = 'diabetic'";

std::string ScratchDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "auditdb_cluster_" + name;
  io::Env* env = io::Env::Default();
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

bool WaitUntil(const std::function<bool()>& pred,
               milliseconds timeout = milliseconds(5000)) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(milliseconds(10));
  }
  return pred();
}

/// One cluster node: in-memory stores (optionally durable), an audit
/// service, and a server wired for replication.
struct Node {
  Database db;
  Backlog backlog;
  QueryLog log;
  std::unique_ptr<io::DurableStore> store;
  std::unique_ptr<service::AuditService> service;
  std::unique_ptr<AuditServer> server;
  /// server->applied_log_id() just before Start(): what recovery alone
  /// restored, before a replica's sync can move it.
  int64_t applied_before_start = 0;

  struct Config {
    size_t fixture_patients = 0;
    std::string data_dir;         // empty = no durable store
    std::string replicate_from;   // empty = primary
    ReplAckPolicy repl_ack = ReplAckPolicy::kNone;
  };

  explicit Node(const Config& config) {
    backlog.Attach(&db);
    if (config.fixture_patients > 0) {
      workload::HospitalConfig hospital;
      hospital.num_patients = config.fixture_patients;
      hospital.seed = 2008;
      EXPECT_TRUE(workload::PopulateHospital(&db, hospital, Ts(1)).ok());
    }
    if (!config.data_dir.empty()) {
      auto opened = io::DurableStore::Open(io::Env::Default(),
                                           config.data_dir, &db, &log,
                                           Ts(1));
      EXPECT_TRUE(opened.ok()) << opened.status().ToString();
      store = std::move(*opened);
    }
    service = std::make_unique<service::AuditService>(&db, &backlog, &log);
    AuditServerOptions options;
    options.durable_store = store.get();
    options.replicate_from = config.replicate_from;
    options.repl_ack = config.repl_ack;
    options.repl_ack_timeout = milliseconds(5000);
    options.replication = true;
    server = std::make_unique<AuditServer>(service.get(), &db, &backlog,
                                           &log, options);
    applied_before_start = server->applied_log_id();
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  std::string address() const {
    return server->host() + ":" + std::to_string(server->port());
  }
};

TEST(ClusterTest, ReplicaBootstrapsAndServesByteIdenticalAudits) {
  Node::Config primary_config;
  primary_config.fixture_patients = 12;
  primary_config.repl_ack = ReplAckPolicy::kAll;
  Node primary(primary_config);

  Node::Config replica_config;
  replica_config.replicate_from = primary.address();
  Node replica(replica_config);
  EXPECT_TRUE(replica.server->is_replica());
  EXPECT_EQ(replica.server->replication_upstream(), primary.address());

  // The empty replica bootstraps the fixture from the primary's
  // checkpoint manifest.
  ASSERT_TRUE(WaitUntil([&] {
    return primary.server->follower_count() == 1;
  }));

  AuditClient writer(primary.server->host(), primary.server->port());
  for (int i = 0; i < 5; ++i) {
    auto result = writer.ExecuteQuery(
        "SELECT name FROM P-Personal WHERE pid = 'p" + std::to_string(i) +
            "'",
        "alice", "Nurse", "treatment", Ts(100 + i));
    // repl_ack=all: the OK itself proves the follower holds the write.
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->log_id, i + 1);
  }
  EXPECT_EQ(replica.server->applied_log_id(), 5);
  EXPECT_EQ(replica.log.size(), 5u);

  // The replication contract: a follower that applied the same prefix
  // answers audits byte-identically.
  AuditClient reader(replica.server->host(), replica.server->port());
  auto on_primary = writer.Audit(kAuditExpr, Ts(1000));
  auto on_replica = reader.Audit(kAuditExpr, Ts(1000));
  ASSERT_TRUE(on_primary.ok()) << on_primary.status().ToString();
  ASSERT_TRUE(on_replica.ok()) << on_replica.status().ToString();
  EXPECT_EQ(on_primary->canonical, on_replica->canonical);
  EXPECT_FALSE(on_primary->canonical.empty());

  // Role surfaces in Health on both sides.
  auto primary_health = writer.Health();
  ASSERT_TRUE(primary_health.ok());
  EXPECT_NE(primary_health->find("role=primary"), std::string::npos)
      << *primary_health;
  EXPECT_NE(primary_health->find("followers=1"), std::string::npos);
  auto replica_health = reader.Health();
  ASSERT_TRUE(replica_health.ok());
  EXPECT_NE(replica_health->find("role=replica"), std::string::npos)
      << *replica_health;
  EXPECT_NE(replica_health->find("connected=1"), std::string::npos);

  // And in the metrics JSON.
  auto metrics = writer.MetricsJson();
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("\"replication\""), std::string::npos);
  EXPECT_NE(metrics->find("\"role\":\"primary\""), std::string::npos);

  // Writes on the replica bounce with the primary's address. (A default
  // client would follow the redirect; disable it to see the raw
  // rejection.)
  AuditClientOptions raw;
  raw.follow_not_primary = false;
  AuditClient direct(replica.server->host(), replica.server->port(), raw);
  auto rejected = direct.ExecuteQuery("SELECT name FROM P-Personal",
                                      "mallory", "Nurse", "care", Ts(200));
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(IsNotPrimaryStatus(rejected.status()))
      << rejected.status().ToString();
  EXPECT_EQ(NotPrimaryAddress(rejected.status()), primary.address());
}

TEST(ClusterTest, LoadDumpDeltasReplicate) {
  Node::Config primary_config;
  primary_config.fixture_patients = 6;
  primary_config.repl_ack = ReplAckPolicy::kAll;
  Node primary(primary_config);
  Node::Config replica_config;
  replica_config.replicate_from = primary.address();
  Node replica(replica_config);
  ASSERT_TRUE(WaitUntil([&] {
    return primary.server->follower_count() == 1;
  }));

  AuditClient writer(primary.server->host(), primary.server->port());
  ASSERT_TRUE(writer
                  .LoadQueryLogDump(
                      "QUERY 1|777|bob|Doctor|care|SELECT disease FROM "
                      "P-Health\n")
                  .ok());
  ASSERT_TRUE(WaitUntil([&] {
    return replica.server->applied_log_id() == 1;
  }));
  // A post-load write still lines up (ids extend the loaded log).
  auto result = writer.ExecuteQuery("SELECT name FROM P-Personal", "alice",
                                    "Nurse", "treatment", Ts(100));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->log_id, 2);
  EXPECT_EQ(replica.server->applied_log_id(), 2);
  EXPECT_EQ(replica.log.Entry(0).user, "bob");
}

TEST(ClusterTest, ReplicaCountsAFailedObserveReexecution) {
  // A replica applies shipped queries without executing them, so its
  // online monitor is the first to run them against the replica's own
  // rows. Here only the replica holds rows: a query that executed
  // cleanly on the primary's empty tables fails on the replica's (a type
  // error per row). The observation must fail and be counted — a query
  // that was never executed must not clear.
  Node::Config primary_config;
  primary_config.repl_ack = ReplAckPolicy::kAll;
  Node primary(primary_config);
  workload::HospitalConfig schema_only;
  schema_only.num_patients = 0;
  ASSERT_TRUE(
      workload::PopulateHospital(&primary.db, schema_only, Ts(1)).ok());
  Node::Config replica_config;
  replica_config.fixture_patients = 12;
  replica_config.replicate_from = primary.address();
  Node replica(replica_config);
  ASSERT_TRUE(WaitUntil([&] {
    return primary.server->follower_count() == 1;
  }));

  AuditClient subscriber(replica.server->host(), replica.server->port());
  auto subscription =
      subscriber.Subscribe(kAuditExpr, Ts(10), [](const PushEvent&) {});
  ASSERT_TRUE(subscription.ok()) << subscription.status().ToString();

  AuditClient writer(primary.server->host(), primary.server->port());
  auto result = writer.ExecuteQuery(
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND P-Personal.pid / 0 = 1",
      "alice", "Nurse", "treatment", Ts(100));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(WaitUntil([&] {
    return replica.server->MetricsJson().find(
               "\"net.push_observe_errors\":1") != std::string::npos;
  })) << replica.server->MetricsJson();
}

TEST(ClusterTest, MultiEndpointClientFollowsNotPrimaryRedirects) {
  Node::Config primary_config;
  primary_config.fixture_patients = 6;
  primary_config.repl_ack = ReplAckPolicy::kAll;
  Node primary(primary_config);
  Node::Config replica_config;
  replica_config.replicate_from = primary.address();
  Node replica(replica_config);
  ASSERT_TRUE(WaitUntil([&] {
    return primary.server->follower_count() == 1;
  }));

  // The client only knows the replica; the write redirects to the
  // primary the NOT_PRIMARY rejection names — safely, because the
  // replica rejected before any side effect.
  AuditClient client({replica.address()});
  auto result = client.ExecuteQuery("SELECT name FROM P-Personal", "alice",
                                    "Nurse", "treatment", Ts(100));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->log_id, 1);
  EXPECT_EQ(client.endpoint(), primary.address());
  // The learned primary joined the rotation.
  EXPECT_EQ(client.endpoints().size(), 2u);
}

TEST(ClusterTest, ReplicaCatchesUpFromItsDurablePositionAfterACrash) {
  std::string primary_dir = ScratchDir("catchup_primary");
  std::string replica_dir = ScratchDir("catchup_replica");

  Node::Config primary_config;
  primary_config.fixture_patients = 8;
  primary_config.data_dir = primary_dir;
  Node primary(primary_config);
  AuditClient writer(primary.server->host(), primary.server->port());

  {
    Node::Config replica_config;
    replica_config.data_dir = replica_dir;
    replica_config.replicate_from = primary.address();
    Node replica(replica_config);
    ASSERT_TRUE(WaitUntil([&] {
      return primary.server->follower_count() == 1;
    }));
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(writer
                      .ExecuteQuery("SELECT name FROM P-Personal WHERE "
                                    "pid = 'p" +
                                        std::to_string(i) + "'",
                                    "alice", "Nurse", "treatment",
                                    Ts(100 + i))
                      .ok());
    }
    ASSERT_TRUE(WaitUntil([&] {
      return replica.server->applied_log_id() == 3;
    }));
    // "Crash" the replica: tear the server down mid-cluster.
    replica.server->Shutdown();
  }
  ASSERT_TRUE(WaitUntil([&] {
    return primary.server->follower_count() == 0;
  }));

  // The primary keeps committing while the replica is down.
  for (int i = 3; i < 6; ++i) {
    ASSERT_TRUE(writer
                    .ExecuteQuery("SELECT name FROM P-Personal WHERE "
                                  "pid = 'p" +
                                      std::to_string(i) + "'",
                                  "alice", "Nurse", "treatment",
                                  Ts(100 + i))
                    .ok());
  }

  // The revived replica recovers its durable prefix (3 records) and
  // handshakes from there: the primary ships only the missing suffix.
  Node::Config revived_config;
  revived_config.data_dir = replica_dir;
  revived_config.replicate_from = primary.address();
  Node revived(revived_config);
  EXPECT_EQ(revived.applied_before_start, 3);  // recovered, pre-sync
  ASSERT_TRUE(WaitUntil([&] {
    return revived.server->applied_log_id() == 6;
  }));

  AuditClient reader(revived.server->host(), revived.server->port());
  auto on_primary = writer.Audit(kAuditExpr, Ts(1000));
  auto on_replica = reader.Audit(kAuditExpr, Ts(1000));
  ASSERT_TRUE(on_primary.ok()) << on_primary.status().ToString();
  ASSERT_TRUE(on_replica.ok()) << on_replica.status().ToString();
  EXPECT_EQ(on_primary->canonical, on_replica->canonical);
}

TEST(ClusterTest, PromoteTurnsAReplicaIntoAWritablePrimary) {
  Node::Config primary_config;
  primary_config.fixture_patients = 6;
  primary_config.repl_ack = ReplAckPolicy::kAll;
  Node primary(primary_config);
  Node::Config replica_config;
  replica_config.replicate_from = primary.address();
  Node replica(replica_config);
  ASSERT_TRUE(WaitUntil([&] {
    return primary.server->follower_count() == 1;
  }));
  AuditClient writer(primary.server->host(), primary.server->port());
  ASSERT_TRUE(writer
                  .ExecuteQuery("SELECT name FROM P-Personal", "alice",
                                "Nurse", "treatment", Ts(100))
                  .ok());
  EXPECT_EQ(replica.server->applied_log_id(), 1);

  // Failover: the old primary dies; a supervisor promotes the follower.
  primary.server->Shutdown();
  AuditClient admin(replica.server->host(), replica.server->port());
  auto promoted = admin.RoundTrip(
      Message{MessageType::kPromoteRequest, EncodeFields({"primary"})});
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(promoted->payload, "primary");
  EXPECT_FALSE(replica.server->is_replica());

  // The promoted node accepts writes — no acked write was lost, so the
  // new write extends the replicated prefix.
  auto result = admin.ExecuteQuery("SELECT disease FROM P-Health", "bob",
                                   "Doctor", "research", Ts(200));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->log_id, 2);

  // Promotion is idempotent.
  auto again = admin.RoundTrip(
      Message{MessageType::kPromoteRequest, EncodeFields({"primary"})});
  ASSERT_TRUE(again.ok());
}

TEST(ClusterTest, QuorumAckToleratesOneSlowFollowerOfTwo) {
  Node::Config primary_config;
  primary_config.fixture_patients = 6;
  primary_config.repl_ack = ReplAckPolicy::kQuorum;
  Node primary(primary_config);
  Node::Config replica_config;
  replica_config.replicate_from = primary.address();
  Node fast(replica_config);
  Node slow(replica_config);
  ASSERT_TRUE(WaitUntil([&] {
    return primary.server->follower_count() == 2;
  }));

  // Quorum over {primary, 2 followers} needs 1 follower ack; even with
  // both healthy the write must complete promptly, and the acked write
  // is on at least one follower afterwards.
  AuditClient writer(primary.server->host(), primary.server->port());
  auto result = writer.ExecuteQuery("SELECT name FROM P-Personal", "alice",
                                    "Nurse", "treatment", Ts(100));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(WaitUntil([&] {
    return fast.server->applied_log_id() == 1 ||
           slow.server->applied_log_id() == 1;
  }));
}

}  // namespace
}  // namespace net
}  // namespace auditdb
