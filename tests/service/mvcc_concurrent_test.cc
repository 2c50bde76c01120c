/// Concurrency contract of the MVCC read path: audits pin a snapshot
/// (table versions + log/backlog prefixes) and must produce verdicts
/// byte-identical (AuditReport::CanonicalString) to a quiesced serial
/// run of the same state — while writer threads commit mutations
/// underneath them. Runs under ThreadSanitizer in CI
/// (tools/run_ci.sh stage 3), where it doubles as the race detector for
/// the snapshot/COW/epoch machinery.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/audit/audit_parser.h"
#include "src/audit/auditor.h"
#include "src/engine/executor.h"
#include "src/service/audit_service.h"
#include "src/workload/generator.h"
#include "src/workload/hospital.h"

namespace auditdb {
namespace service {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

const char* const kAudit =
    "DURING 1/1/1970 to 2/1/1970 "
    "AUDIT (name,disease) FROM P-Personal, P-Health "
    "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'";

const char* const kThresholdAudit =
    "DURING 1/1/1970 to 2/1/1970 "
    "THRESHOLD 5 AUDIT (zipcode),[disease] FROM P-Personal, P-Health "
    "WHERE P-Personal.pid = P-Health.pid";

class MvccConcurrentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = std::make_unique<World>();
    world_->backlog.Attach(&world_->db);
    workload::HospitalConfig hospital;
    hospital.num_patients = 60;
    hospital.seed = 23;
    ASSERT_TRUE(
        workload::PopulateHospital(&world_->db, hospital, Ts(1)).ok());
    workload::WorkloadConfig config;
    config.num_queries = 150;
    config.start = Ts(100);
    config.seed = 23;
    ASSERT_TRUE(
        workload::GenerateWorkload(&world_->log, config, hospital).ok());
  }

  struct World {
    Database db;
    Backlog backlog;
    QueryLog log;
  };
  std::unique_ptr<World> world_;

  /// `writers` threads, each committing `per_writer` timestamped
  /// mutations (inserts + updates on the audited tables).
  std::vector<std::thread> StartWriters(size_t writers, int per_writer) {
    std::vector<std::thread> out;
    for (size_t w = 0; w < writers; ++w) {
      out.emplace_back([this, w, per_writer] {
        for (int i = 0; i < per_writer; ++i) {
          int64_t seq = static_cast<int64_t>(w) * per_writer + i;
          auto tid = world_->db.Insert(
              "P-Personal",
              {Value::String("w" + std::to_string(seq)),
               Value::String("Writer"), Value::Int(40),
               Value::String("F"), Value::String("99999"),
               Value::String("W1")},
              Ts(2000 + seq));
          ASSERT_TRUE(tid.ok()) << tid.status().ToString();
          ASSERT_TRUE(world_->db
                          .UpdateColumn("P-Personal", *tid, "zipcode",
                                        Value::String("11111"),
                                        Ts(3000 + seq))
                          .ok());
        }
      });
    }
    return out;
  }
};

TEST_F(MvccConcurrentTest, PinnedAuditsAreByteIdenticalUnderWrites) {
  // Quiesced baseline: serial audit of the pre-write state.
  audit::Auditor auditor(&world_->db, &world_->backlog, &world_->log);
  auto expr = audit::ParseAudit(kAudit, Ts(1000000));
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  auto baseline = auditor.Audit(*expr);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::string expected = baseline->CanonicalString();

  // Pin that state, then let writers race the pinned re-audits.
  audit::AuditPin pin = auditor.Pin();
  std::vector<std::thread> writers = StartWriters(2, 150);
  std::vector<std::string> got(4);
  std::vector<std::thread> auditors;
  for (size_t a = 0; a < got.size(); ++a) {
    auditors.emplace_back([&, a] {
      auto report = auditor.AuditPinned(*expr, {}, pin);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      got[a] = report->CanonicalString();
    });
  }
  for (auto& t : auditors) t.join();
  for (auto& t : writers) t.join();

  for (size_t a = 0; a < got.size(); ++a) {
    EXPECT_EQ(got[a], expected) << "pinned auditor " << a;
  }
  // The writes really landed (the pin, not a quiet database, is what
  // kept the reports identical).
  auto table = world_->db.GetTable("P-Personal");
  ASSERT_TRUE(table.ok());
  EXPECT_GT((*table)->stats().cow_rows.load(), 0u);
}

TEST_F(MvccConcurrentTest, ServicePinnedRunMatchesSerialUnderWrites) {
  AuditServiceOptions options;
  options.pool.num_threads = 4;
  AuditService service(&world_->db, &world_->backlog, &world_->log,
                       options);

  audit::Auditor auditor(&world_->db, &world_->backlog, &world_->log);
  auto expr = audit::ParseAudit(kThresholdAudit, Ts(1000000));
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  auto baseline = auditor.Audit(*expr);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  audit::AuditPin pin = service.Pin();
  std::vector<std::thread> writers = StartWriters(3, 100);
  for (int round = 0; round < 3; ++round) {
    auto report =
        service.AuditPinned(kThresholdAudit, Ts(1000000), pin);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->CanonicalString(), baseline->CanonicalString())
        << "round " << round;
  }
  for (auto& t : writers) t.join();

  // After quiescing, a fresh (unpinned) run sees the post-write state
  // and still matches a fresh serial run byte for byte.
  auto fresh_parallel = service.Audit(kThresholdAudit, Ts(1000000));
  auto fresh_serial = auditor.Audit(*expr);
  ASSERT_TRUE(fresh_parallel.ok()) << fresh_parallel.status().ToString();
  ASSERT_TRUE(fresh_serial.ok()) << fresh_serial.status().ToString();
  EXPECT_EQ(fresh_parallel->CanonicalString(),
            fresh_serial->CanonicalString());
}

TEST_F(MvccConcurrentTest, SnapshotPinsRaceWritersWithoutTearing) {
  // Pure storage-layer race: snapshot readers iterate pinned versions
  // while writers commit. Each pinned view must be a consistent cut
  // (every row readable, sizes stable) for its whole lifetime.
  std::vector<std::thread> writers = StartWriters(2, 200);
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([this] {
      for (int i = 0; i < 50; ++i) {
        DatabaseView view = world_->db.Snapshot();
        auto table = view.GetTable("P-Personal");
        ASSERT_TRUE(table.ok());
        const size_t size = (*table)->size();
        size_t seen = 0;
        for (const Row& row : (*table)->rows()) {
          ASSERT_FALSE(row.values.empty());
          ++seen;
        }
        ASSERT_EQ(seen, size);
        ASSERT_EQ((*table)->size(), size);
        // The built-once columnar batch agrees with the row side.
        ASSERT_EQ((*table)->Columnar()->num_rows, size);
      }
    });
  }
  for (auto& t : readers) t.join();
  for (auto& t : writers) t.join();
}

TEST_F(MvccConcurrentTest, JoinIndexBuiltOnceUnderConcurrentExecute) {
  // A fresh version of each table: no query has probed these yet.
  ASSERT_TRUE(world_->db
                  .Insert("P-Health",
                          {Value::String("fresh"), Value::String("W1"),
                           Value::String("Doc"), Value::String("flu"),
                           Value::String("drug1")},
                          Ts(5000))
                  .ok());
  ASSERT_TRUE(world_->db
                  .Insert("P-Employ",
                          {Value::String("fresh"), Value::String("E1"),
                           Value::Int(1000)},
                          Ts(5000))
                  .ok());
  const DatabaseView view = world_->db.Snapshot();
  const char* const kJoin =
      "SELECT name, disease, salary FROM P-Personal, P-Health, P-Employ "
      "WHERE P-Personal.pid = P-Health.pid AND "
      "P-Health.pid = P-Employ.pid";
  auto health = world_->db.GetTable("P-Health");
  auto employ = world_->db.GetTable("P-Employ");
  ASSERT_TRUE(health.ok() && employ.ok());
  const TableStats& health_stats = (*health)->stats();
  const TableStats& employ_stats = (*employ)->stats();
  const uint64_t health_builds = health_stats.join_index_builds.load();
  const uint64_t employ_builds = employ_stats.join_index_builds.load();

  constexpr size_t kThreads = 8;
  std::vector<Result<QueryResult>> results(kThreads,
                                           Status::Internal("not run"));
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Start together, so the first probes of both indexes race.
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      results[t] = ExecuteSql(kJoin, view);
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(health_stats.join_index_builds.load(), health_builds + 1);
  EXPECT_EQ(employ_stats.join_index_builds.load(), employ_builds + 1);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  EXPECT_FALSE(results[0]->rows.empty());
  for (size_t t = 1; t < kThreads; ++t) {
    ASSERT_TRUE(results[t].ok()) << results[t].status().ToString();
    EXPECT_EQ(results[t]->rows, results[0]->rows) << "thread " << t;
    EXPECT_EQ(results[t]->lineage, results[0]->lineage) << "thread " << t;
  }
}

TEST_F(MvccConcurrentTest, ProbeSideIndexBuiltOnceUnderConcurrentReduction) {
  // Fresh versions of both tables: no query has probed them yet. The
  // diabetic filter keeps few P-Health rows, so each query's semijoin
  // reduction probes P-Personal's pid index, the probe side that plain
  // hash joins never build.
  ASSERT_TRUE(world_->db
                  .Insert("P-Health",
                          {Value::String("fresh"), Value::String("W1"),
                           Value::String("Doc"), Value::String("diabetic"),
                           Value::String("drug1")},
                          Ts(5000))
                  .ok());
  ASSERT_TRUE(world_->db
                  .Insert("P-Personal",
                          {Value::String("fresh"), Value::String("Fresh"),
                           Value::Int(40), Value::String("F"),
                           Value::String("145568"), Value::String("A1")},
                          Ts(5000))
                  .ok());
  const DatabaseView view = world_->db.Snapshot();
  const char* const kReduced =
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease = 'diabetic'";
  auto personal = world_->db.GetTable("P-Personal");
  auto health = world_->db.GetTable("P-Health");
  ASSERT_TRUE(personal.ok() && health.ok());
  const TableStats& personal_stats = (*personal)->stats();
  const TableStats& health_stats = (*health)->stats();
  const uint64_t personal_builds = personal_stats.join_index_builds.load();
  const uint64_t health_builds = health_stats.join_index_builds.load();

  constexpr size_t kThreads = 8;
  std::vector<Result<QueryResult>> results(kThreads,
                                           Status::Internal("not run"));
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      results[t] = ExecuteSql(kReduced, view);
    });
  }
  for (auto& thread : threads) thread.join();

  // One build per (table, column): P-Personal.pid by the reduction,
  // P-Health.pid by the hash join.
  EXPECT_EQ(personal_stats.join_index_builds.load(), personal_builds + 1);
  EXPECT_EQ(health_stats.join_index_builds.load(), health_builds + 1);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  EXPECT_FALSE(results[0]->rows.empty());
  for (size_t t = 1; t < kThreads; ++t) {
    ASSERT_TRUE(results[t].ok()) << results[t].status().ToString();
    EXPECT_EQ(results[t]->rows, results[0]->rows) << "thread " << t;
    EXPECT_EQ(results[t]->lineage, results[0]->lineage) << "thread " << t;
  }
}

}  // namespace
}  // namespace service
}  // namespace auditdb
