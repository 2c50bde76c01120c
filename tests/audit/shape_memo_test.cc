/// The query log's per-shape memo of static facts follows the catalog it
/// was computed against: a log audited over two databases whose catalogs
/// share an epoch gets each database's own verdicts, and a schema change
/// turns a cached error into a candidate. Its first touch is thread-safe:
/// a served audit and a pooled audit racing over a cold log give the
/// serial audit's report.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/audit/auditor.h"
#include "src/service/audit_service.h"
#include "src/service/thread_pool.h"
#include "src/workload/generator.h"
#include "src/workload/hospital.h"

namespace auditdb {
namespace audit {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

const char* const kSpan =
    "DURING 1/1/1970 to 2/1/1970 DATA-INTERVAL 1/1/1970 to 2/1/1970 ";

struct World {
  Database db;
  Backlog backlog;
};

void Append(QueryLog* log, const std::vector<std::string>& queries) {
  for (size_t i = 0; i < queries.size(); ++i) {
    log->Append(queries[i], Ts(static_cast<int64_t>(10 + i)), "alice",
                "doctor", "treatment");
  }
}

std::string Canonical(World* world, const QueryLog& log,
                      const std::string& text,
                      const AuditOptions& options = AuditOptions{}) {
  Auditor auditor(&world->db, &world->backlog, &log);
  auto report = auditor.Audit(text, Ts(1000), options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? report->CanonicalString() : "";
}

/// The paper's tables under the paper's names, but with other columns:
/// no age, no disease.
Status BuildOtherSchema(Database* db) {
  AUDITDB_RETURN_IF_ERROR(db->CreateTable(TableSchema(
      "P-Personal", {{"pid", ValueType::kString},
                     {"name", ValueType::kString},
                     {"zipcode", ValueType::kString}})));
  AUDITDB_RETURN_IF_ERROR(db->CreateTable(TableSchema(
      "P-Health",
      {{"pid", ValueType::kString}, {"ward", ValueType::kString}})));
  AUDITDB_RETURN_IF_ERROR(db->CreateTable(TableSchema(
      "P-Employ",
      {{"pid", ValueType::kString}, {"salary", ValueType::kInt}})));
  for (const char* pid : {"p1", "p2"}) {
    auto tid = db->Insert("P-Personal",
                          {Value::String(pid), Value::String("Reku"),
                           Value::String("145568")},
                          Ts(1));
    if (!tid.ok()) return tid.status();
  }
  return Status::Ok();
}

TEST(ShapeMemoTest, TwoDatabasesAtEqualEpochsGetTheirOwnVerdicts) {
  World paper;
  World other;
  paper.backlog.Attach(&paper.db);
  other.backlog.Attach(&other.db);
  ASSERT_TRUE(workload::BuildPaperDatabase(&paper.db, Ts(1)).ok());
  ASSERT_TRUE(BuildOtherSchema(&other.db).ok());
  ASSERT_EQ(paper.db.catalog_epoch(), other.db.catalog_epoch());
  ASSERT_NE(paper.db.id(), other.db.id());

  const std::vector<std::string> queries = {
      "SELECT name FROM P-Personal WHERE zipcode = '145568'",
      "SELECT * FROM P-Health",
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid",
      "SELECT age FROM P-Personal",
      "SELECT  name FROM P-Personal\n WHERE zipcode='145568'",
  };
  QueryLog shared;
  Append(&shared, queries);
  const std::string text = std::string(kSpan) + "AUDIT name FROM P-Personal";
  AuditOptions static_only;
  static_only.static_only = true;

  // Alternate the databases over the one log; every report must be the
  // one a log never screened before gives.
  for (int round = 0; round < 2; ++round) {
    for (World* world : {&paper, &other}) {
      for (const AuditOptions& options : {AuditOptions{}, static_only}) {
        QueryLog fresh;
        Append(&fresh, queries);
        EXPECT_EQ(Canonical(world, shared, text, options),
                  Canonical(world, fresh, text, options))
            << "round " << round << ", database " << world->db.id()
            << ", static_only " << options.static_only;
      }
    }
  }
  // The databases do disagree on these queries, and the log keeps one
  // set of facts per (shape, database).
  EXPECT_NE(Canonical(&paper, shared, text), Canonical(&other, shared, text));
  EXPECT_EQ(shared.memoized_facts(), 2 * shared.distinct_shapes());
}

TEST(ShapeMemoTest, UnknownTableBecomesACandidateAfterCreateTable) {
  World world;
  world.backlog.Attach(&world.db);
  ASSERT_TRUE(workload::BuildPaperDatabase(&world.db, Ts(1)).ok());
  QueryLog log;
  Append(&log, {"SELECT name FROM P-Personal, Vault "
                "WHERE P-Personal.pid = Vault.pid"});
  const std::string text = std::string(kSpan) + "AUDIT name FROM P-Personal";

  Auditor auditor(&world.db, &world.backlog, &log);
  auto before = auditor.Audit(text, Ts(1000));
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before->verdicts.size(), 1u);
  EXPECT_TRUE(before->verdicts[0].error);
  EXPECT_FALSE(before->verdicts[0].candidate);

  ASSERT_TRUE(world.db
                  .CreateTable(TableSchema(
                      "Vault", {{"pid", ValueType::kString},
                                {"secret", ValueType::kString}}))
                  .ok());
  auto after = auditor.Audit(text, Ts(1000));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->verdicts[0].error);
  EXPECT_TRUE(after->verdicts[0].candidate);
}

TEST(ParsedShapeConcurrentTest, ColdLogServedAndPooledAuditsMatchSerial) {
  World world;
  world.backlog.Attach(&world.db);
  workload::HospitalConfig hospital;
  hospital.num_patients = 80;
  hospital.seed = 7;
  ASSERT_TRUE(workload::PopulateHospital(&world.db, hospital, Ts(1)).ok());
  workload::WorkloadConfig config;
  config.num_queries = 400;
  config.start = Ts(100);
  config.seed = 11;
  const std::string text =
      std::string(kSpan) +
      "AUDIT (name, disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease = 'diabetic'";

  QueryLog reference_log;
  ASSERT_TRUE(
      workload::GenerateWorkload(&reference_log, config, hospital).ok());
  const std::string serial = Canonical(&world, reference_log, text);
  ASSERT_FALSE(serial.empty());

  service::AuditServiceOptions service_options;
  service_options.pool.num_threads = 2;
  service::ThreadPoolOptions pool_options;
  pool_options.num_threads = 4;
  service::ThreadPool pool(pool_options);
  for (int round = 0; round < 3; ++round) {
    // A cold log each round: the two audits race the first parse and
    // the first facts computation of every shape.
    QueryLog log;
    ASSERT_TRUE(workload::GenerateWorkload(&log, config, hospital).ok());
    ASSERT_EQ(log.parsed_shapes(), 0u);
    service::AuditService served(&world.db, &world.backlog, &log,
                                 service_options);
    Auditor auditor(&world.db, &world.backlog, &log);
    auto expr = ParseAudit(text, Ts(1000));
    ASSERT_TRUE(expr.ok());

    std::string served_report;
    std::string pooled_report;
    std::thread served_thread([&] {
      auto report = served.Audit(text, Ts(1000));
      if (report.ok()) served_report = report->CanonicalString();
    });
    std::thread pooled_thread([&] {
      auto report = auditor.AuditPinned(*expr, AuditOptions{},
                                        auditor.Pin(), &pool);
      if (report.ok()) pooled_report = report->CanonicalString();
    });
    served_thread.join();
    pooled_thread.join();
    EXPECT_EQ(served_report, serial) << "round " << round;
    EXPECT_EQ(pooled_report, serial) << "round " << round;
    EXPECT_EQ(log.parsed_shapes(), reference_log.parsed_shapes());
    EXPECT_EQ(log.memoized_facts(), reference_log.memoized_facts());
  }
}

}  // namespace
}  // namespace audit
}  // namespace auditdb
