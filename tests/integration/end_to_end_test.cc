/// Integration tests: the full stack (storage → backlog → query log →
/// parser → executor → unified audit) on generated workloads.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/audit/auditor.h"
#include "src/workload/generator.h"
#include "src/workload/hospital.h"

namespace auditdb {
namespace {

using audit::AuditOptions;
using audit::Auditor;

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

TEST(WorkloadTest, HospitalPopulationIsDeterministic) {
  workload::HospitalConfig config;
  config.num_patients = 25;
  Database a, b;
  ASSERT_TRUE(workload::PopulateHospital(&a, config, Ts(1)).ok());
  ASSERT_TRUE(workload::PopulateHospital(&b, config, Ts(1)).ok());
  auto ta = a.GetTable("P-Health");
  auto tb = b.GetTable("P-Health");
  ASSERT_TRUE(ta.ok() && tb.ok());
  ASSERT_EQ((*ta)->size(), 25u);
  for (size_t i = 0; i < 25; ++i) {
    EXPECT_EQ((*ta)->rows()[i], (*tb)->rows()[i]);
  }
}

TEST(WorkloadTest, GeneratedQueriesAllParse) {
  workload::HospitalConfig hospital;
  workload::WorkloadConfig config;
  config.num_queries = 200;
  config.start = Ts(100);
  QueryLog log;
  ASSERT_TRUE(workload::GenerateWorkload(&log, config, hospital).ok());
  ASSERT_EQ(log.size(), 200u);
  for (size_t ei = 0; ei < log.size(); ++ei) {
    const auto& entry = log.Entry(ei);
    auto stmt = sql::ParseSelect(entry.sql);
    EXPECT_TRUE(stmt.ok()) << entry.sql << " -> "
                           << stmt.status().ToString();
  }
}

TEST(WorkloadTest, GeneratedQueriesAllExecute) {
  Database db;
  workload::HospitalConfig hospital;
  hospital.num_patients = 30;
  ASSERT_TRUE(workload::PopulateHospital(&db, hospital, Ts(1)).ok());
  workload::WorkloadConfig config;
  config.num_queries = 100;
  config.start = Ts(100);
  QueryLog log;
  ASSERT_TRUE(workload::GenerateWorkload(&log, config, hospital).ok());
  auto view = db.View();
  for (size_t ei = 0; ei < log.size(); ++ei) {
    const auto& entry = log.Entry(ei);
    auto result = ExecuteSql(entry.sql, view);
    EXPECT_TRUE(result.ok()) << entry.sql << " -> "
                             << result.status().ToString();
  }
}

TEST(WorkloadTest, AnnotationsDrawnFromPools) {
  workload::HospitalConfig hospital;
  workload::WorkloadConfig config;
  config.num_queries = 50;
  config.start = Ts(100);
  QueryLog log;
  ASSERT_TRUE(workload::GenerateWorkload(&log, config, hospital).ok());
  for (size_t ei = 0; ei < log.size(); ++ei) {
    const auto& entry = log.Entry(ei);
    EXPECT_NE(std::find(config.users.begin(), config.users.end(),
                        entry.user),
              config.users.end());
    EXPECT_NE(std::find(config.roles.begin(), config.roles.end(),
                        entry.role),
              config.roles.end());
  }
}

TEST(WorkloadTest, ChurnGeneratesCapturedVersions) {
  Database db;
  Backlog backlog;
  backlog.Attach(&db);
  workload::HospitalConfig hospital;
  hospital.num_patients = 20;
  ASSERT_TRUE(workload::PopulateHospital(&db, hospital, Ts(1)).ok());
  size_t base_events = backlog.event_count();

  workload::ChurnConfig churn;
  churn.num_updates = 50;
  churn.start = Ts(100);
  ASSERT_TRUE(workload::GenerateChurn(&db, churn, hospital).ok());
  EXPECT_EQ(backlog.event_count(), base_events + 50);

  // All churn events are updates within the configured window.
  for (size_t i = base_events; i < backlog.event_count(); ++i) {
    const auto& event = backlog.EventAt(i);
    EXPECT_EQ(event.op, ChangeEvent::Op::kUpdate);
    EXPECT_GE(event.timestamp, Ts(100));
  }
  // Determinism.
  Database db2;
  ASSERT_TRUE(workload::PopulateHospital(&db2, hospital, Ts(1)).ok());
  ASSERT_TRUE(workload::GenerateChurn(&db2, churn, hospital).ok());
  auto t1 = db.GetTable("P-Health");
  auto t2 = db2.GetTable("P-Health");
  ASSERT_TRUE(t1.ok() && t2.ok());
  for (size_t i = 0; i < (*t1)->size(); ++i) {
    EXPECT_EQ((*t1)->rows()[i], (*t2)->rows()[i]);
  }
}

class EndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    backlog_.Attach(&db_);
    hospital_.num_patients = 50;
    ASSERT_TRUE(workload::PopulateHospital(&db_, hospital_, Ts(1)).ok());
    workload::WorkloadConfig config;
    config.num_queries = 120;
    config.start = Ts(100);
    config.sensitive_fraction = 0.5;
    ASSERT_TRUE(workload::GenerateWorkload(&log_, config, hospital_).ok());
  }

  workload::HospitalConfig hospital_;
  Database db_;
  Backlog backlog_;
  QueryLog log_;
};

TEST_F(EndToEndTest, AuditPipelineRunsOnGeneratedWorkload) {
  Auditor auditor(&db_, &backlog_, &log_);
  auto report = auditor.Audit(
      "DURING 1/1/1970 to 2/1/1970 DATA-INTERVAL 1/1/1970 to 2/1/1970 "
      "AUDIT (name,disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'",
      Ts(100000));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->num_logged, 120u);
  EXPECT_LE(report->num_candidates, report->num_admitted);
  EXPECT_EQ(report->num_executed, report->num_candidates);
  // Suspicious queries must all be candidates.
  for (int64_t id : report->SuspiciousQueryIds()) {
    EXPECT_TRUE(report->verdicts[static_cast<size_t>(id - 1)].candidate);
  }
}

TEST_F(EndToEndTest, StaticPruningNeverDropsSuspiciousQueries) {
  // With satisfiability pruning off, the exact same suspicious set comes
  // out — pruning is a pure optimization (soundness of the static phase).
  Auditor auditor(&db_, &backlog_, &log_);
  const std::string expr =
      "DURING 1/1/1970 to 2/1/1970 DATA-INTERVAL 1/1/1970 to 2/1/1970 "
      "AUDIT (name,disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'";
  AuditOptions with_pruning;
  AuditOptions without_pruning;
  without_pruning.candidate.use_satisfiability = false;
  auto pruned = auditor.Audit(expr, Ts(100000), with_pruning);
  auto unpruned = auditor.Audit(expr, Ts(100000), without_pruning);
  ASSERT_TRUE(pruned.ok());
  ASSERT_TRUE(unpruned.ok());
  EXPECT_EQ(pruned->SuspiciousQueryIds(), unpruned->SuspiciousQueryIds());
  EXPECT_EQ(pruned->batch_suspicious, unpruned->batch_suspicious);
  EXPECT_LE(pruned->num_candidates, unpruned->num_candidates);
}

TEST(StressTest, LargeWorkloadWithChurnHoldsInvariants) {
  Database db;
  Backlog backlog;
  backlog.Attach(&db);
  workload::HospitalConfig hospital;
  hospital.num_patients = 400;
  ASSERT_TRUE(workload::PopulateHospital(&db, hospital, Ts(1)).ok());

  // Interleave: first half of the queries, churn, second half.
  QueryLog log;
  workload::WorkloadConfig config;
  config.num_queries = 400;
  config.start = Ts(100);
  ASSERT_TRUE(workload::GenerateWorkload(&log, config, hospital).ok());
  workload::ChurnConfig churn;
  churn.num_updates = 150;
  churn.start = Ts(100 + 200);  // mid-log
  churn.spacing_micros = 1;     // dense burst
  ASSERT_TRUE(workload::GenerateChurn(&db, churn, hospital).ok());

  Auditor auditor(&db, &backlog, &log);
  const std::string expr =
      "DURING 1/1/1970 to 2/1/1970 DATA-INTERVAL 1/1/1970 to 2/1/1970 "
      "AUDIT (name,disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'";
  auto report = auditor.Audit(expr, Ts(1000000));
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Funnel invariants.
  EXPECT_EQ(report->num_logged, 400u);
  EXPECT_LE(report->num_candidates, report->num_admitted);
  EXPECT_LE(report->num_executed, report->num_candidates);
  // Suspicious ⊆ candidates; every suspicious query was admitted.
  for (int64_t id : report->SuspiciousQueryIds()) {
    const auto& verdict = report->verdicts[static_cast<size_t>(id - 1)];
    EXPECT_TRUE(verdict.admitted);
    EXPECT_TRUE(verdict.candidate);
  }
  // Determinism: the same audit twice gives the same report.
  auto report2 = auditor.Audit(expr, Ts(1000000));
  ASSERT_TRUE(report2.ok());
  EXPECT_EQ(report->SuspiciousQueryIds(), report2->SuspiciousQueryIds());
  EXPECT_EQ(report->batch_suspicious, report2->batch_suspicious);
  EXPECT_EQ(report->target_view_size, report2->target_view_size);
  // Churn widened the target view beyond the current diabetic count.
  EXPECT_GT(report->target_view_size, 0u);
}

TEST_F(EndToEndTest, StaticOnlyIsSoundWrtDynamic) {
  // Data-independent auditing must never clear a query the data-dependent
  // phase would flag (it may flag more).
  Auditor auditor(&db_, &backlog_, &log_);
  const std::string expr =
      "DURING 1/1/1970 to 2/1/1970 DATA-INTERVAL 1/1/1970 to 2/1/1970 "
      "AUDIT (name,disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'";
  AuditOptions dynamic_opts;
  AuditOptions static_opts;
  static_opts.static_only = true;
  auto dynamic_report = auditor.Audit(expr, Ts(100000), dynamic_opts);
  auto static_report = auditor.Audit(expr, Ts(100000), static_opts);
  ASSERT_TRUE(dynamic_report.ok());
  ASSERT_TRUE(static_report.ok());
  std::set<int64_t> static_ids;
  for (int64_t id : static_report->SuspiciousQueryIds()) {
    static_ids.insert(id);
  }
  for (int64_t id : dynamic_report->SuspiciousQueryIds()) {
    EXPECT_TRUE(static_ids.count(id)) << "static audit missed query " << id;
  }
  if (dynamic_report->batch_suspicious) {
    EXPECT_TRUE(static_report->batch_suspicious);
  }
}

TEST_F(EndToEndTest, UpdatesBetweenQueriesAreHonored) {
  // Update every diabetic to 'recovered' halfway through a fresh log;
  // queries before the update can be suspicious, queries after cannot
  // share tuples with the audited (pre-update) population on their own
  // snapshots for disease='diabetic' predicates.
  QueryLog log;
  log.Append(
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND disease='diabetic'",
      Ts(200), "alice", "doctor", "treatment");
  // Flip all diabetics at t=300.
  auto health = db_.GetTable("P-Health");
  ASSERT_TRUE(health.ok());
  std::vector<Tid> diabetic_tids;
  for (const auto& row : (*health)->rows()) {
    if (row.values[3] == Value::String("diabetic")) {
      diabetic_tids.push_back(row.tid);
    }
  }
  ASSERT_FALSE(diabetic_tids.empty());
  for (Tid tid : diabetic_tids) {
    ASSERT_TRUE(db_.UpdateColumn("P-Health", tid, "disease",
                                 Value::String("recovered"), Ts(300))
                    .ok());
  }
  log.Append(
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND disease='diabetic'",
      Ts(400), "bob", "doctor", "treatment");

  Auditor auditor(&db_, &backlog_, &log);
  auto report = auditor.Audit(
      "DURING 1/1/1970 to 2/1/1970 "
      "DATA-INTERVAL 1/1/1970:00-03-20 to 1/1/1970:00-03-20 "
      "AUDIT (name,disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'",
      Ts(100000));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // U is pinned at t=200 (before the flip): only the first query saw it.
  EXPECT_EQ(report->SuspiciousQueryIds(), (std::vector<int64_t>{1}));
}

}  // namespace
}  // namespace auditdb
