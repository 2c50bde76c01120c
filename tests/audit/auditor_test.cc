#include "src/audit/auditor.h"

#include <gtest/gtest.h>

#include "src/engine/lineage.h"
#include "src/service/thread_pool.h"
#include "src/sql/parser.h"
#include "src/workload/generator.h"
#include "src/workload/hospital.h"
#include "tests/audit/versioned_reference.h"

namespace auditdb {
namespace audit {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

class AuditorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    backlog_.Attach(&db_);
    ASSERT_TRUE(workload::BuildPaperDatabase(&db_, Ts(1)).ok());
  }

  int64_t Log(const std::string& sql, int64_t at_seconds,
              const std::string& user = "alice",
              const std::string& role = "doctor",
              const std::string& purpose = "treatment") {
    return log_.Append(sql, Ts(at_seconds), user, role, purpose);
  }

  AuditReport MustAudit(const std::string& text,
                        const AuditOptions& options = AuditOptions{}) {
    Auditor auditor(&db_, &backlog_, &log_);
    auto report = auditor.Audit(text, Ts(1000), options);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(*report);
  }

  // The DURING/DATA-INTERVAL clause covering the whole test timeline.
  const std::string kSpan =
      "DURING 1/1/1970 to 2/1/1970 DATA-INTERVAL 1/1/1970 to 2/1/1970 ";

  Database db_;
  Backlog backlog_;
  QueryLog log_;
};

TEST_F(AuditorTest, FlagsDisclosingQuery) {
  int64_t good = Log("SELECT ward FROM P-Health WHERE ward='W11'", 10);
  int64_t bad = Log(
      "SELECT name, disease, address FROM P-Personal, P-Health, P-Employ "
      "WHERE P-Personal.pid=P-Health.pid AND P-Health.pid=P-Employ.pid "
      "AND zipcode='145568' AND disease='diabetic' AND salary > 10000",
      20);
  auto report = MustAudit(
      kSpan +
      "AUDIT (name,disease,address) FROM P-Personal, P-Health, P-Employ "
      "WHERE P-Personal.pid=P-Health.pid and P-Health.pid=P-Employ.pid "
      "and P-Personal.zipcode='145568' and P-Employ.salary > 10000 "
      "and P-Health.disease='diabetic'");
  EXPECT_TRUE(report.batch_suspicious);
  EXPECT_EQ(report.SuspiciousQueryIds(), (std::vector<int64_t>{bad}));
  EXPECT_EQ(report.num_logged, 2u);
  EXPECT_EQ(report.num_admitted, 2u);
  EXPECT_EQ(report.num_candidates, 1u);  // the ward query is pruned
  EXPECT_EQ(report.target_view_size, 2u);
  EXPECT_EQ(report.minimal_batch, (std::vector<int64_t>{bad}));
  // The good query's verdict survives with candidate=false.
  EXPECT_FALSE(report.verdicts[static_cast<size_t>(good - 1)].candidate);
  EXPECT_NE(report.Summary().find("batch_suspicious=true"),
            std::string::npos);
}

// Value containment (INDISPENSABLE false) reads the values a query
// outputs, so its candidates must run with values; the default
// indispensability test reads only their lineage.
TEST_F(AuditorTest, ValueContainmentReadsOutputValues) {
  int64_t outputs =
      Log("SELECT disease FROM P-Health WHERE disease='diabetic'", 10);
  int64_t filters = Log(
      "SELECT name FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND disease='diabetic'",
      20);
  const std::string audit =
      "AUDIT disease FROM P-Health WHERE P-Health.disease='diabetic'";
  auto by_value = MustAudit(kSpan + "INDISPENSABLE false " + audit);
  EXPECT_TRUE(by_value.batch_suspicious);
  EXPECT_EQ(by_value.SuspiciousQueryIds(), (std::vector<int64_t>{outputs}));
  auto by_lineage = MustAudit(kSpan + audit);
  EXPECT_EQ(by_lineage.SuspiciousQueryIds(),
            (std::vector<int64_t>{outputs, filters}));
}

TEST_F(AuditorTest, PaperIntroExample) {
  // Section 2.1: "SELECT zipcode FROM Patients WHERE disease='cancer'" is
  // suspicious for the disease audit iff a cancer patient lives in the
  // audited zip code. Nobody has cancer, so it must not be flagged —
  // static analysis alone (it touches `disease`) would have kept it.
  Log("SELECT zipcode FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND disease='cancer'",
      10);
  auto report = MustAudit(
      kSpan +
      "AUDIT [zipcode,disease] FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND zipcode='145568'");
  EXPECT_FALSE(report.batch_suspicious);
  EXPECT_EQ(report.num_candidates, 1u);   // statically plausible
  EXPECT_TRUE(report.SuspiciousQueryIds().empty());  // dynamically cleared
}

TEST_F(AuditorTest, BatchSuspicionWithoutSingleSuspicion) {
  int64_t q1 =
      Log("SELECT name, address FROM P-Personal WHERE zipcode='145568'", 10);
  int64_t q2 =
      Log("SELECT disease FROM P-Health WHERE disease='diabetic'", 20);
  auto report = MustAudit(
      kSpan +
      "AUDIT (name,disease,address) FROM P-Personal, P-Health, P-Employ "
      "WHERE P-Personal.pid=P-Health.pid and P-Health.pid=P-Employ.pid "
      "and P-Personal.zipcode='145568' and P-Employ.salary > 10000 "
      "and P-Health.disease='diabetic'");
  EXPECT_TRUE(report.batch_suspicious);
  EXPECT_TRUE(report.SuspiciousQueryIds().empty());
  // Both queries are needed: the minimal batch is {q1, q2}.
  EXPECT_EQ(report.minimal_batch, (std::vector<int64_t>{q1, q2}));
}

TEST_F(AuditorTest, LimitingParametersFilterQueries) {
  Log("SELECT name, age, address FROM P-Personal WHERE age < 30", 10,
      "mallory", "clerk", "billing");
  Log("SELECT name, age, address FROM P-Personal WHERE age < 30", 20,
      "alice", "doctor", "treatment");
  // Exclude clerks: only alice's access is audited.
  auto report = MustAudit(
      "Neg-Role-Purpose (clerk,-) " + kSpan +
      "AUDIT name, age, address FROM P-Personal WHERE age < 30");
  EXPECT_EQ(report.num_admitted, 1u);
  EXPECT_EQ(report.SuspiciousQueryIds(), (std::vector<int64_t>{2}));

  // Positive user filter.
  auto report2 = MustAudit(
      "Pos-User-Identity mallory " + kSpan +
      "AUDIT name, age, address FROM P-Personal WHERE age < 30");
  EXPECT_EQ(report2.num_admitted, 1u);
  EXPECT_EQ(report2.SuspiciousQueryIds(), (std::vector<int64_t>{1}));
}

TEST_F(AuditorTest, DuringClauseFiltersByTime) {
  Log("SELECT name, age, address FROM P-Personal WHERE age < 30", 10);
  Log("SELECT name, age, address FROM P-Personal WHERE age < 30", 500);
  auto report = MustAudit(
      "DURING 1/1/1970:00-00-00 to 1/1/1970:00-02-00 "
      "DATA-INTERVAL 1/1/1970 to 2/1/1970 "
      "AUDIT name, age, address FROM P-Personal WHERE age < 30");
  EXPECT_EQ(report.num_admitted, 1u);
  EXPECT_EQ(report.SuspiciousQueryIds(), (std::vector<int64_t>{1}));
}

TEST_F(AuditorTest, QueriesAuditedAgainstTheirOwnDbState) {
  // Reku's zipcode changes at t=50. A query at t=10 saw the old value;
  // a query at t=60 sees the new one.
  Log("SELECT name, zipcode FROM P-Personal WHERE zipcode='145568'", 10);
  ASSERT_TRUE(db_.UpdateColumn("P-Personal", 12, "zipcode",
                               Value::String("999999"), Ts(50))
                  .ok());
  Log("SELECT name, zipcode FROM P-Personal WHERE zipcode='145568'", 60);

  // Audit the *old* zipcode population, data version pinned before the
  // update: only the first query disclosed Reku's row.
  auto report = MustAudit(
      "DURING 1/1/1970 to 2/1/1970 "
      "DATA-INTERVAL 1/1/1970:00-00-10 to 1/1/1970:00-00-10 "
      "AUDIT (name,zipcode) FROM P-Personal WHERE name='Reku'");
  EXPECT_EQ(report.SuspiciousQueryIds(), (std::vector<int64_t>{1}));
}

TEST_F(AuditorTest, DataIntervalSpanningUpdateCatchesBothQueries) {
  Log("SELECT name, zipcode FROM P-Personal WHERE zipcode='145568'", 10);
  ASSERT_TRUE(db_.UpdateColumn("P-Personal", 12, "zipcode",
                               Value::String("999999"), Ts(50))
                  .ok());
  Log("SELECT name, zipcode FROM P-Personal WHERE zipcode='999999'", 60);
  auto report = MustAudit(
      kSpan + "AUDIT (name,zipcode) FROM P-Personal WHERE name='Reku'");
  EXPECT_EQ(report.SuspiciousQueryIds(), (std::vector<int64_t>{1, 2}));
}

TEST_F(AuditorTest, UnparseableLoggedQueriesAreSkipped) {
  Log("DROP TABLE P-Personal", 10);
  Log("SELECT name, age, address FROM P-Personal WHERE age < 30", 20);
  auto report = MustAudit(
      kSpan + "AUDIT name, age, address FROM P-Personal WHERE age < 30");
  EXPECT_TRUE(report.verdicts[0].parse_failed);
  EXPECT_EQ(report.SuspiciousQueryIds(), (std::vector<int64_t>{2}));
}

TEST_F(AuditorTest, ThresholdAuditExpression) {
  // Disclosing one patient is tolerated; two or more is flagged.
  Log("SELECT name FROM P-Personal WHERE name='Reku'", 10);
  auto tolerant = MustAudit(
      "THRESHOLD 2 " + kSpan +
      "AUDIT (name) FROM P-Personal WHERE zipcode='145568'");
  EXPECT_FALSE(tolerant.batch_suspicious);

  Log("SELECT name FROM P-Personal WHERE name='Lucy'", 20);
  auto fired = MustAudit(
      "THRESHOLD 2 " + kSpan +
      "AUDIT (name) FROM P-Personal WHERE zipcode='145568'");
  EXPECT_TRUE(fired.batch_suspicious);
}

TEST_F(AuditorTest, PerQueryVerdictsCanBeDisabled) {
  Log("SELECT name, age, address FROM P-Personal WHERE age < 30", 10);
  AuditOptions options;
  options.per_query_verdicts = false;
  options.minimize_batch = false;
  auto report = MustAudit(
      kSpan + "AUDIT name, age, address FROM P-Personal WHERE age < 30",
      options);
  EXPECT_TRUE(report.batch_suspicious);
  EXPECT_TRUE(report.SuspiciousQueryIds().empty());  // not computed
  EXPECT_TRUE(report.minimal_batch.empty());
}

TEST_F(AuditorTest, EvidenceMentionsAccessedFacts) {
  Log("SELECT name, age, address FROM P-Personal WHERE age < 30", 10);
  auto report = MustAudit(
      kSpan + "AUDIT name, age, address FROM P-Personal WHERE age < 30");
  EXPECT_NE(report.evidence.find("t11"), std::string::npos);
  EXPECT_NE(report.evidence.find("scheme"), std::string::npos);
}

TEST_F(AuditorTest, DetailedReportShowsFunnelAndVerdicts) {
  Log("SELECT ward FROM P-Health WHERE ward='W11'", 10);
  Log("SELECT name, age, address FROM P-Personal WHERE age < 30", 20,
      "mallory");
  auto report = MustAudit(
      kSpan + "AUDIT name, age, address FROM P-Personal WHERE age < 30");
  std::string text = report.DetailedReport(log_);
  EXPECT_NE(text.find("AUDIT REPORT"), std::string::npos);
  EXPECT_NE(text.find("2 logged"), std::string::npos);
  EXPECT_NE(text.find("SUSPICIOUS"), std::string::npos);
  EXPECT_NE(text.find("[SUSPECT  ]"), std::string::npos);
  EXPECT_NE(text.find("[cleared  ]"), std::string::npos);
  EXPECT_NE(text.find("mallory"), std::string::npos);
  EXPECT_NE(text.find("evidence"), std::string::npos);
  EXPECT_NE(text.find("phases:"), std::string::npos);
  // Phase timings are populated for a dynamic audit.
  EXPECT_GE(report.static_seconds, 0.0);
  EXPECT_GT(report.static_seconds + report.view_seconds +
                report.exec_seconds + report.check_seconds,
            0.0);
}

TEST_F(AuditorTest, StaticOnlyModeOverApproximates) {
  // The paper's §2.1 example again: statically the cancer query covers
  // the audited columns, so data-independent auditing flags it; the
  // data-dependent phase would clear it.
  Log("SELECT zipcode FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND disease='cancer'",
      10);
  AuditOptions static_opts;
  static_opts.static_only = true;
  auto static_report = MustAudit(
      kSpan +
      "AUDIT (zipcode,disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND zipcode='145568'",
      static_opts);
  EXPECT_TRUE(static_report.batch_suspicious);
  EXPECT_EQ(static_report.SuspiciousQueryIds(), (std::vector<int64_t>{1}));
  EXPECT_NE(static_report.evidence.find("static"), std::string::npos);

  auto dynamic_report = MustAudit(
      kSpan +
      "AUDIT (zipcode,disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND zipcode='145568'");
  EXPECT_FALSE(dynamic_report.batch_suspicious);
}

TEST_F(AuditorTest, StaticOnlyRespectsPredicateConflicts) {
  Log("SELECT zipcode, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND zipcode='999999'",
      10);
  AuditOptions static_opts;
  static_opts.static_only = true;
  auto report = MustAudit(
      kSpan +
      "AUDIT (zipcode,disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND zipcode='145568'",
      static_opts);
  // The zip codes provably conflict: not even statically suspicious.
  EXPECT_FALSE(report.batch_suspicious);
  EXPECT_EQ(report.num_candidates, 0u);
}

TEST_F(AuditorTest, CandidacyCheckFailuresAreErrorsNotClearances) {
  // Parses as SQL, but the static candidacy check cannot resolve the
  // table. The old pipeline silently scored it "not a candidate" —
  // indistinguishable from a query *proven* harmless. It must carry a
  // distinct error verdict (and still not poison the rest of the audit).
  int64_t broken = Log("SELECT secret FROM NoSuchTable", 10);
  int64_t clean = Log("SELECT ward FROM P-Health WHERE ward='W11'", 20);
  auto report = MustAudit(kSpan + "AUDIT (disease) FROM P-Health");
  ASSERT_EQ(report.verdicts.size(), 2u);
  const auto& bad = report.verdicts[static_cast<size_t>(broken - 1)];
  EXPECT_TRUE(bad.error);
  EXPECT_FALSE(bad.candidate);
  EXPECT_FALSE(bad.suspicious_alone);
  const auto& good = report.verdicts[static_cast<size_t>(clean - 1)];
  EXPECT_FALSE(good.error);
  EXPECT_NE(report.CanonicalString().find(" error"), std::string::npos);
  EXPECT_NE(report.DetailedReport(log_).find("ERROR"), std::string::npos);
}

TEST_F(AuditorTest, ArithmeticOverNullFailsTheRowNotTheQuery) {
  // Reku's age is NULL: 100 / age is NULL there, the comparison is false
  // and the row drops out, as it does for a NULL cell compared directly.
  // The re-execution succeeds, so the query gets a verdict, not an error.
  int64_t id = Log(
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND 100 / age > 1",
      10);
  auto report = MustAudit(kSpan +
                          "AUDIT (name,disease) FROM P-Personal, P-Health "
                          "WHERE P-Personal.pid=P-Health.pid");
  ASSERT_EQ(report.verdicts.size(), 1u);
  const auto& verdict = report.verdicts[static_cast<size_t>(id - 1)];
  EXPECT_TRUE(verdict.candidate);
  EXPECT_FALSE(verdict.error);
  EXPECT_TRUE(report.batch_suspicious);
  EXPECT_EQ(report.CanonicalString().find(" error"), std::string::npos);
}

TEST_F(AuditorTest, StaticOnlyAlsoReportsPerQueryErrors) {
  Log("SELECT secret FROM NoSuchTable", 10);
  AuditOptions static_opts;
  static_opts.static_only = true;
  auto report =
      MustAudit(kSpan + "AUDIT (disease) FROM P-Health", static_opts);
  ASSERT_EQ(report.verdicts.size(), 1u);
  EXPECT_TRUE(report.verdicts[0].error);
  EXPECT_FALSE(report.verdicts[0].candidate);
}

TEST_F(AuditorTest, DecisionCacheKeepsReportsByteIdentical) {
  // Static decisions are memoized on the log's ParsedShapes: a second
  // audit of the same log parses nothing and reads the first audit's
  // facts, and both reports match an audit of a log that was never
  // screened (including the error verdict of the unknown table).
  const char* const queries[] = {
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND disease='diabetic'",
      "SELECT secret FROM NoSuchTable",
      "SELECT ward FROM P-Health WHERE ward='W11'",
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND disease='diabetic'",
  };
  QueryLog cold;
  for (int i = 0; i < 4; ++i) {
    Log(queries[i], 10 * (i + 1));
    cold.Append(queries[i], Ts(10 * (i + 1)), "alice", "doctor",
                "treatment");
  }
  const std::string text =
      kSpan +
      "AUDIT (name,disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'";

  auto first = MustAudit(text);
  const size_t parsed = log_.parsed_shapes();
  EXPECT_EQ(parsed, log_.distinct_shapes());
  auto second = MustAudit(text);
  EXPECT_EQ(log_.parsed_shapes(), parsed);

  Auditor fresh(&db_, &backlog_, &cold);
  auto plain = fresh.Audit(text, Ts(1000));
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ(first.CanonicalString(), plain->CanonicalString());
  EXPECT_EQ(second.CanonicalString(), plain->CanonicalString());
  EXPECT_TRUE(first.verdicts[1].error);
}

TEST_F(AuditorTest, RepeatedCandidatesShareOneExecutionPerState) {
  // Reku (zipcode 145568) moves at t=50. The same query text runs before
  // and after the move, twice on each state, once respelled; a failing
  // query (division by zero) repeats on one state. The auditor executes
  // each (shape, state) once and shares the profile, which must never
  // change a verdict.
  const std::string reku_zip =
      "SELECT name, zipcode FROM P-Personal WHERE zipcode='145568'";
  const std::string failing =
      "SELECT name, zipcode FROM P-Personal WHERE age / 0 = 1";
  Log(reku_zip, 10);
  Log(failing, 11);
  Log("SELECT  name,zipcode FROM P-Personal\n WHERE zipcode = '145568'",
      12);
  Log(reku_zip, 13);
  Log(failing, 14);
  ASSERT_TRUE(db_.UpdateColumn("P-Personal", 12, "zipcode",
                               Value::String("999999"), Ts(50))
                  .ok());
  Log(reku_zip, 60);
  Log(failing, 61);
  Log(reku_zip, 62);
  const std::string text =
      kSpan + "AUDIT (name,zipcode) FROM P-Personal WHERE name='Reku'";

  auto serial = MustAudit(text);
  ASSERT_EQ(serial.verdicts.size(), 8u);
  EXPECT_EQ(serial.num_candidates, 8u);
  // Executed counts candidates, not executions: every non-failing copy.
  EXPECT_EQ(serial.num_executed, 5u);
  // Before the move the query disclosed Reku; after it, it did not: the
  // text on both sides of the update executed against its own state.
  EXPECT_EQ(serial.SuspiciousQueryIds(),
            (std::vector<int64_t>{1, 3, 4}));
  for (int64_t id : {2, 5, 7}) {
    const QueryVerdict& verdict = serial.verdicts[static_cast<size_t>(id - 1)];
    EXPECT_TRUE(verdict.candidate) << id;
    EXPECT_TRUE(verdict.error) << id;
    EXPECT_FALSE(verdict.suspicious_alone) << id;
  }
  EXPECT_EQ(serial.NumErrored(), 3u);

  // A pool shares the same executions and produces the same bytes.
  auto expr = ParseAudit(text, Ts(1000));
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  service::ThreadPoolOptions pool_options;
  pool_options.num_threads = 4;
  service::ThreadPool pool(pool_options);
  Auditor auditor(&db_, &backlog_, &log_);
  auto pooled =
      auditor.AuditPinned(*expr, AuditOptions{}, auditor.Pin(), &pool);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  EXPECT_EQ(pooled->CanonicalString(), serial.CanonicalString());

  // Each copy's verdict is the one it gets in a log holding it alone.
  for (size_t i = 0; i < log_.size(); ++i) {
    const LoggedQuery& entry = log_.Entry(i);
    QueryLog alone;
    alone.Append(entry.sql, entry.timestamp, entry.user, entry.role,
                 entry.purpose);
    Auditor single(&db_, &backlog_, &alone);
    auto report = single.Audit(text, Ts(1000));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report->verdicts.size(), 1u);
    const QueryVerdict& got = report->verdicts[0];
    const QueryVerdict& want = serial.verdicts[i];
    EXPECT_EQ(got.candidate, want.candidate) << entry.sql;
    EXPECT_EQ(got.suspicious_alone, want.suspicious_alone) << i;
    EXPECT_EQ(got.error, want.error) << i;
  }
}

TEST_F(AuditorTest, ParseErrorsSurface) {
  Auditor auditor(&db_, &backlog_, &log_);
  EXPECT_FALSE(auditor.Audit("AUDIT FROM nothing", Ts(1000)).ok());
  EXPECT_FALSE(
      auditor.Audit("AUDIT x FROM NoSuchTable", Ts(1000)).ok());
}

// ---------------------------------------------------------------------
// Generated hospital worlds whose logged queries run on many states.

class ChurnedAuditorTest : public ::testing::Test {
 protected:
  void SetUp() override { backlog_.Attach(&db_); }

  /// 60 patients and a 120-query log from t = 100 s, with 60 churn steps
  /// stamped between the queries (out of capture order if asked).
  void Build(bool inserts_and_deletes, bool shuffle_stamps) {
    workload::HospitalConfig hospital;
    hospital.num_patients = 60;
    hospital.seed = 2008;
    hospital.diabetic_fraction = 0.3;
    ASSERT_TRUE(workload::PopulateHospital(&db_, hospital, Ts(1)).ok());
    workload::WorkloadConfig config;
    config.num_queries = 120;
    config.seed = 42;
    config.start = Ts(100);
    config.join_fraction = 0.5;
    config.sensitive_fraction = 0.5;
    ASSERT_TRUE(workload::GenerateWorkload(&log_, config, hospital).ok());
    versioned_reference::ChurnSpec churn;
    churn.tables = {"P-Personal", "P-Health", "P-Employ"};
    churn.seed = 7;
    churn.start = Timestamp(Ts(100).micros() + 500000);
    churn.spacing_micros = 2000000;
    churn.inserts_and_deletes = inserts_and_deletes;
    churn.shuffle_stamps = shuffle_stamps;
    ASSERT_TRUE(versioned_reference::ApplyChurn(&db_, churn).ok());
  }

  const std::string kText =
      "DURING 1/1/1970 to 2/1/1970 DATA-INTERVAL 1/1/1970 to 2/1/1970 "
      "AUDIT (name, disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease = 'diabetic'";

  Database db_;
  Backlog backlog_;
  QueryLog log_;
};

TEST_F(ChurnedAuditorTest, PoolMatchesSerial) {
  // Pool workers share the TableVersions that one cursor pinned into
  // several states, and race the first join-index build of each.
  Build(/*inserts_and_deletes=*/true, /*shuffle_stamps=*/false);
  Auditor auditor(&db_, &backlog_, &log_);
  auto serial = auditor.Audit(kText, Ts(1000));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  EXPECT_GT(serial->num_executed, 10u);
  EXPECT_FALSE(serial->SuspiciousQueryIds().empty());

  auto expr = ParseAudit(kText, Ts(1000));
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  service::ThreadPoolOptions pool_options;
  pool_options.num_threads = 4;
  service::ThreadPool pool(pool_options);
  auto pooled =
      auditor.AuditPinned(*expr, AuditOptions{}, auditor.Pin(), &pool);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  EXPECT_EQ(pooled->CanonicalString(), serial->CanonicalString());
}

TEST_F(ChurnedAuditorTest, NonMonotoneBacklogVerdictsMatchAlone) {
  Build(/*inserts_and_deletes=*/false, /*shuffle_stamps=*/true);
  Auditor auditor(&db_, &backlog_, &log_);
  auto report = auditor.Audit(kText, Ts(1000));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->SuspiciousQueryIds().empty());

  // The oracle rebuilds every state with SnapshotAt.
  auto expr = ParseAudit(kText, Ts(1000));
  ASSERT_TRUE(expr.ok());
  ASSERT_TRUE(expr->Qualify(db_.catalog()).ok());
  auto view = versioned_reference::ReplayEveryVersion(*expr, backlog_);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto schemes = BuildSchemes(*expr);

  for (size_t i = 0; i < log_.size(); ++i) {
    const LoggedQuery& entry = log_.Entry(i);
    const QueryVerdict& want = report->verdicts[i];
    QueryLog alone;
    alone.Append(entry.sql, entry.timestamp, entry.user, entry.role,
                 entry.purpose);
    Auditor single(&db_, &backlog_, &alone);
    auto got = single.Audit(kText, Ts(1000));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->verdicts.size(), 1u);
    EXPECT_EQ(got->verdicts[0].candidate, want.candidate) << entry.sql;
    EXPECT_EQ(got->verdicts[0].suspicious_alone, want.suspicious_alone)
        << entry.sql;
    EXPECT_EQ(got->verdicts[0].error, want.error) << entry.sql;
    if (!want.candidate) continue;

    auto stmt = sql::ParseSelect(entry.sql);
    ASSERT_TRUE(stmt.ok()) << entry.sql;
    auto snapshot = backlog_.SnapshotAt(entry.timestamp);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    auto profile = ComputeAccessProfile(*stmt, snapshot->View());
    EXPECT_EQ(want.error, !profile.ok()) << entry.sql;
    if (!profile.ok()) continue;
    auto alone_check = CheckBatchSuspicion(*view, schemes, expr->threshold,
                                           expr->indispensable, {&*profile});
    ASSERT_TRUE(alone_check.ok()) << alone_check.status().ToString();
    EXPECT_EQ(want.suspicious_alone, alone_check->suspicious) << entry.sql;
  }
}

TEST_F(ChurnedAuditorTest, NonMonotoneBacklogReplaysCaptureOrder) {
  // Reku leaves zipcode 145568 at t = 50, but that update is captured
  // after a salary change stamped 60. The state at 55 holds the move
  // (every event stamped <= 55, in capture order); a sweep that stopped
  // at the first later stamp would miss it and flag query 2.
  ASSERT_TRUE(workload::BuildPaperDatabase(&db_, Ts(1)).ok());
  ASSERT_TRUE(db_.UpdateColumn("P-Employ", 31, "salary", Value::Int(1),
                               Ts(60))
                  .ok());
  ASSERT_TRUE(db_.UpdateColumn("P-Personal", 12, "zipcode",
                               Value::String("999999"), Ts(50))
                  .ok());
  const std::string reku_zip =
      "SELECT name, zipcode FROM P-Personal WHERE zipcode='145568'";
  log_.Append(reku_zip, Ts(40), "alice", "doctor", "treatment");
  log_.Append(reku_zip, Ts(55), "alice", "doctor", "treatment");
  log_.Append(reku_zip, Ts(70), "alice", "doctor", "treatment");
  Auditor auditor(&db_, &backlog_, &log_);
  auto report = auditor.Audit(
      "DURING 1/1/1970 to 2/1/1970 DATA-INTERVAL 1/1/1970 to 2/1/1970 "
      "AUDIT (name,zipcode) FROM P-Personal WHERE name='Reku'",
      Ts(1000));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->SuspiciousQueryIds(), (std::vector<int64_t>{1}));
}

}  // namespace
}  // namespace audit
}  // namespace auditdb
