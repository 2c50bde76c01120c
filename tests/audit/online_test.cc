#include "src/audit/online.h"

#include <gtest/gtest.h>

#include "src/audit/audit_parser.h"
#include "src/audit/auditor.h"
#include "src/service/thread_pool.h"
#include "src/workload/generator.h"
#include "src/workload/hospital.h"
#include "tests/audit/online_reference.h"

namespace auditdb {
namespace audit {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

LoggedQuery Q(int64_t id, const std::string& sql, int64_t at = 100,
              const std::string& role = "doctor",
              const std::string& purpose = "treatment") {
  LoggedQuery q;
  q.id = id;
  q.sql = sql;
  q.timestamp = Ts(at);
  q.user = "alice";
  q.role = role;
  q.purpose = purpose;
  return q;
}

class OnlineAuditorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(workload::BuildPaperDatabase(&db_, Ts(1)).ok());
    online_ = std::make_unique<OnlineAuditor>(&db_);
  }

  AuditExpression Parse(const std::string& text) {
    auto expr = ParseAudit("DURING 1/1/1970 to 2/1/1970 " + text, Ts(1000));
    EXPECT_TRUE(expr.ok()) << expr.status().ToString();
    return std::move(*expr);
  }

  const std::string kSemantic =
      "AUDIT (name,disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease = 'diabetic'";

  Database db_;
  std::unique_ptr<OnlineAuditor> online_;
};

TEST_F(OnlineAuditorTest, RegistersAndScreens) {
  auto id = online_->AddExpression(Parse(kSemantic));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(online_->size(), 1u);

  auto initial = online_->Current();
  ASSERT_EQ(initial.size(), 1u);
  EXPECT_FALSE(initial[0].fired);
  EXPECT_DOUBLE_EQ(initial[0].rank, 0.0);
}

TEST_F(OnlineAuditorTest, FiresOnFullDisclosure) {
  ASSERT_TRUE(online_->AddExpression(Parse(kSemantic)).ok());
  auto screenings = online_->Observe(Q(
      1,
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND disease='diabetic'"));
  ASSERT_TRUE(screenings.ok()) << screenings.status().ToString();
  ASSERT_EQ(screenings->size(), 1u);
  EXPECT_TRUE((*screenings)[0].fired);
  EXPECT_DOUBLE_EQ((*screenings)[0].rank, 1.0);
}

TEST_F(OnlineAuditorTest, RankRisesMonotonicallyAcrossPartialQueries) {
  ASSERT_TRUE(online_->AddExpression(Parse(kSemantic)).ok());

  // Step 1: names of the zip-code population — partial coverage.
  auto s1 = online_->Observe(
      Q(1, "SELECT name FROM P-Personal WHERE zipcode='145568'"));
  ASSERT_TRUE(s1.ok());
  double r1 = (*s1)[0].rank;
  EXPECT_FALSE((*s1)[0].fired);
  EXPECT_GT(r1, 0.0);
  EXPECT_LT(r1, 1.0);

  // Step 2: diseases — completes the scheme.
  auto s2 = online_->Observe(
      Q(2, "SELECT disease FROM P-Health WHERE disease='diabetic'"));
  ASSERT_TRUE(s2.ok());
  EXPECT_TRUE((*s2)[0].fired);
  EXPECT_DOUBLE_EQ((*s2)[0].rank, 1.0);
  EXPECT_GE((*s2)[0].rank, r1);
}

TEST_F(OnlineAuditorTest, IrrelevantQueriesLeaveRankAtZero) {
  ASSERT_TRUE(online_->AddExpression(Parse(kSemantic)).ok());
  auto s = online_->Observe(
      Q(1, "SELECT employer FROM P-Employ WHERE salary > 15000"));
  ASSERT_TRUE(s.ok());
  EXPECT_FALSE((*s)[0].fired);
  EXPECT_DOUBLE_EQ((*s)[0].rank, 0.0);
}

TEST_F(OnlineAuditorTest, LimitingParametersSkipObservations) {
  auto expr = Parse("Neg-Role-Purpose (clerk,-) " + kSemantic);
  ASSERT_TRUE(online_->AddExpression(expr).ok());
  auto s = online_->Observe(Q(
      1,
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND disease='diabetic'",
      100, "clerk", "billing"));
  ASSERT_TRUE(s.ok());
  EXPECT_FALSE((*s)[0].fired);  // the clerk's access is out of audit scope

  auto s2 = online_->Observe(Q(
      2,
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND disease='diabetic'",
      100, "doctor", "treatment"));
  ASSERT_TRUE(s2.ok());
  EXPECT_TRUE((*s2)[0].fired);
}

TEST_F(OnlineAuditorTest, MultipleStandingExpressions) {
  ASSERT_TRUE(online_->AddExpression(Parse(kSemantic)).ok());
  ASSERT_TRUE(online_
                  ->AddExpression(Parse(
                      "AUDIT (salary) FROM P-Employ WHERE salary > 15000"))
                  .ok());
  auto s = online_->Observe(
      Q(1, "SELECT salary FROM P-Employ WHERE employer='E2'"));
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(s->size(), 2u);
  EXPECT_FALSE((*s)[0].fired);  // disease audit untouched
  EXPECT_TRUE((*s)[1].fired);   // salary audit fired (E2 pays 20000)
}

TEST_F(OnlineAuditorTest, ViewRebuiltAfterDataChanges) {
  ASSERT_TRUE(online_->AddExpression(Parse(kSemantic)).ok());
  // A new diabetic patient appears after registration.
  ASSERT_TRUE(db_.Insert("P-Personal",
                         {Value::String("p99"), Value::String("Nora"),
                          Value::Int(41), Value::String("F"),
                          Value::String("145568"), Value::String("A9")},
                         Ts(50))
                  .ok());
  ASSERT_TRUE(db_.Insert("P-Health",
                         {Value::String("p99"), Value::String("W1"),
                          Value::String("Mehta"), Value::String("diabetic"),
                          Value::String("drug1")},
                         Ts(51))
                  .ok());
  auto s = online_->Observe(Q(
      1,
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND name='Nora'"));
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE((*s)[0].fired);  // the rebuilt U contains Nora's fact
}

TEST_F(OnlineAuditorTest, ThresholdNeedsEnoughDistinctFacts) {
  ASSERT_TRUE(online_
                  ->AddExpression(Parse(
                      "THRESHOLD 2 AUDIT (name) FROM P-Personal "
                      "WHERE zipcode='145568'"))
                  .ok());
  auto s1 = online_->Observe(
      Q(1, "SELECT name FROM P-Personal WHERE name='Reku'"));
  ASSERT_TRUE(s1.ok());
  EXPECT_FALSE((*s1)[0].fired);
  EXPECT_LT((*s1)[0].rank, 1.0);
  auto s2 = online_->Observe(
      Q(2, "SELECT name FROM P-Personal WHERE name='Lucy'"));
  ASSERT_TRUE(s2.ok());
  EXPECT_TRUE((*s2)[0].fired);
}

TEST_F(OnlineAuditorTest, RankReportsBestSchemeForOptionalGroups) {
  // [name,age]: two schemes; accessing age rows should max the age
  // scheme's rank while name stays untouched.
  ASSERT_TRUE(online_
                  ->AddExpression(Parse(
                      "AUDIT [name,age] FROM P-Personal WHERE age < 30"))
                  .ok());
  auto s = online_->Observe(
      Q(1, "SELECT age FROM P-Personal WHERE age < 30"));
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE((*s)[0].fired);  // single-attr scheme fully covered
  EXPECT_DOUBLE_EQ((*s)[0].rank, 1.0);
}

TEST_F(OnlineAuditorTest, PartialThresholdRankBetweenZeroAndOne) {
  ASSERT_TRUE(online_
                  ->AddExpression(Parse(
                      "THRESHOLD 3 AUDIT (name) FROM P-Personal"))
                  .ok());
  // One of the required three facts accessed: rank = (1 + 1) / (1 + 3).
  auto s = online_->Observe(
      Q(1, "SELECT name FROM P-Personal WHERE name='Jane'"));
  ASSERT_TRUE(s.ok());
  EXPECT_FALSE((*s)[0].fired);
  EXPECT_DOUBLE_EQ((*s)[0].rank, 0.5);
}

TEST_F(OnlineAuditorTest, ResetBatchesClearsState) {
  ASSERT_TRUE(online_->AddExpression(Parse(kSemantic)).ok());
  auto s = online_->Observe(Q(
      1,
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND disease='diabetic'"));
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE((*s)[0].fired);
  online_->ResetBatches();
  auto current = online_->Current();
  EXPECT_FALSE(current[0].fired);
  EXPECT_DOUBLE_EQ(current[0].rank, 0.0);
}

TEST_F(OnlineAuditorTest, ValueContainmentUnsupported) {
  auto expr = Parse("INDISPENSABLE false " + kSemantic);
  auto id = online_->AddExpression(expr);
  EXPECT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kUnimplemented);
}

TEST_F(OnlineAuditorTest, UnparseableQueriesAreIgnored) {
  ASSERT_TRUE(online_->AddExpression(Parse(kSemantic)).ok());
  auto s = online_->Observe(Q(1, "DELETE FROM P-Health"));
  ASSERT_TRUE(s.ok());
  EXPECT_FALSE((*s)[0].fired);
}

// --- Scheme-state alignment (regression) ------------------------------

/// The old rebuild dropped failed resolutions while filling the column
/// and tid positions, so RecomputeAccessCounts paired
/// tid_positions[i] with scheme.tid_tables[i] of a *different* table —
/// silently undercounting access. The rebuild must fail instead.
TEST_F(OnlineAuditorTest, SchemeStateRebuildFailsOnMissingTidTable) {
  auto expr = Parse(kSemantic);
  ASSERT_TRUE(expr.Qualify(db_.catalog()).ok());
  // Hand-built view resolving every audited attribute but lacking the
  // *first* tid table (P-Personal). The drop-and-continue behaviour
  // would resolve only P-Health into tid_positions[0] and pair it with
  // tid_tables[0] = P-Personal downstream.
  TargetView view;
  view.tables = {"P-Health"};
  view.columns = {{"P-Personal", "name"},
                  {"P-Health", "disease"},
                  {"P-Personal", "pid"},
                  {"P-Health", "pid"}};
  auto states = BuildOnlineSchemeStates(expr, view, {});
  ASSERT_FALSE(states.ok());
  EXPECT_NE(states.status().message().find("P-Personal"),
            std::string::npos)
      << states.status().ToString();
}

TEST_F(OnlineAuditorTest, SchemeStateRebuildFailsOnMissingAttribute) {
  auto expr = Parse(kSemantic);
  ASSERT_TRUE(expr.Qualify(db_.catalog()).ok());
  TargetView view;
  view.tables = {"P-Personal", "P-Health"};
  view.columns = {{"P-Personal", "name"}};  // disease unresolvable
  auto states = BuildOnlineSchemeStates(expr, view, {});
  ASSERT_FALSE(states.ok());
  EXPECT_NE(states.status().message().find("disease"), std::string::npos);
}

TEST_F(OnlineAuditorTest, SchemeStateVectorsStayIndexAligned) {
  auto expr = Parse(kSemantic);
  ASSERT_TRUE(expr.Qualify(db_.catalog()).ok());
  auto view = ComputeTargetView(expr, db_.View(), Ts(1));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto resolved = ResolveSchemes(*view, BuildSchemes(expr), expr.threshold);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  for (const auto& scheme : *resolved) {
    EXPECT_EQ(scheme.columns.size(), scheme.scheme.attrs.size());
    ASSERT_EQ(scheme.tid_positions.size(), scheme.scheme.tid_tables.size());
    for (size_t i = 0; i < scheme.tid_positions.size(); ++i) {
      EXPECT_EQ(view->tables[scheme.tid_positions[i]],
                scheme.scheme.tid_tables[i]);
    }
  }
  // The online states carry exactly these resolutions.
  auto states = BuildOnlineSchemeStates(expr, *view, {});
  ASSERT_TRUE(states.ok()) << states.status().ToString();
  ASSERT_EQ(states->size(), resolved->size());
  for (size_t s = 0; s < states->size(); ++s) {
    EXPECT_EQ((*states)[s].resolved.columns, (*resolved)[s].columns);
    EXPECT_EQ((*states)[s].resolved.tid_positions,
              (*resolved)[s].tid_positions);
    EXPECT_EQ((*states)[s].resolved.valid_facts, (*resolved)[s].valid_facts);
  }
}

// --- Candidacy-error propagation --------------------------------------

TEST_F(OnlineAuditorTest, CandidacyErrorsPropagateInsteadOfClearing) {
  ASSERT_TRUE(online_->AddExpression(Parse(kSemantic)).ok());
  // Parses fine, but the static candidacy check cannot resolve the
  // table. The old monitor treated this as "not a candidate" and moved
  // on; nothing was proven about the query, so it must surface.
  auto s = online_->Observe(Q(1, "SELECT name FROM NoSuchTable"));
  EXPECT_FALSE(s.ok());
}

TEST_F(OnlineAuditorTest, CandidacyErrorsMatchTheReference) {
  // The same error as a direct, uncached candidacy check, on the first
  // observation (a cache miss) and on the repeat (a cache hit).
  OnlineReference reference(&db_);
  ASSERT_TRUE(online_->AddExpression(Parse(kSemantic)).ok());
  ASSERT_TRUE(reference.AddExpression(Parse(kSemantic)).ok());
  for (int64_t id = 1; id <= 2; ++id) {
    auto s = online_->Observe(Q(id, "SELECT name FROM NoSuchTable"));
    auto expected = reference.Observe(Q(id, "SELECT name FROM NoSuchTable"));
    ASSERT_FALSE(expected.ok());
    ASSERT_FALSE(s.ok()) << "observation " << id;
    EXPECT_EQ(s.status().ToString(), expected.status().ToString());
  }
}

TEST_F(OnlineAuditorTest, FailedReexecutionIsAnErrorNotAClear) {
  // Candidates that parse and pass the candidacy check but fail to
  // execute (type errors, division by zero) were never screened: Observe
  // must return the failure — serially and on a pool — and leave every
  // screening as it was, never report the query as cleared.
  const std::string join =
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND ";
  const std::vector<std::string> failing = {
      join + "name + 1 > 3",
      join + "disease - 1 = 2",
      join + "P-Personal.pid / 0 = 1",
  };
  service::ThreadPoolOptions pool_options;
  pool_options.num_threads = 2;
  service::ThreadPool pool(pool_options);
  for (service::ThreadPool* on : {static_cast<service::ThreadPool*>(nullptr),
                                  &pool}) {
    OnlineAuditor online(&db_);
    // Two standing expressions, so the pooled Observe fans out.
    ASSERT_TRUE(online.AddExpression(Parse(kSemantic)).ok());
    ASSERT_TRUE(online
                    .AddExpression(Parse(
                        "AUDIT (name,disease) FROM P-Personal, P-Health "
                        "WHERE P-Personal.pid = P-Health.pid"))
                    .ok());
    auto before = online.Current();
    for (size_t i = 0; i < failing.size(); ++i) {
      auto s = online.Observe(Q(static_cast<int64_t>(i + 1), failing[i]), on);
      EXPECT_FALSE(s.ok()) << failing[i] << (on ? " (pooled)" : " (serial)");
    }
    auto after = online.Current();
    ASSERT_EQ(after.size(), before.size());
    for (size_t e = 0; e < after.size(); ++e) {
      EXPECT_EQ(after[e].fired, before[e].fired);
      EXPECT_EQ(after[e].rank, before[e].rank);
    }
    // The same query with a well-typed predicate is screened normally.
    auto ok = online.Observe(Q(9, join + "disease='diabetic'"), on);
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_GT((*ok)[0].rank, 0.0);
  }
}

TEST_F(OnlineAuditorTest, ArithmeticOverNullAgeRegisters) {
  // Reku's age is NULL, so 100 / age is NULL on Reku's row: the row fails
  // the predicate instead of failing the target-view build.
  auto id = online_->AddExpression(
      Parse("AUDIT disease FROM P-Personal, P-Health "
            "WHERE P-Personal.pid = P-Health.pid AND 100 / age > 1"));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto s = online_->Observe(
      Q(1, "SELECT disease FROM P-Personal, P-Health "
           "WHERE P-Personal.pid=P-Health.pid"));
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ASSERT_EQ(s->size(), 1u);
  EXPECT_TRUE((*s)[0].fired);
}

TEST_F(OnlineAuditorTest, OneFailingExpressionDoesNotStopTheOthers) {
  // Expressions A, B, C; only B's target-view rebuild fails, because its
  // WHERE divides by an age that a write set to 0 (`age >= 0` keeps
  // Reku's NULL age out of the division). Serial and pooled Observe both
  // let A and C observe the query, return B's error, and leave the same
  // screenings behind.
  const std::string kFailing =
      "AUDIT (name,disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND age >= 0 AND 100 / age > 1";
  const std::string query =
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND disease='diabetic'";
  service::ThreadPoolOptions pool_options;
  pool_options.num_threads = 2;
  service::ThreadPool pool(pool_options);
  std::vector<std::vector<OnlineAuditor::Screening>> states;
  for (service::ThreadPool* on : {static_cast<service::ThreadPool*>(nullptr),
                                  &pool}) {
    const char* mode = on ? " (pooled)" : " (serial)";
    Database db;
    ASSERT_TRUE(workload::BuildPaperDatabase(&db, Ts(1)).ok());
    OnlineAuditor online(&db);
    ASSERT_TRUE(online.AddExpression(Parse(kSemantic)).ok());  // A
    auto b = online.AddExpression(Parse(kFailing));  // B
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_TRUE(online.AddExpression(Parse(kSemantic)).ok());  // C
    ASSERT_TRUE(
        db.UpdateColumn("P-Personal", 13, "age", Value::Int(0), Ts(50)).ok());

    auto s = online.Observe(Q(1, query), on);
    ASSERT_FALSE(s.ok()) << mode;
    EXPECT_EQ(s.status().ToString(),
              Status::InvalidArgument("division by zero").ToString())
        << mode;
    auto current = online.Current();
    ASSERT_EQ(current.size(), 3u);
    EXPECT_TRUE(current[0].fired) << mode;
    EXPECT_FALSE(current[1].fired) << mode;
    EXPECT_TRUE(current[2].fired) << mode;
    states.push_back(std::move(current));
  }
  for (size_t e = 0; e < 3; ++e) {
    EXPECT_EQ(states[0][e].fired, states[1][e].fired) << e;
    EXPECT_EQ(states[0][e].rank, states[1][e].rank) << e;
    EXPECT_EQ(states[0][e].best_scheme, states[1][e].best_scheme) << e;
  }
}

// --- Expression index + decision cache --------------------------------

TEST_F(OnlineAuditorTest, IndexSkipsUntouchedExpressions) {
  ASSERT_TRUE(online_->AddExpression(Parse(kSemantic)).ok());
  ASSERT_TRUE(online_
                  ->AddExpression(Parse(
                      "AUDIT (salary) FROM P-Employ WHERE salary > 15000"))
                  .ok());
  // Touches only the salary audit: the disease expression is skipped
  // without any per-expression work.
  auto s = online_->Observe(
      Q(1, "SELECT salary FROM P-Employ WHERE employer='E2'"));
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE((*s)[1].fired);
  const AuditIndexStats& stats = online_->stats();
  EXPECT_EQ(stats.index_lookups.load(), 1u);
  EXPECT_EQ(stats.index_visited.load(), 1u);
  EXPECT_EQ(stats.index_skipped.load(), 1u);
}

TEST_F(OnlineAuditorTest, RepeatedQueriesHitTheDecisionCache) {
  ASSERT_TRUE(online_->AddExpression(Parse(kSemantic)).ok());
  const char* sql =
      "SELECT name FROM P-Personal WHERE zipcode='145568'";
  ASSERT_TRUE(online_->Observe(Q(1, sql)).ok());
  uint64_t misses = online_->stats().cache_misses.load();
  uint64_t hits = online_->stats().cache_hits.load();
  ASSERT_TRUE(online_->Observe(Q(2, sql)).ok());
  EXPECT_EQ(online_->stats().cache_misses.load(), misses);
  EXPECT_GT(online_->stats().cache_hits.load(), hits);
}

TEST_F(OnlineAuditorTest, VersionKeysSurviveUnrelatedWritesButNotOwnOnes) {
  ASSERT_TRUE(online_->AddExpression(Parse(kSemantic)).ok());
  const char* sql =
      "SELECT name FROM P-Personal WHERE zipcode='145568'";
  ASSERT_TRUE(online_->Observe(Q(1, sql)).ok());
  // A row write to a table the query does not read (P-Health) leaves
  // every cached decision about it valid: static decisions are keyed on
  // the catalog epoch and the executed profile on the epoch fingerprint
  // of the query's own FROM tables. The re-observation is pure hits —
  // nothing is recomputed and nothing was wholesale-invalidated.
  ASSERT_TRUE(db_.Insert("P-Health",
                         {Value::String("p78"), Value::String("W9"),
                          Value::String("Smith"), Value::String("flu"),
                          Value::String("drug9")},
                         Ts(10))
                  .ok());
  uint64_t misses = online_->stats().cache_misses.load();
  uint64_t hits = online_->stats().cache_hits.load();
  ASSERT_TRUE(online_->Observe(Q(2, sql)).ok());
  EXPECT_EQ(online_->stats().cache_misses.load(), misses);
  EXPECT_GT(online_->stats().cache_hits.load(), hits);
  // A write to the queried table bumps its version epoch, so the
  // executed profile recomputes against the new state (no stale hit).
  ASSERT_TRUE(db_.UpdateColumn("P-Personal", 12, "zipcode",
                               Value::String("999999"), Ts(11))
                  .ok());
  misses = online_->stats().cache_misses.load();
  ASSERT_TRUE(online_->Observe(Q(3, sql)).ok());
  EXPECT_GT(online_->stats().cache_misses.load(), misses);
}

TEST_F(OnlineAuditorTest, SharedCacheServesMultipleAuditors) {
  auto cache = std::make_shared<DecisionCache>();
  OnlineAuditorOptions options;
  options.cache = cache;
  OnlineAuditor first(&db_, options);
  OnlineAuditor second(&db_, options);
  ASSERT_TRUE(first.AddExpression(Parse(kSemantic)).ok());
  ASSERT_TRUE(second.AddExpression(Parse(kSemantic)).ok());
  const char* sql =
      "SELECT name FROM P-Personal WHERE zipcode='145568'";
  ASSERT_TRUE(first.Observe(Q(1, sql)).ok());
  uint64_t hits = cache->stats()->cache_hits.load();
  // The second auditor's identical decisions come out of the shared
  // cache the first one populated.
  ASSERT_TRUE(second.Observe(Q(1, sql)).ok());
  EXPECT_GT(cache->stats()->cache_hits.load(), hits);
}

TEST_F(OnlineAuditorTest, LoggedEntryAndZeroShapeCopyScreenIdentically) {
  // The serving stack observes the entry the log just appended, which
  // carries its shape; a caller without a log passes an entry whose
  // shape is zero, and Observe computes it. Both must screen alike.
  OnlineAuditor logged(&db_);
  OnlineAuditor copied(&db_);
  for (OnlineAuditor* online : {&logged, &copied}) {
    ASSERT_TRUE(online->AddExpression(Parse(kSemantic)).ok());
    ASSERT_TRUE(
        online->AddExpression(Parse("AUDIT (salary) FROM P-Employ")).ok());
  }
  QueryLog log;
  const char* const queries[] = {
      "SELECT name FROM P-Personal WHERE zipcode='145568'",
      "SELECT salary FROM P-Employ",
      "SELECT  name FROM P-Personal\n WHERE zipcode = '145568'",
      "SELECT nonsense FROM",
      "SELECT pid, disease FROM P-Health WHERE disease='diabetic'",
  };
  int64_t at = 100;
  for (const char* sql : queries) {
    int64_t id = log.Append(sql, Ts(at++), "alice", "doctor", "treatment");
    const LoggedQuery& entry = log.Entry(static_cast<size_t>(id - 1));
    ASSERT_FALSE(entry.shape.zero());
    LoggedQuery copy = entry;
    copy.shape = sql::QueryShape{};
    copy.parsed = nullptr;
    auto from_log = logged.Observe(entry);
    auto from_copy = copied.Observe(copy);
    ASSERT_EQ(from_log.ok(), from_copy.ok()) << sql;
    if (!from_log.ok()) {
      EXPECT_EQ(from_log.status().ToString(), from_copy.status().ToString());
      continue;
    }
    ASSERT_EQ(from_log->size(), from_copy->size());
    for (size_t i = 0; i < from_log->size(); ++i) {
      EXPECT_EQ((*from_log)[i].expression_id, (*from_copy)[i].expression_id);
      EXPECT_EQ((*from_log)[i].fired, (*from_copy)[i].fired) << sql;
      EXPECT_EQ((*from_log)[i].rank, (*from_copy)[i].rank) << sql;
      EXPECT_EQ((*from_log)[i].best_scheme, (*from_copy)[i].best_scheme);
    }
  }
  // Observe keeps no parse of its own in the log.
  EXPECT_EQ(log.parsed_shapes(), 0u);
  EXPECT_TRUE(logged.Current()[0].fired);
}

/// Differential: the online monitor must fire on exactly the workloads
/// the offline batch auditor flags, when the data never changes.
class OnlineVsOffline : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OnlineVsOffline, AgreeOnStaticData) {
  Database db;
  Backlog backlog;
  backlog.Attach(&db);
  workload::HospitalConfig hospital;
  hospital.num_patients = 30;
  hospital.seed = GetParam();
  ASSERT_TRUE(workload::PopulateHospital(&db, hospital, Ts(1)).ok());

  QueryLog log;
  workload::WorkloadConfig config;
  config.num_queries = 40;
  config.seed = GetParam() * 31;
  config.start = Ts(100);
  ASSERT_TRUE(workload::GenerateWorkload(&log, config, hospital).ok());

  auto expr = ParseAudit(
      "DURING 1/1/1970 to 2/1/1970 DATA-INTERVAL 1/1/1970 to 2/1/1970 "
      "AUDIT (name,disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'",
      Ts(1000));
  ASSERT_TRUE(expr.ok());

  Auditor offline(&db, &backlog, &log);
  AuditOptions options;
  options.per_query_verdicts = false;
  options.minimize_batch = false;
  auto report = offline.Audit(*expr, options);
  ASSERT_TRUE(report.ok());

  // The monitor (index, cache, incremental state) and the from-scratch
  // reference give identical screenings at every step.
  OnlineAuditor online(&db);
  OnlineReference reference(&db);
  ASSERT_TRUE(online.AddExpression(*expr).ok());
  ASSERT_TRUE(reference.AddExpression(*expr).ok());
  bool fired = false;
  for (size_t qi = 0; qi < log.size(); ++qi) {
    const auto& entry = log.Entry(qi);
    auto s = online.Observe(entry);
    auto p = reference.Observe(entry);
    ASSERT_EQ(s.ok(), p.ok());
    ASSERT_TRUE(s.ok());
    ASSERT_EQ(s->size(), p->size());
    for (size_t e = 0; e < s->size(); ++e) {
      EXPECT_EQ((*s)[e].fired, (*p)[e].fired) << "seed=" << GetParam();
      EXPECT_EQ((*s)[e].rank, (*p)[e].rank) << "seed=" << GetParam();
      EXPECT_EQ((*s)[e].best_scheme, (*p)[e].best_scheme);
    }
    fired = (*s)[0].fired;
  }
  EXPECT_EQ(fired, report->batch_suspicious) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineVsOffline,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace audit
}  // namespace auditdb
