/// Differential test of target-view restriction. In the default per-table
/// mode the auditor re-executes each candidate only over the target
/// view's tuples (ComputeRestrictedAccessProfile). Over generated
/// hospital worlds, its reports must match, byte for byte under
/// CanonicalString, reports rebuilt from unrestricted profiles, both on
/// the caller thread and on a 4-worker pool. Each restricted profile's
/// bitmap of an audited table must equal the unrestricted bitmap
/// intersected with U's tids of that table.
///
/// Besides the generated queries, every log carries targeted cases:
/// candidates reading one audited table, a 3-way join with P-Employ, a
/// cross conjunct that trips the no-failing-visit guard, NULL join keys
/// on both sides, and a cross product whose only P-Personal row lies
/// outside U. One world kind adds a P-Personal row outside U whose STRING
/// age makes local age filters fail there: a restricted run would never
/// visit it.

#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>

#include "src/audit/audit_stages.h"
#include "src/audit/auditor.h"
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

enum class World { kStatic, kChurned, kErrorRow };

struct Param {
  uint64_t seed;
  World world;
};

std::string Name(const Param& param) {
  const char* kNames[] = {"Static", "Churned", "ErrorRow"};
  return std::string(kNames[static_cast<int>(param.world)]) + "_seed" +
         std::to_string(param.seed);
}

/// Keeps gtest from printing the struct's padding bytes.
void PrintTo(const Param& param, std::ostream* os) { *os << Name(param); }

const char* const kSpan =
    "DURING 1/1/1970 to 2/1/1970 DATA-INTERVAL 1/1/1970 to 2/1/1970 ";

/// Two audited tables; three with P-Employ and THRESHOLD 2; optional
/// attributes, whose schemes each cover one table; an empty U.
const char* const kAudits[] = {
    "AUDIT (name, disease) FROM P-Personal, P-Health "
    "WHERE P-Personal.pid = P-Health.pid AND disease = 'diabetic'",
    "THRESHOLD 2 AUDIT (name, disease, salary) "
    "FROM P-Personal, P-Health, P-Employ WHERE P-Personal.pid = "
    "P-Health.pid AND P-Health.pid = P-Employ.pid AND disease = 'diabetic'",
    "AUDIT disease, salary FROM P-Health, P-Employ "
    "WHERE P-Health.pid = P-Employ.pid AND salary > 30000",
    "AUDIT (name, disease) FROM P-Personal, P-Health "
    "WHERE P-Personal.pid = P-Health.pid AND disease = 'no-such-disease'",
};

const char* const kTargeted[] = {
    "SELECT pid, disease FROM P-Health WHERE disease = 'diabetic'",
    "SELECT name, disease, salary FROM P-Personal, P-Health, P-Employ "
    "WHERE P-Personal.pid = P-Health.pid AND P-Health.pid = P-Employ.pid "
    "AND salary > 10000",
    "SELECT name, disease FROM P-Personal, P-Health "
    "WHERE P-Personal.pid = P-Health.pid AND age + 1 > 0",
    "SELECT name, disease FROM P-Personal, P-Health, P-Employ "
    "WHERE P-Personal.pid = P-Health.pid AND P-Health.pid = P-Employ.pid "
    "AND P-Personal.age + 1 > P-Employ.salary - 100000",
    "SELECT name, disease FROM P-Personal, P-Health "
    "WHERE P-Personal.pid = P-Health.pid AND age > 20",
    "SELECT name, pid FROM P-Personal WHERE age > 20",
    // Every P-Health row is indispensable here, each only through the
    // NULL-pid patient Nil, who lies outside U.
    "SELECT name, disease FROM P-Personal, P-Health "
    "WHERE P-Personal.name = 'Nil'",
};

class TargetViewRestrictionDifferential
    : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    backlog_.Attach(&db_);
    const Param param = GetParam();
    workload::HospitalConfig hospital;
    hospital.num_patients = 40;
    hospital.seed = param.seed;
    hospital.diabetic_fraction = 0.3;
    ASSERT_TRUE(workload::PopulateHospital(&db_, hospital, Ts(1)).ok());
    auto s = [](const char* text) { return Value::String(text); };
    // NULL join keys on both sides, one of them diabetic.
    ASSERT_TRUE(db_.Insert("P-Personal",
                           {Value::Null(), s("Nil"), Value::Int(40), s("F"),
                            s("145568"), s("nowhere")},
                           Ts(1))
                    .ok());
    ASSERT_TRUE(db_.Insert("P-Health",
                           {Value::Null(), s("W1"), s("Doc"), s("diabetic"),
                            s("drug1")},
                           Ts(1))
                    .ok());
    if (param.world == World::kErrorRow) {
      // No P-Health row shares its pid, so it lies outside every U.
      ASSERT_TRUE(db_.Insert("P-Personal",
                             {s("p-err"), s("Err"), s("unknown"), s("M"),
                              s("145568"), s("nowhere")},
                             Ts(1))
                      .ok());
    }
    workload::WorkloadConfig config;
    config.num_queries = 80;
    config.seed = param.seed + 100;
    config.start = Ts(100);
    config.join_fraction = 0.5;
    config.sensitive_fraction = 0.6;
    ASSERT_TRUE(workload::GenerateWorkload(&log_, config, hospital).ok());
    int64_t at = 200;
    for (const char* sql : kTargeted) {
      log_.Append(sql, Ts(at++), "alice", "doctor", "treatment");
    }
    if (param.world == World::kChurned) {
      versioned_reference::ChurnSpec churn;
      churn.tables = {"P-Personal", "P-Health", "P-Employ"};
      churn.steps = 40;
      churn.seed = param.seed;
      churn.start = Timestamp(Ts(100).micros() + 500000);
      churn.spacing_micros = 2000000;
      churn.inserts_and_deletes = param.seed % 2 == 0;
      ASSERT_TRUE(versioned_reference::ApplyChurn(&db_, churn).ok());
    }
  }

  /// The candidates' verdicts, batch verdict, evidence and minimal batch
  /// of `got`, recomputed from unrestricted profiles on SnapshotAt
  /// states; every static-phase field is copied from `got`.
  AuditReport Unrestricted(const AuditReport& got,
                           const AuditExpression& expr,
                           const TargetView& view) {
    AuditReport want = got;
    const auto schemes = BuildSchemes(expr);
    std::vector<AccessProfile> profiles;
    std::vector<int64_t> ids;
    for (size_t i = 0; i < log_.size(); ++i) {
      QueryVerdict& verdict = want.verdicts[i];
      if (!verdict.candidate) continue;
      const LoggedQuery& entry = log_.Entry(i);
      auto stmt = sql::ParseSelect(entry.sql);
      auto snapshot = backlog_.SnapshotAt(entry.timestamp);
      EXPECT_TRUE(stmt.ok() && snapshot.ok()) << entry.sql;
      if (!stmt.ok() || !snapshot.ok()) continue;
      auto profile =
          ComputeAccessProfile(*stmt, snapshot->View(), ExecOutput::kLineage);
      verdict.error = !profile.ok();
      verdict.suspicious_alone = false;
      if (!profile.ok()) continue;
      auto alone = CheckBatchSuspicion(view, schemes, expr.threshold,
                                       expr.indispensable, {&*profile});
      EXPECT_TRUE(alone.ok()) << alone.status().ToString();
      verdict.suspicious_alone = alone.ok() && alone->suspicious;
      profiles.push_back(std::move(*profile));
      ids.push_back(entry.id);
    }
    want.num_executed = profiles.size();
    std::vector<const AccessProfile*> batch;
    for (const AccessProfile& profile : profiles) batch.push_back(&profile);
    auto checked = CheckBatchSuspicion(view, schemes, expr.threshold,
                                       expr.indispensable, batch);
    EXPECT_TRUE(checked.ok()) << checked.status().ToString();
    if (!checked.ok()) return want;
    want.batch_suspicious = checked->suspicious;
    want.evidence = checked->Describe(view, schemes);
    want.minimal_batch.clear();
    if (want.batch_suspicious) {
      auto minimal =
          MinimizeBatch(view, schemes, expr, profiles, ids, SuspicionOptions{});
      EXPECT_TRUE(minimal.ok()) << minimal.status().ToString();
      if (minimal.ok()) want.minimal_batch = std::move(*minimal);
    }
    return want;
  }

  /// For every candidate: the restricted profile fails exactly when the
  /// unrestricted one does, with the same Status; otherwise it has the
  /// same columns, no lineage, and per FROM table the unrestricted
  /// bitmap ∩ U_t for an audited table t, an empty one for the others.
  void ExpectRestrictedProfilesMatch(const AuditReport& report,
                                     const AuditExpression& expr,
                                     const TargetView& view) {
    std::set<std::string> audited;
    for (const GranuleScheme& scheme : BuildSchemes(expr)) {
      audited.insert(scheme.tid_tables.begin(), scheme.tid_tables.end());
    }
    ASSERT_EQ(view.table_tids.size(), view.tables.size());
    for (size_t i = 0; i < log_.size(); ++i) {
      if (!report.verdicts[i].candidate) continue;
      const LoggedQuery& entry = log_.Entry(i);
      auto stmt = sql::ParseSelect(entry.sql);
      auto snapshot = backlog_.SnapshotAt(entry.timestamp);
      ASSERT_TRUE(stmt.ok() && snapshot.ok()) << entry.sql;
      const DatabaseView db = snapshot->View();
      std::vector<std::vector<uint32_t>> rows(view.tables.size());
      std::vector<RowRestriction> restrictions;
      for (size_t t = 0; t < view.tables.size(); ++t) {
        if (audited.count(view.tables[t]) == 0) continue;
        auto table = db.GetTable(view.tables[t]);
        ASSERT_TRUE(table.ok());
        rows[t] = RowPositions(**table, view.table_tids[t]);
        restrictions.push_back(RowRestriction{view.tables[t], rows[t]});
      }
      auto full = ComputeAccessProfile(*stmt, db, ExecOutput::kLineage);
      auto restricted = ComputeRestrictedAccessProfile(*stmt, db, restrictions);
      ASSERT_EQ(restricted.status().ToString(), full.status().ToString())
          << entry.sql;
      if (!full.ok()) continue;
      EXPECT_TRUE(restricted->result.lineage.empty()) << entry.sql;
      EXPECT_EQ(restricted->result.from, full->result.from);
      EXPECT_EQ(restricted->result.columns, full->result.columns);
      EXPECT_EQ(restricted->accessed_columns, full->accessed_columns);
      EXPECT_EQ(restricted->output_columns, full->output_columns);
      ASSERT_EQ(restricted->table_tids.size(), full->table_tids.size());
      for (size_t j = 0; j < full->result.from.size(); ++j) {
        const std::string& table = full->result.from[j];
        TidBitmap want;
        auto in_view = view.TableIndex(table);
        if (audited.count(table) > 0 && in_view.ok()) {
          want = full->table_tids[j];
          want.And(view.table_tids[*in_view]);
        }
        EXPECT_EQ(restricted->table_tids[j], want) << table << " in "
                                                   << entry.sql;
      }
    }
  }

  Database db_;
  Backlog backlog_;
  QueryLog log_;
};

TEST_P(TargetViewRestrictionDifferential, MatchesUnrestrictedAudit) {
  Auditor auditor(&db_, &backlog_, &log_);
  service::ThreadPoolOptions pool_options;
  pool_options.num_threads = 4;
  service::ThreadPool pool(pool_options);
  size_t errored = 0;
  for (const char* audit : kAudits) {
    const std::string text = std::string(kSpan) + audit;
    auto parsed = ParseAudit(text, Ts(1000));
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    auto serial = auditor.Audit(*parsed);
    ASSERT_TRUE(serial.ok()) << text << ": " << serial.status().ToString();
    auto pooled =
        auditor.AuditPinned(*parsed, AuditOptions{}, auditor.Pin(), &pool);
    ASSERT_TRUE(pooled.ok()) << text << ": " << pooled.status().ToString();
    EXPECT_GT(serial->num_executed, 10u) << text;

    AuditExpression expr = parsed->Clone();
    ASSERT_TRUE(expr.Qualify(db_.catalog()).ok()) << text;
    auto view = ComputeTargetViewOverVersions(expr, backlog_);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    if (std::string(audit).find("no-such-disease") != std::string::npos) {
      EXPECT_EQ(view->size(), 0u);
    }
    if (GetParam().world == World::kChurned && audit == kAudits[0]) {
      std::set<Timestamp> versions;
      for (const auto& fact : view->facts) versions.insert(fact.version);
      EXPECT_GT(versions.size(), 1u) << "expected a multi-version view";
    }

    const AuditReport want = Unrestricted(*serial, expr, *view);
    EXPECT_EQ(serial->CanonicalString(), want.CanonicalString()) << text;
    EXPECT_EQ(pooled->CanonicalString(), want.CanonicalString()) << text;
    ExpectRestrictedProfilesMatch(*serial, expr, *view);
    errored += serial->NumErrored();
  }
  // The error row fails every age filter that reaches it, restricted or
  // not: those candidates must stay errors, never read as cleared.
  if (GetParam().world == World::kErrorRow) {
    EXPECT_GT(errored, 0u);
  } else {
    EXPECT_EQ(errored, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, TargetViewRestrictionDifferential,
    ::testing::Values(Param{1, World::kStatic}, Param{2, World::kStatic},
                      Param{3, World::kChurned}, Param{4, World::kChurned},
                      Param{5, World::kChurned}, Param{6, World::kErrorRow},
                      Param{7, World::kErrorRow}),
    [](const ::testing::TestParamInfo<Param>& info) {
      return Name(info.param);
    });

}  // namespace
}  // namespace audit
}  // namespace auditdb
