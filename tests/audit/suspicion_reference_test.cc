// Differential test of the suspicion kernels against the std::set
// reference model (suspicion_reference.h): CheckBatchSuspicion in
// per-table, joint and value-containment mode, the end-to-end verdicts,
// evidence and minimal batch the Auditor reports from it, and
// GranuleEnumerator's valid facts — on the paper data and on a 120-query
// generated workload.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/audit/audit_parser.h"
#include "src/audit/audit_stages.h"
#include "src/audit/auditor.h"
#include "src/audit/granule.h"
#include "src/workload/generator.h"
#include "src/workload/hospital.h"
#include "tests/audit/suspicion_reference.h"

namespace auditdb {
namespace audit {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

class SuspicionReferenceTest : public ::testing::Test {
 protected:
  void SetUp() override { backlog_.Attach(&db_); }

  void Log(const std::string& sql, int64_t at_seconds) {
    log_.Append(sql, Ts(at_seconds), "alice", "doctor", "treatment");
  }

  AuditExpression Qualified(const std::string& text) {
    auto expr = ParseAudit(text, Ts(1000));
    EXPECT_TRUE(expr.ok()) << expr.status().ToString();
    EXPECT_TRUE(expr->Qualify(db_.catalog()).ok()) << text;
    return std::move(*expr);
  }

  /// Audits `text` end to end, rebuilds the audit's inputs the way the
  /// auditor does (target view over DATA-INTERVAL versions, each
  /// candidate executed on the state it ran against), and checks the
  /// kernel and the report against the model: on the full batch, on
  /// every singleton, and on every subset when the batch is small.
  /// Returns how many checked batches the model found suspicious.
  size_t ExpectMatchesModel(const std::string& text,
                            IndispensabilityMode mode) {
    AuditOptions options;
    options.suspicion.mode = mode;
    Auditor auditor(&db_, &backlog_, &log_);
    auto report = auditor.Audit(text, Ts(1000), options);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    if (!report.ok()) return 0;

    AuditExpression expr = Qualified(text);
    auto view = ComputeTargetViewOverVersions(expr, backlog_);
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    if (!view.ok()) return 0;
    auto schemes = BuildSchemes(expr);
    StaticScreenResult screened = StaticScreenRange(
        expr, log_, db_.catalog(), CandidateOptions{}, 0, log_.size());
    std::vector<AccessProfile> profiles;
    std::vector<size_t> log_index;
    for (const auto& candidate : screened.candidates) {
      auto snapshot =
          backlog_.SnapshotAt(log_.Entry(candidate.log_index).timestamp);
      EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
      if (!snapshot.ok()) return 0;
      auto profile = ComputeAccessProfile(*candidate.stmt, snapshot->View());
      if (!profile.ok()) continue;
      profiles.push_back(std::move(*profile));
      log_index.push_back(candidate.log_index);
    }
    EXPECT_EQ(profiles.size(), report->num_executed) << text;

    size_t suspicious = 0;
    auto check = [&](const std::vector<size_t>& members,
                     const std::string& where) {
      std::vector<const AccessProfile*> batch;
      for (size_t i : members) batch.push_back(&profiles[i]);
      auto got = CheckBatchSuspicion(*view, schemes, expr.threshold,
                                     expr.indispensable, batch,
                                     options.suspicion);
      auto want = reference::CheckBatch(*view, schemes, expr.threshold,
                                        expr.indispensable, batch, mode);
      EXPECT_TRUE(got.ok()) << where << ": " << got.status().ToString();
      EXPECT_TRUE(want.ok()) << where << ": " << want.status().ToString();
      if (!got.ok() || !want.ok()) return false;
      reference::ExpectSameResult(*got, *want, where);
      if (want->suspicious) ++suspicious;
      return want->suspicious;
    };

    const std::string tag =
        text + (mode == IndispensabilityMode::kJointPerQuery ? " [joint]"
                                                             : " [per-table]");
    std::vector<size_t> all;
    for (size_t i = 0; i < profiles.size(); ++i) all.push_back(i);
    EXPECT_EQ(check(all, tag + " full batch"), report->batch_suspicious);

    // The report's evidence is the model's, rendered, for the full batch,
    // and its minimal batch is suspicious under the model.
    auto model = [&](const std::vector<const AccessProfile*>& batch) {
      return reference::CheckBatch(*view, schemes, expr.threshold,
                                   expr.indispensable, batch, mode);
    };
    std::vector<const AccessProfile*> full;
    for (const AccessProfile& profile : profiles) full.push_back(&profile);
    auto full_model = model(full);
    EXPECT_TRUE(full_model.ok()) << tag;
    if (full_model.ok()) {
      EXPECT_EQ(report->evidence, full_model->Describe(*view, schemes))
          << tag;
    }
    if (report->batch_suspicious) {
      std::vector<const AccessProfile*> minimal;
      for (int64_t id : report->minimal_batch) {
        for (size_t i = 0; i < profiles.size(); ++i) {
          if (log_.Entry(log_index[i]).id == id) {
            minimal.push_back(&profiles[i]);
          }
        }
      }
      EXPECT_EQ(minimal.size(), report->minimal_batch.size()) << tag;
      auto minimal_model = model(minimal);
      EXPECT_TRUE(minimal_model.ok() && minimal_model->suspicious)
          << tag << " minimal batch";
    }
    for (size_t i = 0; i < profiles.size(); ++i) {
      EXPECT_EQ(check({i}, tag + " query " + std::to_string(i)),
                report->verdicts[log_index[i]].suspicious_alone)
          << tag << " query " << i;
    }
    if (profiles.size() <= 8) {
      for (size_t mask = 1; mask < (size_t{1} << profiles.size()); ++mask) {
        std::vector<size_t> members;
        for (size_t i = 0; i < profiles.size(); ++i) {
          if (mask & (size_t{1} << i)) members.push_back(i);
        }
        check(members, tag + " subset " + std::to_string(mask));
      }
    }
    return suspicious;
  }

  /// Checks both indispensability modes.
  size_t ExpectBothModesMatchModel(const std::string& text) {
    return ExpectMatchesModel(text, IndispensabilityMode::kPerTable) +
           ExpectMatchesModel(text, IndispensabilityMode::kJointPerQuery);
  }

  /// GranuleEnumerator's NULL screen and effective k against the model.
  void ExpectValidFactsMatchModel(const std::string& text) {
    AuditExpression expr = Qualified(text);
    auto view = ComputeTargetViewOverVersions(expr, backlog_);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    auto schemes = BuildSchemes(expr);
    auto granules = GranuleEnumerator::Make(*view, schemes, expr.threshold);
    ASSERT_TRUE(granules.ok()) << granules.status().ToString();
    ASSERT_EQ(granules->schemes().size(), schemes.size());
    for (size_t s = 0; s < schemes.size(); ++s) {
      auto want = reference::ValidFacts(*view, schemes[s]);
      EXPECT_EQ(granules->schemes()[s].valid_facts, want)
          << text << " scheme " << s;
      EXPECT_EQ(granules->schemes()[s].k,
                expr.threshold.all ? want.size()
                                   : static_cast<size_t>(expr.threshold.n))
          << text << " scheme " << s;
    }
  }

  /// A 200-patient hospital and a generated 120-query mixed workload:
  /// joins, point reads and dumps, half of them touching sensitive
  /// columns.
  void BuildGeneratedWorld() {
    workload::HospitalConfig hospital;
    hospital.num_patients = 200;
    hospital.seed = 13;
    ASSERT_TRUE(workload::PopulateHospital(&db_, hospital, Ts(1)).ok());
    workload::WorkloadConfig config;
    config.num_queries = 120;
    config.seed = 20260809;
    config.start = Ts(100);
    config.sensitive_fraction = 0.5;
    ASSERT_TRUE(workload::GenerateWorkload(&log_, config, hospital).ok());
  }

  const std::string kSpan =
      "DURING 1/1/1970 to 2/1/1970 DATA-INTERVAL 1/1/1970 to 2/1/1970 ";
  const std::string kSemanticAudit =
      "AUDIT (name,disease,address) FROM P-Personal, P-Health, P-Employ "
      "WHERE P-Personal.pid=P-Health.pid and P-Health.pid=P-Employ.pid "
      "and P-Personal.zipcode='145568' and P-Employ.salary > 10000 "
      "and P-Health.disease='diabetic'";

  Database db_;
  Backlog backlog_;
  QueryLog log_;
};

TEST_F(SuspicionReferenceTest, PaperPerTableMode) {
  ASSERT_TRUE(workload::BuildPaperDatabase(&db_, Ts(1)).ok());
  Log("SELECT ward FROM P-Health WHERE ward='W11'", 10);
  Log("SELECT name, address FROM P-Personal WHERE zipcode='145568'", 20);
  Log("SELECT disease FROM P-Health WHERE disease='diabetic'", 30);
  Log("SELECT name, disease, address FROM P-Personal, P-Health, P-Employ "
      "WHERE P-Personal.pid=P-Health.pid AND P-Health.pid=P-Employ.pid "
      "AND zipcode='145568' AND disease='diabetic' AND salary > 10000",
      40);
  size_t suspicious = 0;
  for (const char* threshold : {"1", "2", "ALL"}) {
    suspicious += ExpectMatchesModel(
        kSpan + "THRESHOLD " + threshold + " " + kSemanticAudit,
        IndispensabilityMode::kPerTable);
  }
  EXPECT_GT(suspicious, 0u);
}

TEST_F(SuspicionReferenceTest, PaperJointMode) {
  ASSERT_TRUE(workload::BuildPaperDatabase(&db_, Ts(1)).ok());
  Log("SELECT name, address FROM P-Personal WHERE zipcode='145568'", 10);
  Log("SELECT disease FROM P-Health WHERE disease='diabetic'", 20);
  Log("SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND zipcode='145568' "
      "AND disease='diabetic'",
      30);
  Log("SELECT name FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND disease='diabetic'",
      40);
  size_t suspicious = 0;
  // A two-table scheme probes projected tid tuples; the single-table
  // scheme {name} probes per-query tid bitmaps.
  suspicious += ExpectMatchesModel(
      kSpan + "AUDIT (name,disease) FROM P-Personal, P-Health "
              "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'",
      IndispensabilityMode::kJointPerQuery);
  suspicious += ExpectMatchesModel(
      kSpan + "AUDIT (name),[disease,address] FROM P-Personal, P-Health "
              "WHERE P-Personal.pid = P-Health.pid",
      IndispensabilityMode::kJointPerQuery);
  suspicious += ExpectMatchesModel(
      kSpan + "THRESHOLD ALL AUDIT (name) FROM P-Personal "
              "WHERE zipcode = '145568'",
      IndispensabilityMode::kJointPerQuery);
  EXPECT_GT(suspicious, 0u);
}

TEST_F(SuspicionReferenceTest, PaperValueContainment) {
  ASSERT_TRUE(workload::BuildPaperDatabase(&db_, Ts(1)).ok());
  Log("SELECT name FROM P-Personal WHERE zipcode='145568'", 10);
  Log("SELECT pid FROM P-Personal WHERE name='Reku'", 20);
  Log("SELECT name FROM P-Personal", 30);
  Log("SELECT name, age FROM P-Personal WHERE age < 30", 40);
  size_t suspicious = 0;
  suspicious += ExpectBothModesMatchModel(
      kSpan + "INDISPENSABLE false AUDIT (name) FROM P-Personal "
              "WHERE zipcode = '145568'");
  suspicious += ExpectBothModesMatchModel(
      kSpan + "INDISPENSABLE false THRESHOLD ALL AUDIT (name,age) "
              "FROM P-Personal");
  EXPECT_GT(suspicious, 0u);
}

TEST_F(SuspicionReferenceTest, GeneratedWorkload) {
  BuildGeneratedWorld();
  size_t suspicious = 0;
  suspicious += ExpectBothModesMatchModel(
      kSpan + "AUDIT (name,disease) FROM P-Personal, P-Health "
              "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'");
  suspicious += ExpectBothModesMatchModel(
      kSpan + "THRESHOLD 5 AUDIT (name),[disease,salary] "
              "FROM P-Personal, P-Health, P-Employ "
              "WHERE P-Personal.pid = P-Health.pid AND "
              "P-Health.pid = P-Employ.pid");
  suspicious += ExpectBothModesMatchModel(
      kSpan + "INDISPENSABLE false AUDIT (name,disease) "
              "FROM P-Personal, P-Health "
              "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'");
  // Guard against the comparison passing vacuously on empty verdicts.
  EXPECT_GT(suspicious, 10u);
}

TEST_F(SuspicionReferenceTest, GranuleValidFacts) {
  ASSERT_TRUE(workload::BuildPaperDatabase(&db_, Ts(1)).ok());
  ExpectValidFactsMatchModel(kSemanticAudit);
  // Reku's age is NULL: the screen must drop that fact for {name, age}.
  ExpectValidFactsMatchModel(
      "THRESHOLD ALL AUDIT (name),[age,zipcode] FROM P-Personal");
  ExpectValidFactsMatchModel(
      "INDISPENSABLE false AUDIT (name,age) FROM P-Personal");
}

TEST_F(SuspicionReferenceTest, GeneratedGranuleValidFacts) {
  BuildGeneratedWorld();
  ExpectValidFactsMatchModel(
      "AUDIT (name),[disease,salary] FROM P-Personal, P-Health, P-Employ "
      "WHERE P-Personal.pid = P-Health.pid AND P-Health.pid = P-Employ.pid");
  ExpectValidFactsMatchModel("THRESHOLD ALL AUDIT (name,age) FROM P-Personal");
}

}  // namespace
}  // namespace audit
}  // namespace auditdb
