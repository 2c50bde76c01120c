// Differential test of MinimizeBatch against the quadratic greedy loop it
// replaced: one full batch check per candidate on the shrinking batch.
// The paper fixture runs that loop over the literal reference model
// (suspicion_reference.h), which shares no code with the production
// kernel; the generated worlds, too large for the model, run it over
// CheckBatchSuspicion. The kept id lists must match exactly, on the paper
// fixture and on generated hospital worlds (one state, and churned into
// many), in every indispensability mode, INDISPENSABLE setting and
// threshold.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/audit/audit_parser.h"
#include "src/audit/audit_stages.h"
#include "src/audit/suspicion.h"
#include "src/workload/generator.h"
#include "src/workload/hospital.h"
#include "tests/audit/suspicion_reference.h"

namespace auditdb {
namespace audit {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

/// A batch check with reference::CheckBatch's signature.
using BatchCheck = std::function<Result<SuspicionResult>(
    const TargetView&, const std::vector<GranuleScheme>&, Threshold, bool,
    const std::vector<const AccessProfile*>&, IndispensabilityMode)>;

/// The production kernel behind BatchCheck's signature.
Result<SuspicionResult> ProductionCheck(
    const TargetView& view, const std::vector<GranuleScheme>& schemes,
    Threshold threshold, bool indispensable,
    const std::vector<const AccessProfile*>& batch,
    IndispensabilityMode mode) {
  SuspicionOptions options;
  options.mode = mode;
  return CheckBatchSuspicion(view, schemes, threshold, indispensable, batch,
                             options);
}

/// The reference minimizer: drop each profile in id order when the batch
/// without it is still suspicious under `check`, re-checking the whole
/// batch each time.
Result<std::vector<int64_t>> ReferenceMinimize(
    const BatchCheck& check, const TargetView& view,
    const std::vector<GranuleScheme>& schemes, const AuditExpression& expr,
    const std::vector<AccessProfile>& profiles,
    const std::vector<int64_t>& profile_ids, IndispensabilityMode mode) {
  std::vector<size_t> kept;
  for (size_t i = 0; i < profiles.size(); ++i) kept.push_back(i);
  for (size_t i = 0; i < profiles.size(); ++i) {
    std::vector<const AccessProfile*> reduced;
    for (size_t j : kept) {
      if (j != i) reduced.push_back(&profiles[j]);
    }
    auto reduced_result = check(view, schemes, expr.threshold,
                                expr.indispensable, reduced, mode);
    if (!reduced_result.ok()) return reduced_result.status();
    if (reduced_result->suspicious) {
      kept.erase(std::remove(kept.begin(), kept.end(), i), kept.end());
    }
  }
  std::vector<int64_t> out;
  for (size_t j : kept) out.push_back(profile_ids[j]);
  return out;
}

/// Everything MinimizeBatch reads, assembled the way the auditor does:
/// static screen, target view over DATA-INTERVAL versions, and each
/// candidate executed on the state it ran against.
struct Inputs {
  AuditExpression expr;
  TargetView view;
  std::vector<GranuleScheme> schemes;
  std::vector<AccessProfile> profiles;
  std::vector<int64_t> profile_ids;
};

class MinimizeDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override { backlog_.Attach(&db_); }

  std::unique_ptr<Inputs> Prepare(const std::string& text) {
    auto parsed = ParseAudit(text, Ts(100000));
    EXPECT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    if (!parsed.ok()) return nullptr;
    auto in = std::make_unique<Inputs>();
    in->expr = std::move(*parsed);
    EXPECT_TRUE(in->expr.Qualify(db_.catalog()).ok()) << text;
    auto view = ComputeTargetViewOverVersions(in->expr, backlog_);
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    if (!view.ok()) return nullptr;
    in->view = std::move(*view);
    in->schemes = BuildSchemes(in->expr);
    StaticScreenResult screened = StaticScreenRange(
        in->expr, log_, db_.catalog(), CandidateOptions{}, 0, log_.size());
    for (const auto& candidate : screened.candidates) {
      const LoggedQuery& logged = log_.Entry(candidate.log_index);
      auto snapshot = backlog_.SnapshotAt(logged.timestamp);
      EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
      if (!snapshot.ok()) return nullptr;
      auto profile = ComputeAccessProfile(*candidate.stmt, snapshot->View());
      if (!profile.ok()) continue;  // as the auditor: skip, audit the rest
      in->profiles.push_back(std::move(*profile));
      in->profile_ids.push_back(logged.id);
    }
    return in;
  }

  /// Runs every (mode, INDISPENSABLE, threshold) combination
  /// of `body` (an audit expression without those clauses) through
  /// MinimizeBatch and ReferenceMinimize over `check`, which also judges
  /// the full and the kept batch. Returns how many combinations had a
  /// suspicious batch.
  size_t ExpectSameKeptLists(const std::string& body,
                             const BatchCheck& check) {
    const std::string span =
        "DURING 1/1/1970 to 2/1/1970 DATA-INTERVAL 1/1/1970 to 2/1/1970 ";
    size_t suspicious = 0;
    for (const char* indispensable : {"true", "false"}) {
      for (const char* threshold : {"1", "5", "ALL"}) {
        const std::string text = span + "THRESHOLD " + threshold +
                                 " INDISPENSABLE " + indispensable + " " +
                                 body;
        auto in = Prepare(text);
        if (in == nullptr) {
          ADD_FAILURE() << text;
          continue;
        }
        std::vector<const AccessProfile*> batch;
        for (const auto& p : in->profiles) batch.push_back(&p);
        for (auto mode : {IndispensabilityMode::kPerTable,
                          IndispensabilityMode::kJointPerQuery}) {
          SuspicionOptions options;
          options.mode = mode;
          const std::string where =
              text + " | joint=" +
              std::to_string(mode == IndispensabilityMode::kJointPerQuery);
          auto want = ReferenceMinimize(check, in->view, in->schemes,
                                        in->expr, in->profiles,
                                        in->profile_ids, mode);
          auto got = MinimizeBatch(in->view, in->schemes, in->expr,
                                   in->profiles, in->profile_ids, options);
          EXPECT_TRUE(want.ok()) << where << ": "
                                 << want.status().ToString();
          EXPECT_TRUE(got.ok()) << where << ": " << got.status().ToString();
          if (!want.ok() || !got.ok()) continue;
          EXPECT_EQ(*got, *want) << where;

          auto full = check(in->view, in->schemes, in->expr.threshold,
                            in->expr.indispensable, batch, mode);
          EXPECT_TRUE(full.ok()) << where;
          if (!full.ok() || !full->suspicious) continue;
          ++suspicious;
          // The kept batch must itself be suspicious.
          std::unordered_map<int64_t, const AccessProfile*> by_id;
          for (size_t i = 0; i < in->profiles.size(); ++i) {
            by_id[in->profile_ids[i]] = &in->profiles[i];
          }
          std::vector<const AccessProfile*> kept;
          for (int64_t id : *got) kept.push_back(by_id.at(id));
          auto kept_result = check(in->view, in->schemes, in->expr.threshold,
                                   in->expr.indispensable, kept, mode);
          EXPECT_TRUE(kept_result.ok() && kept_result->suspicious)
              << where;
        }
      }
    }
    return suspicious;
  }

  /// A generated hospital world; `churn_updates` > 0 interleaves updates
  /// with the logged queries, so candidates run on many backlog states.
  void BuildHospital(size_t churn_updates) {
    workload::HospitalConfig hospital;
    hospital.num_patients = 120;
    hospital.seed = 2008;
    hospital.diabetic_fraction = 0.2;
    ASSERT_TRUE(workload::PopulateHospital(&db_, hospital, Ts(1)).ok());
    workload::WorkloadConfig config;
    config.num_queries = 90;
    config.seed = 42;
    config.start = Ts(100);
    config.sensitive_fraction = 0.5;
    ASSERT_TRUE(workload::GenerateWorkload(&log_, config, hospital).ok());
    if (churn_updates > 0) {
      workload::ChurnConfig churn;
      churn.num_updates = churn_updates;
      churn.seed = 7;
      churn.start = Timestamp(Ts(100).micros() + 500000);
      churn.spacing_micros = 2000000;
      ASSERT_TRUE(workload::GenerateChurn(&db_, churn, hospital).ok());
    }
  }

  Database db_;
  Backlog backlog_;
  QueryLog log_;
};

TEST_F(MinimizeDifferentialTest, PaperFixture) {
  ASSERT_TRUE(workload::BuildPaperDatabase(&db_, Ts(1)).ok());
  const char* queries[] = {
      "SELECT ward FROM P-Health WHERE ward='W11'",
      "SELECT name, address FROM P-Personal WHERE zipcode='145568'",
      "SELECT disease FROM P-Health WHERE disease='diabetic'",
      "SELECT name, disease, address FROM P-Personal, P-Health, P-Employ "
      "WHERE P-Personal.pid=P-Health.pid AND P-Health.pid=P-Employ.pid "
      "AND zipcode='145568' AND disease='diabetic' AND salary > 10000",
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND name='Reku'",
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND name='Lucy'",
      "SELECT * FROM P-Personal",
      "SELECT disease, zipcode FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid",
      "SELECT address FROM P-Personal WHERE age < 30",
      "SELECT name, salary FROM P-Personal, P-Employ "
      "WHERE P-Personal.pid=P-Employ.pid",
      // Cross products, last so the greedy pass keeps them: their lineage
      // repeats every tid, which must still count as one supplier.
      "SELECT name, disease, address FROM P-Personal, P-Health, P-Employ "
      "WHERE zipcode='145568'",
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE disease='diabetic'",
  };
  int64_t at = 10;
  for (const char* sql : queries) {
    log_.Append(sql, Ts(at), "alice", "doctor", "treatment");
    at += 10;
  }
  size_t suspicious = 0;
  suspicious += ExpectSameKeptLists(
      "AUDIT (name,disease,address) FROM P-Personal, P-Health, P-Employ "
      "WHERE P-Personal.pid=P-Health.pid and P-Health.pid=P-Employ.pid "
      "and P-Personal.zipcode='145568' and P-Employ.salary > 10000 "
      "and P-Health.disease='diabetic'",
      reference::CheckBatch);
  suspicious += ExpectSameKeptLists(
      "AUDIT (name),[disease,address] FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid",
      reference::CheckBatch);
  suspicious += ExpectSameKeptLists(
      "AUDIT [*] FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid and P-Health.disease='diabetic'",
      reference::CheckBatch);
  EXPECT_GT(suspicious, 20u);
}

TEST_F(MinimizeDifferentialTest, HospitalSingleState) {
  BuildHospital(/*churn_updates=*/0);
  size_t suspicious = 0;
  suspicious += ExpectSameKeptLists(
      "AUDIT (name,disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'",
      ProductionCheck);
  suspicious += ExpectSameKeptLists(
      "AUDIT (name),[disease,salary] FROM P-Personal, P-Health, P-Employ "
      "WHERE P-Personal.pid = P-Health.pid AND "
      "P-Health.pid = P-Employ.pid",
      ProductionCheck);
  EXPECT_GT(suspicious, 20u);
}

TEST_F(MinimizeDifferentialTest, HospitalChurned) {
  BuildHospital(/*churn_updates=*/40);
  size_t suspicious = 0;
  suspicious += ExpectSameKeptLists(
      "AUDIT (name,disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease='diabetic'",
      ProductionCheck);
  suspicious += ExpectSameKeptLists(
      "AUDIT (name),[disease,salary] FROM P-Personal, P-Health, P-Employ "
      "WHERE P-Personal.pid = P-Health.pid AND "
      "P-Health.pid = P-Employ.pid",
      ProductionCheck);
  EXPECT_GT(suspicious, 20u);
}

}  // namespace
}  // namespace audit
}  // namespace auditdb
