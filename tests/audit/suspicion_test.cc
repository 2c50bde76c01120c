#include "src/audit/suspicion.h"

#include <gtest/gtest.h>

#include "src/audit/audit_parser.h"
#include "src/workload/hospital.h"
#include "tests/audit/suspicion_reference.h"

namespace auditdb {
namespace audit {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

class SuspicionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(workload::BuildPaperDatabase(&db_, Ts(1)).ok());
  }

  AuditExpression Parse(const std::string& text) {
    auto expr = ParseAudit(text, Ts(1000));
    EXPECT_TRUE(expr.ok()) << expr.status().ToString();
    auto q = expr->Qualify(db_.catalog());
    EXPECT_TRUE(q.ok()) << q.ToString();
    return std::move(*expr);
  }

  AccessProfile Profile(const std::string& sql) {
    auto stmt = sql::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    auto profile = ComputeAccessProfile(*stmt, db_.View());
    EXPECT_TRUE(profile.ok()) << profile.status().ToString();
    return std::move(*profile);
  }

  /// Checks a batch against an audit expression on the current state.
  SuspicionResult Check(const AuditExpression& expr,
                        const std::vector<const AccessProfile*>& batch,
                        const SuspicionOptions& options = SuspicionOptions{}) {
    auto view = ComputeTargetView(expr, db_.View(), Ts(1));
    EXPECT_TRUE(view.ok());
    auto result = CheckBatchSuspicion(*view, BuildSchemes(expr),
                                      expr.threshold, expr.indispensable,
                                      batch, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(*result);
  }

  const std::string kSemanticAudit =
      "AUDIT (name,disease,address) "
      "FROM P-Personal, P-Health, P-Employ "
      "WHERE P-Personal.pid=P-Health.pid and P-Health.pid=P-Employ.pid "
      "and P-Personal.zipcode='145568' and P-Employ.salary > 10000 "
      "and P-Health.disease='diabetic'";

  Database db_;
};

TEST_F(SuspicionTest, FullDisclosureQueryIsSuspicious) {
  auto expr = Parse(kSemanticAudit);
  auto profile = Profile(
      "SELECT name, disease, address "
      "FROM P-Personal, P-Health, P-Employ "
      "WHERE P-Personal.pid=P-Health.pid AND P-Health.pid=P-Employ.pid "
      "AND zipcode='145568' AND disease='diabetic' AND salary > 10000");
  auto result = Check(expr, {&profile});
  EXPECT_TRUE(result.suspicious);
  ASSERT_EQ(result.per_scheme.size(), 1u);
  EXPECT_TRUE(result.per_scheme[0].attrs_covered);
  EXPECT_EQ(result.per_scheme[0].accessed_facts.size(), 2u);
  EXPECT_NE(result.Describe(
                *ComputeTargetView(expr, db_.View(), Ts(1)),
                BuildSchemes(expr))
                .find("t12"),
            std::string::npos);
}

TEST_F(SuspicionTest, MissingAttributeNotSuspicious) {
  auto expr = Parse(kSemanticAudit);
  // No disease access.
  auto profile = Profile(
      "SELECT name, address FROM P-Personal WHERE zipcode='145568'");
  auto result = Check(expr, {&profile});
  EXPECT_FALSE(result.suspicious);
  EXPECT_FALSE(result.per_scheme[0].attrs_covered);
}

TEST_F(SuspicionTest, DisjointRowsNotSuspicious) {
  auto expr = Parse(kSemanticAudit);
  // Touches all three columns but only Jane's row (zipcode 177893).
  auto profile = Profile(
      "SELECT name, disease, address "
      "FROM P-Personal, P-Health, P-Employ "
      "WHERE P-Personal.pid=P-Health.pid AND P-Health.pid=P-Employ.pid "
      "AND zipcode='177893'");
  auto result = Check(expr, {&profile});
  EXPECT_FALSE(result.suspicious);
  EXPECT_TRUE(result.per_scheme[0].attrs_covered);
  EXPECT_TRUE(result.per_scheme[0].accessed_facts.empty());
}

TEST_F(SuspicionTest, BatchCombinesPartialAccesses) {
  auto expr = Parse(kSemanticAudit);
  auto q1 = Profile(
      "SELECT name, address FROM P-Personal WHERE zipcode='145568'");
  auto q2 = Profile("SELECT disease FROM P-Health WHERE disease='diabetic'");
  // Neither alone...
  EXPECT_FALSE(Check(expr, {&q1}).suspicious);
  EXPECT_FALSE(Check(expr, {&q2}).suspicious);
  // ...but the batch together discloses the granule.
  auto result = Check(expr, {&q1, &q2});
  EXPECT_TRUE(result.suspicious);
}

TEST_F(SuspicionTest, JointModeIsStricterThanPerTable) {
  auto expr = Parse(kSemanticAudit);
  auto q1 = Profile(
      "SELECT name, address FROM P-Personal WHERE zipcode='145568'");
  auto q2 = Profile("SELECT disease FROM P-Health WHERE disease='diabetic'");

  SuspicionOptions per_table;
  per_table.mode = IndispensabilityMode::kPerTable;
  EXPECT_TRUE(Check(expr, {&q1, &q2}, per_table).suspicious);

  // No single query witnesses (t12,t22) jointly.
  SuspicionOptions joint;
  joint.mode = IndispensabilityMode::kJointPerQuery;
  EXPECT_FALSE(Check(expr, {&q1, &q2}, joint).suspicious);

  // A joining query does.
  auto q3 = Profile(
      "SELECT name, disease, address FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND zipcode='145568' "
      "AND disease='diabetic'");
  EXPECT_TRUE(Check(expr, {&q3}, joint).suspicious);
}

TEST_F(SuspicionTest, ThresholdRequiresEnoughFacts) {
  auto expr = Parse(
      "THRESHOLD 2 AUDIT (name) FROM P-Personal "
      "WHERE zipcode = '145568'");
  auto one = Profile("SELECT name FROM P-Personal WHERE name='Reku'");
  EXPECT_FALSE(Check(expr, {&one}).suspicious);
  auto two = Profile("SELECT name FROM P-Personal WHERE zipcode='145568'");
  EXPECT_TRUE(Check(expr, {&two}).suspicious);
}

TEST_F(SuspicionTest, ThresholdAllRequiresEveryFact) {
  auto expr = Parse("THRESHOLD ALL AUDIT (name) FROM P-Personal");
  auto partial =
      Profile("SELECT name FROM P-Personal WHERE zipcode='145568'");
  EXPECT_FALSE(Check(expr, {&partial}).suspicious);
  auto all = Profile("SELECT name FROM P-Personal");
  EXPECT_TRUE(Check(expr, {&all}).suspicious);
}

TEST_F(SuspicionTest, ValueContainmentMode) {
  auto expr = Parse(
      "INDISPENSABLE false AUDIT (name) FROM P-Personal "
      "WHERE zipcode = '145568'");
  // Outputs the audited values → accessed.
  auto outputs = Profile("SELECT name FROM P-Personal WHERE zipcode='145568'");
  EXPECT_TRUE(Check(expr, {&outputs}).suspicious);
  // Only references name in the predicate; discloses no name value.
  auto references = Profile("SELECT pid FROM P-Personal WHERE name='Reku'");
  EXPECT_FALSE(Check(expr, {&references}).suspicious);
  // Outputs names of a *different* population: values don't match U's.
  auto other = Profile("SELECT name FROM P-Personal WHERE zipcode='177893'");
  EXPECT_FALSE(Check(expr, {&other}).suspicious);
}

TEST_F(SuspicionTest, ValueContainmentCatchesPredicatelessDump) {
  // INDISPENSABLE=false flags any query whose *output* contains the
  // audited values, even a full-table dump with no matching predicate.
  auto expr = Parse(
      "INDISPENSABLE false AUDIT (name) FROM P-Personal "
      "WHERE zipcode = '145568'");
  auto dump = Profile("SELECT name FROM P-Personal");
  EXPECT_TRUE(Check(expr, {&dump}).suspicious);
}

TEST_F(SuspicionTest, EmptyBatchNeverSuspicious) {
  auto expr = Parse(kSemanticAudit);
  EXPECT_FALSE(Check(expr, {}).suspicious);
}

TEST_F(SuspicionTest, EmptyTargetViewNeverSuspicious) {
  auto expr = Parse(
      "AUDIT (name) FROM P-Personal WHERE zipcode = 'nowhere'");
  auto profile = Profile("SELECT name FROM P-Personal");
  EXPECT_FALSE(Check(expr, {&profile}).suspicious);
}

TEST_F(SuspicionTest, OptionalGroupsFireOnAnyScheme) {
  auto expr = Parse(
      "AUDIT [name,age] FROM P-Personal WHERE zipcode = '145568'");
  auto name_only =
      Profile("SELECT name FROM P-Personal WHERE zipcode='145568'");
  auto result = Check(expr, {&name_only});
  EXPECT_TRUE(result.suspicious);
  // Exactly one of the two schemes fires.
  int fired = 0;
  for (const auto& s : result.per_scheme) fired += s.suspicious ? 1 : 0;
  EXPECT_EQ(fired, 1);
}

// --- Notion factories -------------------------------------------------

TEST_F(SuspicionTest, MakePerfectPrivacyFlagsAnyCellAccess) {
  auto base = Parse(kSemanticAudit);
  auto notion = MakePerfectPrivacy(base);
  ASSERT_TRUE(notion.Qualify(db_.catalog()).ok());
  EXPECT_TRUE(notion.attrs.HasStar() || notion.attrs.AllAttributes().size() > 3);
  // A query touching only the ward of one audited patient.
  auto profile = Profile(
      "SELECT ward FROM P-Health, P-Personal "
      "WHERE P-Health.pid = P-Personal.pid AND zipcode='145568'");
  auto view = ComputeTargetView(notion, db_.View(), Ts(1));
  ASSERT_TRUE(view.ok());
  auto result = CheckBatchSuspicion(*view, BuildSchemes(notion),
                                    notion.threshold, notion.indispensable,
                                    {&profile});
  EXPECT_TRUE(result->suspicious);
  // The same query is NOT semantically suspicious.
  EXPECT_FALSE(Check(base, {&profile}).suspicious);
}

TEST_F(SuspicionTest, MakeWeakSyntacticIncludesWhereColumns) {
  auto base = Parse(kSemanticAudit);
  auto notion = MakeWeakSyntactic(base);
  auto attrs = notion.attrs.AllAttributes();
  // name, disease, address + pids (x3), zipcode, salary = 8 (Fig. 5).
  EXPECT_EQ(attrs.size(), 8u);
  ASSERT_EQ(notion.attrs.groups.size(), 1u);
  EXPECT_FALSE(notion.attrs.groups[0].mandatory);
  // A query reading just the zipcode of an audited patient fires it.
  auto profile =
      Profile("SELECT zipcode FROM P-Personal WHERE zipcode='145568'");
  ASSERT_TRUE(notion.Qualify(db_.catalog()).ok());
  auto view = ComputeTargetView(notion, db_.View(), Ts(1));
  ASSERT_TRUE(view.ok());
  auto result = CheckBatchSuspicion(*view, BuildSchemes(notion),
                                    notion.threshold, notion.indispensable,
                                    {&profile});
  EXPECT_TRUE(result->suspicious);
}

TEST_F(SuspicionTest, MakeSemanticFlattensToMandatory) {
  auto base = Parse("AUDIT [name],[disease] FROM P-Personal, P-Health "
                    "WHERE P-Personal.pid = P-Health.pid");
  auto notion = MakeSemantic(base);
  ASSERT_EQ(notion.attrs.groups.size(), 1u);
  EXPECT_TRUE(notion.attrs.groups[0].mandatory);
  EXPECT_EQ(notion.attrs.groups[0].attrs.size(), 2u);
}

TEST_F(SuspicionTest, MakeMandatoryOptionalNotion) {
  // Identifiers (name) mandatory, one of the mutually-derivable sensitive
  // attributes (disease, pres-drugs) suffices — the paper's case 2.
  auto base = Parse(kSemanticAudit);
  auto notion = MakeMandatoryOptional(
      base, {ColumnRef{"P-Personal", "name"}},
      {ColumnRef{"P-Health", "disease"}, ColumnRef{"P-Health", "pres-drugs"}});
  ASSERT_TRUE(notion.Qualify(db_.catalog()).ok());
  auto schemes = notion.attrs.EnumerateSchemes();
  ASSERT_EQ(schemes.size(), 2u);  // {name,disease} and {name,pres-drugs}

  auto view = ComputeTargetView(notion, db_.View(), Ts(1));
  ASSERT_TRUE(view.ok());
  auto granule_schemes = BuildSchemes(notion);

  // Reading names + prescriptions fires it even without disease access
  // (drug1 derives the diagnosis).
  auto drugs = Profile(
      "SELECT name, pres-drugs FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND zipcode='145568'");
  EXPECT_TRUE(CheckBatchSuspicion(*view, granule_schemes, notion.threshold,
                                  notion.indispensable, {&drugs})
                  ->suspicious);
  // Names alone do not.
  auto names = Profile(
      "SELECT name FROM P-Personal WHERE zipcode='145568'");
  EXPECT_FALSE(CheckBatchSuspicion(*view, granule_schemes, notion.threshold,
                                   notion.indispensable, {&names})
                   ->suspicious);
}

TEST_F(SuspicionTest, MakeThresholdNotion) {
  auto base = Parse(kSemanticAudit);
  auto notion = MakeThresholdNotion(base, Threshold::N(5));
  EXPECT_EQ(notion.threshold, Threshold::N(5));
  EXPECT_TRUE(notion.attrs.groups[0].mandatory);
}

// A query whose FROM list does not cover the scheme's tables is a legitimate
// "cannot witness jointly", not an error.
TEST_F(SuspicionTest, PartialFromCoverageIsNotAnError) {
  auto expr = Parse(kSemanticAudit);
  auto q1 = Profile(
      "SELECT name, disease, address "
      "FROM P-Personal, P-Health, P-Employ "
      "WHERE P-Personal.pid=P-Health.pid AND P-Health.pid=P-Employ.pid "
      "AND zipcode='145568' AND disease='diabetic' AND salary > 10000");
  auto q2 = Profile("SELECT disease FROM P-Health WHERE disease='diabetic'");
  SuspicionOptions joint;
  joint.mode = IndispensabilityMode::kJointPerQuery;
  EXPECT_TRUE(Check(expr, {&q1, &q2}, joint).suspicious);
}

// Regression: the batch kernel once held a reference to the caller's
// profile-pointer vector, and a temporary argument left it dangling. The
// kernel now copies what it reads, so every reading below runs after the
// temporary vector (which repeats one profile, as shared executions do)
// is dead.
TEST_F(SuspicionTest, BatchSupportsOutliveTemporaryBatchVector) {
  auto expr = Parse(
      "AUDIT (name,disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid");
  auto view = ComputeTargetView(expr, db_.View(), Ts(1));
  ASSERT_TRUE(view.ok());
  auto schemes = BuildSchemes(expr);
  auto resolved = ResolveSchemes(*view, schemes, expr.threshold);
  ASSERT_TRUE(resolved.ok());
  auto profile = Profile(
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND disease='diabetic'");
  BatchSupports supports(*view, *resolved, expr.indispensable,
                         std::vector<const AccessProfile*>{&profile, &profile},
                         IndispensabilityMode::kPerTable);
  auto want = reference::CheckBatch(*view, schemes, expr.threshold,
                                    expr.indispensable, {&profile},
                                    IndispensabilityMode::kPerTable);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(want->suspicious);
  reference::ExpectSameResult(supports.Verdict(), *want, "batch");
  EXPECT_EQ(supports.SuspiciousAlone(), (std::vector<char>{1, 1}));
  // Either copy alone fires: the first is dropped, the second kept.
  EXPECT_EQ(supports.Minimize({7, 8}), (std::vector<int64_t>{8}));
  reference::ExpectSameResult(supports.Verdict(), *want, "minimal batch");
}

// Differential: the compressed-bitmap kernels must reproduce the std::set
// reference model's verdicts and accessed-fact lists exactly, across modes.
TEST_F(SuspicionTest, BitmapAblationMatchesSetPath) {
  auto expr = Parse(kSemanticAudit);
  auto q1 = Profile(
      "SELECT name, address FROM P-Personal WHERE zipcode='145568'");
  auto q2 = Profile("SELECT disease FROM P-Health WHERE disease='diabetic'");
  auto q3 = Profile(
      "SELECT name, disease, address FROM P-Personal, P-Health "
      "WHERE P-Personal.pid=P-Health.pid AND zipcode='145568' "
      "AND disease='diabetic'");
  const std::vector<std::vector<const AccessProfile*>> batches = {
      {&q1}, {&q2}, {&q1, &q2}, {&q3}, {&q1, &q2, &q3}};
  for (auto mode : {IndispensabilityMode::kPerTable,
                    IndispensabilityMode::kJointPerQuery}) {
    for (const auto& batch : batches) {
      SuspicionOptions options;
      options.mode = mode;
      auto with = Check(expr, batch, options);
      auto view = ComputeTargetView(expr, db_.View(), Ts(1));
      ASSERT_TRUE(view.ok());
      auto model = reference::CheckBatch(*view, BuildSchemes(expr),
                                         expr.threshold, expr.indispensable,
                                         batch, mode);
      ASSERT_TRUE(model.ok());
      reference::ExpectSameResult(with, *model, "");
    }
  }
}

}  // namespace
}  // namespace audit
}  // namespace auditdb
