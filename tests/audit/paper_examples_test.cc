/// Regenerates every worked example of the paper on the reconstructed
/// Tables 1-3 instance and checks the output against the listings in the
/// paper: the target data views of Tables 4 and 5, and the granule sets of
/// Figures 4, 5 and 6. See DESIGN.md for the reconstruction notes (Reku's
/// NULL age; the spurious "(t32)" item in Fig. 5's listing).

#include <gtest/gtest.h>

#include <algorithm>

#include "src/audit/audit_parser.h"
#include "src/audit/granule.h"
#include "src/audit/suspicion.h"
#include "src/audit/target_view.h"
#include "src/workload/hospital.h"

namespace auditdb {
namespace audit {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

class PaperExamplesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(workload::BuildPaperDatabase(&db_, Ts(1)).ok());
    now_ = Ts(1000);
  }

  AuditExpression MustParse(const std::string& text) {
    auto expr = ParseAudit(text, now_);
    EXPECT_TRUE(expr.ok()) << expr.status().ToString();
    auto qualified = expr->Qualify(db_.catalog());
    EXPECT_TRUE(qualified.ok()) << qualified.ToString();
    return std::move(*expr);
  }

  TargetView MustView(const AuditExpression& expr) {
    auto view = ComputeTargetView(expr, db_.View(), now_);
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    return std::move(*view);
  }

  /// All distinct granules, paper-style, sorted for set comparison.
  std::vector<std::string> Granules(const AuditExpression& expr) {
    TargetView view = MustView(expr);
    auto enumerator =
        GranuleEnumerator::Make(view, BuildSchemes(expr), expr.threshold);
    EXPECT_TRUE(enumerator.ok()) << enumerator.status().ToString();
    if (!enumerator.ok()) return {};
    auto rendered = enumerator->RenderDistinct(10000);
    std::sort(rendered.begin(), rendered.end());
    return rendered;
  }

  Database db_;
  Timestamp now_;
};

// --- Audit Expression-1 (Fig. 2) → Table 4 ---------------------------

TEST_F(PaperExamplesTest, Table4TargetViewOfAuditExpression1) {
  auto expr = MustParse(
      "AUDIT name, age, address FROM P-Personal WHERE age < 30");
  TargetView view = MustView(expr);

  // Table 4: t11 Jane 25 A1 / t13 Robert 29 A3 / t14 Lucy 20 A4.
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view.facts[0].tids, (std::vector<Tid>{11}));
  EXPECT_EQ(view.facts[0].values[0], Value::String("Jane"));
  EXPECT_EQ(view.facts[0].values[1], Value::Int(25));
  EXPECT_EQ(view.facts[0].values[2], Value::String("A1"));
  EXPECT_EQ(view.facts[1].tids, (std::vector<Tid>{13}));
  EXPECT_EQ(view.facts[1].values[0], Value::String("Robert"));
  EXPECT_EQ(view.facts[2].tids, (std::vector<Tid>{14}));
  EXPECT_EQ(view.facts[2].values[0], Value::String("Lucy"));

  // Scheme: name, age, address (audit list; age also in WHERE).
  ASSERT_EQ(view.columns.size(), 3u);
  EXPECT_EQ(view.columns[0].column, "name");
  EXPECT_EQ(view.columns[1].column, "age");
  EXPECT_EQ(view.columns[2].column, "address");
}

// --- Audit Expression-2 (Fig. 3) → Table 5 ---------------------------

TEST_F(PaperExamplesTest, Table5TargetViewOfAuditExpression2) {
  auto expr = MustParse(
      "AUDIT name, disease, address "
      "FROM P-Personal, P-Health, P-Employ "
      "WHERE P-Personal.pid=P-Health.pid and P-Health.pid=P-Employ.pid "
      "and P-Personal.zipcode=145568 and P-Employ.salary > 10000 "
      "and P-Health.disease='diabetic'");
  TargetView view = MustView(expr);

  // Table 5: (t12,t22,t32) Reku and (t14,t24,t34) Lucy.
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view.facts[0].tids, (std::vector<Tid>{12, 22, 32}));
  EXPECT_EQ(view.facts[1].tids, (std::vector<Tid>{14, 24, 34}));

  auto value = [&](size_t fact, const char* table,
                   const char* column) -> Value {
    auto idx = view.ColumnIndex(ColumnRef{table, column});
    EXPECT_TRUE(idx.ok());
    return view.facts[fact].values[*idx];
  };
  EXPECT_EQ(value(0, "P-Personal", "name"), Value::String("Reku"));
  EXPECT_EQ(value(0, "P-Health", "disease"), Value::String("diabetic"));
  EXPECT_EQ(value(0, "P-Personal", "zipcode"), Value::String("145568"));
  EXPECT_EQ(value(0, "P-Employ", "salary"), Value::Int(20000));
  EXPECT_EQ(value(1, "P-Personal", "name"), Value::String("Lucy"));
  EXPECT_EQ(value(1, "P-Personal", "address"), Value::String("A4"));
  EXPECT_EQ(value(1, "P-Employ", "salary"), Value::Int(19000));
}

// --- Fig. 4: perfect-privacy granule set ------------------------------

TEST_F(PaperExamplesTest, Fig4PerfectPrivacyGranules) {
  auto expr = MustParse(
      "INDISPENSABLE = true "
      "AUDIT [*] "
      "FROM P-Personal, P-Health, P-Employ "
      "WHERE P-Personal.pid=P-Health.pid and P-Health.pid=P-Employ.pid "
      "and P-Personal.zipcode='145568' and P-Employ.salary > 10000 "
      "and P-Health.disease='diabetic' and P-Personal.name='Reku'");
  auto granules = Granules(expr);

  // The paper lists exactly these 13 cells (no age granule: Reku's age is
  // NULL, and NULL cells disclose nothing).
  std::vector<std::string> expected = {
      "(t12,p2)",     "(t22,p2)",       "(t32,p2)",    "(t12,145568)",
      "(t12,M)",      "(t12,A2)",       "(t12,Reku)",  "(t22,W12)",
      "(t22,Nicholas)", "(t22,diabetic)", "(t22,drug1)", "(t32,E2)",
      "(t32,20000)"};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(granules, expected);
}

// --- Fig. 5: weak syntactic suspicion granule set ----------------------

TEST_F(PaperExamplesTest, Fig5WeakSyntacticGranules) {
  auto expr = MustParse(
      "INDISPENSABLE = true "
      "AUDIT [name,disease,address,P-Personal.pid, P-Health.pid, "
      "P-Employ.pid, zipcode, salary] "
      "FROM P-Personal, P-Health, P-Employ "
      "WHERE P-Personal.pid=P-Health.pid and P-Health.pid=P-Employ.pid "
      "and P-Personal.zipcode=145568 and P-Employ.salary > 10000 "
      "and P-Health.disease='diabetic'");
  auto granules = Granules(expr);

  // The paper's listing (17 items) minus the stray bare "(t32)", which has
  // no value component and is a typo: every granule of this notion is a
  // (tid, column-value) pair. 16 remain: 8 audit-list columns × 2 rows
  // of U.
  std::vector<std::string> expected = {
      "(t12,p2)",     "(t12,145568)", "(t12,Reku)",     "(t12,A2)",
      "(t14,p28)",    "(t14,145568)", "(t14,Lucy)",     "(t14,A4)",
      "(t22,diabetic)", "(t24,diabetic)", "(t32,20000)", "(t34,19000)",
      "(t22,p2)",     "(t32,p2)",     "(t24,p28)",      "(t34,p28)"};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(granules, expected);
}

// --- Fig. 6: semantic suspicion granule set ----------------------------

TEST_F(PaperExamplesTest, Fig6SemanticGranules) {
  auto expr = MustParse(
      "INDISPENSABLE = true "
      "AUDIT (name,disease,address) "
      "FROM P-Personal, P-Health, P-Employ "
      "WHERE P-Personal.pid=P-Health.pid and P-Health.pid=P-Employ.pid "
      "and P-Personal.zipcode='145568' and P-Employ.salary > 10000 "
      "and P-Health.disease='diabetic'");
  auto granules = Granules(expr);

  // G = {(t12,t22,Reku,diabetic,A2), (t14,t24,Lucy,diabetic,A4)}.
  // Scheme order: tids of the owning tables (P-Personal, P-Health), then
  // the audit attributes in clause order.
  std::vector<std::string> expected = {"(t12,t22,Reku,diabetic,A2)",
                                       "(t14,t24,Lucy,diabetic,A4)"};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(granules, expected);
}

// --- Section 1's alternative suspicion notions -------------------------
// The introduction motivates the model with notions the legacy syntax
// cannot express; all are single-clause changes in the unified grammar.

TEST_F(PaperExamplesTest, IntroNotionDefaultIndispensableTuple) {
  // "access to disease information of at least one patient from the
  // identified patients" — the default notion.
  auto expr = MustParse(
      "AUDIT disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND zipcode = '145568'");
  EXPECT_EQ(expr.threshold, Threshold::N(1));
  auto schemes = BuildSchemes(expr);
  ASSERT_EQ(schemes.size(), 1u);
  EXPECT_EQ(schemes[0].attrs.size(), 1u);
}

TEST_F(PaperExamplesTest, IntroNotionDiseaseAndArea) {
  // "(i) access to disease AND area information of at least one patient":
  // both columns mandatory.
  auto expr = MustParse(
      "AUDIT (disease,zipcode) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND zipcode = '145568'");
  auto schemes = BuildSchemes(expr);
  ASSERT_EQ(schemes.size(), 1u);
  EXPECT_EQ(schemes[0].attrs.size(), 2u);
  // The scheme spans both owning tables' tids.
  EXPECT_EQ(schemes[0].tid_tables,
            (std::vector<std::string>{"P-Personal", "P-Health"}));
}

TEST_F(PaperExamplesTest, IntroNotionMoreThanNPatients) {
  // "(ii) access to disease information of more than N patients": the
  // THRESHOLD clause. With N = 1 ("more than one"), a single-patient
  // disclosure stays clean and a two-patient disclosure fires.
  auto expr = MustParse(
      "THRESHOLD 2 AUDIT (disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND zipcode = '145568'");
  TargetView view = MustView(expr);
  ASSERT_EQ(view.size(), 2u);  // Reku and Lucy

  auto profile_for = [&](const std::string& sql) {
    auto stmt = sql::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok());
    auto profile = ComputeAccessProfile(*stmt, db_.View());
    EXPECT_TRUE(profile.ok());
    return std::move(*profile);
  };
  auto one_patient = profile_for(
      "SELECT disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND name = 'Reku'");
  auto both_patients = profile_for(
      "SELECT disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND zipcode = '145568'");

  auto schemes = BuildSchemes(expr);
  EXPECT_FALSE(CheckBatchSuspicion(view, schemes, expr.threshold,
                                   expr.indispensable, {&one_patient})
                   ->suspicious);
  EXPECT_TRUE(CheckBatchSuspicion(view, schemes, expr.threshold,
                                  expr.indispensable, {&both_patients})
                  ->suspicious);
  // And batch-wise: two single-patient queries together cross N.
  auto other_patient = profile_for(
      "SELECT disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND name = 'Lucy'");
  EXPECT_TRUE(CheckBatchSuspicion(view, schemes, expr.threshold,
                                  expr.indispensable,
                                  {&one_patient, &other_patient})
                  ->suspicious);
}

// --- Fig. 4 granule count cross-check ---------------------------------

TEST_F(PaperExamplesTest, GranuleCountsMatchListings) {
  auto perfect = MustParse(
      "AUDIT [*] FROM P-Personal, P-Health, P-Employ "
      "WHERE P-Personal.pid=P-Health.pid and P-Health.pid=P-Employ.pid "
      "and P-Personal.zipcode='145568' and P-Employ.salary > 10000 "
      "and P-Health.disease='diabetic' and P-Personal.name='Reku'");
  TargetView view = MustView(perfect);
  auto enumerator =
      GranuleEnumerator::Make(view, BuildSchemes(perfect), perfect.threshold);
  ASSERT_TRUE(enumerator.ok()) << enumerator.status().ToString();
  EXPECT_DOUBLE_EQ(enumerator->CountGranules(), 13.0);
}

}  // namespace
}  // namespace audit
}  // namespace auditdb
