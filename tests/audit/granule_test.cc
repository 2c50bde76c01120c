#include "src/audit/granule.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/audit/audit_parser.h"
#include "src/audit/audit_stages.h"
#include "src/audit/online.h"
#include "src/audit/suspicion.h"
#include "src/sql/parser.h"
#include "src/workload/hospital.h"

namespace auditdb {
namespace audit {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

class GranuleTest : public ::testing::Test {
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

  TargetView View(const AuditExpression& expr) {
    auto view = ComputeTargetView(expr, db_.View(), Ts(1));
    EXPECT_TRUE(view.ok()) << view.status().ToString();
    return std::move(*view);
  }

  static Result<GranuleEnumerator> Enumerate(const TargetView& view,
                                             const AuditExpression& expr,
                                             Threshold threshold) {
    return GranuleEnumerator::Make(view, BuildSchemes(expr), threshold);
  }

  Database db_;
};

TEST_F(GranuleTest, BuildSchemesMandatory) {
  auto expr = Parse("AUDIT (name,disease) FROM P-Personal, P-Health "
                    "WHERE P-Personal.pid = P-Health.pid");
  auto schemes = BuildSchemes(expr);
  ASSERT_EQ(schemes.size(), 1u);
  EXPECT_EQ(schemes[0].attrs.size(), 2u);
  // Both tables own an audited attribute → both tids in the scheme.
  EXPECT_EQ(schemes[0].tid_tables,
            (std::vector<std::string>{"P-Personal", "P-Health"}));
}

TEST_F(GranuleTest, BuildSchemesTidOnlyForOwningTables) {
  auto expr = Parse("AUDIT (name) FROM P-Personal, P-Health "
                    "WHERE P-Personal.pid = P-Health.pid");
  auto schemes = BuildSchemes(expr);
  ASSERT_EQ(schemes.size(), 1u);
  // Only P-Personal owns `name`; P-Health contributes no tid.
  EXPECT_EQ(schemes[0].tid_tables,
            (std::vector<std::string>{"P-Personal"}));
}

TEST_F(GranuleTest, BuildSchemesNoTidsWhenIndispensableFalse) {
  auto expr = Parse("INDISPENSABLE false AUDIT (name) FROM P-Personal");
  auto schemes = BuildSchemes(expr);
  ASSERT_EQ(schemes.size(), 1u);
  EXPECT_TRUE(schemes[0].tid_tables.empty());
}

TEST_F(GranuleTest, ThresholdOneCountsFacts) {
  auto expr = Parse("AUDIT (name) FROM P-Personal");
  TargetView view = View(expr);  // 4 patients
  auto g = Enumerate(view, expr, Threshold::N(1));
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_DOUBLE_EQ(g->CountGranules(), 4.0);
  EXPECT_EQ(g->schemes()[0].k, 1u);
}

TEST_F(GranuleTest, ThresholdKGivesBinomialCount) {
  auto expr = Parse("THRESHOLD 2 AUDIT (name) FROM P-Personal");
  TargetView view = View(expr);
  auto g = Enumerate(view, expr, expr.threshold);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  // C(4,2) = 6 granules of two facts each.
  EXPECT_DOUBLE_EQ(g->CountGranules(), 6.0);
  size_t visited = g->ForEach([&](const Granule& granule) {
    EXPECT_EQ(granule.fact_indices.size(), 2u);
    return true;
  });
  EXPECT_EQ(visited, 6u);
}

TEST_F(GranuleTest, ThresholdAllIsSingleGranule) {
  auto expr = Parse("THRESHOLD ALL AUDIT (name) FROM P-Personal");
  TargetView view = View(expr);
  auto g = Enumerate(view, expr, expr.threshold);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_DOUBLE_EQ(g->CountGranules(), 1.0);  // C(4,4)
  EXPECT_EQ(g->schemes()[0].k, 4u);
}

TEST_F(GranuleTest, ThresholdLargerThanViewYieldsNothing) {
  auto expr = Parse("THRESHOLD 9 AUDIT (name) FROM P-Personal");
  TargetView view = View(expr);
  auto g = Enumerate(view, expr, expr.threshold);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_DOUBLE_EQ(g->CountGranules(), 0.0);
  EXPECT_EQ(g->ForEach([](const Granule&) { return true; }), 0u);
}

TEST_F(GranuleTest, NullCellsExcluded) {
  // Reku's age is NULL: the age scheme has only 3 valid facts.
  auto expr = Parse("AUDIT [name,age] FROM P-Personal");
  TargetView view = View(expr);
  auto g = Enumerate(view, expr, Threshold::N(1));
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  // Schemes sorted: {age} first (3 valid facts), then {name} (4).
  EXPECT_DOUBLE_EQ(g->CountGranules(), 7.0);
  EXPECT_EQ(g->schemes()[0].valid_facts.size(), 3u);
  EXPECT_EQ(g->schemes()[1].valid_facts.size(), 4u);
}

TEST_F(GranuleTest, EarlyTermination) {
  auto expr = Parse("AUDIT [*] FROM P-Personal");
  TargetView view = View(expr);
  auto g = Enumerate(view, expr, Threshold::N(1));
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  uint64_t visited = g->ForEach([](const Granule&) { return false; });
  EXPECT_EQ(visited, 1u);
}

TEST_F(GranuleTest, RenderSingleFact) {
  auto expr = Parse("AUDIT (name) FROM P-Personal WHERE name = 'Jane'");
  TargetView view = View(expr);
  auto g = Enumerate(view, expr, Threshold::N(1));
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  std::vector<std::string> rendered = g->RenderDistinct(10);
  ASSERT_EQ(rendered.size(), 1u);
  EXPECT_EQ(rendered[0], "(t11,Jane)");
}

TEST_F(GranuleTest, RenderMultiFactGranule) {
  auto expr = Parse("THRESHOLD 2 AUDIT (name) FROM P-Personal "
                    "WHERE zipcode = '145568'");
  TargetView view = View(expr);  // Reku + Lucy
  auto g = Enumerate(view, expr, expr.threshold);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  auto rendered = g->RenderDistinct(10);
  ASSERT_EQ(rendered.size(), 1u);
  EXPECT_EQ(rendered[0], "(t12,Reku); (t14,Lucy)");
}

TEST_F(GranuleTest, RenderDistinctLimit) {
  auto expr = Parse("AUDIT [*] FROM P-Personal");
  TargetView view = View(expr);
  auto g = Enumerate(view, expr, Threshold::N(1));
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->RenderDistinct(3).size(), 3u);
}

TEST_F(GranuleTest, ValueModeGranulesRenderWithoutTids) {
  auto expr = Parse("INDISPENSABLE false AUDIT (name) FROM P-Personal "
                    "WHERE name = 'Jane'");
  TargetView view = View(expr);
  auto g = Enumerate(view, expr, Threshold::N(1));
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  auto rendered = g->RenderDistinct(10);
  ASSERT_EQ(rendered.size(), 1u);
  EXPECT_EQ(rendered[0], "(Jane)");  // value-only: no tid component
}

TEST_F(GranuleTest, SchemeToString) {
  auto expr = Parse("AUDIT (name,disease) FROM P-Personal, P-Health "
                    "WHERE P-Personal.pid = P-Health.pid");
  auto schemes = BuildSchemes(expr);
  std::string text = schemes[0].ToString();
  EXPECT_NE(text.find("tid_P-Personal"), std::string::npos);
  EXPECT_NE(text.find("P-Health.disease"), std::string::npos);
}

TEST_F(GranuleTest, CombinatoricGrowthMatchesFormula) {
  // The paper notes ~2^k·2^n granule-set growth; spot-check C(n,k) at a
  // larger scale via the scaled hospital.
  Database big;
  workload::HospitalConfig config;
  config.num_patients = 30;
  config.null_age_fraction = 0;
  ASSERT_TRUE(workload::PopulateHospital(&big, config, Ts(1)).ok());
  auto expr = ParseAudit("THRESHOLD 3 AUDIT (name) FROM P-Personal", Ts(10));
  ASSERT_TRUE(expr.ok());
  ASSERT_TRUE(expr->Qualify(big.catalog()).ok());
  auto view = ComputeTargetView(*expr, big.View(), Ts(1));
  ASSERT_TRUE(view.ok());
  auto g = Enumerate(*view, *expr, expr->threshold);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_DOUBLE_EQ(g->CountGranules(), 4060.0);  // C(30,3)
  EXPECT_EQ(g->ForEach([](const Granule&) { return true; }), 4060u);
}

TEST_F(GranuleTest, ResolveSchemesReadsTheView) {
  // age precedes disease in the view (audit-clause order), although the
  // scheme's attribute set orders P-Health.disease first.
  auto expr = Parse("AUDIT (age,disease) FROM P-Personal, P-Health "
                    "WHERE P-Personal.pid = P-Health.pid");
  TargetView view = View(expr);
  auto resolved = ResolveSchemes(view, BuildSchemes(expr), expr.threshold);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  ASSERT_EQ(resolved->size(), 1u);
  const ResolvedScheme& scheme = (*resolved)[0];
  ASSERT_EQ(scheme.columns.size(), 2u);
  EXPECT_EQ(view.columns[scheme.columns[0]], (ColumnRef{"P-Personal", "age"}));
  EXPECT_EQ(view.columns[scheme.columns[1]],
            (ColumnRef{"P-Health", "disease"}));
  ASSERT_EQ(scheme.tid_positions.size(), scheme.scheme.tid_tables.size());
  for (size_t i = 0; i < scheme.tid_positions.size(); ++i) {
    EXPECT_EQ(view.tables[scheme.tid_positions[i]],
              scheme.scheme.tid_tables[i]);
  }
  // Reku's age is NULL: three of the four facts are valid.
  EXPECT_EQ(view.size(), 4u);
  EXPECT_EQ(scheme.valid_facts.size(), 3u);
  EXPECT_TRUE(std::is_sorted(scheme.valid_facts.begin(),
                             scheme.valid_facts.end()));
  for (size_t f : scheme.valid_facts) {
    for (size_t c : scheme.columns) {
      EXPECT_FALSE(view.facts[f].values[c].is_null());
    }
  }
  EXPECT_EQ(scheme.k, 1u);

  auto all = ResolveSchemes(view, BuildSchemes(expr), Threshold::All());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ((*all)[0].k, 3u);
}

// --- Scheme/view mismatch ----------------------------------------------

/// A scheme that does not resolve against its view was never checked, so
/// every surface that reads schemes against a view refuses it and names
/// what is missing; none may report the scheme as not accessed.
class SchemeMismatchTest : public GranuleTest {
 protected:
  const std::string kSemantic =
      "AUDIT (name,disease) FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid";

  /// The semantic expression's real target view.
  TargetView SemanticView() { return View(Parse(kSemantic)); }

  void ExpectEverySurfaceFails(const TargetView& view,
                               const std::string& missing) {
    auto expr = Parse(kSemantic);
    auto schemes = BuildSchemes(expr);
    auto stmt = sql::ParseSelect(
        "SELECT name, disease FROM P-Personal, P-Health "
        "WHERE P-Personal.pid = P-Health.pid");
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    auto profile = ComputeAccessProfile(*stmt, db_.View());
    ASSERT_TRUE(profile.ok()) << profile.status().ToString();
    const std::vector<const AccessProfile*> batch = {&*profile};

    auto expect_names_missing = [&](const Status& status,
                                    const std::string& surface) {
      EXPECT_EQ(status.code(), StatusCode::kInternal)
          << surface << ": " << status.ToString();
      EXPECT_NE(status.message().find("unresolvable in target view"),
                std::string::npos)
          << surface << ": " << status.ToString();
      EXPECT_NE(status.message().find(missing), std::string::npos)
          << surface << ": " << status.ToString();
    };
    for (auto mode : {IndispensabilityMode::kPerTable,
                      IndispensabilityMode::kJointPerQuery}) {
      const std::string tag =
          mode == IndispensabilityMode::kPerTable ? " (per-table)"
                                                  : " (joint)";
      SuspicionOptions options;
      options.mode = mode;
      auto checked = CheckBatchSuspicion(view, schemes, expr.threshold,
                                         expr.indispensable, batch, options);
      ASSERT_FALSE(checked.ok()) << "CheckBatchSuspicion" << tag;
      expect_names_missing(checked.status(), "CheckBatchSuspicion" + tag);

      auto kept = MinimizeBatch(view, schemes, expr, batch, {1}, options);
      ASSERT_FALSE(kept.ok()) << "MinimizeBatch" << tag;
      expect_names_missing(kept.status(), "MinimizeBatch" + tag);
    }
    auto enumerator = GranuleEnumerator::Make(view, schemes, expr.threshold);
    ASSERT_FALSE(enumerator.ok()) << "GranuleEnumerator::Make";
    expect_names_missing(enumerator.status(), "GranuleEnumerator::Make");

    auto states = BuildOnlineSchemeStates(expr, view, {});
    ASSERT_FALSE(states.ok()) << "BuildOnlineSchemeStates";
    expect_names_missing(states.status(), "BuildOnlineSchemeStates");
  }
};

TEST_F(SchemeMismatchTest, MissingAttributeFailsOnEverySurface) {
  TargetView view = SemanticView();
  const ColumnRef disease{"P-Health", "disease"};
  auto at = std::find(view.columns.begin(), view.columns.end(), disease);
  ASSERT_NE(at, view.columns.end());
  const auto c = static_cast<size_t>(at - view.columns.begin());
  view.columns.erase(at);
  for (auto& fact : view.facts) {
    fact.values.erase(fact.values.begin() + static_cast<ptrdiff_t>(c));
  }
  ExpectEverySurfaceFails(view, "P-Health.disease");
}

TEST_F(SchemeMismatchTest, MissingTidTableFailsOnEverySurface) {
  TargetView view = SemanticView();
  ASSERT_EQ(view.tables.front(), "P-Personal");
  view.tables.erase(view.tables.begin());
  for (auto& fact : view.facts) fact.tids.erase(fact.tids.begin());
  view.RebuildTidIndex();
  ExpectEverySurfaceFails(view, "P-Personal");
}

}  // namespace
}  // namespace audit
}  // namespace auditdb
