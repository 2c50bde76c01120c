/// The standing-expression audit index and the online monitor's profile
/// cache: inverted-index lookups, memoization and wholesale drops at the
/// cap.

#include "src/audit/audit_index.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/audit/audit_parser.h"
#include "src/sql/query_shape.h"
#include "src/workload/hospital.h"

namespace auditdb {
namespace audit {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

/// Distinct deterministic cache keys from short tags.
sql::QueryShape Shape(const std::string& tag) {
  return sql::ComputeQueryShape(tag);
}

class AuditIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(workload::BuildPaperDatabase(&db_, Ts(1)).ok());
  }

  AuditExpression Qualified(const std::string& text) {
    auto expr = ParseAudit("DURING 1/1/1970 to 2/1/1970 " + text, Ts(1000));
    EXPECT_TRUE(expr.ok()) << expr.status().ToString();
    EXPECT_TRUE(expr->Qualify(db_.catalog()).ok());
    return std::move(*expr);
  }

  Database db_;
};

TEST_F(AuditIndexTest, CandidatesReturnsOnlyTouchedExpressions) {
  ExpressionIndex index;
  index.Add(0, Qualified("AUDIT (disease) FROM P-Health"));
  index.Add(1, Qualified("AUDIT (salary) FROM P-Employ"));
  index.Add(2, Qualified("AUDIT (name,disease) FROM P-Personal, P-Health "
                         "WHERE P-Personal.pid = P-Health.pid"));
  EXPECT_EQ(index.size(), 3u);

  std::set<ColumnRef> disease = {{"P-Health", "disease"}};
  EXPECT_EQ(index.Candidates(disease), (std::vector<int>{0, 2}));

  std::set<ColumnRef> salary = {{"P-Employ", "salary"}};
  EXPECT_EQ(index.Candidates(salary), (std::vector<int>{1}));

  std::set<ColumnRef> untouched = {{"P-Health", "ward"}};
  EXPECT_TRUE(index.Candidates(untouched).empty());
  EXPECT_TRUE(index.Candidates({}).empty());
}

TEST_F(AuditIndexTest, CandidatesAreAscendingAndDeduplicated) {
  ExpressionIndex index;
  // Registered out of id order; one query touching both audited
  // attributes of id 5 must still report it once.
  index.Add(5, Qualified("AUDIT (name,disease) FROM P-Personal, P-Health "
                         "WHERE P-Personal.pid = P-Health.pid"));
  index.Add(1, Qualified("AUDIT (disease) FROM P-Health"));
  std::set<ColumnRef> both = {{"P-Personal", "name"},
                              {"P-Health", "disease"}};
  EXPECT_EQ(index.Candidates(both), (std::vector<int>{1, 5}));
}

TEST_F(AuditIndexTest, RemoveUnregistersAndReaddReplaces) {
  ExpressionIndex index;
  index.Add(0, Qualified("AUDIT (disease) FROM P-Health"));
  index.Remove(0);
  EXPECT_EQ(index.size(), 0u);
  std::set<ColumnRef> disease = {{"P-Health", "disease"}};
  EXPECT_TRUE(index.Candidates(disease).empty());
  index.Remove(0);  // no-op on absent id

  // Re-adding the same id with a different expression replaces it.
  index.Add(0, Qualified("AUDIT (disease) FROM P-Health"));
  index.Add(0, Qualified("AUDIT (salary) FROM P-Employ"));
  EXPECT_EQ(index.size(), 1u);
  EXPECT_TRUE(index.Candidates(disease).empty());
  std::set<ColumnRef> salary = {{"P-Employ", "salary"}};
  EXPECT_EQ(index.Candidates(salary), (std::vector<int>{0}));
}

TEST_F(AuditIndexTest, ProfileRoundTrip) {
  DecisionCache cache;
  EXPECT_EQ(cache.LookupProfile(Shape("q"), 0), nullptr);
  auto profile = std::make_shared<const AccessProfile>();
  cache.StoreProfile(Shape("q"), 0, profile);
  EXPECT_EQ(cache.LookupProfile(Shape("q"), 0).get(), profile.get());
  // A different mutation count is a different state: miss.
  EXPECT_EQ(cache.LookupProfile(Shape("q"), 1), nullptr);
  EXPECT_EQ(cache.profile_entries(), 1u);
  EXPECT_EQ(cache.stats()->cache_hits.load(), 1u);
  EXPECT_EQ(cache.stats()->cache_misses.load(), 2u);
}

TEST_F(AuditIndexTest, CapsDropSectionsWholesaleWithoutLosingCorrectness) {
  DecisionCache cache;
  const uint64_t cap = DecisionCache::kMaxProfileEntries;
  std::vector<std::shared_ptr<const AccessProfile>> stored;
  // Fill the cache to its cap, then one more: it drops whole and the
  // overflow entry starts it afresh.
  for (uint64_t m = 0; m <= cap; ++m) {
    stored.push_back(std::make_shared<const AccessProfile>());
    cache.StoreProfile(Shape("k"), m, stored.back());
    ASSERT_LE(cache.profile_entries(), cap);
  }
  EXPECT_EQ(cache.profile_entries(), 1u);
  // A dropped key misses (the caller recomputes); the survivor hits with
  // the profile stored under it.
  EXPECT_EQ(cache.LookupProfile(Shape("k"), 0), nullptr);
  EXPECT_EQ(cache.LookupProfile(Shape("k"), cap).get(), stored.back().get());
  EXPECT_EQ(cache.stats()->cache_hits.load(), 1u);
  EXPECT_EQ(cache.stats()->cache_misses.load(), 1u);
}

TEST_F(AuditIndexTest, StatsRenderAsJson) {
  AuditIndexStats stats;
  stats.index_lookups.store(3);
  stats.index_skipped.store(7);
  stats.cache_hits.store(11);
  EXPECT_EQ(stats.ToJson(),
            "{\"lookups\":3,\"visited\":0,\"skipped\":7,\"fallbacks\":0,"
            "\"cache_hits\":11,\"cache_misses\":0}");
}

TEST_F(AuditIndexTest, MutationCountAdvancesOnWritesAndSchemaChanges) {
  // The memo keys: the catalog epoch moves on schema changes (static
  // facts), a table's epoch on writes to it and nowhere else (profiles).
  const uint64_t catalog_before = db_.catalog_epoch();
  ASSERT_TRUE(
      db_.CreateTable(TableSchema("Extra", {{"x", ValueType::kInt}})).ok());
  EXPECT_GT(db_.catalog_epoch(), catalog_before);

  auto health = db_.GetTable("P-Health");
  auto personal = db_.GetTable("P-Personal");
  ASSERT_TRUE(health.ok());
  ASSERT_TRUE(personal.ok());
  const uint64_t health_before = (*health)->epoch();
  const uint64_t personal_before = (*personal)->epoch();
  const uint64_t catalog_after_create = db_.catalog_epoch();
  ASSERT_TRUE(db_.Insert("P-Health",
                         {Value::String("p77"), Value::String("W9"),
                          Value::String("Smith"), Value::String("flu"),
                          Value::String("drug9")},
                         Ts(10))
                  .ok());
  EXPECT_GT((*health)->epoch(), health_before);
  EXPECT_EQ((*personal)->epoch(), personal_before);
  EXPECT_EQ(db_.catalog_epoch(), catalog_after_create);
}

}  // namespace
}  // namespace audit
}  // namespace auditdb
