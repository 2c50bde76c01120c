/// The standing-expression audit index and its decision cache:
/// inverted-index lookups, memoization (including error outcomes),
/// wholesale invalidation, and null-cache equivalence.

#include "src/audit/audit_index.h"

#include <gtest/gtest.h>

#include <functional>

#include "src/audit/audit_parser.h"
#include "src/sql/parser.h"
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

  sql::SelectStatement Select(const std::string& sql) {
    auto stmt = sql::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    return std::move(*stmt);
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

TEST_F(AuditIndexTest, AccessedColumnsMemoizesSuccesses) {
  DecisionCache cache;
  auto stmt = Select("SELECT disease FROM P-Health");
  auto first = cache.AccessedColumns(Shape("k1"), false, 0, stmt, db_.catalog());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->status.ok());
  EXPECT_EQ(cache.stats()->cache_misses.load(), 1u);
  EXPECT_EQ(cache.stats()->cache_hits.load(), 0u);

  auto second = cache.AccessedColumns(Shape("k1"), false, 0, stmt, db_.catalog());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.stats()->cache_hits.load(), 1u);
  // The hit shares the miss's column set (same object, not a copy).
  EXPECT_EQ(first->columns.get(), second->columns.get());
  EXPECT_EQ(cache.column_entries(), 1u);
}

TEST_F(AuditIndexTest, AccessedColumnsMemoizesErrorsByteForByte) {
  DecisionCache cache;
  auto stmt = Select("SELECT x FROM NoSuchTable");
  auto first = cache.AccessedColumns(Shape("k1"), false, 0, stmt, db_.catalog());
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->status.ok());
  auto second = cache.AccessedColumns(Shape("k1"), false, 0, stmt, db_.catalog());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status.ToString(), first->status.ToString());
  EXPECT_EQ(cache.stats()->cache_hits.load(), 1u);
}

TEST_F(AuditIndexTest, DistinctKeysDoNotCollide) {
  DecisionCache cache;
  auto stmt = Select("SELECT disease FROM P-Health");
  // Same SQL key, different outputs_only / mutation: three entries.
  ASSERT_TRUE(cache.AccessedColumns(Shape("k"), false, 0, stmt, db_.catalog()).ok());
  ASSERT_TRUE(cache.AccessedColumns(Shape("k"), true, 0, stmt, db_.catalog()).ok());
  ASSERT_TRUE(cache.AccessedColumns(Shape("k"), false, 1, stmt, db_.catalog()).ok());
  EXPECT_EQ(cache.column_entries(), 3u);
  EXPECT_EQ(cache.stats()->cache_misses.load(), 3u);
  EXPECT_EQ(cache.stats()->cache_hits.load(), 0u);
}

TEST_F(AuditIndexTest, BatchCandidateMemoizesDecisionsAndErrors) {
  DecisionCache cache;
  auto expr = Qualified("AUDIT (disease) FROM P-Health");
  uint64_t expr_hash = std::hash<std::string>{}(expr.ToString());

  auto touching = Select("SELECT disease FROM P-Health");
  auto first = cache.BatchCandidate(Shape("q1"), expr_hash, 0, touching, expr,
                                    db_.catalog(), CandidateOptions{});
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(*first);
  auto again = cache.BatchCandidate(Shape("q1"), expr_hash, 0, touching, expr,
                                    db_.catalog(), CandidateOptions{});
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(*again);
  EXPECT_EQ(cache.stats()->cache_hits.load(), 1u);

  auto broken = Select("SELECT x FROM NoSuchTable");
  auto err = cache.BatchCandidate(Shape("q2"), expr_hash, 0, broken, expr,
                                  db_.catalog(), CandidateOptions{});
  EXPECT_FALSE(err.ok());
  auto err_again = cache.BatchCandidate(Shape("q2"), expr_hash, 0, broken, expr,
                                        db_.catalog(), CandidateOptions{});
  EXPECT_FALSE(err_again.ok());
  EXPECT_EQ(err_again.status().ToString(), err.status().ToString());
  EXPECT_EQ(cache.decision_entries(), 2u);
}

TEST_F(AuditIndexTest, CachedBatchCandidateMatchesDirectWithAndWithoutCache) {
  DecisionCache cache;
  auto expr = Qualified("AUDIT (disease) FROM P-Health");
  uint64_t expr_hash = std::hash<std::string>{}(expr.ToString());
  for (const char* sql :
       {"SELECT disease FROM P-Health", "SELECT ward FROM P-Health",
        "SELECT x FROM NoSuchTable"}) {
    auto stmt = Select(sql);
    auto direct =
        IsBatchCandidate(stmt, expr, db_.catalog(), CandidateOptions{});
    sql::QueryShape key = sql::ComputeQueryShape(sql);
    for (int round = 0; round < 2; ++round) {  // miss then hit
      auto cached = CachedBatchCandidate(&cache, key, expr_hash, 0, stmt,
                                         expr, db_.catalog(),
                                         CandidateOptions{});
      ASSERT_EQ(cached.ok(), direct.ok()) << sql;
      if (direct.ok()) {
        EXPECT_EQ(*cached, *direct) << sql;
      } else {
        EXPECT_EQ(cached.status().ToString(), direct.status().ToString());
      }
    }
    auto uncached = CachedBatchCandidate(nullptr, key, expr_hash, 0, stmt,
                                         expr, db_.catalog(),
                                         CandidateOptions{});
    ASSERT_EQ(uncached.ok(), direct.ok()) << sql;
    if (direct.ok()) EXPECT_EQ(*uncached, *direct);
  }
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
  EXPECT_EQ(cache.column_entries(), 0u);
  EXPECT_EQ(cache.decision_entries(), 0u);
}

TEST_F(AuditIndexTest, CapsDropSectionsWholesaleWithoutLosingCorrectness) {
  DecisionCache cache;
  auto stmt = Select("SELECT disease FROM P-Health");
  const std::set<ColumnRef> expected = {{"P-Health", "disease"}};
  const uint64_t cap = DecisionCache::kMaxColumnEntries;
  // Fill the section to its cap, then one more: the section drops whole
  // and the overflow entry starts it afresh.
  for (uint64_t m = 0; m <= cap; ++m) {
    auto entry =
        cache.AccessedColumns(Shape("k"), false, m, stmt, db_.catalog());
    ASSERT_TRUE(entry.ok());
    ASSERT_TRUE(entry->status.ok());
    ASSERT_EQ(*entry->columns, expected);
    ASSERT_LE(cache.column_entries(), cap);
  }
  EXPECT_EQ(cache.column_entries(), 1u);
  EXPECT_EQ(cache.stats()->cache_misses.load(), cap + 1);
  // A dropped key is recomputed, with the same answer; the survivor hits.
  auto dropped = cache.AccessedColumns(Shape("k"), false, 0, stmt,
                                       db_.catalog());
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped->columns, expected);
  EXPECT_EQ(cache.stats()->cache_misses.load(), cap + 2);
  auto kept = cache.AccessedColumns(Shape("k"), false, cap, stmt,
                                    db_.catalog());
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(cache.stats()->cache_hits.load(), 1u);
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
  // The decision cache's state keys: the catalog epoch moves on schema
  // changes, a table's epoch on writes to it (and nowhere else).
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
