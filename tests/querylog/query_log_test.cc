#include "src/querylog/query_log.h"

#include <gtest/gtest.h>

#include "src/audit/candidate.h"

namespace auditdb {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

TEST(QueryLogTest, AppendAssignsIds) {
  QueryLog log;
  int64_t id1 = log.Append("SELECT 1 FROM T", Ts(1), "alice", "doctor",
                           "treatment");
  int64_t id2 =
      log.Append("SELECT 2 FROM T", Ts(2), "bob", "clerk", "billing");
  EXPECT_EQ(id1, 1);
  EXPECT_EQ(id2, 2);
  EXPECT_EQ(log.size(), 2u);
}

TEST(QueryLogTest, GetById) {
  QueryLog log;
  int64_t id = log.Append("SELECT a FROM T", Ts(5), "alice", "doctor",
                          "treatment");
  auto entry = log.Get(id);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ((*entry)->sql, "SELECT a FROM T");
  EXPECT_EQ((*entry)->user, "alice");
  EXPECT_EQ((*entry)->role, "doctor");
  EXPECT_EQ((*entry)->purpose, "treatment");
  EXPECT_EQ((*entry)->timestamp, Ts(5));
  EXPECT_FALSE(log.Get(0).ok());
  EXPECT_FALSE(log.Get(99).ok());
}

TEST(QueryLogTest, InInterval) {
  QueryLog log;
  log.Append("q1", Ts(10), "u", "r", "p");
  log.Append("q2", Ts(20), "u", "r", "p");
  log.Append("q3", Ts(30), "u", "r", "p");
  auto in_range = log.InInterval({Ts(15), Ts(30)});
  ASSERT_EQ(in_range.size(), 2u);
  EXPECT_EQ(in_range[0]->sql, "q2");
  EXPECT_EQ(in_range[1]->sql, "q3");
  EXPECT_TRUE(log.InInterval({Ts(40), Ts(50)}).empty());
}

TEST(QueryLogTest, ToStringIncludesAnnotations) {
  QueryLog log;
  int64_t id =
      log.Append("SELECT a FROM T", Ts(5), "alice", "doctor", "treatment");
  auto entry = log.Get(id);
  ASSERT_TRUE(entry.ok());
  std::string text = (*entry)->ToString();
  EXPECT_NE(text.find("alice"), std::string::npos);
  EXPECT_NE(text.find("doctor"), std::string::npos);
  EXPECT_NE(text.find("SELECT a FROM T"), std::string::npos);
}

TEST(ParsedShapeTest, AppendSharesOneSlotPerShapeAndParsesNothing) {
  QueryLog log;
  log.Append("SELECT a FROM T WHERE b = 1", Ts(1), "u", "r", "p");
  log.Append("SELECT  a\nFROM T WHERE b=1", Ts(2), "u", "r", "p");
  log.Append("SELECT a FROM T WHERE b = 2", Ts(3), "u", "r", "p");
  ASSERT_NE(log.Entry(0).parsed, nullptr);
  EXPECT_EQ(log.Entry(0).parsed, log.Entry(1).parsed);
  EXPECT_NE(log.Entry(0).parsed, log.Entry(2).parsed);
  EXPECT_EQ(log.distinct_shapes(), 2u);
  EXPECT_EQ(log.parsed_shapes(), 0u);
  EXPECT_FALSE(log.Entry(0).parsed->parsed());
}

TEST(ParsedShapeTest, StatementParsesOnceFromAnyEntryOfTheShape) {
  QueryLog log;
  log.Append("SELECT a FROM T WHERE b = 1", Ts(1), "u", "r", "p");
  log.Append("SELECT  a\nFROM T WHERE b=1", Ts(2), "u", "r", "p");
  log.Append("SELECT FROM", Ts(3), "u", "r", "p");
  const ParsedShape& shape = *log.Entry(1).parsed;
  auto first = shape.Statement(log.Entry(1).sql);
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(shape.parsed());
  EXPECT_EQ(shape.Statement(log.Entry(0).sql).get(), first.get());
  EXPECT_EQ(first->ToString(), "SELECT a FROM T WHERE b = 1");

  const ParsedShape& broken = *log.Entry(2).parsed;
  EXPECT_EQ(broken.Statement(log.Entry(2).sql), nullptr);
  EXPECT_TRUE(broken.parsed());
  EXPECT_EQ(broken.Statement(log.Entry(2).sql), nullptr);
  EXPECT_EQ(log.parsed_shapes(), 2u);
}

TEST(ParsedShapeTest, FactsAreMemoizedPerCatalog) {
  QueryLog log;
  log.Append("SELECT a FROM T", Ts(1), "u", "r", "p");
  const LoggedQuery& entry = log.Entry(0);
  auto stmt = entry.parsed->Statement(entry.sql);
  ASSERT_NE(stmt, nullptr);
  const Catalog catalog;
  int computed = 0;
  auto facts = [&](uint64_t database_id, uint64_t epoch) {
    return entry.parsed->Facts(database_id, epoch, [&] {
      ++computed;
      return std::make_shared<const audit::StaticFacts>(
          audit::ComputeStaticFacts(*stmt, catalog));
    });
  };
  auto first = facts(1, 0);
  EXPECT_EQ(facts(1, 0).get(), first.get());
  EXPECT_EQ(computed, 1);
  // Another database at the same epoch, or another epoch, is another
  // catalog.
  EXPECT_NE(facts(2, 0).get(), first.get());
  EXPECT_NE(facts(1, 1).get(), first.get());
  EXPECT_EQ(computed, 3);
  // Database id 0 names no catalog: computed every time, never kept.
  facts(0, 0);
  facts(0, 0);
  EXPECT_EQ(computed, 5);
  EXPECT_EQ(log.memoized_facts(), 3u);
  // The oldest catalog goes once kMaxCatalogs are kept.
  facts(3, 0);
  facts(4, 0);
  EXPECT_EQ(entry.parsed->memoized_catalogs(), ParsedShape::kMaxCatalogs);
  EXPECT_EQ(computed, 7);
  facts(1, 0);
  EXPECT_EQ(computed, 8);
  // The facts are those of a fresh computation.
  EXPECT_FALSE(first->accessed.ok());
  EXPECT_EQ(first->accessed.status(),
            audit::StaticAccessedColumns(*stmt, catalog, false).status());
}

}  // namespace
}  // namespace auditdb
