#include "src/engine/executor.h"

#include <gtest/gtest.h>

#include "src/workload/hospital.h"
#include "tests/engine/executor_reference.h"

namespace auditdb {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(workload::BuildPaperDatabase(&db_, Ts(1)).ok());
  }

  Result<QueryResult> Run(const std::string& sql) {
    return ExecuteSql(sql, db_.View());
  }

  Database db_;
};

TEST_F(ExecutorTest, SingleTableScan) {
  auto result = Run("SELECT name FROM P-Personal WHERE age < 30");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Jane (25), Robert (29), Lucy (20); Reku has NULL age.
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->rows[0][0], Value::String("Jane"));
  EXPECT_EQ(result->rows[1][0], Value::String("Robert"));
  EXPECT_EQ(result->rows[2][0], Value::String("Lucy"));
}

TEST_F(ExecutorTest, LineageIdentifiesBaseTuples) {
  auto result = Run("SELECT name FROM P-Personal WHERE age < 30");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->lineage.size(), 3u);
  EXPECT_EQ(result->lineage[0], (std::vector<Tid>{11}));
  EXPECT_EQ(result->lineage[1], (std::vector<Tid>{13}));
  EXPECT_EQ(result->lineage[2], (std::vector<Tid>{14}));
  EXPECT_EQ(result->IndispensableTidBitmap("P-Personal").ToVector(),
            (std::vector<Tid>{11, 13, 14}));
  EXPECT_TRUE(result->IndispensableTidBitmap("P-Health").Empty());
}

TEST_F(ExecutorTest, SelectStar) {
  auto result = Run("SELECT * FROM P-Employ");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->columns.size(), 3u);
  EXPECT_EQ(result->rows.size(), 4u);
  EXPECT_EQ(result->columns[0].ToString(), "P-Employ.pid");
}

TEST_F(ExecutorTest, TwoWayJoin) {
  auto result = Run(
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease = 'diabetic'");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0][0], Value::String("Reku"));
  EXPECT_EQ(result->rows[1][0], Value::String("Lucy"));
  // Joint lineage: (t12,t22) and (t14,t24).
  EXPECT_EQ(result->lineage[0], (std::vector<Tid>{12, 22}));
  EXPECT_EQ(result->lineage[1], (std::vector<Tid>{14, 24}));
}

TEST_F(ExecutorTest, ThreeWayJoinPaperExpression2) {
  // The WHERE clause of the paper's Audit Expression-2 (Fig. 3).
  auto result = Run(
      "SELECT name, disease, address FROM P-Personal, P-Health, P-Employ "
      "WHERE P-Personal.pid=P-Health.pid AND P-Health.pid=P-Employ.pid "
      "AND P-Personal.zipcode=145568 AND P-Employ.salary > 10000 "
      "AND P-Health.disease='diabetic'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0][0], Value::String("Reku"));
  EXPECT_EQ(result->rows[1][0], Value::String("Lucy"));
  EXPECT_EQ(result->lineage[0], (std::vector<Tid>{12, 22, 32}));
  EXPECT_EQ(result->lineage[1], (std::vector<Tid>{14, 24, 34}));
}

TEST_F(ExecutorTest, CrossProductWithoutPredicate) {
  auto result = Run("SELECT name, employer FROM P-Personal, P-Employ");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 16u);  // 4 x 4
}

TEST_F(ExecutorTest, EmptyResultStillHasColumns) {
  auto result = Run("SELECT name FROM P-Personal WHERE age > 100");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
  EXPECT_EQ(result->columns.size(), 1u);
}

TEST_F(ExecutorTest, ProjectLineage) {
  auto result = Run(
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid");
  ASSERT_TRUE(result.ok());
  auto both = result->ProjectLineage({"P-Personal", "P-Health"});
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both->size(), 4u);
  auto health_only = result->ProjectLineage({"P-Health"});
  ASSERT_TRUE(health_only.ok());
  EXPECT_EQ(*health_only, (std::set<std::vector<Tid>>{
                              {21}, {22}, {23}, {24}}));
  EXPECT_FALSE(result->ProjectLineage({"P-Employ"}).ok());
}

TEST_F(ExecutorTest, ColumnValues) {
  auto result = Run("SELECT disease FROM P-Health");
  ASSERT_TRUE(result.ok());
  auto values = result->ColumnValues(ColumnRef{"P-Health", "disease"});
  EXPECT_EQ(values.size(), 3u);  // flu, diabetic (x2 dedup), Malaria
  EXPECT_TRUE(values.count(Value::String("diabetic")));
}

TEST_F(ExecutorTest, UnknownTableOrColumn) {
  EXPECT_FALSE(Run("SELECT x FROM Nope").ok());
  EXPECT_FALSE(Run("SELECT missing FROM P-Personal").ok());
  EXPECT_FALSE(Run("SELECT name FROM P-Personal WHERE missing = 1").ok());
}

TEST_F(ExecutorTest, DuplicateFromRejected) {
  EXPECT_FALSE(Run("SELECT name FROM P-Personal, P-Personal").ok());
}

TEST_F(ExecutorTest, AmbiguousColumnRejected) {
  // pid exists in all three tables.
  EXPECT_FALSE(Run("SELECT pid FROM P-Personal, P-Health").ok());
}

TEST_F(ExecutorTest, MixedTypeEquiJoinMatchesReference) {
  // A STRING = INT equi-join coerces numeric strings ("2.0" = 2), which
  // no hash of the raw values can reproduce: it must run as a nested
  // loop and still agree with the reference, in both join orders.
  ASSERT_TRUE(db_.CreateTable(TableSchema("S", {{"k", ValueType::kString}}))
                  .ok());
  ASSERT_TRUE(
      db_.CreateTable(TableSchema("I", {{"n", ValueType::kInt}})).ok());
  for (Value v : {Value::String("1"), Value::String("2.0"),
                  Value::String("02"), Value::Null(), Value::String("3")}) {
    ASSERT_TRUE(db_.Insert("S", {v}, Ts(2)).ok());
  }
  for (Value v : {Value::Int(2), Value::Int(1), Value::Null(), Value::Int(4),
                  Value::Int(2)}) {
    ASSERT_TRUE(db_.Insert("I", {v}, Ts(2)).ok());
  }
  for (const char* sql : {"SELECT k, n FROM S, I WHERE S.k = I.n",
                          "SELECT k, n FROM I, S WHERE I.n = S.k"}) {
    auto stmt = sql::ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    auto result = Execute(*stmt, db_.View());
    auto reference = BruteForce(*stmt, db_.View());
    ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    ASSERT_TRUE(reference.ok()) << sql;
    // "1" = 1, then "2.0" and "02" each match both 2s; NULLs match nothing.
    EXPECT_EQ(result->rows.size(), 5u) << sql;
    EXPECT_EQ(result->rows, reference->rows) << sql;
    EXPECT_EQ(result->lineage, reference->lineage) << sql;
  }
}

// Plain-scan semantics: a mixed-type literal coerces, and a NULL never
// satisfies a range predicate.
TEST_F(ExecutorTest, MixedTypeLiteralsCoerce) {
  // zipcode is STRING; an int literal coerces on every scanned row.
  auto result = Run("SELECT name FROM P-Personal WHERE zipcode = 145568");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 2u);
  auto range = Run("SELECT name FROM P-Personal WHERE age < 30.5");
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->rows.size(), 3u);
}

TEST_F(ExecutorTest, NullNeverSatisfiesARangePredicate) {
  // Reku's age is NULL: must never match a range predicate.
  auto result = Run("SELECT name FROM P-Personal WHERE age < 100");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 3u);
  for (const auto& row : result->rows) {
    EXPECT_NE(row[0], Value::String("Reku"));
  }
}

TEST_F(ExecutorTest, BagSemanticsKeepDuplicates) {
  auto result = Run("SELECT sex FROM P-Personal");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 4u);  // two F, two M — no dedup
}

}  // namespace
}  // namespace auditdb
