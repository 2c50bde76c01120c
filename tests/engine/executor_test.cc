#include "src/engine/executor.h"

#include <gtest/gtest.h>

#include "src/workload/hospital.h"
#include "tests/engine/executor_reference.h"

namespace auditdb {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

/// The lineage holding `rows`, each `width` tids wide.
Lineage Rows(size_t width, const std::vector<std::vector<Tid>>& rows) {
  auto lineage = Lineage::FromRows(width, rows);
  EXPECT_TRUE(lineage.ok()) << lineage.status().ToString();
  return lineage.ok() ? std::move(*lineage) : Lineage(width);
}

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
  EXPECT_EQ(result->lineage, Rows(1, {{11}, {13}, {14}}));
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
  EXPECT_EQ(result->lineage, Rows(2, {{12, 22}, {14, 24}}));
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
  EXPECT_EQ(result->lineage, Rows(3, {{12, 22, 32}, {14, 24, 34}}));
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

// A hash join needs both key columns in one non-generic layout, whatever
// the declared types: the index matches by Value ==, the nested loop by
// Compare. Here both key columns are declared INT.
class ExecutorHashJoinKeyLayoutTest : public ExecutorTest {
 protected:
  void Build(const std::vector<Value>& a_keys,
             const std::vector<Value>& b_keys) {
    for (const char* name : {"A", "B"}) {
      ASSERT_TRUE(db_.CreateTable(TableSchema(name, {{"k", ValueType::kInt},
                                                     {"x", ValueType::kInt}}))
                      .ok());
    }
    int64_t n = 0;
    for (const Value& k : a_keys) {
      ASSERT_TRUE(db_.Insert("A", {k, Value::Int(++n)}, Ts(2)).ok());
    }
    for (const Value& k : b_keys) {
      ASSERT_TRUE(db_.Insert("B", {k, Value::Int(++n)}, Ts(2)).ok());
    }
  }

  /// Runs `sql` in both output modes; rows, lineage and Status must
  /// match brute force. Returns the reference.
  Result<QueryResult> ExpectMatchesBruteForce(const std::string& sql) {
    auto stmt = sql::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << sql;
    if (!stmt.ok()) return stmt.status();
    auto reference = BruteForce(*stmt, db_.View());
    for (ExecOutput output :
         {ExecOutput::kLineageAndValues, ExecOutput::kLineage}) {
      auto result = Execute(*stmt, db_.View(), output);
      EXPECT_EQ(result.status().ToString(), reference.status().ToString())
          << sql;
      if (!result.ok() || !reference.ok()) continue;
      EXPECT_EQ(result->lineage, reference->lineage) << sql;
      if (output == ExecOutput::kLineageAndValues) {
        EXPECT_EQ(result->rows, reference->rows) << sql;
      }
    }
    return reference;
  }
};

// INT 2 probes a column holding DOUBLE 2.0 and INT 2: Compare coerces, so
// both rows join, though Value == would find only the INT.
TEST_F(ExecutorHashJoinKeyLayoutTest, IntProbeMeetsStoredDouble) {
  Build({Value::Int(2), Value::Int(5)}, {Value::Double(2.0), Value::Int(2)});
  for (const char* sql : {"SELECT A.x, B.x FROM A, B WHERE A.k = B.k",
                          "SELECT A.x, B.x FROM B, A WHERE B.k = A.k"}) {
    auto reference = ExpectMatchesBruteForce(sql);
    ASSERT_TRUE(reference.ok()) << sql;
    EXPECT_EQ(reference->lineage.size(), 2u) << sql;
  }
}

// A STRING key against an INT key: Compare fails, so the query is a type
// error, though Value == would quietly match nothing.
TEST_F(ExecutorHashJoinKeyLayoutTest, StringKeyAgainstIntKeyIsATypeError) {
  Build({Value::String("a"), Value::String("b")}, {Value::Int(2)});
  for (const char* sql : {"SELECT A.x, B.x FROM A, B WHERE A.k = B.k",
                          "SELECT A.x, B.x FROM B, A WHERE B.k = A.k"}) {
    auto reference = ExpectMatchesBruteForce(sql);
    EXPECT_EQ(reference.status().code(), StatusCode::kTypeError) << sql;
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

// Semijoin-reduction edge cases over O(k, x) and N(k, flag, v): O is the
// outer table (eight rows, k = 1..8, x = 10k); N's local predicates keep
// few rows, so the cost rule would shrink O to N's partners. N.v holds a
// STRING on one row, and `N.v + 1 > 0` errors there.
class ExecutorSemijoinTest : public ExecutorTest {
 protected:
  void SetUp() override {
    ExecutorTest::SetUp();
    ASSERT_TRUE(db_.CreateTable(TableSchema("O", {{"k", ValueType::kInt},
                                                  {"x", ValueType::kInt}}))
                    .ok());
    ASSERT_TRUE(db_.CreateTable(TableSchema("N", {{"k", ValueType::kInt},
                                                  {"flag", ValueType::kInt},
                                                  {"v", ValueType::kInt}}))
                    .ok());
    for (int64_t k = 1; k <= 8; ++k) {
      ASSERT_TRUE(
          db_.Insert("O", {Value::Int(k), Value::Int(10 * k)}, Ts(2)).ok());
    }
  }

  void InsertN(Value k, int64_t flag, Value v) {
    ASSERT_TRUE(db_.Insert("N", {k, Value::Int(flag), v}, Ts(2)).ok());
  }

  uint64_t OuterKeyIndexBuilds() {
    auto table = db_.GetTable("O");
    EXPECT_TRUE(table.ok());
    return (*table)->stats().join_index_builds.load();
  }
};

TEST_F(ExecutorSemijoinTest, ReachableInnerErrorKeepsStatus) {
  InsertN(Value::Int(1), 1, Value::Int(1));
  InsertN(Value::Int(2), 0, Value::String("bad"));  // O's k = 2 reaches it
  InsertN(Value::Int(3), 1, Value::Int(1));
  auto result = Run(
      "SELECT x, v FROM O, N WHERE O.k = N.k AND N.v + 1 > 0 AND N.flag = 1");
  ASSERT_FALSE(result.ok());
  // Recorded from the executor before semijoin reduction existed.
  EXPECT_EQ(result.status().ToString(), "TypeError: arithmetic on non-numeric values: 'bad' + 1");
}

// A cross conjunct that can fail also disables the reduction: one that is
// not a column comparison, and a column comparison whose cells mix types.
// Both run before N's flag filter, so O's k = 2 reaches the 'bad' row.
TEST_F(ExecutorSemijoinTest, ReachableCrossConjunctErrorKeepsStatus) {
  InsertN(Value::Int(1), 1, Value::Int(1));
  InsertN(Value::Int(2), 0, Value::String("bad"));
  InsertN(Value::Int(3), 1, Value::Int(1));
  // Recorded from the executor before semijoin reduction existed.
  const std::pair<const char*, const char*> kCases[] = {
      {"SELECT x, v FROM O, N WHERE O.k = N.k AND O.x + N.v > 0 "
       "AND N.flag = 1",
       "TypeError: arithmetic on non-numeric values: 20 + 'bad'"},
      {"SELECT x, v FROM O, N WHERE O.k = N.k AND O.x < N.v AND N.flag = 1",
       "TypeError: cannot compare INT with STRING"},
  };
  for (const auto& [sql, status] : kCases) {
    auto result = Run(sql);
    ASSERT_FALSE(result.ok()) << sql;
    EXPECT_EQ(result.status().ToString(), status) << sql;
  }
}

TEST_F(ExecutorSemijoinTest, UnreachableInnerErrorSucceeds) {
  InsertN(Value::Int(1), 1, Value::Int(1));
  InsertN(Value::Int(99), 0, Value::String("bad"));  // no O row has k = 99
  InsertN(Value::Int(3), 1, Value::Int(1));
  auto result = Run(
      "SELECT x, v FROM O, N WHERE O.k = N.k AND N.v + 1 > 0 AND N.flag = 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Recorded from the executor before semijoin reduction existed.
  EXPECT_EQ(result->rows,
            (std::vector<std::vector<Value>>{{Value::Int(10), Value::Int(1)},
                                             {Value::Int(30), Value::Int(1)}}));
  EXPECT_EQ(result->lineage, Rows(2, {{1, 1}, {3, 3}}));
}

TEST_F(ExecutorSemijoinTest, NullKeysOnBothSidesNeverJoin) {
  ASSERT_TRUE(db_.Insert("O", {Value::Null(), Value::Int(0)}, Ts(2)).ok());
  InsertN(Value::Null(), 1, Value::Int(1));
  InsertN(Value::Int(4), 1, Value::Int(1));
  const char* sql = "SELECT x, v FROM O, N WHERE O.k = N.k AND N.flag = 1";
  auto stmt = sql::ParseSelect(sql);
  ASSERT_TRUE(stmt.ok());
  auto result = Execute(*stmt, db_.View());
  auto reference = BruteForce(*stmt, db_.View());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(result->rows,
            (std::vector<std::vector<Value>>{{Value::Int(40), Value::Int(1)}}));
  EXPECT_EQ(result->rows, reference->rows);
  EXPECT_EQ(result->lineage, reference->lineage);
}

// A visit skips the hash join's own conjunct when the probe key is
// non-NULL: every row the key index yields is Value == to the key, so
// the conjunct is true there. Each case below runs with and without
// values and must match brute force in rows, lineage and Status.
class ExecutorHashSkipTest : public ExecutorSemijoinTest {
 protected:
  void ExpectMatchesBruteForce(const std::string& sql) {
    auto stmt = sql::ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    auto reference = BruteForce(*stmt, db_.View());
    auto full = Execute(*stmt, db_.View());
    auto lean = Execute(*stmt, db_.View(), ExecOutput::kLineage);
    ASSERT_EQ(full.status().ToString(), reference.status().ToString()) << sql;
    ASSERT_EQ(lean.status().ToString(), reference.status().ToString()) << sql;
    if (!reference.ok()) return;
    EXPECT_EQ(full->rows, reference->rows) << sql;
    EXPECT_EQ(full->lineage, reference->lineage) << sql;
    EXPECT_TRUE(lean->rows.empty()) << sql;
    EXPECT_EQ(lean->lineage, reference->lineage) << sql;
  }
};

// NULL probe keys meet the NULL keys of the build side; the conjunct is
// evaluated there (on a fully copied row) and rejects every such pair.
TEST_F(ExecutorHashSkipTest, NullProbeKeysStillEvaluateTheConjunct) {
  ASSERT_TRUE(db_.Insert("O", {Value::Null(), Value::Int(0)}, Ts(2)).ok());
  ASSERT_TRUE(db_.Insert("O", {Value::Null(), Value::Int(-1)}, Ts(2)).ok());
  InsertN(Value::Null(), 1, Value::Int(1));
  InsertN(Value::Int(4), 1, Value::Int(2));
  InsertN(Value::Null(), 0, Value::Int(3));
  ExpectMatchesBruteForce("SELECT x, v FROM O, N WHERE O.k = N.k");
  ExpectMatchesBruteForce("SELECT v FROM O, N WHERE O.k = N.k AND O.x < N.v");
  ExpectMatchesBruteForce("SELECT x FROM N, O WHERE N.k = O.k AND N.flag = 1");
}

// Storage does not enforce declared types: STRING or DOUBLE keys in INT
// columns still hash-join when both key columns hold them, and the pairs
// the index yields hold one alternative, so skipping the conjunct keeps
// the result. (Key columns of two layouts never hash-join; see
// ExecutorHashJoinKeyLayoutTest.)
TEST_F(ExecutorHashSkipTest, StoredKeyTypesDifferFromDeclared) {
  for (const auto& [keys_a, keys_b] :
       {std::pair<std::vector<Value>, std::vector<Value>>{
            {Value::String("a"), Value::String("b"), Value::String("c")},
            {Value::String("b"), Value::String("x"), Value::String("a"),
             Value::String("b")}},
        {{Value::Double(1.5), Value::Double(2.0), Value::Double(-3.25)},
         {Value::Double(2.0), Value::Double(7.0), Value::Double(1.5)}}}) {
    Database db;
    ASSERT_TRUE(db.CreateTable(TableSchema("A", {{"k", ValueType::kInt},
                                                 {"x", ValueType::kInt}}))
                    .ok());
    ASSERT_TRUE(db.CreateTable(TableSchema("B", {{"k", ValueType::kInt},
                                                 {"v", ValueType::kInt}}))
                    .ok());
    int64_t n = 0;
    for (const Value& k : keys_a) {
      ASSERT_TRUE(db.Insert("A", {k, Value::Int(++n)}, Ts(2)).ok());
    }
    for (const Value& k : keys_b) {
      ASSERT_TRUE(db.Insert("B", {k, Value::Int(++n)}, Ts(2)).ok());
    }
    for (const char* sql :
         {"SELECT x, v FROM A, B WHERE A.k = B.k",
          "SELECT x FROM B, A WHERE B.k = A.k AND A.x > 1",
          "SELECT v FROM A, B WHERE A.k = B.k AND A.x < B.v"}) {
      auto stmt = sql::ParseSelect(sql);
      ASSERT_TRUE(stmt.ok()) << sql;
      auto reference = BruteForce(*stmt, db.View());
      ASSERT_TRUE(reference.ok()) << sql;
      EXPECT_FALSE(reference->lineage.empty()) << sql;
      for (ExecOutput output :
           {ExecOutput::kLineageAndValues, ExecOutput::kLineage}) {
        auto result = Execute(*stmt, db.View(), output);
        ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
        EXPECT_EQ(result->lineage, reference->lineage) << sql;
        if (output == ExecOutput::kLineageAndValues) {
          EXPECT_EQ(result->rows, reference->rows) << sql;
        }
      }
    }
  }
}

// A cross conjunct next to the hash conjunct still runs on every visited
// row and may read columns nothing projects: its error is unchanged, in
// either output mode. Brute force errs on an earlier, unjoined pair, so
// the expected statuses are recorded from the executor before visits
// skipped the hash conjunct or copied only read columns.
TEST_F(ExecutorHashSkipTest, ErroringConjunctNextToTheHashConjunct) {
  InsertN(Value::Int(1), 1, Value::Int(1));
  InsertN(Value::Int(2), 0, Value::String("bad"));
  InsertN(Value::Int(3), 1, Value::Int(1));
  const std::pair<const char*, const char*> kCases[] = {
      {"SELECT x FROM O, N WHERE O.k = N.k AND O.x + N.v > 0",
       "TypeError: arithmetic on non-numeric values: 20 + 'bad'"},
      {"SELECT flag FROM O, N WHERE O.k = N.k AND O.x < N.v",
       "TypeError: cannot compare INT with STRING"},
      {"SELECT x FROM O, N WHERE O.x + N.v > 0 AND O.k = N.k",
       "TypeError: arithmetic on non-numeric values: 20 + 'bad'"},
      {"SELECT x FROM N, O WHERE N.k = O.k AND N.v * 2 > O.x",
       "TypeError: arithmetic on non-numeric values: 'bad' * 2"},
  };
  for (const auto& [sql, status] : kCases) {
    auto stmt = sql::ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    for (ExecOutput output :
         {ExecOutput::kLineageAndValues, ExecOutput::kLineage}) {
      auto result = Execute(*stmt, db_.View(), output);
      ASSERT_FALSE(result.ok()) << sql;
      EXPECT_EQ(result.status().ToString(), status) << sql;
    }
  }
}

TEST_F(ExecutorSemijoinTest, CostRuleSkipsSelectiveOuterQueries) {
  for (int64_t k = 1; k <= 8; ++k) InsertN(Value::Int(k), k % 2, Value::Int(k));
  const uint64_t before = OuterKeyIndexBuilds();
  // The outer side keeps one row: reducing it cannot pay, so O's key
  // index is never built.
  auto outer = Run("SELECT x, v FROM O, N WHERE O.k = N.k AND O.x = 30");
  ASSERT_TRUE(outer.ok()) << outer.status().ToString();
  EXPECT_EQ(outer->rows.size(), 1u);
  EXPECT_EQ(OuterKeyIndexBuilds(), before);
  // The inner side keeps four of eight: O is reduced through its key
  // index, built once for the version and reused by the second run.
  for (int run = 0; run < 2; ++run) {
    auto inner = Run("SELECT x, v FROM O, N WHERE O.k = N.k AND N.flag = 1");
    ASSERT_TRUE(inner.ok()) << inner.status().ToString();
    EXPECT_EQ(inner->rows.size(), 4u);
  }
  EXPECT_EQ(OuterKeyIndexBuilds(), before + 1);
}

}  // namespace
}  // namespace auditdb
