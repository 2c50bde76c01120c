#include "src/engine/table_scan.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/engine/executor.h"
#include "src/sql/parser.h"
#include "src/workload/hospital.h"
#include "tests/engine/executor_reference.h"

namespace auditdb {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

/// T(a INT, b STRING) with rows (10,"x"), (20,"y"), (30,"x"), (40,"z").
std::unique_ptr<Table> MakeTable() {
  auto table = std::make_unique<Table>(
      TableSchema("T", {{"a", ValueType::kInt},
                        {"b", ValueType::kString}}));
  EXPECT_TRUE(table->Insert({Value::Int(10), Value::String("x")}).ok());
  EXPECT_TRUE(table->Insert({Value::Int(20), Value::String("y")}).ok());
  EXPECT_TRUE(table->Insert({Value::Int(30), Value::String("x")}).ok());
  EXPECT_TRUE(table->Insert({Value::Int(40), Value::String("z")}).ok());
  return table;
}

/// Parses and binds a predicate over T's two slots.
ExprPtr BoundPredicate(const std::string& text) {
  auto expr = sql::ParseExpression(text);
  EXPECT_TRUE(expr.ok()) << text;
  struct Walk {
    static void Qualify(Expression* e) {
      if (e == nullptr) return;
      if (e->kind == ExprKind::kColumn && !e->column.qualified()) {
        e->column.table = "T";
      }
      Qualify(e->left.get());
      Qualify(e->right.get());
    }
  };
  Walk::Qualify(expr->get());
  RowLayout layout;
  layout.AddTable("T", TableSchema("T", {{"a", ValueType::kInt},
                                         {"b", ValueType::kString}}));
  EXPECT_TRUE(BindExpression(expr->get(), layout).ok()) << text;
  return std::move(*expr);
}

ScanStage LocalStage(const Expression& expr) {
  auto program = PredicateProgram::Compile(expr, 0, 2);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  ScanStage stage;
  stage.local = true;
  stage.program = std::move(*program);
  return stage;
}

TEST(TableScanTest, ColumnarProjectionMatchesRows) {
  auto table = MakeTable();
  auto batch = table->Columnar();
  ASSERT_EQ(batch->num_rows, 4u);
  ASSERT_EQ(batch->num_columns(), 2u);
  EXPECT_EQ(*batch->tids, (std::vector<int64_t>{1, 2, 3, 4}));
  EXPECT_EQ(batch->column(0).ValueAt(2), Value::Int(30));
  EXPECT_EQ(batch->column(1).ValueAt(3), Value::String("z"));
}

TEST(TableScanTest, BuildTableFilterStates) {
  auto table = MakeTable();
  ExprPtr expr = BoundPredicate("a < 30 AND b = 'x'");
  std::vector<ScanStage> stages;
  stages.push_back(LocalStage(*expr));

  auto batch = table->Columnar();
  TableFilter filter = BuildTableFilter(*batch, stages, std::nullopt);
  EXPECT_EQ(filter.num_stages(), 1u);
  EXPECT_FALSE(filter.has_errors());
  EXPECT_EQ(filter.passing(), (std::vector<uint32_t>{0}));
  EXPECT_EQ(filter.StageState(0, 0), TableFilter::RowState::kPass);
  EXPECT_EQ(filter.StageState(0, 1), TableFilter::RowState::kFail);
}

TEST(TableScanTest, LaterStagesOnlyCoverEarlierPassers) {
  auto table = MakeTable();
  ExprPtr first = BoundPredicate("a < 30");
  ExprPtr second = BoundPredicate("b = 'x'");
  std::vector<ScanStage> stages;
  stages.push_back(LocalStage(*first));
  stages.push_back(LocalStage(*second));

  auto batch = table->Columnar();
  TableFilter filter = BuildTableFilter(*batch, stages, std::nullopt);
  EXPECT_EQ(filter.passing(), (std::vector<uint32_t>{0}));
  EXPECT_EQ(filter.StageState(0, 2), TableFilter::RowState::kFail);
  EXPECT_EQ(filter.StageState(1, 0), TableFilter::RowState::kPass);
}

TEST(TableScanTest, ErrorsAreRecordedPerRow) {
  auto table = MakeTable();
  ExprPtr expr = BoundPredicate("a < 30 AND b + 1 > 0");
  std::vector<ScanStage> stages;
  stages.push_back(LocalStage(*expr));

  auto batch = table->Columnar();
  TableFilter filter = BuildTableFilter(*batch, stages, std::nullopt);
  EXPECT_TRUE(filter.has_errors());
  // Rows 0, 1 pass a < 30 and then hit string arithmetic; rows 2, 3 fail
  // the first conjunct cleanly (interpreter short-circuit).
  EXPECT_EQ(filter.StageState(0, 0), TableFilter::RowState::kError);
  EXPECT_EQ(filter.StageState(0, 1), TableFilter::RowState::kError);
  EXPECT_EQ(filter.StageState(0, 2), TableFilter::RowState::kFail);
  EXPECT_FALSE(filter.StageError(0, 0).ok());
}

TEST(TableScanTest, SelectionLimitsTheFilter) {
  auto table = MakeTable();
  ExprPtr expr = BoundPredicate("b = 'x'");
  std::vector<ScanStage> stages;
  stages.push_back(LocalStage(*expr));

  auto batch = table->Columnar();
  std::vector<uint32_t> selection = {1, 2};
  TableFilter filter = BuildTableFilter(*batch, stages, selection);
  EXPECT_EQ(filter.passing(), (std::vector<uint32_t>{2}));
}

/// End-to-end: the executor must return exactly the reference's rows,
/// lineage and row order, and on single-table queries (where both visit
/// rows in table order) the reference's exact error status.
class ExecutorReferenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(workload::BuildPaperDatabase(&db_, Ts(1)).ok());
  }

  void CheckAgainstReference(const std::string& sql) {
    auto stmt = sql::ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    auto actual = Execute(*stmt, db_.View());
    auto expected = BruteForce(*stmt, db_.View());
    if (stmt->from.size() == 1) {
      ASSERT_EQ(actual.ok(), expected.ok()) << sql;
      if (!actual.ok()) {
        EXPECT_EQ(actual.status().ToString(), expected.status().ToString())
            << sql;
        return;
      }
    }
    ASSERT_TRUE(actual.ok()) << sql << ": " << actual.status().ToString();
    ASSERT_TRUE(expected.ok()) << sql << ": " << expected.status().ToString();
    EXPECT_EQ(actual->columns, expected->columns) << sql;
    EXPECT_EQ(actual->rows, expected->rows) << sql;
    EXPECT_EQ(actual->lineage, expected->lineage) << sql;
  }

  Database db_;
};

TEST_F(ExecutorReferenceTest, SingleTablePredicates) {
  CheckAgainstReference("SELECT name FROM P-Personal WHERE age < 30");
  CheckAgainstReference(
      "SELECT * FROM P-Personal WHERE age >= 25 AND name <> 'Jane'");
  CheckAgainstReference("SELECT name FROM P-Personal WHERE name LIKE 'R%'");
  CheckAgainstReference(
      "SELECT name FROM P-Personal WHERE age < 25 OR age > 40");
}

TEST_F(ExecutorReferenceTest, Joins) {
  CheckAgainstReference(
      "SELECT name, disease FROM P-Personal, P-Health "
      "WHERE P-Personal.pid = P-Health.pid AND disease = 'diabetic'");
  CheckAgainstReference(
      "SELECT name FROM P-Personal, P-Health, P-Employ "
      "WHERE P-Personal.pid = P-Health.pid "
      "AND P-Personal.pid = P-Employ.pid AND age < 50");
  CheckAgainstReference(
      "SELECT * FROM P-Personal, P-Employ "
      "WHERE P-Personal.pid = P-Employ.pid AND salary > 10000");
}

TEST_F(ExecutorReferenceTest, EmptyTables) {
  ASSERT_TRUE(
      db_.CreateTable(TableSchema("E", {{"x", ValueType::kInt}})).ok());
  CheckAgainstReference("SELECT * FROM E");
  CheckAgainstReference("SELECT x FROM E WHERE x < 3");
  CheckAgainstReference(
      "SELECT name, x FROM P-Personal, E WHERE P-Personal.age < E.x");
  CheckAgainstReference("SELECT * FROM E, P-Employ");
}

TEST_F(ExecutorReferenceTest, ErrorsMatch) {
  CheckAgainstReference("SELECT name FROM P-Personal WHERE name + 1 > 0");
  CheckAgainstReference("SELECT name FROM P-Personal WHERE age / 0 > 1");
  CheckAgainstReference(
      "SELECT name FROM P-Personal WHERE age < 30 AND name + 1 > 0");
}

}  // namespace
}  // namespace auditdb
