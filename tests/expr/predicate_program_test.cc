#include "src/expr/predicate_program.h"

#include <gtest/gtest.h>

#include "src/expr/evaluator.h"
#include "src/sql/parser.h"

namespace auditdb {
namespace {

/// One test table T(a INT, b STRING, c DOUBLE) at slot offset 0.
RowLayout TestLayout() {
  RowLayout layout;
  layout.AddTable("T", TableSchema("T", {{"a", ValueType::kInt},
                                         {"b", ValueType::kString},
                                         {"c", ValueType::kDouble}}));
  return layout;
}

/// Parses `text` (bare columns a/b/c refer to T) and binds it.
ExprPtr ParseBound(const std::string& text) {
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
  RowLayout layout = TestLayout();
  EXPECT_TRUE(BindExpression(expr->get(), layout).ok()) << text;
  return std::move(*expr);
}

/// The batch most tests run over: four rows of T.
///   row 0: (10, "apple",  1.5)
///   row 1: (25, "banana", 2.5)
///   row 2: (30, "apricot", NULL)
///   row 3: (NULL, "plum", 4.0)
Batch TestBatch() {
  Batch batch;
  batch.num_rows = 4;
  batch.tids = std::make_shared<const std::vector<int64_t>>(
      std::vector<int64_t>{1, 2, 3, 4});
  std::vector<std::vector<Value>> cols = {
      {Value::Int(10), Value::Int(25), Value::Int(30), Value::Null()},
      {Value::String("apple"), Value::String("banana"),
       Value::String("apricot"), Value::String("plum")},
      {Value::Double(1.5), Value::Double(2.5), Value::Null(),
       Value::Double(4.0)},
  };
  for (auto& col : cols) {
    batch.columns.push_back(
        std::make_shared<const ColumnVector>(ColumnVector::FromValues(col)));
  }
  return batch;
}

std::vector<uint32_t> AllRows(const Batch& batch) {
  std::vector<uint32_t> sel(batch.num_rows);
  for (uint32_t i = 0; i < batch.num_rows; ++i) sel[i] = i;
  return sel;
}

/// Runs `text` both ways over the test batch and checks the program
/// reproduces the interpreter row by row (pass/fail and error status).
void CheckAgainstInterpreter(const std::string& text) {
  ExprPtr expr = ParseBound(text);
  auto program = PredicateProgram::Compile(*expr, 0, 3);
  ASSERT_TRUE(program.ok()) << text << ": " << program.status().ToString();
  Batch batch = TestBatch();
  auto outcome = program->Run(batch, AllRows(batch));

  for (uint32_t r = 0; r < batch.num_rows; ++r) {
    std::vector<Value> row = {batch.column(0).ValueAt(r),
                              batch.column(1).ValueAt(r),
                              batch.column(2).ValueAt(r)};
    auto expect = EvaluatePredicate(expr.get(), row);
    bool in_passed = std::find(outcome.passed.begin(), outcome.passed.end(),
                               r) != outcome.passed.end();
    auto err = std::find_if(outcome.errors.begin(), outcome.errors.end(),
                            [&](const auto& e) { return e.first == r; });
    if (expect.ok()) {
      EXPECT_EQ(in_passed, *expect) << text << " row " << r;
      EXPECT_EQ(err, outcome.errors.end()) << text << " row " << r;
    } else {
      EXPECT_FALSE(in_passed) << text << " row " << r;
      ASSERT_NE(err, outcome.errors.end()) << text << " row " << r;
      EXPECT_EQ(err->second.ToString(), expect.status().ToString())
          << text << " row " << r;
    }
  }
}

TEST(PredicateProgramTest, IsLocalRespectsSlotRange) {
  ExprPtr local = ParseBound("a < 30 AND c > 1.0");
  EXPECT_TRUE(PredicateProgram::IsLocal(*local, 0, 3));
  // Same expression viewed from a table occupying slots [3, 6): the
  // references at slots 0..2 are another table's.
  EXPECT_FALSE(PredicateProgram::IsLocal(*local, 3, 3));
  ExprPtr literal_only = ParseBound("1 < 2");
  EXPECT_TRUE(PredicateProgram::IsLocal(*literal_only, 0, 3));
}

TEST(PredicateProgramTest, CompileRejectsOutOfRangeSlots) {
  ExprPtr expr = ParseBound("a < 30");
  auto program = PredicateProgram::Compile(*expr, 1, 2);
  EXPECT_FALSE(program.ok());
}

TEST(PredicateProgramTest, ConjunctionOfComparisonsIsPureFilter) {
  ExprPtr expr = ParseBound("a < 30 AND b = 'apple'");
  auto program = PredicateProgram::Compile(*expr, 0, 3);
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(program->pure_filter());
  EXPECT_EQ(program->num_instructions(), 2u);

  Batch batch = TestBatch();
  auto outcome = program->Run(batch, AllRows(batch));
  EXPECT_EQ(outcome.passed, (std::vector<uint32_t>{0}));
  EXPECT_TRUE(outcome.errors.empty());
}

TEST(PredicateProgramTest, FlippedComparisonStillFuses) {
  ExprPtr expr = ParseBound("30 > a");
  auto program = PredicateProgram::Compile(*expr, 0, 3);
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(program->pure_filter());
  Batch batch = TestBatch();
  auto outcome = program->Run(batch, AllRows(batch));
  // NULL a (row 3) compares FALSE, like the interpreter.
  EXPECT_EQ(outcome.passed, (std::vector<uint32_t>{0, 1}));
}

TEST(PredicateProgramTest, DisjunctionIsInterpreted) {
  ExprPtr expr = ParseBound("a >= 30 OR b LIKE 'ap%'");
  auto program = PredicateProgram::Compile(*expr, 0, 3);
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(program->pure_filter());
  CheckAgainstInterpreter("a >= 30 OR b LIKE 'ap%'");
}

TEST(PredicateProgramTest, MatchesInterpreterOnVariedShapes) {
  CheckAgainstInterpreter("a < 30");
  CheckAgainstInterpreter("c >= 2.5");
  CheckAgainstInterpreter("b LIKE '%an%'");
  CheckAgainstInterpreter("a + c > 12");
  CheckAgainstInterpreter("NOT (a < 30)");
  CheckAgainstInterpreter("a < 30 AND c > 1.0 AND b <> 'apple'");
  CheckAgainstInterpreter("a * 2 < c * 10");
  CheckAgainstInterpreter("-a < -20");
  CheckAgainstInterpreter("a < c");
}

TEST(PredicateProgramTest, ErrorsCarryInterpreterStatus) {
  // Arithmetic over a string column errors on every row the interpreter
  // would reach.
  CheckAgainstInterpreter("b + 1 > 0");
  // Division by zero.
  CheckAgainstInterpreter("a / 0 > 1");
  // LIKE over non-strings.
  CheckAgainstInterpreter("a LIKE 'x%'");
  // Non-boolean predicate result.
  CheckAgainstInterpreter("a + 1");
}

TEST(PredicateProgramTest, ShortCircuitSuppressesErrors) {
  // The interpreter never evaluates `b + 1` for rows failing a < 30, so
  // those rows fail cleanly instead of erroring. Rows 0, 1 pass a < 30
  // and then error; rows 2, 3 just fail.
  CheckAgainstInterpreter("a < 30 AND b + 1 > 0");
  // OR short-circuit: rows passing a < 30 never see the error.
  CheckAgainstInterpreter("a < 30 OR b + 1 > 0");
}

TEST(PredicateProgramTest, SelectionRestrictsEvaluation) {
  ExprPtr expr = ParseBound("b + 1 > 0");  // errors on every visited row
  auto program = PredicateProgram::Compile(*expr, 0, 3);
  ASSERT_TRUE(program.ok());
  Batch batch = TestBatch();
  auto outcome = program->Run(batch, {1, 3});
  EXPECT_TRUE(outcome.passed.empty());
  ASSERT_EQ(outcome.errors.size(), 2u);
  EXPECT_EQ(outcome.errors[0].first, 1u);
  EXPECT_EQ(outcome.errors[1].first, 3u);
}

TEST(PredicateProgramTest, ScalarOnlyPredicate) {
  ExprPtr expr = ParseBound("1 < 2");
  auto program = PredicateProgram::Compile(*expr, 0, 3);
  ASSERT_TRUE(program.ok());
  Batch batch = TestBatch();
  auto outcome = program->Run(batch, AllRows(batch));
  EXPECT_EQ(outcome.passed.size(), 4u);
}

}  // namespace
}  // namespace auditdb
