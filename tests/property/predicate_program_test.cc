/// Differential property test of the scan layer: random bound predicates
/// evaluated over random columnar batches must agree with the
/// tree-walking interpreter row by row — identical pass/fail verdicts AND
/// identical error statuses. Two generators feed it: random expression
/// trees (which mostly run on the interpreter fallback) and random
/// fusable conjunctions (which must all compile to fused filter loops).

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/random.h"
#include "src/expr/evaluator.h"
#include "src/expr/predicate_program.h"

namespace auditdb {
namespace {

constexpr size_t kNumColumns = 4;

/// A random cell: NULL with probability `null_rate`; otherwise of type
/// `column_bias`, or with probability `stray_rate` of any type. Types are
/// ints, doubles, strings and bools.
Value RandomCell(Random& rng, int column_bias, double null_rate = 0.15,
                 double stray_rate = 0.2) {
  if (rng.UniformDouble() < null_rate) return Value::Null();
  int kind = rng.UniformDouble() < stray_rate
                 ? static_cast<int>(rng.Uniform(4))
                 : column_bias;
  switch (kind) {
    case 0:
      return Value::Int(rng.UniformInt(-5, 5));
    case 1:
      return Value::Double(static_cast<double>(rng.UniformInt(-50, 50)) / 10);
    case 2: {
      static const char* kStrings[] = {"apple", "banana", "ap%", "", "42",
                                       "plum"};
      return Value::String(kStrings[rng.Uniform(6)]);
    }
    default:
      return Value::Bool(rng.Uniform(2) == 0);
  }
}

/// Each column is, with equal odds, typed without NULLs, typed with
/// NULLs, or of mixed types (usually the generic layout), so every typed
/// fast path of the fused filters, their NULL screens and their scalar
/// fallback all run.
Batch RandomBatch(Random& rng, size_t rows) {
  Batch batch;
  batch.num_rows = rows;
  for (size_t c = 0; c < kNumColumns; ++c) {
    const int bias = static_cast<int>(rng.Uniform(4));
    const int mode = static_cast<int>(rng.Uniform(3));
    const double null_rate = mode == 0 ? 0.0 : 0.15;
    const double stray_rate = mode == 2 ? 0.2 : 0.0;
    std::vector<Value> cells;
    cells.reserve(rows);
    for (size_t r = 0; r < rows; ++r) {
      cells.push_back(RandomCell(rng, bias, null_rate, stray_rate));
    }
    batch.columns.push_back(
        std::make_shared<const ColumnVector>(ColumnVector::FromValues(cells)));
  }
  return batch;
}

/// A column reference bound to a random slot of the batch.
ExprPtr RandomColumn(Random& rng) {
  auto col = Expression::MakeColumn(ColumnRef{"T", "c"});
  col->slot = static_cast<int>(rng.Uniform(kNumColumns));
  return col;
}

/// Random bound expression tree over the batch's columns: literals,
/// columns, comparisons, LIKE, arithmetic, AND/OR, NOT, unary minus.
/// `depth` bounds recursion.
ExprPtr RandomExpr(Random& rng, int depth) {
  const double roll = rng.UniformDouble();
  if (depth <= 0 || roll < 0.3) {
    if (rng.Uniform(2) == 0) return RandomColumn(rng);
    return Expression::MakeLiteral(RandomCell(rng, static_cast<int>(
                                                       rng.Uniform(4))));
  }
  if (roll < 0.4) {
    UnaryOp op = rng.Uniform(2) == 0 ? UnaryOp::kNot : UnaryOp::kNeg;
    return Expression::MakeUnary(op, RandomExpr(rng, depth - 1));
  }
  static const BinaryOp kOps[] = {
      BinaryOp::kEq,  BinaryOp::kNe,  BinaryOp::kLt,  BinaryOp::kLe,
      BinaryOp::kGt,  BinaryOp::kGe,  BinaryOp::kAnd, BinaryOp::kOr,
      BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul, BinaryOp::kDiv,
      BinaryOp::kLike};
  BinaryOp op = kOps[rng.Uniform(13)];
  return Expression::MakeBinary(op, RandomExpr(rng, depth - 1),
                                RandomExpr(rng, depth - 1));
}

/// A literal for a fusable comparison: int, double, numeric string,
/// bool, plus plain strings and NULL, so every typed fast path, the
/// numeric-string coercion and the scalar fallback's type errors run.
Value RandomFusableLiteral(Random& rng) {
  switch (rng.Uniform(6)) {
    case 0:
      return Value::Int(rng.UniformInt(-5, 5));
    case 1:
      return Value::Double(static_cast<double>(rng.UniformInt(-50, 50)) / 10);
    case 2: {
      static const char* kNumeric[] = {"42", "-1.5", "3", "0"};
      return Value::String(kNumeric[rng.Uniform(4)]);
    }
    case 3:
      return Value::Bool(rng.Uniform(2) == 0);
    case 4: {
      static const char* kStrings[] = {"apple", "banana", "ap%", "", "%an%"};
      return Value::String(kStrings[rng.Uniform(5)]);
    }
    default:
      return Value::Null();
  }
}

/// Random conjunction of 1-4 fusable comparisons: `col op lit`,
/// `lit op col` (compiled flipped), `col op col` and `col LIKE lit`.
ExprPtr RandomFusableConjunction(Random& rng) {
  static const BinaryOp kCmps[] = {BinaryOp::kEq, BinaryOp::kNe,
                                   BinaryOp::kLt, BinaryOp::kLe,
                                   BinaryOp::kGt, BinaryOp::kGe};
  std::vector<ExprPtr> conjuncts;
  const int n = static_cast<int>(rng.UniformInt(1, 4));
  for (int i = 0; i < n; ++i) {
    const BinaryOp op = kCmps[rng.Uniform(6)];
    switch (rng.Uniform(4)) {
      case 0:
        conjuncts.push_back(Expression::MakeBinary(
            op, RandomColumn(rng),
            Expression::MakeLiteral(RandomFusableLiteral(rng))));
        break;
      case 1:
        conjuncts.push_back(Expression::MakeBinary(
            op, Expression::MakeLiteral(RandomFusableLiteral(rng)),
            RandomColumn(rng)));
        break;
      case 2:
        conjuncts.push_back(
            Expression::MakeBinary(op, RandomColumn(rng), RandomColumn(rng)));
        break;
      default:
        conjuncts.push_back(Expression::MakeBinary(
            BinaryOp::kLike, RandomColumn(rng),
            Expression::MakeLiteral(RandomFusableLiteral(rng))));
        break;
    }
  }
  return Expression::MakeConjunction(std::move(conjuncts));
}

std::vector<Value> RowAt(const Batch& batch, uint32_t r) {
  std::vector<Value> row;
  row.reserve(batch.num_columns());
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    row.push_back(batch.column(c).ValueAt(r));
  }
  return row;
}

/// Runs `expr` compiled over every row of `batch` and checks it against
/// the interpreter row by row: pass/fail and the exact error Status.
void CheckAgainstInterpreter(const Batch& batch, const Expression& expr,
                             bool expect_fused, int trial) {
  auto program = PredicateProgram::Compile(expr, 0, kNumColumns);
  ASSERT_TRUE(program.ok())
      << expr.ToString() << ": " << program.status().ToString();
  if (expect_fused) {
    EXPECT_TRUE(program->pure_filter()) << expr.ToString();
  }

  const uint32_t rows = static_cast<uint32_t>(batch.num_rows);
  std::vector<uint32_t> sel(rows);
  for (uint32_t r = 0; r < rows; ++r) sel[r] = r;
  auto outcome = program->Run(batch, sel);

  for (uint32_t r = 0; r < rows; ++r) {
    auto expect = EvaluatePredicate(&expr, RowAt(batch, r));
    const bool in_passed =
        std::binary_search(outcome.passed.begin(), outcome.passed.end(), r);
    auto err = std::find_if(outcome.errors.begin(), outcome.errors.end(),
                            [&](const auto& e) { return e.first == r; });
    if (expect.ok()) {
      EXPECT_EQ(in_passed, *expect)
          << expr.ToString() << " row " << r << " trial " << trial;
      EXPECT_EQ(err, outcome.errors.end())
          << expr.ToString() << " row " << r << " trial " << trial;
    } else {
      EXPECT_FALSE(in_passed) << expr.ToString() << " row " << r;
      ASSERT_NE(err, outcome.errors.end())
          << expr.ToString() << " row " << r << " trial " << trial
          << " expected error: " << expect.status().ToString();
      EXPECT_EQ(err->second.ToString(), expect.status().ToString())
          << expr.ToString() << " row " << r << " trial " << trial;
    }
  }
}

/// A column for the may-fail checks: with equal odds typed without
/// NULLs, typed with NULLs, mixed types, all NULL, or numeric strings
/// ("42", "-1.5") that Value::Compare coerces but a plain string does
/// not.
std::shared_ptr<const ColumnVector> RandomMayFailColumn(Random& rng,
                                                         size_t rows) {
  const int bias = static_cast<int>(rng.Uniform(4));
  const int mode = static_cast<int>(rng.Uniform(5));
  std::vector<Value> cells;
  cells.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    switch (mode) {
      case 0:
        cells.push_back(RandomCell(rng, bias, 0.0, 0.0));
        break;
      case 1:
        cells.push_back(RandomCell(rng, bias, 0.3, 0.0));
        break;
      case 2:
        cells.push_back(RandomCell(rng, bias, 0.15, 0.5));
        break;
      case 3:
        cells.push_back(Value::Null());
        break;
      default: {
        static const char* kNumeric[] = {"42", "-1.5", "3", "0", "apple"};
        cells.push_back(Value::String(kNumeric[rng.Uniform(5)]));
        break;
      }
    }
  }
  return std::make_shared<const ColumnVector>(ColumnVector::FromValues(cells));
}

/// A literal whose comparison with `column` cannot fail: NULL, the
/// column's own type, or numeric against a numeric column.
Value MatchingLiteral(Random& rng, const ColumnVector& column) {
  if (rng.Uniform(8) == 0) return Value::Null();
  switch (column.layout()) {
    case ColumnVector::Layout::kInt64:
    case ColumnVector::Layout::kDouble:
      return rng.Uniform(2) == 0
                 ? Value::Int(rng.UniformInt(-5, 5))
                 : Value::Double(static_cast<double>(rng.UniformInt(-50, 50)) /
                                 10);
    case ColumnVector::Layout::kString: {
      static const char* kStrings[] = {"apple", "42", "ap%", ""};
      return Value::String(kStrings[rng.Uniform(4)]);
    }
    case ColumnVector::Layout::kBool:
      return Value::Bool(rng.Uniform(2) == 0);
    case ColumnVector::Layout::kTimestamp:
      return Value::Time(Timestamp(rng.UniformInt(0, 10)));
    case ColumnVector::Layout::kGeneric:
      break;
  }
  return Value::Null();
}

bool Numeric(ColumnVector::Layout layout) {
  return layout == ColumnVector::Layout::kInt64 ||
         layout == ColumnVector::Layout::kDouble;
}

/// A random conjunction of comparisons over the batch's typed columns,
/// each against a MatchingLiteral or a second column of the same or a
/// numeric-against-numeric layout, plus LIKE on STRING columns. Null
/// when the batch has no typed column.
ExprPtr RandomMatchingConjunction(Random& rng, const Batch& batch) {
  std::vector<int> typed;
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    if (batch.column(c).layout() != ColumnVector::Layout::kGeneric) {
      typed.push_back(static_cast<int>(c));
    }
  }
  if (typed.empty()) return nullptr;
  static const BinaryOp kCmps[] = {BinaryOp::kEq, BinaryOp::kNe,
                                   BinaryOp::kLt, BinaryOp::kLe,
                                   BinaryOp::kGt, BinaryOp::kGe};
  auto column = [](int c) {
    auto col = Expression::MakeColumn(ColumnRef{"T", "c"});
    col->slot = c;
    return col;
  };
  std::vector<ExprPtr> conjuncts;
  const int n = static_cast<int>(rng.UniformInt(1, 4));
  for (int i = 0; i < n; ++i) {
    const int a = typed[rng.Uniform(typed.size())];
    const ColumnVector& ca = batch.column(static_cast<size_t>(a));
    const BinaryOp op = kCmps[rng.Uniform(6)];
    std::vector<int> partners;
    for (int b : typed) {
      const auto lb = batch.column(static_cast<size_t>(b)).layout();
      if (lb == ca.layout() || (Numeric(lb) && Numeric(ca.layout()))) {
        partners.push_back(b);
      }
    }
    switch (rng.Uniform(4)) {
      case 0:
        conjuncts.push_back(Expression::MakeBinary(
            op, column(a), Expression::MakeLiteral(MatchingLiteral(rng, ca))));
        break;
      case 1:
        conjuncts.push_back(Expression::MakeBinary(
            op, Expression::MakeLiteral(MatchingLiteral(rng, ca)), column(a)));
        break;
      case 2:
        conjuncts.push_back(Expression::MakeBinary(
            op, column(a), column(partners[rng.Uniform(partners.size())])));
        break;
      default:
        if (ca.layout() == ColumnVector::Layout::kString) {
          conjuncts.push_back(Expression::MakeBinary(
              BinaryOp::kLike, column(a),
              Expression::MakeLiteral(Value::String("%p%"))));
        } else {
          conjuncts.push_back(Expression::MakeBinary(
              op, column(a),
              Expression::MakeLiteral(MatchingLiteral(rng, ca))));
        }
        break;
    }
  }
  return Expression::MakeConjunction(std::move(conjuncts));
}

TEST(PredicateProgramPropertyTest, CannotFailHoldsOnRandomLayouts) {
  Random rng(20261020);
  size_t claimed = 0;
  size_t errored = 0;
  for (int trial = 0; trial < 600; ++trial) {
    Batch batch;
    batch.num_rows = static_cast<size_t>(rng.UniformInt(0, 40));
    for (size_t c = 0; c < kNumColumns; ++c) {
      batch.columns.push_back(RandomMayFailColumn(rng, batch.num_rows));
    }
    std::vector<uint32_t> sel(batch.num_rows);
    for (uint32_t r = 0; r < sel.size(); ++r) sel[r] = r;

    // No program that claims it may report an error row.
    ExprPtr exprs[] = {RandomExpr(rng, 3), RandomFusableConjunction(rng)};
    for (const ExprPtr& expr : exprs) {
      auto program = PredicateProgram::Compile(*expr, 0, kNumColumns);
      ASSERT_TRUE(program.ok()) << expr->ToString();
      auto outcome = program->Run(batch, sel);
      if (!outcome.errors.empty()) ++errored;
      if (!program->CannotFail(batch)) continue;
      ++claimed;
      EXPECT_TRUE(outcome.errors.empty())
          << expr->ToString() << " trial " << trial << ": "
          << outcome.errors.front().second.ToString();
    }

    // Every pure comparison over matching typed layouts claims it.
    ExprPtr matching = RandomMatchingConjunction(rng, batch);
    if (matching == nullptr) continue;
    auto program = PredicateProgram::Compile(*matching, 0, kNumColumns);
    ASSERT_TRUE(program.ok()) << matching->ToString();
    ASSERT_TRUE(program->pure_filter()) << matching->ToString();
    EXPECT_TRUE(program->CannotFail(batch))
        << matching->ToString() << " trial " << trial;
    EXPECT_TRUE(program->Run(batch, sel).errors.empty())
        << matching->ToString() << " trial " << trial;
  }
  // Both sides of the claim occur: programs that claim it, and
  // programs that do report error rows (never among the claimed ones).
  EXPECT_GT(claimed, 50u);
  EXPECT_GT(errored, 50u);
}

TEST(PredicateProgramPropertyTest, MatchesInterpreterOnRandomInputs) {
  Random rng(20260806);
  Random fused_rng(20261018);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t rows = static_cast<size_t>(rng.UniformInt(0, 40));
    Batch batch = RandomBatch(rng, rows);
    ExprPtr tree = RandomExpr(rng, 3);
    ExprPtr fusable = RandomFusableConjunction(fused_rng);
    CheckAgainstInterpreter(batch, *tree, /*expect_fused=*/false, trial);
    CheckAgainstInterpreter(batch, *fusable, /*expect_fused=*/true, trial);
  }
}

}  // namespace
}  // namespace auditdb
