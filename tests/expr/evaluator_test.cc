#include "src/expr/evaluator.h"

#include <gtest/gtest.h>

#include "src/sql/parser.h"

namespace auditdb {
namespace {

/// Builds a layout over one table T(a INT, b STRING, c DOUBLE).
RowLayout TestLayout() {
  RowLayout layout;
  layout.AddTable("T", TableSchema("T", {{"a", ValueType::kInt},
                                         {"b", ValueType::kString},
                                         {"c", ValueType::kDouble}}));
  return layout;
}

/// Parses, qualifies to T, binds, and evaluates against (a, b, c).
Result<Value> EvalOn(const std::string& text, Value a, Value b, Value c) {
  auto expr = sql::ParseExpression(text);
  if (!expr.ok()) return expr.status();
  RowLayout layout = TestLayout();
  // Qualify manually: test expressions use bare column names a/b/c.
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
  AUDITDB_RETURN_IF_ERROR(BindExpression(expr->get(), layout));
  return Evaluate(**expr, {std::move(a), std::move(b), std::move(c)});
}

Value I(int64_t v) { return Value::Int(v); }
Value S(const char* v) { return Value::String(v); }
Value D(double v) { return Value::Double(v); }

TEST(RowLayoutTest, SlotsAndWidth) {
  RowLayout layout = TestLayout();
  EXPECT_EQ(layout.width(), 3u);
  auto slot = layout.Slot(ColumnRef{"T", "b"});
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(*slot, 1);
  EXPECT_FALSE(layout.Slot(ColumnRef{"T", "x"}).ok());
  EXPECT_FALSE(layout.Slot(ColumnRef{"", "b"}).ok());  // unqualified
}

TEST(RowLayoutTest, MultipleTables) {
  RowLayout layout = TestLayout();
  layout.AddTable("U", TableSchema("U", {{"x", ValueType::kInt}}));
  EXPECT_EQ(layout.width(), 4u);
  auto slot = layout.Slot(ColumnRef{"U", "x"});
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(*slot, 3);
  EXPECT_EQ(layout.table_offsets()[1].first, "U");
  EXPECT_EQ(layout.table_offsets()[1].second, 3u);
}

TEST(EvaluatorTest, Comparisons) {
  auto v = EvalOn("a < 30", I(25), S(""), D(0));
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->bool_value());
  v = EvalOn("a >= 30", I(25), S(""), D(0));
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->bool_value());
  v = EvalOn("b = 'x'", I(0), S("x"), D(0));
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->bool_value());
  v = EvalOn("b <> 'x'", I(0), S("x"), D(0));
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->bool_value());
}

TEST(EvaluatorTest, NullComparisonsAreFalse) {
  for (const char* text : {"a < 30", "a = 30", "a <> 30", "a >= 30"}) {
    auto v = EvalOn(text, Value::Null(), S(""), D(0));
    ASSERT_TRUE(v.ok()) << text;
    EXPECT_FALSE(v->bool_value()) << text;
  }
}

TEST(EvaluatorTest, BooleanConnectives) {
  auto v = EvalOn("a < 30 AND b = 'x'", I(25), S("x"), D(0));
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->bool_value());
  v = EvalOn("a < 30 AND b = 'y'", I(25), S("x"), D(0));
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->bool_value());
  v = EvalOn("a < 30 OR b = 'y'", I(25), S("x"), D(0));
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->bool_value());
  v = EvalOn("NOT a < 30", I(25), S("x"), D(0));
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->bool_value());
}

TEST(EvaluatorTest, ShortCircuitSkipsTypeErrors) {
  // The right operand would be a type error (string vs int arithmetic),
  // but AND short-circuits on the false left side.
  auto v = EvalOn("FALSE AND b < 3 + b", I(1), S("x"), D(0));
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->bool_value());
}

TEST(EvaluatorTest, Arithmetic) {
  auto v = EvalOn("a + 5", I(2), S(""), D(0));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int_value(), 7);
  v = EvalOn("a * 3 - 1", I(2), S(""), D(0));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int_value(), 5);
  v = EvalOn("c / 2", I(0), S(""), D(5.0));
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->double_value(), 2.5);
  v = EvalOn("a / 0", I(1), S(""), D(0));
  EXPECT_FALSE(v.ok());
}

TEST(EvaluatorTest, ArithmeticOverNullIsNull) {
  const Value null = Value::Null();
  for (const char* op : {"+", "-", "*", "/"}) {
    for (const std::string& text :
         {std::string("a ") + op + " 2", std::string("2 ") + op + " a",
          std::string("c ") + op + " a"}) {
      auto v = EvalOn(text, null, S(""), D(4.0));
      ASSERT_TRUE(v.ok()) << text << ": " << v.status().ToString();
      EXPECT_TRUE(v->is_null()) << text;
      v = EvalOn(text, I(3), S(""), null);
      ASSERT_TRUE(v.ok()) << text << ": " << v.status().ToString();
      EXPECT_EQ(v->is_null(), text[0] == 'c') << text;
    }
  }
  // NULL / 0 is NULL, not a division error.
  auto v = EvalOn("a / 0", null, S(""), D(0));
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_TRUE(v->is_null());
  // The comparison of a NULL result fails the row, as a NULL cell does.
  v = EvalOn("100 / a > 1", null, S(""), D(0));
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_FALSE(v->bool_value());
  // A non-numeric, non-NULL operand stays a type error beside a NULL.
  EXPECT_EQ(EvalOn("b + a", null, S("x"), D(0)).status().code(),
            StatusCode::kTypeError);
  EXPECT_EQ(EvalOn("a - b", null, S("x"), D(0)).status().code(),
            StatusCode::kTypeError);
}

TEST(EvaluatorTest, NegationOfNullIsNull) {
  auto v = EvalOn("-a", Value::Null(), S(""), D(0));
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_TRUE(v->is_null());
  v = EvalOn("-c > 1", I(0), S(""), Value::Null());
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_FALSE(v->bool_value());
  EXPECT_EQ(EvalOn("-b", I(0), S("x"), D(0)).status().code(),
            StatusCode::kTypeError);
}

TEST(EvaluatorTest, MixedNumericComparison) {
  auto v = EvalOn("a < c", I(2), S(""), D(2.5));
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->bool_value());
}

TEST(EvaluatorTest, StringNumericCoercionInPredicate) {
  // zipcode-style: string column compared with an integer literal.
  auto v = EvalOn("b = 145568", I(0), S("145568"), D(0));
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->bool_value());
}

TEST(EvaluatorTest, TypeErrors) {
  EXPECT_FALSE(EvalOn("b = TRUE", I(0), S("x"), D(0)).ok());
  EXPECT_FALSE(EvalOn("b + 1", I(0), S("x"), D(0)).ok());
  EXPECT_FALSE(EvalOn("NOT a", I(1), S(""), D(0)).ok());
  EXPECT_FALSE(EvalOn("a AND TRUE", I(1), S(""), D(0)).ok());
}

TEST(EvaluatorTest, UnaryNegation) {
  auto v = EvalOn("-a", I(3), S(""), D(0));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int_value(), -3);
  v = EvalOn("-c", I(0), S(""), D(1.5));
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->double_value(), -1.5);
}

TEST(EvaluatorTest, LikeWildcards) {
  struct Case {
    const char* text;
    const char* pattern;
    bool expected;
  };
  const Case cases[] = {
      {"diabetic", "diabetic", true}, {"diabetic", "diab%", true},
      {"diabetic", "%betic", true},   {"diabetic", "%bet%", true},
      {"diabetic", "d_abetic", true}, {"diabetic", "d_betic", false},
      {"diabetic", "%", true},        {"", "%", true},
      {"", "", true},                 {"x", "", false},
      {"abc", "a%c", true},           {"ac", "a%c", true},
      {"ab", "a%c", false},           {"aXbYc", "a%b%c", true},
      {"mississippi", "m%iss%pi", true},
      {"mississippi", "m%iss%z", false},
  };
  for (const auto& c : cases) {
    auto v = EvalOn(std::string("b LIKE '") + c.pattern + "'", I(0),
                    S(c.text), D(0));
    ASSERT_TRUE(v.ok()) << c.text << " LIKE " << c.pattern;
    EXPECT_EQ(v->bool_value(), c.expected)
        << c.text << " LIKE " << c.pattern;
  }
}

TEST(EvaluatorTest, LikeNullAndTypeRules) {
  auto v = EvalOn("b LIKE '%'", I(0), Value::Null(), D(0));
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->bool_value());
  EXPECT_FALSE(EvalOn("a LIKE '%'", I(1), S(""), D(0)).ok());
}

TEST(EvaluatorTest, EvaluatePredicateNullMeansTrue) {
  auto pass = EvaluatePredicate(nullptr, {});
  ASSERT_TRUE(pass.ok());
  EXPECT_TRUE(*pass);
}

TEST(EvaluatorTest, EvaluatePredicateRejectsNonBoolean) {
  auto expr = sql::ParseExpression("1 + 1");
  ASSERT_TRUE(expr.ok());
  auto pass = EvaluatePredicate(expr->get(), {});
  EXPECT_FALSE(pass.ok());
}

TEST(EvaluatorTest, UnboundColumnIsInternalError) {
  auto expr = sql::ParseExpression("a < 3");
  ASSERT_TRUE(expr.ok());
  auto v = Evaluate(**expr, {I(1)});
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace auditdb
