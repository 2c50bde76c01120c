#include "src/expr/evaluator.h"

namespace auditdb {

void RowLayout::AddTable(const std::string& table, const TableSchema& schema) {
  table_offsets_.emplace_back(table, width_);
  for (const auto& col : schema.columns()) {
    slots_[table + "." + col.name] = static_cast<int>(width_);
    slot_columns_.push_back(ColumnRef{table, col.name});
    ++width_;
  }
}

Result<int> RowLayout::Slot(const ColumnRef& ref) const {
  if (!ref.qualified()) {
    return Status::InvalidArgument("unqualified column in bound context: " +
                                   ref.ToString());
  }
  auto it = slots_.find(ref.table + "." + ref.column);
  if (it == slots_.end()) {
    return Status::NotFound("no slot for column " + ref.ToString());
  }
  return it->second;
}

Status BindExpression(Expression* expr, const RowLayout& layout) {
  if (expr == nullptr) return Status::Ok();
  switch (expr->kind) {
    case ExprKind::kLiteral:
      return Status::Ok();
    case ExprKind::kColumn: {
      auto slot = layout.Slot(expr->column);
      if (!slot.ok()) return slot.status();
      expr->slot = *slot;
      return Status::Ok();
    }
    case ExprKind::kUnary:
      return BindExpression(expr->left.get(), layout);
    case ExprKind::kBinary:
      AUDITDB_RETURN_IF_ERROR(BindExpression(expr->left.get(), layout));
      return BindExpression(expr->right.get(), layout);
  }
  return Status::Internal("unknown expression kind");
}

/// SQL LIKE matcher: `%` matches any run (including empty), `_` any
/// single character. Iterative two-pointer algorithm with backtracking
/// to the last `%`.
bool LikeMatches(const std::string& text, const std::string& pattern) {
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<Value> EvalComparisonOp(BinaryOp op, const Value& lhs,
                               const Value& rhs) {
  // SQL semantics: any comparison against NULL is not satisfied.
  if (lhs.is_null() || rhs.is_null()) return Value::Bool(false);
  auto cmp = lhs.Compare(rhs);
  if (!cmp.ok()) return cmp.status();
  switch (op) {
    case BinaryOp::kEq:
      return Value::Bool(*cmp == 0);
    case BinaryOp::kNe:
      return Value::Bool(*cmp != 0);
    case BinaryOp::kLt:
      return Value::Bool(*cmp < 0);
    case BinaryOp::kLe:
      return Value::Bool(*cmp <= 0);
    case BinaryOp::kGt:
      return Value::Bool(*cmp > 0);
    case BinaryOp::kGe:
      return Value::Bool(*cmp >= 0);
    default:
      return Status::Internal("EvalComparisonOp on non-comparison");
  }
}

Result<Value> EvalLikeOp(const Value& lhs, const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value::Bool(false);
  if (lhs.type() != ValueType::kString ||
      rhs.type() != ValueType::kString) {
    return Status::TypeError("LIKE requires string operands");
  }
  return Value::Bool(LikeMatches(lhs.string_value(), rhs.string_value()));
}

Result<Value> EvalArithmeticOp(BinaryOp op, const Value& lhs,
                               const Value& rhs) {
  auto numeric_or_null = [](const Value& v) {
    return v.is_null() || v.IsNumeric();
  };
  if (!numeric_or_null(lhs) || !numeric_or_null(rhs)) {
    return Status::TypeError(std::string("arithmetic on non-numeric values: ") +
                             lhs.ToString() + " " + BinaryOpName(op) + " " +
                             rhs.ToString());
  }
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  bool both_int = lhs.type() == ValueType::kInt &&
                  rhs.type() == ValueType::kInt && op != BinaryOp::kDiv;
  if (both_int) {
    int64_t a = lhs.int_value(), b = rhs.int_value();
    switch (op) {
      case BinaryOp::kAdd:
        return Value::Int(a + b);
      case BinaryOp::kSub:
        return Value::Int(a - b);
      case BinaryOp::kMul:
        return Value::Int(a * b);
      default:
        break;
    }
  }
  double a = lhs.AsDouble(), b = rhs.AsDouble();
  switch (op) {
    case BinaryOp::kAdd:
      return Value::Double(a + b);
    case BinaryOp::kSub:
      return Value::Double(a - b);
    case BinaryOp::kMul:
      return Value::Double(a * b);
    case BinaryOp::kDiv:
      if (b == 0) return Status::InvalidArgument("division by zero");
      return Value::Double(a / b);
    default:
      break;
  }
  return Status::Internal("unhandled binary operator");
}

Result<Value> EvalUnaryOp(UnaryOp op, const Value& v) {
  if (op == UnaryOp::kNot) {
    if (v.type() != ValueType::kBool) {
      return Status::TypeError("NOT operand is not boolean");
    }
    return Value::Bool(!v.bool_value());
  }
  if (v.is_null()) return Value::Null();
  if (!v.IsNumeric()) {
    return Status::TypeError("negation of non-numeric value");
  }
  if (v.type() == ValueType::kInt) return Value::Int(-v.int_value());
  return Value::Double(-v.double_value());
}

namespace {

Result<Value> EvalBinary(const Expression& expr,
                         const std::vector<Value>& row) {
  // AND / OR with shortcut evaluation.
  if (expr.bop == BinaryOp::kAnd || expr.bop == BinaryOp::kOr) {
    auto lhs = Evaluate(*expr.left, row);
    if (!lhs.ok()) return lhs.status();
    if (lhs->type() != ValueType::kBool) {
      return Status::TypeError("AND/OR operand is not boolean");
    }
    bool l = lhs->bool_value();
    if (expr.bop == BinaryOp::kAnd && !l) return Value::Bool(false);
    if (expr.bop == BinaryOp::kOr && l) return Value::Bool(true);
    auto rhs = Evaluate(*expr.right, row);
    if (!rhs.ok()) return rhs.status();
    if (rhs->type() != ValueType::kBool) {
      return Status::TypeError("AND/OR operand is not boolean");
    }
    return Value::Bool(rhs->bool_value());
  }

  auto lhs = Evaluate(*expr.left, row);
  if (!lhs.ok()) return lhs.status();
  auto rhs = Evaluate(*expr.right, row);
  if (!rhs.ok()) return rhs.status();

  if (expr.bop == BinaryOp::kLike) return EvalLikeOp(*lhs, *rhs);
  if (IsComparison(expr.bop)) return EvalComparisonOp(expr.bop, *lhs, *rhs);
  return EvalArithmeticOp(expr.bop, *lhs, *rhs);
}

}  // namespace

Result<Value> Evaluate(const Expression& expr, const std::vector<Value>& row) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kColumn:
      if (expr.slot < 0 || static_cast<size_t>(expr.slot) >= row.size()) {
        return Status::Internal("unbound or out-of-range column " +
                                expr.column.ToString());
      }
      return row[static_cast<size_t>(expr.slot)];
    case ExprKind::kUnary: {
      auto v = Evaluate(*expr.left, row);
      if (!v.ok()) return v.status();
      return EvalUnaryOp(expr.uop, *v);
    }
    case ExprKind::kBinary:
      return EvalBinary(expr, row);
  }
  return Status::Internal("unknown expression kind");
}

Result<bool> EvaluatePredicate(const Expression* expr,
                               const std::vector<Value>& row) {
  if (expr == nullptr) return true;
  auto v = Evaluate(*expr, row);
  if (!v.ok()) return v.status();
  if (v->type() != ValueType::kBool) {
    return Status::TypeError("predicate did not evaluate to boolean");
  }
  return v->bool_value();
}

}  // namespace auditdb
