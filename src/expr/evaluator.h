#ifndef AUDITDB_EXPR_EVALUATOR_H_
#define AUDITDB_EXPR_EVALUATOR_H_

#include <map>
#include <string>
#include <vector>

#include "src/catalog/schema.h"
#include "src/common/status.h"
#include "src/expr/expression.h"
#include "src/types/value.h"

namespace auditdb {

/// Maps fully qualified column references to flat indices into a combined
/// row (the concatenation of one row from each FROM-clause table, in the
/// order the tables were added). The executor materializes combined rows
/// in this layout and evaluates bound expressions against them.
class RowLayout {
 public:
  RowLayout() = default;

  /// Appends all columns of `schema` under table name `table`.
  void AddTable(const std::string& table, const TableSchema& schema);

  /// Flat slot of a fully qualified column, or error.
  Result<int> Slot(const ColumnRef& ref) const;

  /// Total number of value slots.
  size_t width() const { return width_; }

  /// Tables in layout order with their starting offsets.
  const std::vector<std::pair<std::string, size_t>>& table_offsets() const {
    return table_offsets_;
  }

  /// The fully qualified column occupying each slot, in slot order.
  const std::vector<ColumnRef>& slot_columns() const { return slot_columns_; }

 private:
  std::map<std::string, int> slots_;  // "table.column" -> index
  std::vector<std::pair<std::string, size_t>> table_offsets_;
  std::vector<ColumnRef> slot_columns_;
  size_t width_ = 0;
};

/// Resolves every column node in `expr` to a slot in `layout`. All column
/// references must already be fully qualified (see Catalog::Resolve).
Status BindExpression(Expression* expr, const RowLayout& layout);

/// Evaluates a bound expression against a combined row. AND/OR shortcut;
/// comparisons use Value::Compare (numeric cross-type allowed).
Result<Value> Evaluate(const Expression& expr, const std::vector<Value>& row);

/// Evaluates a bound boolean predicate; nullptr predicate means TRUE.
Result<bool> EvaluatePredicate(const Expression* expr,
                               const std::vector<Value>& row);

/// --- Scalar kernels ---------------------------------------------------
/// The single source of truth for operator semantics and error statuses,
/// shared by the tree-walking evaluator above and the fused filter loops
/// of predicate programs (src/expr/predicate_program.h). A fused loop
/// hands every cell it cannot compare natively to these kernels, so it
/// stays byte-identical to the interpreter.

/// SQL LIKE: `%` matches any run (including empty), `_` any one char.
bool LikeMatches(const std::string& text, const std::string& pattern);

/// =, <>, <, <=, >, >= via Value::Compare; NULL on either side is FALSE.
Result<Value> EvalComparisonOp(BinaryOp op, const Value& lhs,
                               const Value& rhs);

/// lhs LIKE rhs; NULL on either side is FALSE; non-strings are an error.
Result<Value> EvalLikeOp(const Value& lhs, const Value& rhs);

/// +, -, *, / with INT preserved for non-division all-INT inputs. NULL on
/// either side is NULL; a non-numeric, non-NULL operand is an error.
Result<Value> EvalArithmeticOp(BinaryOp op, const Value& lhs,
                               const Value& rhs);

/// NOT (boolean) / unary minus (numeric; minus NULL is NULL).
Result<Value> EvalUnaryOp(UnaryOp op, const Value& v);

}  // namespace auditdb

#endif  // AUDITDB_EXPR_EVALUATOR_H_
