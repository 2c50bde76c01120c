#include "src/expr/predicate_program.h"

#include <algorithm>

#include "src/expr/evaluator.h"

namespace auditdb {

namespace {

int Sign(double d) { return d < 0 ? -1 : (d > 0 ? 1 : 0); }

int CompareInt64(int64_t a, int64_t b) { return a < b ? -1 : (a > b ? 1 : 0); }

/// The first column reference in `expr` (left to right) that is not
/// bound to a slot in [slot_offset, slot_offset + width), or nullptr.
const Expression* FirstNonLocal(const Expression& expr, size_t slot_offset,
                                size_t width) {
  if (expr.kind == ExprKind::kColumn) {
    if (expr.slot < 0) return &expr;
    size_t slot = static_cast<size_t>(expr.slot);
    return slot >= slot_offset && slot < slot_offset + width ? nullptr
                                                             : &expr;
  }
  for (const ExprPtr* child : {&expr.left, &expr.right}) {
    if (!*child) continue;
    if (const Expression* bad = FirstNonLocal(**child, slot_offset, width)) {
      return bad;
    }
  }
  return nullptr;
}

}  // namespace

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

struct PredicateProgram::Compiler {
  size_t offset;
  size_t width;

  /// Batch column index if `e` is a column bound inside the scan's slot
  /// range, else -1.
  int LocalCol(const Expression& e) const {
    if (e.kind != ExprKind::kColumn || e.slot < 0) return -1;
    size_t slot = static_cast<size_t>(e.slot);
    if (slot < offset || slot >= offset + width) return -1;
    return static_cast<int>(slot - offset);
  }

  static Instr Make(OpCode op, int a, int b) {
    Instr ins;
    ins.op = op;
    ins.a = a;
    ins.b = b;
    return ins;
  }

  /// Fused path: a conjunction of `col op literal` / `col op col` /
  /// `col LIKE literal` comparisons compiles to pure filter instructions.
  /// Commits to `out` only when the whole subtree fits the shape.
  bool TryFilter(const Expression& e, std::vector<Instr>* out) const {
    if (e.kind != ExprKind::kBinary || !e.left || !e.right) return false;
    if (e.bop == BinaryOp::kAnd) {
      std::vector<Instr> lhs, rhs;
      if (!TryFilter(*e.left, &lhs) || !TryFilter(*e.right, &rhs)) {
        return false;
      }
      out->insert(out->end(), std::make_move_iterator(lhs.begin()),
                  std::make_move_iterator(lhs.end()));
      out->insert(out->end(), std::make_move_iterator(rhs.begin()),
                  std::make_move_iterator(rhs.end()));
      return true;
    }
    if (e.bop == BinaryOp::kLike) {
      int col = LocalCol(*e.left);
      if (col < 0 || e.right->kind != ExprKind::kLiteral) return false;
      Instr ins = Make(OpCode::kFilterLikeColConst, col, -1);
      ins.literal = e.right->literal;
      out->push_back(std::move(ins));
      return true;
    }
    if (!IsComparison(e.bop)) return false;
    int lc = LocalCol(*e.left);
    int rc = LocalCol(*e.right);
    if (lc >= 0 && e.right->kind == ExprKind::kLiteral) {
      Instr ins = Make(OpCode::kFilterCmpColConst, lc, -1);
      ins.bop = e.bop;
      ins.literal = e.right->literal;
      out->push_back(std::move(ins));
      return true;
    }
    if (rc >= 0 && e.left->kind == ExprKind::kLiteral) {
      // literal op col  ==  col flip(op) literal
      Instr ins = Make(OpCode::kFilterCmpColConst, rc, -1);
      ins.bop = FlipComparison(e.bop);
      ins.flipped = true;
      ins.literal = e.left->literal;
      out->push_back(std::move(ins));
      return true;
    }
    if (lc >= 0 && rc >= 0) {
      Instr ins = Make(OpCode::kFilterCmpColCol, lc, rc);
      ins.bop = e.bop;
      out->push_back(std::move(ins));
      return true;
    }
    return false;
  }
};

bool PredicateProgram::IsLocal(const Expression& expr, size_t slot_offset,
                               size_t width) {
  return FirstNonLocal(expr, slot_offset, width) == nullptr;
}

Result<PredicateProgram> PredicateProgram::Compile(const Expression& expr,
                                                   size_t slot_offset,
                                                   size_t width) {
  Compiler c{slot_offset, width};
  PredicateProgram p;
  if (c.TryFilter(expr, &p.instrs_)) return p;
  if (const Expression* bad = FirstNonLocal(expr, slot_offset, width)) {
    return Status::InvalidArgument(
        "column " + bad->column.ToString() +
        " is unbound or outside the scan's slot range");
  }
  p.interpreted_ = expr.Clone();
  p.slot_offset_ = slot_offset;
  p.width_ = width;
  return p;
}

// ---------------------------------------------------------------------------
// Fused filter executors
// ---------------------------------------------------------------------------

namespace {

/// Narrows `cur` (row ids) to the rows where `cmp(row)` (three-way sign)
/// satisfies `op`. NULL cells fail without error, matching
/// EvalComparisonOp.
template <typename CmpFn>
void KeepByCmp(BinaryOp op, const ColumnVector& nulls_of,
               std::vector<uint32_t>& cur, CmpFn cmp) {
  const bool hn = nulls_of.has_nulls();
  size_t w = 0;
  switch (op) {
    case BinaryOp::kEq:
      for (uint32_t r : cur) {
        if (hn && nulls_of.IsNull(r)) continue;
        if (cmp(r) == 0) cur[w++] = r;
      }
      break;
    case BinaryOp::kNe:
      for (uint32_t r : cur) {
        if (hn && nulls_of.IsNull(r)) continue;
        if (cmp(r) != 0) cur[w++] = r;
      }
      break;
    case BinaryOp::kLt:
      for (uint32_t r : cur) {
        if (hn && nulls_of.IsNull(r)) continue;
        if (cmp(r) < 0) cur[w++] = r;
      }
      break;
    case BinaryOp::kLe:
      for (uint32_t r : cur) {
        if (hn && nulls_of.IsNull(r)) continue;
        if (cmp(r) <= 0) cur[w++] = r;
      }
      break;
    case BinaryOp::kGt:
      for (uint32_t r : cur) {
        if (hn && nulls_of.IsNull(r)) continue;
        if (cmp(r) > 0) cur[w++] = r;
      }
      break;
    case BinaryOp::kGe:
      for (uint32_t r : cur) {
        if (hn && nulls_of.IsNull(r)) continue;
        if (cmp(r) >= 0) cur[w++] = r;
      }
      break;
    default:
      break;
  }
  cur.resize(w);
}

/// Same, but screens NULLs of two columns.
template <typename CmpFn>
void KeepByCmp2(BinaryOp op, const ColumnVector& ca, const ColumnVector& cb,
                std::vector<uint32_t>& cur, CmpFn cmp) {
  const bool hn = ca.has_nulls() || cb.has_nulls();
  size_t w = 0;
  for (uint32_t r : cur) {
    if (hn && (ca.IsNull(r) || cb.IsNull(r))) continue;
    int c = cmp(r);
    bool pass = false;
    switch (op) {
      case BinaryOp::kEq:
        pass = c == 0;
        break;
      case BinaryOp::kNe:
        pass = c != 0;
        break;
      case BinaryOp::kLt:
        pass = c < 0;
        break;
      case BinaryOp::kLe:
        pass = c <= 0;
        break;
      case BinaryOp::kGt:
        pass = c > 0;
        break;
      case BinaryOp::kGe:
        pass = c >= 0;
        break;
      default:
        break;
    }
    if (pass) cur[w++] = r;
  }
  cur.resize(w);
}

/// Per-row scalar fallback: identical statuses by construction because it
/// calls the same kernel the interpreter does.
template <typename KernelFn>
void KeepByScalar(std::vector<uint32_t>& cur,
                  std::vector<std::pair<uint32_t, Status>>& errors,
                  KernelFn kernel) {
  size_t w = 0;
  for (uint32_t r : cur) {
    auto res = kernel(r);
    if (!res.ok()) {
      errors.emplace_back(r, res.status());
      continue;
    }
    if (res->bool_value()) cur[w++] = r;
  }
  cur.resize(w);
}

void FilterCmpColConst(const ColumnVector& col, BinaryOp op, bool flipped,
                       const Value& konst, std::vector<uint32_t>& cur,
                       std::vector<std::pair<uint32_t, Status>>& errors) {
  if (konst.is_null()) {
    // Comparison against NULL is FALSE for every row.
    cur.clear();
    return;
  }
  using Layout = ColumnVector::Layout;
  switch (col.layout()) {
    case Layout::kInt64: {
      if (konst.type() == ValueType::kInt) {
        const int64_t* a = col.ints();
        int64_t k = konst.int_value();
        KeepByCmp(op, col, cur,
                  [a, k](uint32_t r) { return CompareInt64(a[r], k); });
        return;
      }
      double k;
      if (konst.type() == ValueType::kDouble) {
        k = konst.double_value();
      } else if (konst.type() == ValueType::kString &&
                 TryParseNumericString(konst.string_value(), &k)) {
        // INT column vs numeric string: Value::Compare coerces the string.
      } else {
        break;
      }
      const int64_t* a = col.ints();
      KeepByCmp(op, col, cur, [a, k](uint32_t r) {
        return Sign(static_cast<double>(a[r]) - k);
      });
      return;
    }
    case Layout::kDouble: {
      double k;
      if (konst.IsNumeric()) {
        k = konst.AsDouble();
      } else if (konst.type() == ValueType::kString &&
                 TryParseNumericString(konst.string_value(), &k)) {
      } else {
        break;
      }
      const double* a = col.doubles();
      KeepByCmp(op, col, cur, [a, k](uint32_t r) { return Sign(a[r] - k); });
      return;
    }
    case Layout::kString: {
      if (konst.type() != ValueType::kString) break;
      const std::string* a = col.strings();
      const std::string& k = konst.string_value();
      KeepByCmp(op, col, cur, [a, &k](uint32_t r) {
        int c = a[r].compare(k);
        return c < 0 ? -1 : (c > 0 ? 1 : 0);
      });
      return;
    }
    case Layout::kBool: {
      if (konst.type() != ValueType::kBool) break;
      const int64_t* a = col.ints();
      int64_t k = konst.bool_value() ? 1 : 0;
      KeepByCmp(op, col, cur,
                [a, k](uint32_t r) { return CompareInt64(a[r], k); });
      return;
    }
    case Layout::kTimestamp: {
      if (konst.type() != ValueType::kTimestamp) break;
      const int64_t* a = col.ints();
      int64_t k = konst.time_value().micros();
      KeepByCmp(op, col, cur,
                [a, k](uint32_t r) { return CompareInt64(a[r], k); });
      return;
    }
    case Layout::kGeneric:
      break;
  }
  KeepByScalar(cur, errors, [&](uint32_t r) {
    // Restore the source operand order for `literal op col` so type
    // errors name the operands exactly as the interpreter would.
    return flipped
               ? EvalComparisonOp(FlipComparison(op), konst, col.ValueAt(r))
               : EvalComparisonOp(op, col.ValueAt(r), konst);
  });
}

void FilterCmpColCol(const ColumnVector& ca, const ColumnVector& cb,
                     BinaryOp op, std::vector<uint32_t>& cur,
                     std::vector<std::pair<uint32_t, Status>>& errors) {
  using Layout = ColumnVector::Layout;
  Layout la = ca.layout(), lb = cb.layout();
  bool same_int_backed =
      la == lb && (la == Layout::kInt64 || la == Layout::kBool ||
                   la == Layout::kTimestamp);
  if (same_int_backed) {
    const int64_t* a = ca.ints();
    const int64_t* b = cb.ints();
    KeepByCmp2(op, ca, cb, cur,
               [a, b](uint32_t r) { return CompareInt64(a[r], b[r]); });
    return;
  }
  bool a_num = la == Layout::kInt64 || la == Layout::kDouble;
  bool b_num = lb == Layout::kInt64 || lb == Layout::kDouble;
  if (a_num && b_num) {  // at least one side is kDouble here
    bool a_int = la == Layout::kInt64;
    bool b_int = lb == Layout::kInt64;
    const int64_t* ai = ca.ints();
    const double* ad = ca.doubles();
    const int64_t* bi = cb.ints();
    const double* bd = cb.doubles();
    KeepByCmp2(op, ca, cb, cur, [=](uint32_t r) {
      double x = a_int ? static_cast<double>(ai[r]) : ad[r];
      double y = b_int ? static_cast<double>(bi[r]) : bd[r];
      return Sign(x - y);
    });
    return;
  }
  if (la == Layout::kString && lb == Layout::kString) {
    const std::string* a = ca.strings();
    const std::string* b = cb.strings();
    KeepByCmp2(op, ca, cb, cur, [a, b](uint32_t r) {
      int c = a[r].compare(b[r]);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    });
    return;
  }
  KeepByScalar(cur, errors, [&](uint32_t r) {
    return EvalComparisonOp(op, ca.ValueAt(r), cb.ValueAt(r));
  });
}

void FilterLikeColConst(const ColumnVector& col, const Value& konst,
                        std::vector<uint32_t>& cur,
                        std::vector<std::pair<uint32_t, Status>>& errors) {
  if (konst.is_null()) {
    cur.clear();
    return;
  }
  if (col.layout() == ColumnVector::Layout::kString &&
      konst.type() == ValueType::kString) {
    const std::string* a = col.strings();
    const std::string& pat = konst.string_value();
    const bool hn = col.has_nulls();
    size_t w = 0;
    for (uint32_t r : cur) {
      if (hn && col.IsNull(r)) continue;
      if (LikeMatches(a[r], pat)) cur[w++] = r;
    }
    cur.resize(w);
    return;
  }
  KeepByScalar(cur, errors, [&](uint32_t r) {
    return EvalLikeOp(col.ValueAt(r), konst);
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------------

PredicateProgram::Outcome PredicateProgram::Run(
    const Batch& batch, const std::vector<uint32_t>& sel) const {
  Outcome out;
  if (interpreted_ == nullptr) {
    std::vector<uint32_t> cur = sel;
    for (const Instr& ins : instrs_) {
      if (cur.empty()) break;
      switch (ins.op) {
        case OpCode::kFilterCmpColConst:
          FilterCmpColConst(batch.column(static_cast<size_t>(ins.a)), ins.bop,
                            ins.flipped, ins.literal, cur, out.errors);
          break;
        case OpCode::kFilterCmpColCol:
          FilterCmpColCol(batch.column(static_cast<size_t>(ins.a)),
                          batch.column(static_cast<size_t>(ins.b)), ins.bop,
                          cur, out.errors);
          break;
        case OpCode::kFilterLikeColConst:
          FilterLikeColConst(batch.column(static_cast<size_t>(ins.a)),
                             ins.literal, cur, out.errors);
          break;
      }
    }
    out.passed = std::move(cur);
    // Each instruction appends its own errors; merge them into row order.
    std::sort(out.errors.begin(), out.errors.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return out;
  }
  std::vector<Value> row(slot_offset_ + width_);
  for (uint32_t r : sel) {
    for (size_t c = 0; c < width_; ++c) {
      row[slot_offset_ + c] = batch.column(c).ValueAt(r);
    }
    auto pass = EvaluatePredicate(interpreted_.get(), row);
    if (!pass.ok()) {
      out.errors.emplace_back(r, pass.status());
    } else if (*pass) {
      out.passed.push_back(r);
    }
  }
  return out;
}

}  // namespace auditdb
