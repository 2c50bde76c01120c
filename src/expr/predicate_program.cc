#include "src/expr/predicate_program.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "src/expr/evaluator.h"

namespace auditdb {

namespace {

int Sign(double d) { return d < 0 ? -1 : (d > 0 ? 1 : 0); }

int CompareInt64(int64_t a, int64_t b) { return a < b ? -1 : (a > b ? 1 : 0); }

}  // namespace

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

struct PredicateProgram::Compiler {
  size_t offset;
  size_t width;
  std::vector<Instr> instrs;
  int next_reg = 0;

  /// Batch column index if `e` is a column bound inside the scan's slot
  /// range, else -1.
  int LocalCol(const Expression& e) const {
    if (e.kind != ExprKind::kColumn || e.slot < 0) return -1;
    size_t slot = static_cast<size_t>(e.slot);
    if (slot < offset || slot >= offset + width) return -1;
    return static_cast<int>(slot - offset);
  }

  static Instr Make(OpCode op, int a, int b, int dst) {
    Instr ins;
    ins.op = op;
    ins.a = a;
    ins.b = b;
    ins.dst = dst;
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
      Instr ins = Make(OpCode::kFilterLikeColConst, col, -1, -1);
      ins.literal = e.right->literal;
      out->push_back(std::move(ins));
      return true;
    }
    if (!IsComparison(e.bop)) return false;
    int lc = LocalCol(*e.left);
    int rc = LocalCol(*e.right);
    if (lc >= 0 && e.right->kind == ExprKind::kLiteral) {
      Instr ins = Make(OpCode::kFilterCmpColConst, lc, -1, -1);
      ins.bop = e.bop;
      ins.literal = e.right->literal;
      out->push_back(std::move(ins));
      return true;
    }
    if (rc >= 0 && e.left->kind == ExprKind::kLiteral) {
      // literal op col  ==  col flip(op) literal
      Instr ins = Make(OpCode::kFilterCmpColConst, rc, -1, -1);
      ins.bop = FlipComparison(e.bop);
      ins.flipped = true;
      ins.literal = e.left->literal;
      out->push_back(std::move(ins));
      return true;
    }
    if (lc >= 0 && rc >= 0) {
      Instr ins = Make(OpCode::kFilterCmpColCol, lc, rc, -1);
      ins.bop = e.bop;
      out->push_back(std::move(ins));
      return true;
    }
    return false;
  }

  /// General path: lowers any bound expression to register form. Returns
  /// the register holding the subexpression's value.
  Result<int> CompileValue(const Expression& e) {
    switch (e.kind) {
      case ExprKind::kLiteral: {
        int r = next_reg++;
        Instr ins = Make(OpCode::kLoadConst, -1, -1, r);
        ins.literal = e.literal;
        instrs.push_back(std::move(ins));
        return r;
      }
      case ExprKind::kColumn: {
        int col = LocalCol(e);
        if (col < 0) {
          return Status::InvalidArgument(
              "column " + e.column.ToString() +
              " is unbound or outside the scan's slot range");
        }
        int r = next_reg++;
        instrs.push_back(Make(OpCode::kLoadColumn, col, -1, r));
        return r;
      }
      case ExprKind::kUnary: {
        if (!e.left) return Status::Internal("unary without operand");
        auto a = CompileValue(*e.left);
        if (!a.ok()) return a.status();
        int r = next_reg++;
        Instr ins = Make(OpCode::kUnary, *a, -1, r);
        ins.uop = e.uop;
        instrs.push_back(std::move(ins));
        return r;
      }
      case ExprKind::kBinary: {
        if (!e.left || !e.right) {
          return Status::Internal("binary without operands");
        }
        if (e.bop == BinaryOp::kAnd || e.bop == BinaryOp::kOr) {
          bool is_and = e.bop == BinaryOp::kAnd;
          auto a = CompileValue(*e.left);
          if (!a.ok()) return a.status();
          instrs.push_back(Make(
              is_and ? OpCode::kAndProbe : OpCode::kOrProbe, *a, -1, -1));
          auto b = CompileValue(*e.right);
          if (!b.ok()) return b.status();
          int r = next_reg++;
          instrs.push_back(Make(
              is_and ? OpCode::kPopMergeAnd : OpCode::kPopMergeOr, *a, *b,
              r));
          return r;
        }
        auto a = CompileValue(*e.left);
        if (!a.ok()) return a.status();
        auto b = CompileValue(*e.right);
        if (!b.ok()) return b.status();
        int r = next_reg++;
        OpCode op = e.bop == BinaryOp::kLike ? OpCode::kLike
                    : IsComparison(e.bop)    ? OpCode::kCompare
                                             : OpCode::kArith;
        Instr ins = Make(op, *a, *b, r);
        ins.bop = e.bop;
        instrs.push_back(std::move(ins));
        return r;
      }
    }
    return Status::Internal("unknown expression kind");
  }
};

bool PredicateProgram::IsLocal(const Expression& expr, size_t slot_offset,
                               size_t width) {
  if (expr.kind == ExprKind::kColumn) {
    if (expr.slot < 0) return false;
    size_t slot = static_cast<size_t>(expr.slot);
    return slot >= slot_offset && slot < slot_offset + width;
  }
  if (expr.left && !IsLocal(*expr.left, slot_offset, width)) return false;
  if (expr.right && !IsLocal(*expr.right, slot_offset, width)) return false;
  return true;
}

Result<PredicateProgram> PredicateProgram::Compile(const Expression& expr,
                                                   size_t slot_offset,
                                                   size_t width) {
  Compiler c{slot_offset, width};
  PredicateProgram p;
  std::vector<Instr> fused;
  if (c.TryFilter(expr, &fused)) {
    p.instrs_ = std::move(fused);
    p.pure_filter_ = true;
    return p;
  }
  auto root = c.CompileValue(expr);
  if (!root.ok()) return root.status();
  c.instrs.push_back(Compiler::Make(OpCode::kFilterResult, *root, -1, -1));
  p.instrs_ = std::move(c.instrs);
  p.num_regs_ = c.next_reg;
  return p;
}

// ---------------------------------------------------------------------------
// Machine
// ---------------------------------------------------------------------------

struct PredicateProgram::Machine {
  const Batch& batch;
  /// Row id of each local index; the machine works in local coordinates
  /// so register arrays scale with the selection, not the batch.
  const std::vector<uint32_t>& rows;

  struct Reg {
    bool scalar = false;
    Value scalar_value;
    std::vector<Value> vec;
    const Value& At(size_t li) const {
      return scalar ? scalar_value : vec[li];
    }
  };

  std::vector<Reg> regs;
  std::vector<uint8_t> errored;  // by local index
  std::vector<std::pair<uint32_t, Status>> errors;  // by row id
  std::vector<std::vector<uint32_t>> stack;  // selections of local indices

  Machine(const Batch& b, const std::vector<uint32_t>& r) : batch(b), rows(r) {}

  void Error(uint32_t li, Status s) {
    errored[li] = 1;
    errors.emplace_back(rows[li], std::move(s));
  }

  /// The whole (scalar-operand) instruction errors: the interpreter would
  /// report the same status for every row it visits.
  void ErrorAll(const Status& s) {
    auto& sel = stack.back();
    for (uint32_t li : sel) {
      errored[li] = 1;
      errors.emplace_back(rows[li], s);
    }
    sel.clear();
  }

  template <typename KernelFn>
  void BinaryInstr(const Instr& ins, KernelFn kernel) {
    const Reg& ra = regs[static_cast<size_t>(ins.a)];
    const Reg& rb = regs[static_cast<size_t>(ins.b)];
    Reg& rd = regs[static_cast<size_t>(ins.dst)];
    if (ra.scalar && rb.scalar) {
      auto r = kernel(ra.scalar_value, rb.scalar_value);
      if (!r.ok()) {
        ErrorAll(r.status());
        return;
      }
      rd.scalar = true;
      rd.scalar_value = std::move(*r);
      return;
    }
    rd.scalar = false;
    rd.vec.assign(rows.size(), Value());
    auto& sel = stack.back();
    size_t w = 0;
    for (uint32_t li : sel) {
      auto r = kernel(ra.At(li), rb.At(li));
      if (!r.ok()) {
        Error(li, r.status());
        continue;
      }
      rd.vec[li] = std::move(*r);
      sel[w++] = li;
    }
    sel.resize(w);
  }

  void Exec(const Instr& ins) {
    switch (ins.op) {
      case OpCode::kLoadConst: {
        Reg& rd = regs[static_cast<size_t>(ins.dst)];
        rd.scalar = true;
        rd.scalar_value = ins.literal;
        return;
      }
      case OpCode::kLoadColumn: {
        Reg& rd = regs[static_cast<size_t>(ins.dst)];
        rd.scalar = false;
        rd.vec.assign(rows.size(), Value());
        const ColumnVector& col = batch.column(static_cast<size_t>(ins.a));
        for (uint32_t li : stack.back()) {
          rd.vec[li] = col.ValueAt(rows[li]);
        }
        return;
      }
      case OpCode::kCompare:
        BinaryInstr(ins, [&](const Value& a, const Value& b) {
          return EvalComparisonOp(ins.bop, a, b);
        });
        return;
      case OpCode::kLike:
        BinaryInstr(ins, [](const Value& a, const Value& b) {
          return EvalLikeOp(a, b);
        });
        return;
      case OpCode::kArith:
        BinaryInstr(ins, [&](const Value& a, const Value& b) {
          return EvalArithmeticOp(ins.bop, a, b);
        });
        return;
      case OpCode::kUnary: {
        const Reg& ra = regs[static_cast<size_t>(ins.a)];
        Reg& rd = regs[static_cast<size_t>(ins.dst)];
        if (ra.scalar) {
          auto r = EvalUnaryOp(ins.uop, ra.scalar_value);
          if (!r.ok()) {
            ErrorAll(r.status());
            return;
          }
          rd.scalar = true;
          rd.scalar_value = std::move(*r);
          return;
        }
        rd.scalar = false;
        rd.vec.assign(rows.size(), Value());
        auto& sel = stack.back();
        size_t w = 0;
        for (uint32_t li : sel) {
          auto r = EvalUnaryOp(ins.uop, ra.vec[li]);
          if (!r.ok()) {
            Error(li, r.status());
            continue;
          }
          rd.vec[li] = std::move(*r);
          sel[w++] = li;
        }
        sel.resize(w);
        return;
      }
      case OpCode::kAndProbe:
      case OpCode::kOrProbe: {
        // Short-circuit: only rows whose left value does NOT decide the
        // connective run the right operand. The interpreter never
        // evaluates the right side for the other rows, so neither do we.
        bool want = ins.op == OpCode::kAndProbe;  // AND continues on TRUE
        const Reg& ra = regs[static_cast<size_t>(ins.a)];
        auto& sel = stack.back();
        std::vector<uint32_t> inner;
        inner.reserve(sel.size());
        size_t w = 0;
        for (uint32_t li : sel) {
          const Value& v = ra.At(li);
          if (v.type() != ValueType::kBool) {
            Error(li, Status::TypeError("AND/OR operand is not boolean"));
            continue;
          }
          sel[w++] = li;
          if (v.bool_value() == want) inner.push_back(li);
        }
        sel.resize(w);
        stack.push_back(std::move(inner));
        return;
      }
      case OpCode::kPopMergeAnd:
      case OpCode::kPopMergeOr: {
        bool is_and = ins.op == OpCode::kPopMergeAnd;
        stack.pop_back();
        auto& sel = stack.back();
        const Reg& ra = regs[static_cast<size_t>(ins.a)];
        const Reg& rb = regs[static_cast<size_t>(ins.b)];
        Reg& rd = regs[static_cast<size_t>(ins.dst)];
        rd.scalar = false;
        rd.vec.assign(rows.size(), Value());
        size_t w = 0;
        for (uint32_t li : sel) {
          if (errored[li]) continue;  // right operand errored this row
          bool l = ra.At(li).bool_value();  // bool-checked at the probe
          if (is_and ? !l : l) {
            rd.vec[li] = Value::Bool(!is_and);
            sel[w++] = li;
            continue;
          }
          const Value& v = rb.At(li);
          if (v.type() != ValueType::kBool) {
            Error(li, Status::TypeError("AND/OR operand is not boolean"));
            continue;
          }
          rd.vec[li] = v;
          sel[w++] = li;
        }
        sel.resize(w);
        return;
      }
      case OpCode::kFilterResult: {
        const Reg& ra = regs[static_cast<size_t>(ins.a)];
        auto& sel = stack.back();
        size_t w = 0;
        for (uint32_t li : sel) {
          const Value& v = ra.At(li);
          if (v.type() != ValueType::kBool) {
            Error(li,
                  Status::TypeError("predicate did not evaluate to boolean"));
            continue;
          }
          if (v.bool_value()) sel[w++] = li;
        }
        sel.resize(w);
        return;
      }
      default:
        return;  // fused opcodes never reach the register machine
    }
  }
};

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
  if (pure_filter_) {
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
        default:
          break;
      }
    }
    out.passed = std::move(cur);
  } else {
    Machine m(batch, sel);
    m.regs.resize(static_cast<size_t>(num_regs_));
    m.errored.assign(sel.size(), 0);
    std::vector<uint32_t> all(sel.size());
    std::iota(all.begin(), all.end(), 0u);
    m.stack.push_back(std::move(all));
    for (const Instr& ins : instrs_) m.Exec(ins);
    out.passed.reserve(m.stack.back().size());
    for (uint32_t li : m.stack.back()) out.passed.push_back(sel[li]);
    out.errors = std::move(m.errors);
  }
  std::sort(out.errors.begin(), out.errors.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::string PredicateProgram::ToString() const {
  std::ostringstream os;
  auto reg = [](int r) { return "r" + std::to_string(r); };
  for (size_t i = 0; i < instrs_.size(); ++i) {
    const Instr& ins = instrs_[i];
    os << i << ": ";
    switch (ins.op) {
      case OpCode::kFilterCmpColConst:
        os << "filter col" << ins.a << " " << BinaryOpName(ins.bop) << " "
           << ins.literal.ToString();
        break;
      case OpCode::kFilterCmpColCol:
        os << "filter col" << ins.a << " " << BinaryOpName(ins.bop) << " col"
           << ins.b;
        break;
      case OpCode::kFilterLikeColConst:
        os << "filter col" << ins.a << " LIKE " << ins.literal.ToString();
        break;
      case OpCode::kLoadColumn:
        os << reg(ins.dst) << " = col" << ins.a;
        break;
      case OpCode::kLoadConst:
        os << reg(ins.dst) << " = " << ins.literal.ToString();
        break;
      case OpCode::kCompare:
      case OpCode::kArith:
        os << reg(ins.dst) << " = " << reg(ins.a) << " "
           << BinaryOpName(ins.bop) << " " << reg(ins.b);
        break;
      case OpCode::kLike:
        os << reg(ins.dst) << " = " << reg(ins.a) << " LIKE " << reg(ins.b);
        break;
      case OpCode::kUnary:
        os << reg(ins.dst) << " = " << (ins.uop == UnaryOp::kNot ? "NOT " : "-")
           << reg(ins.a);
        break;
      case OpCode::kAndProbe:
        os << "and-probe " << reg(ins.a);
        break;
      case OpCode::kOrProbe:
        os << "or-probe " << reg(ins.a);
        break;
      case OpCode::kPopMergeAnd:
        os << reg(ins.dst) << " = merge-and " << reg(ins.a) << ", "
           << reg(ins.b);
        break;
      case OpCode::kPopMergeOr:
        os << reg(ins.dst) << " = merge-or " << reg(ins.a) << ", "
           << reg(ins.b);
        break;
      case OpCode::kFilterResult:
        os << "filter-result " << reg(ins.a);
        break;
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace auditdb
