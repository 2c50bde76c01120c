#ifndef AUDITDB_EXPR_PREDICATE_PROGRAM_H_
#define AUDITDB_EXPR_PREDICATE_PROGRAM_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/tid_bitmap.h"
#include "src/expr/expression.h"
#include "src/types/column_vector.h"

namespace auditdb {

/// A bound predicate flattened into a linear register program evaluated
/// batch-at-a-time over a columnar Batch with a selection vector, instead
/// of recursively interpreting the expression tree per row.
///
/// Semantics are byte-identical to the tree-walking evaluator
/// (EvaluatePredicate): both call the same scalar kernels, AND/OR
/// short-circuiting is reproduced by narrowing the selection before the
/// right operand runs (so a cell the interpreter would never evaluate is
/// never evaluated here either), and a row whose evaluation errors
/// reports the interpreter's exact Status for that row. Conjunctions of
/// `col op literal` / `col op col` comparisons compile to fused filter
/// instructions that run tight typed loops over the column arrays — the
/// scan hot path; everything else lowers to a general register form that
/// is still batch-amortized.
class PredicateProgram {
 public:
  /// Per-row outcome of running the program over a selection: rows that
  /// passed, and rows whose evaluation errored, with the interpreter's
  /// status. Rows in neither list failed the predicate. Both lists are
  /// ascending by row.
  struct Outcome {
    std::vector<uint32_t> passed;
    std::vector<std::pair<uint32_t, Status>> errors;
  };

  /// Selection-bitmap form of Outcome: the passing rows as a compressed
  /// row bitmap (row index as tid) instead of a selection vector. Rows
  /// pass/error exactly as in Outcome; the bitmap iterates ascending, so
  /// the two forms are interconvertible without reordering.
  struct BitmapOutcome {
    TidBitmap passed;
    std::vector<std::pair<uint32_t, Status>> errors;
  };

  /// True iff every column reference in `expr` is bound to a slot in
  /// [slot_offset, slot_offset + width) — i.e. the predicate reads only
  /// this table's columns and can be compiled for its batches.
  static bool IsLocal(const Expression& expr, size_t slot_offset,
                      size_t width);

  /// Compiles bound `expr`; column slots are rebased so that slot
  /// `slot_offset + c` reads batch column c. Fails if a column is
  /// unbound or out of range (see IsLocal).
  static Result<PredicateProgram> Compile(const Expression& expr,
                                          size_t slot_offset, size_t width);

  /// Evaluates the program for the rows in `sel` (ascending indices into
  /// `batch`). Cells outside `sel` are never touched.
  Outcome Run(const Batch& batch, const std::vector<uint32_t>& sel) const;

  /// Same evaluation as Run, emitting the selection bitmap directly:
  /// the narrowed row set is appended bit-by-bit in ascending order
  /// (O(1) per row), never materializing a second selection vector for
  /// the caller. Pairs with engine/table_scan's bitmap<->vector
  /// conversions at chunk boundaries.
  BitmapOutcome RunToBitmap(const Batch& batch,
                            const std::vector<uint32_t>& sel) const;

  /// True when the program compiled entirely to fused filter
  /// instructions (the vectorized hot path).
  bool pure_filter() const { return pure_filter_; }
  size_t num_instructions() const { return instrs_.size(); }

  /// Readable disassembly (tests / debugging).
  std::string ToString() const;

 private:
  enum class OpCode : uint8_t {
    // Fused filters: narrow the selection directly from column arrays.
    kFilterCmpColConst,  // col(a) bop literal
    kFilterCmpColCol,    // col(a) bop col(b)
    kFilterLikeColConst, // col(a) LIKE literal
    // General register form.
    kLoadColumn,   // reg[dst] = column a
    kLoadConst,    // reg[dst] = literal (scalar)
    kCompare,      // reg[dst] = cmp(reg[a], reg[b])
    kLike,         // reg[dst] = reg[a] LIKE reg[b]
    kArith,        // reg[dst] = reg[a] bop reg[b]
    kUnary,        // reg[dst] = uop reg[a]
    kAndProbe,     // push sel narrowed to rows where reg[a] is TRUE
    kOrProbe,      // push sel narrowed to rows where reg[a] is FALSE
    kPopMergeAnd,  // reg[dst] = reg[a] ? reg[b] : FALSE; pop
    kPopMergeOr,   // reg[dst] = reg[a] ? TRUE : reg[b]; pop
    kFilterResult, // narrow sel to rows where reg[a] is TRUE
  };

  struct Instr {
    OpCode op;
    int a = -1;    // register, or column index for fused/load ops
    int b = -1;    // register, or second column for kFilterCmpColCol
    int dst = -1;  // destination register
    BinaryOp bop = BinaryOp::kAnd;
    UnaryOp uop = UnaryOp::kNot;
    /// kFilterCmpColConst compiled from `literal op col`: the comparison
    /// was flipped to put the column on the left, so the scalar fallback
    /// must restore the source operand order (error statuses name the
    /// operand types in that order).
    bool flipped = false;
    Value literal;
  };

  struct Compiler;
  struct Machine;

  std::vector<Instr> instrs_;
  int num_regs_ = 0;
  bool pure_filter_ = false;
};

}  // namespace auditdb

#endif  // AUDITDB_EXPR_PREDICATE_PROGRAM_H_
