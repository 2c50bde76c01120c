#ifndef AUDITDB_EXPR_PREDICATE_PROGRAM_H_
#define AUDITDB_EXPR_PREDICATE_PROGRAM_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/expr/expression.h"
#include "src/types/column_vector.h"

namespace auditdb {

/// A bound local predicate evaluated batch-at-a-time over a columnar
/// Batch with a selection vector.
///
/// Conjunctions of `col op literal`, `literal op col`, `col op col` and
/// `col LIKE literal` compile to fused filter instructions that run tight
/// typed loops over the column arrays: the scan hot path. Every other
/// local predicate is kept as an expression and run on the tree-walking
/// interpreter (EvaluatePredicate) one selected row at a time.
///
/// Both forms are byte-identical to the interpreter. A fused loop hands
/// every cell it cannot compare natively to the interpreter's own scalar
/// kernels, and a conjunction narrows the selection before its next
/// comparison runs, so a row the interpreter would short-circuit is never
/// evaluated further. A row whose evaluation errors reports the
/// interpreter's exact Status for that row.
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

  /// True when the program compiled entirely to fused filter
  /// instructions (the vectorized hot path); false when it runs on the
  /// interpreter.
  bool pure_filter() const { return interpreted_ == nullptr; }
  size_t num_instructions() const { return instrs_.size(); }

 private:
  /// Fused filters: each narrows the selection directly from column
  /// arrays.
  enum class OpCode : uint8_t {
    kFilterCmpColConst,  // col(a) bop literal
    kFilterCmpColCol,    // col(a) bop col(b)
    kFilterLikeColConst, // col(a) LIKE literal
  };

  struct Instr {
    OpCode op;
    int a = -1;  // column index
    int b = -1;  // second column for kFilterCmpColCol
    BinaryOp bop = BinaryOp::kAnd;
    /// kFilterCmpColConst compiled from `literal op col`: the comparison
    /// was flipped to put the column on the left, so the scalar fallback
    /// must restore the source operand order (error statuses name the
    /// operand types in that order).
    bool flipped = false;
    Value literal;
  };

  struct Compiler;

  std::vector<Instr> instrs_;
  /// A clone of the predicate when it does not fuse (null when it does);
  /// Run evaluates it per row over a combined row of
  /// `slot_offset_ + width_` values.
  ExprPtr interpreted_;
  size_t slot_offset_ = 0;
  size_t width_ = 0;
};

}  // namespace auditdb

#endif  // AUDITDB_EXPR_PREDICATE_PROGRAM_H_
