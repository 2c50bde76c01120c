#ifndef AUDITDB_ENGINE_TABLE_SCAN_H_
#define AUDITDB_ENGINE_TABLE_SCAN_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/expr/evaluator.h"
#include "src/expr/predicate_program.h"
#include "src/storage/table.h"

namespace auditdb {

/// One evaluation stage of the conjuncts that become ready at a join
/// position, in the query's original conjunct order. A LOCAL stage is a
/// maximal run of consecutive conjuncts reading only this table's columns,
/// compiled into one predicate program (fused filter loops, or the
/// interpreter per row when the run does not fuse) and precomputed once
/// per query over the table's batch. A CROSS stage is a run of conjuncts
/// that also read earlier tables' slots; it is tree-walked per combined
/// row.
struct ScanStage {
  bool local = false;
  PredicateProgram program;               // local stages
  std::vector<const Expression*> cross;   // cross stages (bound, not owned)
};

/// Precomputed per-row outcomes of a table's local stages. Stage states
/// are tri-state so that a row whose predicate ERRORS surfaces the
/// interpreter's exact Status — but only when the row is actually visited
/// during enumeration, so a row that a hash-join bucket or prefilter never
/// reaches never fails the query.
///
/// A later local stage's states are computed only for rows that passed
/// every earlier LOCAL stage; interleaved cross stages can only narrow
/// the rows that consult it further, so every consulted (stage, row) pair
/// was computed.
class TableFilter {
 public:
  enum class RowState : uint8_t { kFail = 0, kPass = 1, kError = 2 };

  /// State of `row` at local stage `stage` (kPass for cross stages, which
  /// hold no precomputed state).
  RowState StageState(size_t stage, uint32_t row) const {
    const auto& st = states_[stage];
    return st.empty() ? RowState::kPass : static_cast<RowState>(st[row]);
  }

  /// The interpreter's Status for a (stage, row) in state kError.
  const Status& StageError(size_t stage, uint32_t row) const {
    return errors_[stage].at(row);
  }

  /// Rows (ascending) that passed every local stage. Only a complete
  /// visit order when the position has no cross stages and no errors.
  const std::vector<uint32_t>& passing() const { return passing_; }

  /// True when any row of any local stage errored; enumeration must then
  /// walk the full selection so the first visited error row aborts the
  /// query exactly as the interpreter would.
  bool has_errors() const { return total_errors_ > 0; }

  size_t num_stages() const { return states_.size(); }

 private:
  friend TableFilter BuildTableFilter(
      const Batch& batch, const std::vector<ScanStage>& stages,
      const std::optional<std::vector<uint32_t>>& selection);

  std::vector<std::vector<uint8_t>> states_;        // per stage, per row
  std::vector<std::map<uint32_t, Status>> errors_;  // per stage: row->status
  std::vector<uint32_t> passing_;
  size_t total_errors_ = 0;
};

/// Precomputes the local stages of `stages` over `batch`, starting from
/// `selection` (ascending row ids; all rows when absent) and narrowing
/// after each local stage.
TableFilter BuildTableFilter(
    const Batch& batch, const std::vector<ScanStage>& stages,
    const std::optional<std::vector<uint32_t>>& selection);

}  // namespace auditdb

#endif  // AUDITDB_ENGINE_TABLE_SCAN_H_
