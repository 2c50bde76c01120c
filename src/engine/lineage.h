#ifndef AUDITDB_ENGINE_LINEAGE_H_
#define AUDITDB_ENGINE_LINEAGE_H_

#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/engine/executor.h"

namespace auditdb {

/// Everything the auditor needs to know about one executed query:
/// the columns it touched and the lineage-bearing result it produced on
/// the database state it actually ran against.
///
/// In the paper's notation, for query Q = π_{C_OQ}(σ_{P_Q}(T × R)):
///   - `output_columns`  = C_OQ (the projection list),
///   - `accessed_columns` = C_Q = C_OQ ∪ columns(P_Q),
///   - `result` carries the satisfying assignments with their base tids,
///     from which indispensable-tuple sets (Definition 2) are derived.
///
/// A restricted profile (ComputeRestrictedAccessProfile) holds only what
/// the per-table indispensability check reads: table_tids of a restricted
/// table is its indispensable tids within the restriction (the target
/// view's tids of that table), any other table's is empty, and
/// result.lineage stays empty, so no consumer can misread a partial
/// lineage. Its columns are those of an unrestricted profile.
struct AccessProfile {
  std::set<ColumnRef> output_columns;
  std::set<ColumnRef> accessed_columns;
  QueryResult result;
  /// The indispensable tids of each FROM table, index-aligned with
  /// result.from. ComputeAccessProfile builds them once, so the
  /// suspicion checks never walk the lineage again.
  std::vector<TidBitmap> table_tids;

  /// Whether the query references `col` anywhere (projection or predicate).
  bool Accesses(const ColumnRef& col) const {
    return accessed_columns.count(col) > 0;
  }
  /// Whether the query projects `col` out (its values appear in results).
  bool Outputs(const ColumnRef& col) const {
    return output_columns.count(col) > 0;
  }
  /// Indispensable tids of `table`; empty when the table is not in FROM.
  const TidBitmap& IndispensableTids(const std::string& table) const;
};

/// Executes `stmt` against `db` and assembles its access profile. All
/// column references are fully qualified in the profile. `output` says
/// whether result.rows is filled: an INDISPENSABLE = true check reads
/// only lineage and column sets, value containment reads the rows too.
Result<AccessProfile> ComputeAccessProfile(
    const sql::SelectStatement& stmt, const DatabaseView& db,
    ExecOutput output = ExecOutput::kLineageAndValues);

/// The restricted profile (see AccessProfile) of `stmt` on `db`, from
/// ExecuteRestricted: enough for an INDISPENSABLE = true check in
/// IndispensabilityMode::kPerTable when each restriction holds the rows of
/// the target view's tids of that table, and nothing else.
Result<AccessProfile> ComputeRestrictedAccessProfile(
    const sql::SelectStatement& stmt, const DatabaseView& db,
    std::span<const RowRestriction> restrictions);

/// ComputeAccessProfile with values. The ExecOptions parameter is
/// ignored (see ExecOptions).
Result<AccessProfile> ComputeAccessProfile(const sql::SelectStatement& stmt,
                                           const DatabaseView& db,
                                           const ExecOptions&);

}  // namespace auditdb

#endif  // AUDITDB_ENGINE_LINEAGE_H_
