#ifndef AUDITDB_ENGINE_LINEAGE_H_
#define AUDITDB_ENGINE_LINEAGE_H_

#include <set>
#include <string>

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
struct AccessProfile {
  std::set<ColumnRef> output_columns;
  std::set<ColumnRef> accessed_columns;
  QueryResult result;

  /// Whether the query references `col` anywhere (projection or predicate).
  bool Accesses(const ColumnRef& col) const {
    return accessed_columns.count(col) > 0;
  }
  /// Whether the query projects `col` out (its values appear in results).
  bool Outputs(const ColumnRef& col) const {
    return output_columns.count(col) > 0;
  }
};

/// Executes `stmt` against `db` and assembles its access profile. All
/// column references are fully qualified in the profile. The ExecOptions
/// parameter is ignored (see ExecOptions).
Result<AccessProfile> ComputeAccessProfile(const sql::SelectStatement& stmt,
                                           const DatabaseView& db,
                                           const ExecOptions& = ExecOptions{});

}  // namespace auditdb

#endif  // AUDITDB_ENGINE_LINEAGE_H_
