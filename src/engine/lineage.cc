#include "src/engine/lineage.h"

#include "src/expr/analysis.h"

namespace auditdb {

Result<AccessProfile> ComputeAccessProfile(const sql::SelectStatement& stmt,
                                           const DatabaseView& db,
                                           const ExecOptions&) {
  AccessProfile profile;

  auto result = Execute(stmt, db);
  if (!result.ok()) return result.status();
  profile.result = std::move(*result);

  // Output columns: the executor already resolved them.
  for (const auto& col : profile.result.columns) {
    profile.output_columns.insert(col);
    profile.accessed_columns.insert(col);
  }

  // Predicate columns.
  if (stmt.where) {
    auto where = stmt.where->Clone();
    AUDITDB_RETURN_IF_ERROR(
        QualifyColumns(where.get(), db.catalog(), stmt.from));
    for (const auto& col : CollectColumns(where.get())) {
      profile.accessed_columns.insert(col);
    }
  }
  return profile;
}

}  // namespace auditdb
