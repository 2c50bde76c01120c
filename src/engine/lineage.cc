#include "src/engine/lineage.h"

#include <algorithm>

#include "src/expr/analysis.h"

namespace auditdb {

const TidBitmap& AccessProfile::IndispensableTids(
    const std::string& table) const {
  static const TidBitmap kEmpty;
  const auto& from = result.from;
  auto it = std::find(from.begin(), from.end(), table);
  if (it == from.end()) return kEmpty;
  return table_tids[static_cast<size_t>(it - from.begin())];
}

namespace {

/// Fills the profile's output and accessed columns; `profile.result`
/// must already hold the executed query's columns.
Status AddColumns(const sql::SelectStatement& stmt, const DatabaseView& db,
                  AccessProfile* profile) {
  // Output columns: the executor already resolved them.
  for (const auto& col : profile->result.columns) {
    profile->output_columns.insert(col);
    profile->accessed_columns.insert(col);
  }

  // Predicate columns.
  if (stmt.where) {
    auto where = stmt.where->Clone();
    AUDITDB_RETURN_IF_ERROR(
        QualifyColumns(where.get(), db.catalog(), stmt.from));
    for (const auto& col : CollectColumns(where.get())) {
      profile->accessed_columns.insert(col);
    }
  }
  return Status::Ok();
}

}  // namespace

Result<AccessProfile> ComputeAccessProfile(const sql::SelectStatement& stmt,
                                           const DatabaseView& db,
                                           ExecOutput output) {
  AccessProfile profile;
  auto result = Execute(stmt, db, output);
  if (!result.ok()) return result.status();
  profile.result = std::move(*result);
  for (const auto& table : profile.result.from) {
    profile.table_tids.push_back(profile.result.IndispensableTidBitmap(table));
  }
  AUDITDB_RETURN_IF_ERROR(AddColumns(stmt, db, &profile));
  return profile;
}

Result<AccessProfile> ComputeRestrictedAccessProfile(
    const sql::SelectStatement& stmt, const DatabaseView& db,
    std::span<const RowRestriction> restrictions) {
  AccessProfile profile;
  auto restricted = ExecuteRestricted(stmt, db, restrictions);
  if (!restricted.ok()) return restricted.status();
  profile.result = std::move(restricted->result);
  profile.table_tids = std::move(restricted->table_tids);
  AUDITDB_RETURN_IF_ERROR(AddColumns(stmt, db, &profile));
  return profile;
}

Result<AccessProfile> ComputeAccessProfile(const sql::SelectStatement& stmt,
                                           const DatabaseView& db,
                                           const ExecOptions&) {
  return ComputeAccessProfile(stmt, db, ExecOutput::kLineageAndValues);
}

}  // namespace auditdb
