#ifndef AUDITDB_TESTS_AUDIT_VERSIONED_REFERENCE_H_
#define AUDITDB_TESTS_AUDIT_VERSIONED_REFERENCE_H_

// Versioned-audit test helpers: random row churn (inserts, deletes and
// updates, optionally stamped out of capture order) and a reference
// multi-version target view built by one SnapshotAt replay per version.

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/audit/target_view.h"
#include "src/backlog/backlog.h"
#include "src/common/random.h"
#include "src/storage/database.h"

namespace auditdb {
namespace versioned_reference {

struct ChurnSpec {
  /// Tables that change; the others stay untouched.
  std::vector<std::string> tables;
  size_t steps = 60;
  uint64_t seed = 1;
  /// Step i is stamped start + i * spacing_micros (before any shuffle).
  Timestamp start;
  int64_t spacing_micros = 1000000;
  /// Besides updates, insert copies of random rows (same pid, so they
  /// join like the original) and delete random rows.
  bool inserts_and_deletes = false;
  /// Hand the stamps out in random order, so timestamps decrease along
  /// capture order. Updates only: a replay at time t could otherwise
  /// meet an update of a row inserted after t.
  bool shuffle_stamps = false;
};

/// Applies `spec.steps` random changes through the trigger-emitting
/// Database API. An update gives one non-key column (column 0 is the
/// pid) another row's value for it.
inline Status ApplyChurn(Database* db, const ChurnSpec& spec) {
  Random rng(spec.seed);
  std::vector<Timestamp> stamps;
  for (size_t i = 0; i < spec.steps; ++i) {
    stamps.push_back(spec.start.AddMicros(static_cast<int64_t>(i) *
                                          spec.spacing_micros));
  }
  if (spec.shuffle_stamps) {
    for (size_t i = stamps.size(); i > 1; --i) {
      std::swap(stamps[i - 1], stamps[rng.Uniform(i)]);
    }
  }
  for (Timestamp at : stamps) {
    const std::string& name = spec.tables[rng.Uniform(spec.tables.size())];
    auto table = db->GetTable(name);
    if (!table.ok()) return table.status();
    const RowStore& rows = (*table)->rows();
    const Row row = rows[rng.Uniform(rows.size())];
    const Row& donor = rows[rng.Uniform(rows.size())];
    size_t dice = spec.inserts_and_deletes ? rng.Uniform(4) : 0;
    if (dice == 1) {
      auto inserted = db->Insert(name, donor.values, at);
      if (!inserted.ok()) return inserted.status();
    } else if (dice == 2 && rows.size() > 1) {
      AUDITDB_RETURN_IF_ERROR(db->Delete(name, row.tid, at));
    } else {
      std::vector<Value> values = row.values;
      size_t column = 1 + rng.Uniform(values.size() - 1);
      values[column] = donor.values[column];
      AUDITDB_RETURN_IF_ERROR(
          db->Update(name, row.tid, std::move(values), at));
    }
  }
  return Status::Ok();
}

/// The multi-version target view the slow way: rebuild every version
/// from scratch, compute the full view on it, and keep each fact's first
/// sighting. `expr` must be qualified.
inline Result<audit::TargetView> ReplayEveryVersion(
    const audit::AuditExpression& expr, const Backlog& backlog) {
  audit::TargetView merged;
  std::set<std::pair<std::vector<Tid>, std::vector<Value>>> seen;
  for (Timestamp version : backlog.VersionTimestamps(expr.data_interval)) {
    auto snapshot = backlog.SnapshotAt(version);
    if (!snapshot.ok()) return snapshot.status();
    auto view = audit::ComputeTargetView(expr, snapshot->View(), version);
    if (!view.ok()) return view.status();
    merged.tables = view->tables;
    merged.columns = view->columns;
    for (auto& fact : view->facts) {
      if (seen.emplace(fact.tids, fact.values).second) {
        merged.facts.push_back(std::move(fact));
      }
    }
  }
  merged.RebuildTidIndex();
  return merged;
}

}  // namespace versioned_reference
}  // namespace auditdb

#endif  // AUDITDB_TESTS_AUDIT_VERSIONED_REFERENCE_H_
