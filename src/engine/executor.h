#ifndef AUDITDB_ENGINE_EXECUTOR_H_
#define AUDITDB_ENGINE_EXECUTOR_H_

#include <set>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/tid_bitmap.h"
#include "src/sql/parser.h"
#include "src/storage/database.h"

namespace auditdb {

/// Empty: the executor has one plan. Kept only because the frozen
/// perfbench/driver/offline.cc still reads `AuditOptions::exec` and passes
/// it to ComputeAccessProfile and ComputeTargetViewOverVersions, which
/// ignore it; the next benchmark change deletes it.
struct ExecOptions {};

/// Result of executing an SPJ query, with lineage: every output row carries
/// the tids of the base rows (one per FROM table) that produced it. The
/// lineage is exactly the witness set for indispensability (Definition 2 in
/// the paper): a base tuple t is indispensable to the query iff it appears
/// in the lineage of at least one output row.
struct QueryResult {
  /// Projected columns, fully qualified, in output order.
  std::vector<ColumnRef> columns;
  /// FROM-clause tables, in the order lineage tuples are laid out.
  std::vector<std::string> from;
  /// Output rows (bag semantics; no duplicate elimination).
  std::vector<std::vector<Value>> rows;
  /// lineage[i][j] = tid of the row of table from[j] behind output row i.
  std::vector<std::vector<Tid>> lineage;

  /// Tids of `table` that are indispensable to the query (empty if the
  /// table is not in FROM), as a compressed bitmap iterating in ascending
  /// tid order.
  TidBitmap IndispensableTidBitmap(const std::string& table) const;

  /// Distinct lineage tuples projected onto `tables` (each must be in
  /// FROM), in the order given. Used for joint-indispensability checks.
  /// Errors: NotFound if a table is not in FROM; Internal if a lineage row
  /// is ragged (fewer entries than FROM tables).
  Result<std::set<std::vector<Tid>>> ProjectLineage(
      const std::vector<std::string>& tables) const;

  /// Single-table ProjectLineage as a compressed bitmap, with the same
  /// error behavior. The word-wide kernel behind joint-witness and
  /// shared-tuple intersection tests.
  Result<TidBitmap> ProjectLineageBitmap(const std::string& table) const;

  /// Values appearing in output column `col` (for value-containment access
  /// checks when INDISPENSABLE = false).
  std::set<Value> ColumnValues(const ColumnRef& col) const;

  /// Pretty-printed result table (for examples and debugging).
  std::string ToString() const;
};

/// Executes `stmt` against `db`. Column references are resolved against the
/// view's catalog; the WHERE clause is decomposed into conjuncts that are
/// evaluated as early as possible in the join order (the FROM-clause
/// order). A join position with a same-typed equi-join conjunct probes a
/// hash of its table; any other position is a nested loop. Conjuncts
/// reading only one table run as compiled predicate programs over that
/// table's columnar batch. Output rows come in nested-loop order: FROM
/// positions outermost first, each table's rows in storage order.
Result<QueryResult> Execute(const sql::SelectStatement& stmt,
                            const DatabaseView& db);

/// Parses and executes `sql_text` in one step.
Result<QueryResult> ExecuteSql(const std::string& sql_text,
                               const DatabaseView& db);

}  // namespace auditdb

#endif  // AUDITDB_ENGINE_EXECUTOR_H_
