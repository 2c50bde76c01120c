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

struct ExecOptions {
  /// Accelerate equality joins with a build-side hash table; when false,
  /// every join is a pure nested loop (the ablation baseline).
  bool hash_join = true;
  /// Greedy selectivity-based join reordering: start from the table with
  /// the smallest filtered cardinality, then repeatedly add the smallest
  /// equi-join-connected table. Output rows may come in a different
  /// order, but rows, lineage and `from` keep the query's original table
  /// order. Off by default (the ablation measures when it pays off).
  bool reorder_joins = false;
  /// Evaluate single-table conjuncts as compiled predicate programs over
  /// each table's columnar projection (the scan layer). When false, every
  /// conjunct is tree-interpreted per combined row — the row-at-a-time
  /// ablation baseline. Results are byte-identical either way.
  bool compiled_scan = true;
  /// Rows per predicate-program chunk (bounds the scratch space of the
  /// general register machine; fused filters are insensitive to it).
  size_t scan_batch_size = 1024;
};

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
/// order), with optional hash acceleration for equi-join conjuncts.
Result<QueryResult> Execute(const sql::SelectStatement& stmt,
                            const DatabaseView& db,
                            const ExecOptions& options = ExecOptions{});

/// Parses and executes `sql_text` in one step.
Result<QueryResult> ExecuteSql(const std::string& sql_text,
                               const DatabaseView& db,
                               const ExecOptions& options = ExecOptions{});

}  // namespace auditdb

#endif  // AUDITDB_ENGINE_EXECUTOR_H_
