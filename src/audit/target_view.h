#ifndef AUDITDB_AUDIT_TARGET_VIEW_H_
#define AUDITDB_AUDIT_TARGET_VIEW_H_

#include <string>
#include <vector>

#include "src/audit/audit_expression.h"
#include "src/backlog/backlog.h"
#include "src/engine/executor.h"
#include "src/storage/database.h"

namespace auditdb {
namespace audit {

/// The target data view U of an audit expression (Section 3.1): the
/// sensitive data under disclosure review. Its scheme is the union of the
/// AUDIT-clause attributes, the WHERE-clause attributes, and one tuple-id
/// attribute per FROM table; its facts are the satisfying assignments of
/// the WHERE predicate over the cross product of the FROM tables —
/// collected from every data version selected by DATA-INTERVAL.
struct TargetView {
  /// One data fact (row of U).
  struct Fact {
    /// Tuple ids, aligned with `tables`.
    std::vector<Tid> tids;
    /// Attribute values, aligned with `columns`.
    std::vector<Value> values;
    /// Timestamp of the first data version this fact was observed in.
    Timestamp version;
  };

  /// FROM tables, in clause order (tid layout).
  std::vector<std::string> tables;
  /// Value columns: audit attributes first (in structure order), then any
  /// WHERE-only attributes; fully qualified and deduplicated.
  std::vector<ColumnRef> columns;
  /// Distinct facts, in first-observed order.
  std::vector<Fact> facts;
  /// Compressed lineage index: table_tids[i] holds every tid appearing in
  /// facts' position i (aligned with `tables`). Populated by the view
  /// builders via RebuildTidIndex(); hand-assembled views may leave it
  /// empty, in which case bitmap consumers fall back to the facts.
  std::vector<TidBitmap> table_tids;

  size_t size() const { return facts.size(); }

  /// Recomputes `table_tids` from `facts`. Call after mutating facts.
  void RebuildTidIndex();

  /// Index of `col` in `columns`, or error.
  Result<size_t> ColumnIndex(const ColumnRef& col) const;

  /// Index of `table` in `tables`, or error.
  Result<size_t> TableIndex(const std::string& table) const;

  /// Columnar projection of the facts' value columns, one ColumnVector
  /// per entry of `columns` (tids are omitted: a fact carries one tid per
  /// FROM table, not a single row id). The audit layers run their
  /// fact-validity screens (NULL checks per granule scheme) over this
  /// batch instead of walking facts row by row.
  Batch ToBatch() const;

  /// Pretty-prints U as a table (the paper's Tables 4 and 5 layout: tid
  /// columns followed by value columns).
  std::string ToString() const;
};

/// Computes U on a single database state. `expr` must already be
/// Qualify()-ed against a compatible catalog. `version` only labels the
/// facts.
Result<TargetView> ComputeTargetView(const AuditExpression& expr,
                                     const DatabaseView& db,
                                     Timestamp version);

/// Computes U across every data version in `expr.data_interval`, as
/// reconstructed from the backlog, and unions the facts (deduplicated by
/// tids + values). `event_limit` bounds the backlog prefix read (a pinned
/// audit passes its captured event count so concurrent appends are
/// invisible). The ExecOptions parameter is ignored (see ExecOptions).
Result<TargetView> ComputeTargetViewOverVersions(
    const AuditExpression& expr, const Backlog& backlog,
    const ExecOptions& = ExecOptions{},
    size_t event_limit = Backlog::kNoLimit);

}  // namespace audit
}  // namespace auditdb

#endif  // AUDITDB_AUDIT_TARGET_VIEW_H_
