#ifndef AUDITDB_TESTS_ENGINE_EXECUTOR_REFERENCE_H_
#define AUDITDB_TESTS_ENGINE_EXECUTOR_REFERENCE_H_

#include <functional>
#include <vector>

#include "src/engine/executor.h"
#include "src/expr/analysis.h"
#include "src/expr/evaluator.h"

namespace auditdb {

/// Reference executor for differential tests: evaluates the whole WHERE
/// clause, tree-walked, on every row of the FROM tables' cross product.
/// The product is enumerated as nested loops — first FROM table
/// outermost, each table's rows in storage order — which is the order the
/// real executor promises. No conjunct scheduling, hash join or compiled
/// scan, so any difference in rows, lineage or row order is an executor
/// bug. Errors: resolution errors as the executor reports them, then the
/// first row (in enumeration order) whose predicate errors; on a
/// single-table query that is exactly the executor's error.
inline Result<QueryResult> BruteForce(const sql::SelectStatement& stmt,
                                      const DatabaseView& db) {
  QueryResult result;
  result.from = stmt.from;
  RowLayout layout;
  std::vector<const TableVersion*> tables;
  for (const auto& name : stmt.from) {
    auto table = db.GetTable(name);
    if (!table.ok()) return table.status();
    tables.push_back(*table);
    layout.AddTable(name, (*table)->schema());
  }
  if (stmt.select_star) {
    result.columns = layout.slot_columns();
  } else {
    for (const auto& ref : stmt.select_list) {
      auto resolved = db.catalog().Resolve(ref, stmt.from);
      if (!resolved.ok()) return resolved.status();
      result.columns.push_back(*resolved);
    }
  }
  std::vector<size_t> slots;
  for (const auto& col : result.columns) {
    auto slot = layout.Slot(col);
    if (!slot.ok()) return slot.status();
    slots.push_back(static_cast<size_t>(*slot));
  }
  ExprPtr where;
  if (stmt.where) {
    where = stmt.where->Clone();
    AUDITDB_RETURN_IF_ERROR(
        QualifyColumns(where.get(), db.catalog(), stmt.from));
    AUDITDB_RETURN_IF_ERROR(BindExpression(where.get(), layout));
  }

  std::vector<Value> combined;
  std::vector<Tid> tids;
  std::function<Status(size_t)> visit = [&](size_t t) -> Status {
    if (t == tables.size()) {
      auto pass = EvaluatePredicate(where.get(), combined);
      if (!pass.ok()) return pass.status();
      if (!*pass) return Status::Ok();
      std::vector<Value> projected;
      for (size_t slot : slots) projected.push_back(combined[slot]);
      result.rows.push_back(std::move(projected));
      result.lineage.push_back(tids);
      return Status::Ok();
    }
    for (const Row& row : tables[t]->rows()) {
      const size_t width = combined.size();
      combined.insert(combined.end(), row.values.begin(), row.values.end());
      tids.push_back(row.tid);
      AUDITDB_RETURN_IF_ERROR(visit(t + 1));
      combined.resize(width);
      tids.pop_back();
    }
    return Status::Ok();
  };
  AUDITDB_RETURN_IF_ERROR(visit(0));
  return result;
}

}  // namespace auditdb

#endif  // AUDITDB_TESTS_ENGINE_EXECUTOR_REFERENCE_H_
