#include "src/audit/target_view.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "src/common/hashing.h"
#include "src/expr/analysis.h"

namespace auditdb {
namespace audit {

namespace {

/// Membership-only dedup key for facts: (tid tuple, value tuple).
using FactKey = std::pair<std::vector<Tid>, std::vector<Value>>;
using FactKeyHash =
    PairHash<std::vector<Tid>, std::vector<Value>, VectorHash<Tid>,
             VectorHash<Value>>;
using FactSet = std::unordered_set<FactKey, FactKeyHash>;

}  // namespace

Result<size_t> TargetView::ColumnIndex(const ColumnRef& col) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == col) return i;
  }
  return Status::NotFound("no column " + col.ToString() +
                          " in target view");
}

Result<size_t> TargetView::TableIndex(const std::string& table) const {
  for (size_t i = 0; i < tables.size(); ++i) {
    if (tables[i] == table) return i;
  }
  return Status::NotFound("no table " + table + " in target view");
}

void TargetView::RebuildTidIndex() {
  table_tids.assign(tables.size(), TidBitmap());
  for (const Fact& fact : facts) {
    for (size_t i = 0; i < fact.tids.size() && i < table_tids.size(); ++i) {
      table_tids[i].Add(fact.tids[i]);
    }
  }
}

Batch TargetView::ToBatch() const {
  Batch batch;
  batch.num_rows = facts.size();
  batch.columns.reserve(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    batch.columns.push_back(ColumnVector::Gather(
        facts.size(),
        [&](size_t i) -> const Value& { return facts[i].values[c]; }));
  }
  return batch;
}

std::string TargetView::ToString() const {
  std::string out;
  for (size_t i = 0; i < tables.size(); ++i) {
    if (i > 0) out += " | ";
    out += "tid_" + tables[i];
  }
  for (const auto& col : columns) {
    out += " | " + col.ToString();
  }
  out += "\n";
  for (const auto& fact : facts) {
    for (size_t i = 0; i < fact.tids.size(); ++i) {
      if (i > 0) out += " | ";
      out += TidToString(fact.tids[i]);
    }
    for (const auto& v : fact.values) {
      out += " | " + v.ToDisplayString();
    }
    out += "\n";
  }
  return out;
}

namespace {

/// The value columns of U: audit attributes in first-appearance order,
/// then WHERE-only columns in sorted order.
std::vector<ColumnRef> ViewColumns(const AuditExpression& expr) {
  std::vector<ColumnRef> columns;
  std::unordered_set<ColumnRef, ColumnRefHash> seen;
  for (const auto& group : expr.attrs.groups) {
    for (const auto& attr : group.attrs) {
      if (seen.insert(attr).second) columns.push_back(attr);
    }
  }
  for (const auto& col : CollectColumns(expr.where.get())) {
    if (seen.insert(col).second) columns.push_back(col);
  }
  return columns;
}

}  // namespace

Result<TargetView> ComputeTargetView(const AuditExpression& expr,
                                     const DatabaseView& db,
                                     Timestamp version) {
  TargetView view;
  view.tables = expr.from;
  view.columns = ViewColumns(expr);

  sql::SelectStatement stmt;
  stmt.from = expr.from;
  stmt.select_list = view.columns;
  stmt.where = expr.where ? expr.where->Clone() : nullptr;

  auto result = Execute(stmt, db);
  if (!result.ok()) return result.status();

  FactSet seen;
  for (size_t i = 0; i < result->rows.size(); ++i) {
    if (!seen.emplace(result->lineage[i], result->rows[i]).second) continue;
    view.facts.push_back(TargetView::Fact{result->lineage[i],
                                          result->rows[i], version});
  }
  view.RebuildTidIndex();
  return view;
}

Result<TargetView> ComputeTargetViewOverVersions(const AuditExpression& expr,
                                                 const Backlog& backlog,
                                                 const ExecOptions&,
                                                 size_t event_limit) {
  TargetView merged;
  merged.tables = expr.from;
  merged.columns = ViewColumns(expr);

  FactSet seen;
  for (Timestamp version :
       backlog.VersionTimestamps(expr.data_interval, event_limit)) {
    auto snapshot = backlog.SnapshotAt(version, event_limit);
    if (!snapshot.ok()) return snapshot.status();
    auto view = ComputeTargetView(expr, snapshot->View(), version);
    if (!view.ok()) return view.status();
    for (auto& fact : view->facts) {
      if (!seen.emplace(fact.tids, fact.values).second) continue;
      merged.facts.push_back(std::move(fact));
    }
  }
  merged.RebuildTidIndex();
  return merged;
}

}  // namespace audit
}  // namespace auditdb
