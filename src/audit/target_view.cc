#include "src/audit/target_view.h"

#include <algorithm>
#include <optional>
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

/// True when the view SPJ, which reads only `columns` (the view's value
/// columns) and tids, must give over `now` the facts it gave over
/// `then`, two versions of one FROM table: both hold the same tids in
/// the same order, with == values in every column of the table that the
/// view reads. Value == is the equality the fact dedup uses and no
/// predicate tells ==-equal values apart, so a change it cannot see
/// could add no fact.
bool SameViewInput(const TableVersion& now, const TableVersion& then,
                   const std::vector<ColumnRef>& columns) {
  if (&now == &then) return true;
  if (now.size() != then.size()) return false;
  std::vector<size_t> read;
  for (const ColumnRef& col : columns) {
    if (col.table != now.name()) continue;
    auto index = now.schema().FindColumn(col.column);
    if (!index.has_value()) return false;
    read.push_back(*index);
  }
  for (size_t i = 0; i < now.size(); ++i) {
    const Row& a = now.rows()[i];
    const Row& b = then.rows()[i];
    if (a.tid != b.tid) return false;
    for (size_t c : read) {
      if (a.values[c] != b.values[c]) return false;
    }
  }
  return true;
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
    std::vector<Tid> tids(result->lineage[i].begin(),
                          result->lineage[i].end());
    if (!seen.emplace(tids, result->rows[i]).second) continue;
    view.facts.push_back(
        TargetView::Fact{std::move(tids), result->rows[i], version});
  }
  view.RebuildTidIndex();
  return view;
}

Result<TargetView> ComputeTargetViewOverVersions(const AuditExpression& expr,
                                                 const Backlog& backlog,
                                                 const ExecOptions&,
                                                 size_t event_limit,
                                                 SweepCounters* counters) {
  TargetView merged;
  merged.tables = expr.from;
  merged.columns = ViewColumns(expr);

  // One forward sweep. A version whose FROM tables match the last
  // evaluated version's in everything the view reads would yield the
  // same facts, all already merged under that earlier label: skip it.
  // Untouched tables are the very same TableVersion objects; `evaluated`
  // keeps those pinned, so pointer equality is identity.
  BacklogCursor cursor(backlog, event_limit);
  std::optional<DatabaseView> evaluated;
  FactSet seen;
  const std::vector<Timestamp> versions =
      backlog.VersionTimestamps(expr.data_interval, event_limit);
  for (Timestamp version : versions) {
    auto db = cursor.ViewAt(version);
    if (!db.ok()) return db.status();
    if (evaluated.has_value() &&
        std::all_of(expr.from.begin(), expr.from.end(),
                    [&](const std::string& table) {
                      auto now = db->GetTable(table);
                      auto then = evaluated->GetTable(table);
                      return now.ok() && then.ok() &&
                             SameViewInput(**now, **then, merged.columns);
                    })) {
      continue;
    }
    auto view = ComputeTargetView(expr, *db, version);
    if (!view.ok()) return view.status();
    evaluated = std::move(*db);
    for (auto& fact : view->facts) {
      if (!seen.emplace(fact.tids, fact.values).second) continue;
      merged.facts.push_back(std::move(fact));
    }
  }
  merged.RebuildTidIndex();
  if (counters != nullptr && !versions.empty()) {
    // The cursor's tables outlive the loop; their stats cover the sweep.
    auto db = cursor.ViewAt(versions.back());
    if (!db.ok()) return db.status();
    std::vector<std::string> tables = expr.from;
    std::sort(tables.begin(), tables.end());
    tables.erase(std::unique(tables.begin(), tables.end()), tables.end());
    for (const std::string& table : tables) {
      auto now = db->GetTable(table);
      if (!now.ok()) return now.status();
      const TableStats& stats = (*now)->stats();
      counters->cow_rows += stats.cow_rows.load();
      counters->columnar_builds += stats.columnar_builds.load();
      counters->join_index_builds += stats.join_index_builds.load();
    }
  }
  return merged;
}

}  // namespace audit
}  // namespace auditdb
