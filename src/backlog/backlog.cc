#include "src/backlog/backlog.h"

#include <algorithm>

namespace auditdb {

void Backlog::Attach(Database* db) {
  db_ = db;
  db->AddChangeListener(
      [this](const ChangeEvent& event) { events_.Append(event); });
}

std::vector<ChangeEvent> Backlog::EventsForTable(const std::string& table,
                                                 size_t limit) const {
  size_t n = ClampLimit(limit);
  std::vector<ChangeEvent> out;
  for (size_t i = 0; i < n; ++i) {
    const ChangeEvent& e = events_.At(i);
    if (e.table == table) out.push_back(e);
  }
  return out;
}

Result<Snapshot> Backlog::SnapshotAt(Timestamp t, size_t limit) const {
  if (db_ == nullptr) {
    return Status::Internal("backlog not attached to a database");
  }
  size_t n = ClampLimit(limit);
  Snapshot snapshot(t);
  // Create every table the pinned live view knows about (schemas are
  // immutable once created, so the live catalog is authoritative). Going
  // through a pinned Snapshot() keeps this safe against concurrent
  // writers.
  DatabaseView live = db_->Snapshot();
  for (const auto& name : live.TableNames()) {
    auto version = live.GetTable(name);
    if (!version.ok()) return version.status();
    auto added = snapshot.AddTable((*version)->schema());
    if (!added.ok()) return added.status();
  }
  for (size_t i = 0; i < n; ++i) {
    const ChangeEvent& event = events_.At(i);
    if (event.timestamp > t) continue;
    auto table = snapshot.GetTable(event.table);
    if (!table.ok()) return table.status();
    switch (event.op) {
      case ChangeEvent::Op::kInsert:
        AUDITDB_RETURN_IF_ERROR(
            (*table)->InsertWithTid(event.row.tid, event.row.values));
        break;
      case ChangeEvent::Op::kUpdate:
        AUDITDB_RETURN_IF_ERROR(
            (*table)->Update(event.row.tid, event.row.values));
        break;
      case ChangeEvent::Op::kDelete: {
        auto removed = (*table)->Delete(event.row.tid);
        if (!removed.ok()) return removed.status();
        break;
      }
    }
  }
  return snapshot;
}

Result<std::unique_ptr<Table>> Backlog::MaterializeBacklogTable(
    const std::string& table_name, size_t limit) const {
  if (db_ == nullptr) {
    return Status::Internal("backlog not attached to a database");
  }
  size_t n = ClampLimit(limit);
  DatabaseView live = db_->Snapshot();
  auto base = live.GetTable(table_name);
  if (!base.ok()) return base.status();

  std::vector<Column> columns = {{"op", ValueType::kString},
                                 {"ts", ValueType::kTimestamp},
                                 {"tid", ValueType::kInt}};
  for (const auto& col : (*base)->schema().columns()) {
    columns.push_back(col);
  }
  auto backlog_table = std::make_unique<Table>(
      TableSchema("b-" + table_name, std::move(columns)));
  for (size_t i = 0; i < n; ++i) {
    const ChangeEvent& event = events_.At(i);
    if (event.table != table_name) continue;
    const char* op = event.op == ChangeEvent::Op::kInsert   ? "insert"
                     : event.op == ChangeEvent::Op::kUpdate ? "update"
                                                            : "delete";
    std::vector<Value> row = {Value::String(op), Value::Time(event.timestamp),
                              Value::Int(event.row.tid)};
    row.insert(row.end(), event.row.values.begin(), event.row.values.end());
    auto inserted = backlog_table->Insert(std::move(row));
    if (!inserted.ok()) return inserted.status();
  }
  return backlog_table;
}

size_t Backlog::EventCountAt(Timestamp t, size_t limit) const {
  size_t n = ClampLimit(limit);
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (events_.At(i).timestamp <= t) ++count;
  }
  return count;
}

std::vector<Timestamp> Backlog::VersionTimestamps(const TimeInterval& interval,
                                                  size_t limit) const {
  size_t n = ClampLimit(limit);
  std::vector<Timestamp> stamps;
  stamps.push_back(interval.start);
  for (size_t i = 0; i < n; ++i) {
    const ChangeEvent& event = events_.At(i);
    if (event.timestamp > interval.start && event.timestamp <= interval.end) {
      stamps.push_back(event.timestamp);
    }
  }
  std::sort(stamps.begin(), stamps.end());
  stamps.erase(std::unique(stamps.begin(), stamps.end()), stamps.end());
  return stamps;
}

}  // namespace auditdb
