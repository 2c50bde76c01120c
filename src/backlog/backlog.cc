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

namespace {

/// Applies one captured event to `snapshot` (the event's table must
/// exist there).
Status ApplyEvent(const ChangeEvent& event, Snapshot* snapshot) {
  auto table = snapshot->GetTable(event.table);
  if (!table.ok()) return table.status();
  switch (event.op) {
    case ChangeEvent::Op::kInsert:
      return (*table)->InsertWithTid(event.row.tid, event.row.values);
    case ChangeEvent::Op::kUpdate:
      return (*table)->Update(event.row.tid, event.row.values);
    case ChangeEvent::Op::kDelete:
      return (*table)->Delete(event.row.tid).status();
  }
  return Status::Ok();
}

}  // namespace

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
    AUDITDB_RETURN_IF_ERROR(ApplyEvent(event, &snapshot));
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

std::vector<Timestamp> Backlog::SortedEventTimestamps(size_t limit) const {
  size_t n = ClampLimit(limit);
  std::vector<Timestamp> stamps;
  stamps.reserve(n);
  for (size_t i = 0; i < n; ++i) stamps.push_back(events_.At(i).timestamp);
  std::sort(stamps.begin(), stamps.end());
  return stamps;
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

BacklogCursor::BacklogCursor(const Backlog& backlog, size_t limit)
    : backlog_(&backlog), limit_(std::min(limit, backlog.event_count())) {
  for (size_t i = 1; i < limit_ && monotone_; ++i) {
    monotone_ =
        backlog.EventAt(i - 1).timestamp <= backlog.EventAt(i).timestamp;
  }
}

Result<DatabaseView> BacklogCursor::ViewAt(Timestamp t) {
  if (!monotone_) {
    auto snapshot = backlog_->SnapshotAt(t, limit_);
    if (!snapshot.ok()) return snapshot.status();
    return snapshot->View();
  }
  if (snapshot_.has_value() && t < time_) snapshot_.reset();
  if (!snapshot_.has_value()) {
    // A zero-event replay: every table, empty (or the attach error).
    auto empty = backlog_->SnapshotAt(t, 0);
    if (!empty.ok()) return empty.status();
    snapshot_.emplace(std::move(*empty));
    next_ = 0;
  }
  // Monotone timestamps make {events <= t} a prefix of capture order.
  for (; next_ < limit_; ++next_) {
    const ChangeEvent& event = backlog_->EventAt(next_);
    if (event.timestamp > t) break;
    AUDITDB_RETURN_IF_ERROR(ApplyEvent(event, &*snapshot_));
  }
  time_ = t;
  return snapshot_->View();
}

}  // namespace auditdb
