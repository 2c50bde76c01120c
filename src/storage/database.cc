#include "src/storage/database.h"

#include <algorithm>
#include <mutex>

#include "src/common/hashing.h"

namespace auditdb {

void DatabaseView::AddTable(std::shared_ptr<const TableVersion> version) {
  const std::string& name = version->name();
  // Duplicate registration of the same schema is an internal error surfaced
  // by AddTable's status; views are built by trusted code, so drop it.
  catalog_.AddTable(version->schema());
  tables_[name] = std::move(version);
}

void DatabaseView::AddTable(const Table* table) {
  AddTable(table->CurrentVersion());
}

Result<const TableVersion*> DatabaseView::GetTable(
    const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no such table in view: " + name);
  }
  return it->second.get();
}

std::vector<std::string> DatabaseView::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

uint64_t DatabaseView::EpochFingerprint(
    const std::vector<std::string>& tables) const {
  std::vector<std::string> sorted(tables);
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  uint64_t h = 0x9d3f'70a2'4c81'e5b7ULL;
  h = HashCombine(h, catalog_epoch_);
  std::hash<std::string> name_hash;
  for (const std::string& name : sorted) {
    h = HashCombine(h, name_hash(name));
    auto it = tables_.find(name);
    // Absent tables hash distinctly from any epoch, so views that
    // disagree about a table's existence never share a fingerprint.
    h = HashCombine(h, it == tables_.end() ? 0xdeadULL
                                           : it->second->epoch() + 1);
  }
  return h;
}

Status Database::CreateTable(TableSchema schema) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (tables_.count(schema.name()) > 0) {
    return Status::AlreadyExists("table already exists: " + schema.name());
  }
  AUDITDB_RETURN_IF_ERROR(catalog_.AddTable(schema));
  std::string name = schema.name();
  tables_.emplace(name, std::make_unique<Table>(std::move(schema)));
  // Schema changes move the state key of catalog-dependent cached
  // decisions, even though no row trigger fires.
  catalog_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return Status::Ok();
}

Result<Table*> Database::FindTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + name);
  }
  return it->second.get();
}

Result<Table*> Database::GetTable(const std::string& name) {
  return FindTable(name);
}

Result<const Table*> Database::GetTable(const std::string& name) const {
  auto t = FindTable(name);
  if (!t.ok()) return t.status();
  return const_cast<const Table*>(*t);
}

bool Database::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

void Database::AddChangeListener(ChangeListener listener) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  listeners_.push_back(std::move(listener));
}

void Database::Emit(const ChangeEvent& event) {
  for (const auto& listener : listeners_) listener(event);
}

Result<Tid> Database::Insert(const std::string& table,
                             std::vector<Value> values, Timestamp ts) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto t = FindTable(table);
  if (!t.ok()) return t.status();
  auto tid = (*t)->Insert(values);
  if (!tid.ok()) return tid.status();
  Emit(ChangeEvent{table, ChangeEvent::Op::kInsert, ts,
                   Row{*tid, std::move(values)}});
  return *tid;
}

Status Database::InsertWithTid(const std::string& table, Tid tid,
                               std::vector<Value> values, Timestamp ts) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto t = FindTable(table);
  if (!t.ok()) return t.status();
  AUDITDB_RETURN_IF_ERROR((*t)->InsertWithTid(tid, values));
  Emit(ChangeEvent{table, ChangeEvent::Op::kInsert, ts,
                   Row{tid, std::move(values)}});
  return Status::Ok();
}

Status Database::Update(const std::string& table, Tid tid,
                        std::vector<Value> values, Timestamp ts) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto t = FindTable(table);
  if (!t.ok()) return t.status();
  AUDITDB_RETURN_IF_ERROR((*t)->Update(tid, values));
  Emit(ChangeEvent{table, ChangeEvent::Op::kUpdate, ts,
                   Row{tid, std::move(values)}});
  return Status::Ok();
}

Status Database::UpdateColumn(const std::string& table, Tid tid,
                              const std::string& column, Value value,
                              Timestamp ts) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto t = FindTable(table);
  if (!t.ok()) return t.status();
  AUDITDB_RETURN_IF_ERROR((*t)->UpdateColumn(tid, column, std::move(value)));
  auto row = (*t)->Get(tid);
  if (!row.ok()) return row.status();
  Emit(ChangeEvent{table, ChangeEvent::Op::kUpdate, ts, **row});
  return Status::Ok();
}

Status Database::Delete(const std::string& table, Tid tid, Timestamp ts) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto t = FindTable(table);
  if (!t.ok()) return t.status();
  auto before = (*t)->Delete(tid);
  if (!before.ok()) return before.status();
  Emit(ChangeEvent{table, ChangeEvent::Op::kDelete, ts, std::move(*before)});
  return Status::Ok();
}

DatabaseView Database::Snapshot() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  DatabaseView view;
  for (const auto& [name, table] : tables_) {
    view.AddTable(table->CurrentVersion());
  }
  view.set_catalog_epoch(catalog_epoch_.load(std::memory_order_acquire));
  return view;
}

}  // namespace auditdb
