#ifndef AUDITDB_STORAGE_DATABASE_H_
#define AUDITDB_STORAGE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/common/status.h"
#include "src/common/timestamp.h"
#include "src/storage/table.h"

namespace auditdb {

/// A read-only, *pinned* view over a set of table versions (the current
/// database or a reconstructed historical snapshot). Queries and audit
/// target views are always evaluated against a DatabaseView, so the engine
/// is agnostic to whether it reads live or time-traveled data.
///
/// The view holds shared ownership of each TableVersion: once built it is
/// a consistent snapshot that later writes can neither change nor
/// invalidate, and it is safe to read from any thread for as long as the
/// view (or a copy of it) is alive.
class DatabaseView {
 public:
  DatabaseView() = default;

  /// Registers a pinned version in the view.
  void AddTable(std::shared_ptr<const TableVersion> version);
  /// Convenience: pins `table`'s current version. The caller must ensure
  /// no mutator runs concurrently with this call (Database::Snapshot()
  /// does; tests and snapshot replay are single-writer by construction).
  void AddTable(const Table* table);

  Result<const TableVersion*> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const {
    return tables_.count(name) > 0;
  }
  std::vector<std::string> TableNames() const;

  /// Catalog over the viewed tables (for column resolution / typing).
  const Catalog& catalog() const { return catalog_; }

  /// Schema-generation counter of the database this view was taken from
  /// (0 for hand-built / snapshot views). Cache keys for purely static
  /// decisions depend only on this, not on row epochs.
  uint64_t catalog_epoch() const { return catalog_epoch_; }
  void set_catalog_epoch(uint64_t epoch) { catalog_epoch_ = epoch; }

  /// Order-independent fingerprint of the version epochs of `tables`
  /// (plus the catalog epoch). Two views agree on the fingerprint iff
  /// every named table is at the same version in both — the cache key for
  /// decisions that read those tables' data. Unknown names hash as
  /// "absent", so a view that lacks a table disagrees with one that has
  /// it.
  uint64_t EpochFingerprint(const std::vector<std::string>& tables) const;

 private:
  std::map<std::string, std::shared_ptr<const TableVersion>> tables_;
  Catalog catalog_;
  uint64_t catalog_epoch_ = 0;
};

/// The primary store: named tables plus the trigger hook that streams every
/// mutation (insert/update/delete with timestamps) to listeners — the
/// mechanism the paper relies on to maintain backlog tables for
/// point-in-time audit analysis.
///
/// Concurrency: mutators serialize on an internal writer lock and fire
/// listeners while holding it (listeners must not re-enter the Database).
/// Snapshot() takes the lock briefly in shared mode to pin every table's
/// current version; readers then work entirely against the returned view,
/// off-lock — writes never wait on an audit and audits never see a torn
/// state.
class Database {
 public:
  using ChangeListener = std::function<void(const ChangeEvent&)>;

  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Status CreateTable(TableSchema schema);
  Result<Table*> GetTable(const std::string& name);
  Result<const Table*> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  /// Catalog of live schemas. Callers must not race this against
  /// CreateTable; concurrent audit paths use the catalog of a pinned
  /// Snapshot() instead.
  const Catalog& catalog() const { return catalog_; }

  /// Registers a trigger listener; fired synchronously on every mutation,
  /// under the writer lock.
  void AddChangeListener(ChangeListener listener);

  /// Timestamped mutations (these fire triggers; mutating a Table directly
  /// would bypass the backlog, so callers should always go through these).
  Result<Tid> Insert(const std::string& table, std::vector<Value> values,
                     Timestamp ts);
  Status InsertWithTid(const std::string& table, Tid tid,
                       std::vector<Value> values, Timestamp ts);
  Status Update(const std::string& table, Tid tid, std::vector<Value> values,
                Timestamp ts);
  Status UpdateColumn(const std::string& table, Tid tid,
                      const std::string& column, Value value, Timestamp ts);
  Status Delete(const std::string& table, Tid tid, Timestamp ts);

  /// Pins a consistent multi-table snapshot of the current state. Cheap:
  /// shares row segments with the live tables (copy-on-write), builds
  /// nothing up front.
  DatabaseView Snapshot() const;

  /// Legacy name for Snapshot(): every read path now receives a pinned,
  /// immutable view.
  DatabaseView View() const { return Snapshot(); }

  /// Schema-generation counter: bumped by CreateTable only.
  uint64_t catalog_epoch() const {
    return catalog_epoch_.load(std::memory_order_acquire);
  }

 private:
  void Emit(const ChangeEvent& event);
  /// Lookup without taking mu_ (callers hold it or are setup-phase).
  Result<Table*> FindTable(const std::string& name) const;

  /// Writer lock: exclusive for mutations (table write + trigger fan-out
  /// + version retirement), shared for Snapshot()'s brief version pinning.
  mutable std::shared_mutex mu_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
  Catalog catalog_;
  std::vector<ChangeListener> listeners_;
  std::atomic<uint64_t> catalog_epoch_{0};
};

}  // namespace auditdb

#endif  // AUDITDB_STORAGE_DATABASE_H_
