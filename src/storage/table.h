#ifndef AUDITDB_STORAGE_TABLE_H_
#define AUDITDB_STORAGE_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/catalog/schema.h"
#include "src/common/status.h"
#include "src/common/timestamp.h"
#include "src/types/column_vector.h"
#include "src/types/value.h"

namespace auditdb {

/// System tuple identifier. Unique within a table for the table's lifetime:
/// updates keep the tid (a new *version* of the same tuple), deletes retire
/// it. Printed as `t<N>` to match the paper's notation (t11, t24, ...).
using Tid = int64_t;

/// Renders a tid the way the paper writes them ("t12").
std::string TidToString(Tid tid);

/// One stored tuple: system tid + column values in schema order.
struct Row {
  Tid tid = 0;
  std::vector<Value> values;

  bool operator==(const Row& other) const {
    return tid == other.tid && values == other.values;
  }
};

/// A change to a base table, as captured by the storage triggers that feed
/// the backlog (the paper's b-<table> backlog tables).
struct ChangeEvent {
  enum class Op { kInsert, kUpdate, kDelete };

  std::string table;
  Op op = Op::kInsert;
  Timestamp timestamp;
  /// After-image for insert/update; before-image for delete.
  Row row;
};

/// tid -> position in the row store.
using TidIndex = std::map<Tid, size_t>;

/// Monotonic per-table counters of the MVCC machinery: how many versions
/// are pinned right now, how much copy-on-write actually copied, and how
/// the per-column derived structures behave. Shared between a Table and
/// all of its published TableVersions (a version may outlive its table),
/// and surfaced as the auditd "versions" metrics section.
struct TableStats {
  /// TableVersions currently alive (published and still referenced).
  std::atomic<int64_t> live_versions{0};
  /// Versions ever published (CurrentVersion() builds).
  std::atomic<uint64_t> versions_published{0};
  /// Rows copied because a mutation touched storage shared with a version.
  std::atomic<uint64_t> cow_rows{0};
  /// Estimated bytes those copies moved (row header + value slots).
  std::atomic<uint64_t> cow_bytes{0};
  /// Column vectors gathered for a columnar batch (one per column slot
  /// that had none yet), and column vectors a batch took already built:
  /// borrowed from an earlier version an update left the column
  /// unchanged in, or read again by a repeat Columnar() of one version.
  std::atomic<uint64_t> columnar_builds{0};
  std::atomic<uint64_t> columnar_hits{0};
  /// Join-key indexes built (one per column slot probed), and probes
  /// that found their column's index already built, by this version or
  /// by an earlier one it borrows the column from.
  std::atomic<uint64_t> join_index_builds{0};
  std::atomic<uint64_t> join_index_hits{0};
};

/// Segmented copy-on-write row storage. Rows live in fixed-size segments
/// held by shared_ptr; publishing a version shares the segment vector, and
/// a later mutation copies only the touched segment (plus, for stable
/// deletes, the tail it shifts). Invariant: every segment except the last
/// holds exactly kSegmentRows rows, so position p lives at
/// segment[p >> kSegmentBits][p & kSegmentMask]. Segments are small so
/// that an update under a pinned version copies about what it changed,
/// not the table (docs/architecture.md gives the measurement).
///
/// Read API mirrors std::vector<Row> (size / operator[] / iteration), so
/// scan loops are unchanged; only .data() pointer arithmetic is gone.
class RowStore {
 public:
  static constexpr size_t kSegmentBits = 5;
  static constexpr size_t kSegmentRows = size_t{1} << kSegmentBits;
  static constexpr size_t kSegmentMask = kSegmentRows - 1;

  RowStore() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const Row& operator[](size_t pos) const {
    return segments_[pos >> kSegmentBits]->rows[pos & kSegmentMask];
  }

  /// Forward iteration in position order (segment-walking).
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Row;
    using difference_type = ptrdiff_t;
    using pointer = const Row*;
    using reference = const Row&;

    const_iterator() = default;
    const_iterator(const RowStore* store, size_t pos)
        : store_(store), pos_(pos) {}

    const Row& operator*() const { return (*store_)[pos_]; }
    const Row* operator->() const { return &(*store_)[pos_]; }
    const_iterator& operator++() {
      ++pos_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator out = *this;
      ++pos_;
      return out;
    }
    bool operator==(const const_iterator& other) const {
      return pos_ == other.pos_;
    }
    bool operator!=(const const_iterator& other) const {
      return pos_ != other.pos_;
    }

   private:
    const RowStore* store_ = nullptr;
    size_t pos_ = 0;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

  /// --- Write side (Table only; externally serialized) ----------------

  /// Appends a row, copying the last segment first if it is shared.
  void PushBack(Row row);

  /// Mutable row at `pos`, copying the containing segment first if shared.
  Row& MutableAt(size_t pos);

  /// Stable (order-preserving) erase: shifts everything after `pos` left
  /// by one, copying every touched shared segment.
  void EraseStable(size_t pos);

  /// Accounting sink for COW copies (may be null).
  void SetStats(std::shared_ptr<TableStats> stats) {
    stats_ = std::move(stats);
  }

 private:
  struct Segment {
    std::vector<Row> rows;
  };

  /// Ensures segments_[index] is uniquely owned, copying (and charging
  /// the copy to stats_) when a published version still shares it.
  Segment* Owned(size_t index);
  void ChargeCopy(const Segment& segment);

  std::vector<std::shared_ptr<Segment>> segments_;
  size_t size_ = 0;
  std::shared_ptr<TableStats> stats_;
};

/// Equi-join index over one column of an immutable row set: every row's
/// (Value::Hash() of the key, position), sorted. A probe takes the hash
/// run of its key by binary search and confirms each entry with Value ==,
/// so it matches exactly the rows an unordered_map<Value, ...> would:
/// 0.0 and -0.0 meet (Hash() normalizes the sign), NaN meets nothing, and
/// every NULL key lands in one run (NULL == NULL under Value ==; the join
/// conjunct itself is what rejects those pairs). Positions within a key
/// come back ascending, i.e. in storage order. Flat on purpose: one
/// 16-byte entry per row costs far less than a node-based map.
///
/// The index keeps no pointer to the rows it was built from: versions
/// that share a column share its index, and the version that built it
/// may be gone. A probe confirms against the probing version's rows,
/// which hold the same key at every position.
class JoinKeyIndex {
 public:
  /// Indexes column `column` of `rows`.
  JoinKeyIndex(const RowStore& rows, size_t column);

  /// Calls `fn(position)` (returning Status) for every row of `rows`
  /// whose key equals `key` under Value ==, in ascending position order;
  /// stops at and returns the first error. `rows` must hold, in the
  /// indexed column, the cells the index was built from.
  template <typename Fn>
  Status ForEachMatch(const RowStore& rows, const Value& key, Fn&& fn) const {
    const size_t hash = key.Hash();
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), hash,
        [](const Entry& e, size_t h) { return e.hash < h; });
    for (; it != entries_.end() && it->hash == hash; ++it) {
      if (rows[it->position].values[column_] != key) continue;
      AUDITDB_RETURN_IF_ERROR(fn(static_cast<size_t>(it->position)));
    }
    return Status::Ok();
  }

 private:
  struct Entry {
    size_t hash;
    uint32_t position;
  };

  size_t column_;
  std::vector<Entry> entries_;
};

/// Lazily built derived data of a version, defined in table.cc: one
/// ColumnSlot per column (its ColumnVector, layout and JoinKeyIndex) and
/// one TidSlot (the tids in position order). A slot is shared by every
/// version whose rows agree with it: a TidSlot by versions no insert or
/// delete separates, a ColumnSlot by versions that, in addition, hold
/// bitwise the same cells in its column. Each structure in a slot is
/// built once, from the rows of whichever version asks first.
struct ColumnSlot;
struct TidSlot;

/// The slots a version reads its derived data from.
struct VersionSlots {
  std::shared_ptr<TidSlot> tids;
  std::vector<std::shared_ptr<ColumnSlot>> columns;
};

class TableVersion;

/// An in-memory heap table: the *write side* of the MVCC pair. Rows are
/// kept in insertion order inside copy-on-write segments; lookups by tid
/// go through a side index. Mutations produce ChangeEvents via the owning
/// Database's trigger hook and advance the table's epoch; readers pin an
/// immutable TableVersion (CurrentVersion()) and are never blocked or
/// invalidated by later writes.
///
/// Thread-safety contract: mutators and CurrentVersion() must be mutually
/// excluded by the caller (the Database's internal writer lock does this);
/// published TableVersions are immutable and safe to read from any thread.
class Table {
 public:
  explicit Table(TableSchema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  /// Not movable: readers hold shared state (versions, stats) handed out
  /// by this object, and a moved-from table would strand them against a
  /// hollow shell. Tables live behind unique_ptr everywhere.
  Table(Table&&) = delete;
  Table& operator=(Table&&) = delete;

  const TableSchema& schema() const { return *schema_; }
  const std::string& name() const { return schema_->name(); }

  /// Live rows in insertion order.
  const RowStore& rows() const { return rows_; }
  size_t size() const { return rows_.size(); }

  /// Inserts with an auto-assigned tid; returns the tid.
  Result<Tid> Insert(std::vector<Value> values);

  /// Inserts with a caller-chosen tid (used to mirror the paper's t11..t34
  /// numbering and to materialize snapshots). Fails if the tid is in use.
  Status InsertWithTid(Tid tid, std::vector<Value> values);

  /// Replaces the full row image of `tid` (a new version of the tuple).
  Status Update(Tid tid, std::vector<Value> values);

  /// Updates a single column of `tid`.
  Status UpdateColumn(Tid tid, const std::string& column, Value value);

  /// Removes the row; the before-image is returned for backlogging.
  Result<Row> Delete(Tid tid);

  /// Live row by tid, or NotFound.
  Result<const Row*> Get(Tid tid) const;

  bool Contains(Tid tid) const { return index_->count(tid) > 0; }

  /// Next tid the auto-assigner would use.
  Tid next_tid() const { return next_tid_; }
  /// Raises the auto-assign floor (after explicit-tid inserts).
  void ReserveTidsThrough(Tid tid);

  /// --- MVCC versions -------------------------------------------------
  /// The current immutable version: schema, rows, tid index and epoch,
  /// sharing this table's storage (no copying at publish time; a later
  /// mutation copies only what it touches). Published lazily and cached
  /// until the next mutation, so back-to-back snapshots of a quiet table
  /// pin the same version object (and its built-once columnar batch).
  /// The version also shares the derived-data slots of every column no
  /// mutation since the previous version changed (see VersionSlots).
  std::shared_ptr<const TableVersion> CurrentVersion() const;

  /// Monotonic version counter: bumped by every mutation with
  /// release ordering, so a reader that observed epoch E (acquire) sees
  /// all storage effects of the first E mutations. This is the per-table
  /// cache key the audit layers use.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// --- Columnar projection cache ------------------------------------
  /// The columnar batch of the current version (built once per version,
  /// never invalidated — a new version has its own batch, sharing the
  /// column vectors of unchanged columns). Readers keep their shared_ptr
  /// across later mutations.
  std::shared_ptr<const Batch> Columnar() const;

  /// Version/COW counters shared with every published version.
  const TableStats& stats() const { return *stats_; }

 private:
  Status CheckArity(const std::vector<Value>& values) const;
  /// Retires the cached current version before a mutation touches
  /// storage (lets an unpinned mutation work in place).
  void BeginWrite();
  /// Publishes the mutation by advancing the epoch (release).
  void BumpEpoch();
  /// Copy-on-write guard: makes the tid index uniquely owned before
  /// mutating it (published versions share it).
  TidIndex* OwnedIndex();
  /// Drops every derived-data slot: an insert or delete moved positions.
  void DropSlots();

  std::shared_ptr<const TableSchema> schema_;
  RowStore rows_;
  std::shared_ptr<TidIndex> index_;
  Tid next_tid_ = 1;

  std::shared_ptr<TableStats> stats_;
  std::atomic<uint64_t> epoch_{0};
  /// Cached current version; reset by every mutation, rebuilt on demand.
  mutable std::mutex version_mu_;
  mutable std::shared_ptr<const TableVersion> current_;
  /// Derived-data slots of the rows as they stand, handed to each
  /// published version. A mutation nulls the slots it invalidates and
  /// CurrentVersion() fills the gaps with fresh, empty ones. Holding
  /// slots rather than a version keeps the table from pinning row
  /// segments, which would turn its in-place writes into copies.
  mutable VersionSlots slots_;
};

/// An immutable snapshot of one table: the *read side* of the MVCC pair.
/// Shares the publishing table's row segments and tid index (cheap to
/// pin), carries the epoch it was published at, and reads its derived
/// data (columnar batch, layouts, join-key indexes) from slots it shares
/// with the neighbouring versions that agree with it (VersionSlots).
/// Immutable data never invalidates, so a built structure lives as long
/// as some version holding its slot. All members are safe to use from
/// any thread, concurrently with writes to the source table.
class TableVersion {
 public:
  /// Published by Table::CurrentVersion(); not for direct construction.
  /// Every slot in `slots` is non-null, with one column slot per column.
  TableVersion(std::shared_ptr<const TableSchema> schema, uint64_t epoch,
               RowStore rows, std::shared_ptr<const TidIndex> index,
               VersionSlots slots, std::shared_ptr<TableStats> stats);
  ~TableVersion();

  TableVersion(const TableVersion&) = delete;
  TableVersion& operator=(const TableVersion&) = delete;

  const TableSchema& schema() const { return *schema_; }
  const std::string& name() const { return schema_->name(); }
  uint64_t epoch() const { return epoch_; }

  /// Rows in insertion order, as of this version.
  const RowStore& rows() const { return rows_; }
  size_t size() const { return rows_.size(); }

  /// Row by tid, or NotFound.
  Result<const Row*> Get(Tid tid) const;
  bool Contains(Tid tid) const { return index_->count(tid) > 0; }
  /// Position of `tid` in rows(), or NotFound (replaces the pointer
  /// arithmetic scans used against contiguous storage).
  Result<size_t> GetPosition(Tid tid) const;

  /// Columnar projection of this version, assembled on first use from
  /// the column slots and shared by every scan of the version
  /// thereafter. Never invalidated: the version is immutable.
  std::shared_ptr<const Batch> Columnar() const;

  /// Join-key index over column `column` (< schema().num_columns()),
  /// built on first use of its slot and shared by every probe of every
  /// version holding the slot. Probe it with this version's rows().
  const JoinKeyIndex& JoinIndex(size_t column) const;

  /// Layout column `column` (< schema().num_columns()) has in
  /// Columnar(), found without building the batch: one pass over the
  /// column on first use of its slot, cached there thereafter.
  ColumnVector::Layout ColumnLayout(size_t column) const;

  /// Counters shared with the publishing table and its other versions.
  const TableStats& stats() const { return *stats_; }

 private:
  std::shared_ptr<const TableSchema> schema_;
  uint64_t epoch_ = 0;
  RowStore rows_;
  std::shared_ptr<const TidIndex> index_;
  VersionSlots slots_;
  std::shared_ptr<TableStats> stats_;

  mutable std::mutex columnar_mu_;
  mutable std::shared_ptr<const Batch> batch_;
};

}  // namespace auditdb

#endif  // AUDITDB_STORAGE_TABLE_H_
