#include "src/storage/table.h"

#include <algorithm>
#include <cstring>

namespace auditdb {

std::string TidToString(Tid tid) { return "t" + std::to_string(tid); }

// ---------------------------------------------------------------------------
// RowStore

void RowStore::ChargeCopy(const Segment& segment) {
  if (!stats_) return;
  uint64_t bytes = 0;
  for (const Row& row : segment.rows) {
    bytes += sizeof(Row) + row.values.size() * sizeof(Value);
  }
  stats_->cow_rows.fetch_add(segment.rows.size(), std::memory_order_relaxed);
  stats_->cow_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

RowStore::Segment* RowStore::Owned(size_t index) {
  std::shared_ptr<Segment>& slot = segments_[index];
  // use_count() > 1 means a published TableVersion still shares this
  // segment. Safe as a discriminator: mutators are serialized against
  // version publishing by the Database writer lock, and a version that
  // pinned the segment keeps the count above 1 for as long as it is alive
  // (a concurrent reader-side release can at worst leave the count
  // transiently high, causing a harmless extra copy).
  if (slot.use_count() > 1) {
    auto copy = std::make_shared<Segment>();
    copy->rows.reserve(kSegmentRows);
    copy->rows.insert(copy->rows.end(), slot->rows.begin(), slot->rows.end());
    ChargeCopy(*copy);
    slot = std::move(copy);
  }
  return slot.get();
}

void RowStore::PushBack(Row row) {
  size_t seg_index = size_ >> kSegmentBits;
  if (seg_index == segments_.size()) {
    auto segment = std::make_shared<Segment>();
    segment->rows.reserve(kSegmentRows);
    segments_.push_back(std::move(segment));
  }
  Owned(seg_index)->rows.push_back(std::move(row));
  ++size_;
}

Row& RowStore::MutableAt(size_t pos) {
  return Owned(pos >> kSegmentBits)->rows[pos & kSegmentMask];
}

void RowStore::EraseStable(size_t pos) {
  for (size_t p = pos; p + 1 < size_; ++p) {
    MutableAt(p) = std::move(MutableAt(p + 1));
  }
  Segment* last = Owned((size_ - 1) >> kSegmentBits);
  last->rows.pop_back();
  --size_;
  if (last->rows.empty()) segments_.pop_back();
}

// ---------------------------------------------------------------------------
// JoinKeyIndex

JoinKeyIndex::JoinKeyIndex(const RowStore& rows, size_t column)
    : column_(column) {
  entries_.reserve(rows.size());
  for (size_t p = 0; p < rows.size(); ++p) {
    entries_.push_back({rows[p].values[column].Hash(),
                        static_cast<uint32_t>(p)});
  }
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              return a.hash != b.hash ? a.hash < b.hash
                                      : a.position < b.position;
            });
}

// ---------------------------------------------------------------------------
// Derived-data slots (shared by the versions that agree with them)

struct ColumnSlot {
  std::mutex mu;
  std::shared_ptr<const ColumnVector> vector;
  std::optional<ColumnVector::Layout> layout;
  std::unique_ptr<const JoinKeyIndex> join_index;
};

struct TidSlot {
  std::mutex mu;
  std::shared_ptr<const std::vector<int64_t>> tids;
};

namespace {

/// Whether two cells are interchangeable for every derived structure:
/// the same alternative holding the same bits. Value == is too coarse
/// (0.0 == -0.0, yet the columnar batch stores the sign bit).
bool SameCell(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() != ValueType::kDouble) return a == b;
  const double x = a.double_value();
  const double y = b.double_value();
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Table (write side)

Table::Table(TableSchema schema)
    : schema_(std::make_shared<const TableSchema>(std::move(schema))),
      index_(std::make_shared<TidIndex>()),
      stats_(std::make_shared<TableStats>()) {
  rows_.SetStats(stats_);
  slots_.columns.resize(schema_->num_columns());
}

Status Table::CheckArity(const std::vector<Value>& values) const {
  if (values.size() != schema_->num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(values.size()) + " does not match " +
        schema_->name() + " schema arity " +
        std::to_string(schema_->num_columns()));
  }
  return Status::Ok();
}

void Table::BeginWrite() {
  // Retire the cached current version before touching storage: if no
  // audit pinned it, this drops the version's shared handles and the
  // mutation below can work in place instead of copying.
  std::lock_guard<std::mutex> lock(version_mu_);
  current_.reset();
}

void Table::BumpEpoch() {
  // Release pairs with the acquire in epoch(): a reader that observed
  // epoch E sees the storage effects of the first E mutations.
  epoch_.fetch_add(1, std::memory_order_release);
}

TidIndex* Table::OwnedIndex() {
  if (index_.use_count() > 1) {
    index_ = std::make_shared<TidIndex>(*index_);
  }
  return index_.get();
}

void Table::DropSlots() {
  slots_.tids.reset();
  for (auto& slot : slots_.columns) slot.reset();
}

std::shared_ptr<const TableVersion> Table::CurrentVersion() const {
  std::lock_guard<std::mutex> lock(version_mu_);
  if (!current_) {
    stats_->versions_published.fetch_add(1, std::memory_order_relaxed);
    if (!slots_.tids) slots_.tids = std::make_shared<TidSlot>();
    for (auto& slot : slots_.columns) {
      if (!slot) slot = std::make_shared<ColumnSlot>();
    }
    current_ = std::make_shared<const TableVersion>(
        schema_, epoch_.load(std::memory_order_acquire), rows_, index_,
        slots_, stats_);
  }
  return current_;
}

std::shared_ptr<const Batch> Table::Columnar() const {
  return CurrentVersion()->Columnar();
}

Result<Tid> Table::Insert(std::vector<Value> values) {
  AUDITDB_RETURN_IF_ERROR(CheckArity(values));
  BeginWrite();
  DropSlots();
  Tid tid = next_tid_++;
  (*OwnedIndex())[tid] = rows_.size();
  rows_.PushBack(Row{tid, std::move(values)});
  BumpEpoch();
  return tid;
}

Status Table::InsertWithTid(Tid tid, std::vector<Value> values) {
  AUDITDB_RETURN_IF_ERROR(CheckArity(values));
  if (index_->count(tid) > 0) {
    return Status::AlreadyExists("tid " + TidToString(tid) +
                                 " already present in " + schema_->name());
  }
  BeginWrite();
  DropSlots();
  (*OwnedIndex())[tid] = rows_.size();
  rows_.PushBack(Row{tid, std::move(values)});
  if (tid >= next_tid_) next_tid_ = tid + 1;
  BumpEpoch();
  return Status::Ok();
}

Status Table::Update(Tid tid, std::vector<Value> values) {
  AUDITDB_RETURN_IF_ERROR(CheckArity(values));
  auto it = index_->find(tid);
  if (it == index_->end()) {
    return Status::NotFound("no tid " + TidToString(tid) + " in " +
                            schema_->name());
  }
  size_t pos = it->second;
  BeginWrite();
  // Positions stay put, so only the columns whose cell changes lose
  // their slots; an update that changes nothing copies nothing.
  const std::vector<Value>& old_values = rows_[pos].values;
  bool changed = false;
  for (size_t c = 0; c < values.size(); ++c) {
    if (SameCell(old_values[c], values[c])) continue;
    slots_.columns[c].reset();
    changed = true;
  }
  if (changed) rows_.MutableAt(pos).values = std::move(values);
  BumpEpoch();
  return Status::Ok();
}

Status Table::UpdateColumn(Tid tid, const std::string& column, Value value) {
  auto col = schema_->FindColumn(column);
  if (!col.has_value()) {
    return Status::NotFound("no column '" + column + "' in " +
                            schema_->name());
  }
  auto it = index_->find(tid);
  if (it == index_->end()) {
    return Status::NotFound("no tid " + TidToString(tid) + " in " +
                            schema_->name());
  }
  size_t pos = it->second;
  BeginWrite();
  if (!SameCell(rows_[pos].values[*col], value)) {
    slots_.columns[*col].reset();
    rows_.MutableAt(pos).values[*col] = std::move(value);
  }
  BumpEpoch();
  return Status::Ok();
}

Result<Row> Table::Delete(Tid tid) {
  auto it = index_->find(tid);
  if (it == index_->end()) {
    return Status::NotFound("no tid " + TidToString(tid) + " in " +
                            schema_->name());
  }
  size_t pos = it->second;
  BeginWrite();
  DropSlots();
  Row before = std::move(rows_.MutableAt(pos));
  // Stable removal: keeps insertion order deterministic (result sets and
  // granule listings are order-sensitive in tests and paper artifacts).
  rows_.EraseStable(pos);
  TidIndex* index = OwnedIndex();
  index->erase(tid);
  for (auto& [t, p] : *index) {
    if (p > pos) --p;
  }
  BumpEpoch();
  return before;
}

Result<const Row*> Table::Get(Tid tid) const {
  auto it = index_->find(tid);
  if (it == index_->end()) {
    return Status::NotFound("no tid " + TidToString(tid) + " in " +
                            schema_->name());
  }
  return &rows_[it->second];
}

void Table::ReserveTidsThrough(Tid tid) {
  if (tid >= next_tid_) next_tid_ = tid + 1;
}

// ---------------------------------------------------------------------------
// TableVersion (read side)

TableVersion::TableVersion(std::shared_ptr<const TableSchema> schema,
                           uint64_t epoch, RowStore rows,
                           std::shared_ptr<const TidIndex> index,
                           VersionSlots slots,
                           std::shared_ptr<TableStats> stats)
    : schema_(std::move(schema)),
      epoch_(epoch),
      rows_(std::move(rows)),
      index_(std::move(index)),
      slots_(std::move(slots)),
      stats_(std::move(stats)) {
  stats_->live_versions.fetch_add(1, std::memory_order_relaxed);
}

TableVersion::~TableVersion() {
  stats_->live_versions.fetch_sub(1, std::memory_order_relaxed);
}

Result<const Row*> TableVersion::Get(Tid tid) const {
  auto it = index_->find(tid);
  if (it == index_->end()) {
    return Status::NotFound("no tid " + TidToString(tid) + " in " +
                            schema_->name());
  }
  return &rows_[it->second];
}

Result<size_t> TableVersion::GetPosition(Tid tid) const {
  auto it = index_->find(tid);
  if (it == index_->end()) {
    return Status::NotFound("no tid " + TidToString(tid) + " in " +
                            schema_->name());
  }
  return it->second;
}

std::shared_ptr<const Batch> TableVersion::Columnar() const {
  std::lock_guard<std::mutex> lock(columnar_mu_);
  const size_t num_columns = slots_.columns.size();
  if (batch_) {
    stats_->columnar_hits.fetch_add(num_columns, std::memory_order_relaxed);
    return batch_;
  }
  auto batch = std::make_shared<Batch>();
  batch->num_rows = rows_.size();
  {
    TidSlot& slot = *slots_.tids;
    std::lock_guard<std::mutex> slot_lock(slot.mu);
    if (!slot.tids) {
      auto tids = std::make_shared<std::vector<int64_t>>();
      tids->reserve(rows_.size());
      for (const Row& row : rows_) tids->push_back(row.tid);
      slot.tids = std::move(tids);
    }
    batch->tids = slot.tids;
  }
  batch->columns.reserve(num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    ColumnSlot& slot = *slots_.columns[c];
    std::lock_guard<std::mutex> slot_lock(slot.mu);
    if (slot.vector) {
      stats_->columnar_hits.fetch_add(1, std::memory_order_relaxed);
    } else {
      slot.vector = std::make_shared<const ColumnVector>(ColumnVector::Gather(
          rows_.size(),
          [&](size_t i) -> const Value& { return rows_[i].values[c]; }));
      stats_->columnar_builds.fetch_add(1, std::memory_order_relaxed);
    }
    batch->columns.push_back(slot.vector);
  }
  batch_ = std::move(batch);
  return batch_;
}

ColumnVector::Layout TableVersion::ColumnLayout(size_t column) const {
  ColumnSlot& slot = *slots_.columns[column];
  std::lock_guard<std::mutex> lock(slot.mu);
  if (!slot.layout) {
    slot.layout = ColumnVector::LayoutOf(
        rows_.size(),
        [&](size_t i) -> const Value& { return rows_[i].values[column]; });
  }
  return *slot.layout;
}

const JoinKeyIndex& TableVersion::JoinIndex(size_t column) const {
  ColumnSlot& slot = *slots_.columns[column];
  std::lock_guard<std::mutex> lock(slot.mu);
  if (slot.join_index) {
    stats_->join_index_hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    slot.join_index = std::make_unique<const JoinKeyIndex>(rows_, column);
    stats_->join_index_builds.fetch_add(1, std::memory_order_relaxed);
  }
  return *slot.join_index;
}

}  // namespace auditdb
