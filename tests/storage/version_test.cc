#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <type_traits>

#include "src/storage/database.h"
#include "src/storage/table.h"

namespace auditdb {
namespace {

// Regression for the moved-from-table hazard: readers hold shared state
// handed out by a Table, so moving one would strand them against a
// hollow shell. The type must stay pinned behind unique_ptr.
static_assert(!std::is_move_constructible_v<Table>,
              "Table must not be move-constructible");
static_assert(!std::is_move_assignable_v<Table>,
              "Table must not be move-assignable");
static_assert(!std::is_copy_constructible_v<Table>,
              "Table must not be copyable");

TableSchema TwoColSchema() {
  return TableSchema("T",
                     {{"a", ValueType::kInt}, {"b", ValueType::kString}});
}

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

TEST(TableVersionTest, PinnedVersionIsImmutableUnderWrites) {
  Table table(TwoColSchema());
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::String("x")}).ok());
  ASSERT_TRUE(table.Insert({Value::Int(2), Value::String("y")}).ok());

  auto version = table.CurrentVersion();
  ASSERT_EQ(version->size(), 2u);

  // Every mutation kind, against storage the version shares.
  ASSERT_TRUE(table.Insert({Value::Int(3), Value::String("z")}).ok());
  ASSERT_TRUE(
      table.UpdateColumn(1, "b", Value::String("mutated")).ok());
  ASSERT_TRUE(table.Delete(2).ok());

  // The pin still reads the old world.
  EXPECT_EQ(version->size(), 2u);
  auto row = version->Get(1);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)->values[1], Value::String("x"));
  EXPECT_TRUE(version->Contains(2));
  EXPECT_FALSE(version->Contains(3));

  // The live table reads the new world.
  EXPECT_EQ(table.size(), 2u);
  auto live = table.Get(1);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ((*live)->values[1], Value::String("mutated"));
  EXPECT_FALSE(table.Contains(2));
  EXPECT_TRUE(table.Contains(3));
}

TEST(TableVersionTest, QuietTablePinsTheSameVersionObject) {
  Table table(TwoColSchema());
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::String("x")}).ok());
  auto a = table.CurrentVersion();
  auto b = table.CurrentVersion();
  EXPECT_EQ(a.get(), b.get());
  ASSERT_TRUE(table.Insert({Value::Int(2), Value::String("y")}).ok());
  auto c = table.CurrentVersion();
  EXPECT_NE(a.get(), c.get());
}

TEST(TableVersionTest, EpochAdvancesOncePerMutation) {
  Table table(TwoColSchema());
  const uint64_t e0 = table.epoch();
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::String("x")}).ok());
  EXPECT_EQ(table.epoch(), e0 + 1);
  ASSERT_TRUE(table.UpdateColumn(1, "a", Value::Int(9)).ok());
  EXPECT_EQ(table.epoch(), e0 + 2);
  ASSERT_TRUE(table.Delete(1).ok());
  EXPECT_EQ(table.epoch(), e0 + 3);
  // A failed mutation publishes nothing.
  EXPECT_FALSE(table.Delete(1).ok());
  EXPECT_EQ(table.epoch(), e0 + 3);
  // The version carries the epoch it was published at.
  EXPECT_EQ(table.CurrentVersion()->epoch(), e0 + 3);
}

TEST(TableVersionTest, CowChargesOnlyWhenStorageIsShared) {
  Table table(TwoColSchema());
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::String("x")}).ok());
  ASSERT_TRUE(table.UpdateColumn(1, "a", Value::Int(2)).ok());
  // No version pinned across those writes: in-place, nothing copied.
  EXPECT_EQ(table.stats().cow_rows.load(), 0u);

  auto pinned = table.CurrentVersion();
  ASSERT_TRUE(table.UpdateColumn(1, "a", Value::Int(3)).ok());
  // The touched segment was shared with the pin, so it was copied.
  EXPECT_GT(table.stats().cow_rows.load(), 0u);
  auto row = pinned->Get(1);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)->values[0], Value::Int(2));
}

TEST(TableVersionTest, ColumnarBatchIsBuiltOncePerVersion) {
  Table table(TwoColSchema());
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::String("x")}).ok());
  auto version = table.CurrentVersion();
  auto batch1 = version->Columnar();
  auto batch2 = version->Columnar();
  EXPECT_EQ(batch1.get(), batch2.get());
  // The counters count column vectors: one build per column.
  EXPECT_EQ(table.stats().columnar_builds.load(), 2u);
  EXPECT_GE(table.stats().columnar_hits.load(), 1u);

  // A write publishes a new version with its own (lazily built) batch;
  // the old batch stays valid for its pinners. An insert moves every
  // column, so both are built again.
  ASSERT_TRUE(table.Insert({Value::Int(2), Value::String("y")}).ok());
  auto batch3 = table.Columnar();
  EXPECT_NE(batch1.get(), batch3.get());
  EXPECT_EQ(table.stats().columnar_builds.load(), 4u);
  EXPECT_EQ(batch1->num_rows, 1u);
  EXPECT_EQ(batch3->num_rows, 2u);
}

TEST(TableVersionTest, JoinIndexIsBuiltOncePerVersionAndColumn) {
  Table table(TwoColSchema());
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::String("x")}).ok());
  auto version = table.CurrentVersion();
  const JoinKeyIndex* index = &version->JoinIndex(0);
  EXPECT_EQ(table.stats().join_index_builds.load(), 1u);
  EXPECT_EQ(table.stats().join_index_hits.load(), 0u);
  EXPECT_EQ(&version->JoinIndex(0), index);
  EXPECT_EQ(&table.CurrentVersion()->JoinIndex(0), index);
  EXPECT_EQ(table.stats().join_index_builds.load(), 1u);
  EXPECT_EQ(table.stats().join_index_hits.load(), 2u);

  // Another column is another index of the same version.
  version->JoinIndex(1);
  EXPECT_EQ(table.stats().join_index_builds.load(), 2u);

  // A write publishes a new version, which builds its own on first use.
  ASSERT_TRUE(table.Insert({Value::Int(2), Value::String("y")}).ok());
  EXPECT_NE(&table.CurrentVersion()->JoinIndex(0), index);
  EXPECT_EQ(table.stats().join_index_builds.load(), 3u);
  EXPECT_EQ(table.stats().join_index_hits.load(), 2u);
}

// An update keeps positions, so the next version borrows the derived
// data of every column it left unchanged and builds only the touched one.
TEST(TableVersionTest, UpdateColumnSharesUntouchedColumns) {
  Table table(TwoColSchema());
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::String("x")}).ok());
  ASSERT_TRUE(table.Insert({Value::Int(2), Value::String("y")}).ok());
  auto v0 = table.CurrentVersion();
  auto batch0 = v0->Columnar();
  const JoinKeyIndex* index0 = &v0->JoinIndex(0);

  ASSERT_TRUE(table.UpdateColumn(1, "b", Value::String("z")).ok());
  auto v1 = table.CurrentVersion();
  ASSERT_NE(v1.get(), v0.get());
  auto batch1 = v1->Columnar();
  EXPECT_EQ(batch1->columns[0].get(), batch0->columns[0].get());
  EXPECT_EQ(batch1->tids.get(), batch0->tids.get());
  EXPECT_EQ(&v1->JoinIndex(0), index0);
  EXPECT_NE(batch1->columns[1].get(), batch0->columns[1].get());
  EXPECT_EQ(batch1->column(1).ValueAt(0), Value::String("z"));
  EXPECT_EQ(batch0->column(1).ValueAt(0), Value::String("x"));
  // Two columns for v0, one for v1; one index build, one borrowed.
  EXPECT_EQ(table.stats().columnar_builds.load(), 3u);
  EXPECT_EQ(table.stats().join_index_builds.load(), 1u);
  EXPECT_EQ(table.stats().join_index_hits.load(), 1u);

  // The borrowed index answers for v1 against v1's rows, even once v0
  // (which built it) is gone.
  v0.reset();
  batch0.reset();
  std::vector<size_t> hits;
  ASSERT_TRUE(v1->JoinIndex(0)
                  .ForEachMatch(v1->rows(), Value::Int(2),
                                [&](size_t position) {
                                  hits.push_back(position);
                                  return Status::Ok();
                                })
                  .ok());
  EXPECT_EQ(hits, (std::vector<size_t>{1}));
}

// Slot identity is what the target view's skip test reads: an update to
// a column the view does not read leaves the tids and every read column
// shared, without building anything; an insert shares nothing.
TEST(TableVersionTest, UpdateToUnreadColumnKeepsReadSlotsShared) {
  Table table(TwoColSchema());
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::String("x")}).ok());
  ASSERT_TRUE(table.Insert({Value::Int(2), Value::String("y")}).ok());
  auto v0 = table.CurrentVersion();
  ASSERT_TRUE(table.UpdateColumn(2, "b", Value::String("z")).ok());
  auto v1 = table.CurrentVersion();
  ASSERT_NE(v1.get(), v0.get());
  EXPECT_TRUE(v1->SharesTids(*v0));
  EXPECT_TRUE(v1->SharesColumn(*v0, 0));
  EXPECT_FALSE(v1->SharesColumn(*v0, 1));
  EXPECT_EQ(table.stats().columnar_builds.load(), 0u);

  ASSERT_TRUE(table.Insert({Value::Int(3), Value::String("w")}).ok());
  auto v2 = table.CurrentVersion();
  EXPECT_FALSE(v2->SharesTids(*v1));
  EXPECT_FALSE(v2->SharesColumn(*v1, 0));
}

// "Unchanged" is bitwise: 0.0 == -0.0 under Value ==, but the batch
// stores the sign, so a sign flip is a touched column. Rewriting a cell
// with its own bits is not.
TEST(TableVersionTest, SignFlipTouchesTheColumn) {
  Table table(TableSchema("D", {{"k", ValueType::kInt},
                                {"x", ValueType::kDouble}}));
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::Double(0.0)}).ok());
  auto v0 = table.CurrentVersion();
  auto batch0 = v0->Columnar();

  ASSERT_TRUE(table.Update(1, {Value::Int(1), Value::Double(-0.0)}).ok());
  auto v1 = table.CurrentVersion();
  auto batch1 = v1->Columnar();
  EXPECT_EQ(batch1->columns[0].get(), batch0->columns[0].get());
  EXPECT_NE(batch1->columns[1].get(), batch0->columns[1].get());
  EXPECT_TRUE(std::signbit(batch1->column(1).doubles()[0]));
  EXPECT_FALSE(std::signbit(batch0->column(1).doubles()[0]));

  ASSERT_TRUE(table.Update(1, {Value::Int(1), Value::Double(-0.0)}).ok());
  auto v2 = table.CurrentVersion();
  ASSERT_NE(v2.get(), v1.get());
  EXPECT_EQ(v2->Columnar()->columns[1].get(), batch1->columns[1].get());
}

TEST(TableVersionTest, InsertRebuildsEveryColumn) {
  Table table(TwoColSchema());
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::String("x")}).ok());
  auto v0 = table.CurrentVersion();
  auto batch0 = v0->Columnar();
  const JoinKeyIndex* index0 = &v0->JoinIndex(0);

  ASSERT_TRUE(table.Insert({Value::Int(2), Value::String("y")}).ok());
  auto v1 = table.CurrentVersion();
  auto batch1 = v1->Columnar();
  EXPECT_NE(batch1->tids.get(), batch0->tids.get());
  for (size_t c = 0; c < 2; ++c) {
    EXPECT_NE(batch1->columns[c].get(), batch0->columns[c].get()) << c;
  }
  EXPECT_NE(&v1->JoinIndex(0), index0);
  EXPECT_EQ(table.stats().columnar_builds.load(), 4u);
  EXPECT_EQ(table.stats().join_index_builds.load(), 2u);
}

// Copy-on-write copies one segment, not the table.
TEST(TableVersionTest, PinnedUpdateCopiesAtMostOneSegment) {
  Table table(TwoColSchema());
  const size_t n = 3 * RowStore::kSegmentRows + 7;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(
        table.Insert({Value::Int(static_cast<int64_t>(i)), Value::String("r")})
            .ok());
  }
  auto pinned = table.CurrentVersion();
  ASSERT_EQ(table.stats().cow_rows.load(), 0u);
  ASSERT_TRUE(table.UpdateColumn(static_cast<Tid>(n / 2), "a",
                                 Value::Int(-1))
                  .ok());
  EXPECT_GT(table.stats().cow_rows.load(), 0u);
  EXPECT_LE(table.stats().cow_rows.load(), RowStore::kSegmentRows);
}

// The planner reads a key column's layout without building the batch;
// it must be the layout the batch would give, whatever the declared type.
TEST(TableVersionTest, ColumnLayoutMatchesTheColumnarBatch) {
  Table table(TwoColSchema());
  auto expect_match = [&]() {
    auto version = table.CurrentVersion();
    auto batch = version->Columnar();
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(version->ColumnLayout(c), batch->column(c).layout()) << c;
    }
  };
  expect_match();  // empty: generic
  ASSERT_TRUE(table.Insert({Value::Null(), Value::String("x")}).ok());
  expect_match();  // all-NULL column: generic
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::String("y")}).ok());
  expect_match();
  EXPECT_EQ(table.CurrentVersion()->ColumnLayout(0),
            ColumnVector::Layout::kInt64);
  ASSERT_TRUE(table.Insert({Value::Double(2.0), Value::Int(3)}).ok());
  expect_match();  // mixed: generic
  EXPECT_EQ(table.CurrentVersion()->ColumnLayout(1),
            ColumnVector::Layout::kGeneric);
}

TEST(TableVersionTest, GetPositionResolvesTidsWithinTheVersion) {
  Table table(TwoColSchema());
  ASSERT_TRUE(table.InsertWithTid(11, {Value::Int(1), Value::String("x")})
                  .ok());
  ASSERT_TRUE(table.InsertWithTid(12, {Value::Int(2), Value::String("y")})
                  .ok());
  auto version = table.CurrentVersion();
  auto pos = version->GetPosition(12);
  ASSERT_TRUE(pos.ok());
  EXPECT_EQ(*pos, 1u);
  EXPECT_EQ(version->rows()[*pos].tid, 12);
  EXPECT_FALSE(version->GetPosition(99).ok());
}

TEST(TableVersionTest, LiveVersionAccountingTracksPins) {
  Table table(TwoColSchema());
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::String("x")}).ok());
  {
    auto v1 = table.CurrentVersion();
    ASSERT_TRUE(table.Insert({Value::Int(2), Value::String("y")}).ok());
    auto v2 = table.CurrentVersion();
    EXPECT_EQ(table.stats().live_versions.load(), 2);
    EXPECT_EQ(table.stats().versions_published.load(), 2u);
  }
  // Pins released (the table's own cache may keep the newest alive).
  EXPECT_LE(table.stats().live_versions.load(), 1);
}

TEST(DatabaseSnapshotTest, SnapshotIsAConsistentMultiTableCut) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema(
                                 "A", {{"x", ValueType::kInt}}))
                  .ok());
  ASSERT_TRUE(db.CreateTable(TableSchema(
                                 "B", {{"y", ValueType::kInt}}))
                  .ok());
  ASSERT_TRUE(db.Insert("A", {Value::Int(1)}, Ts(1)).ok());

  DatabaseView snap = db.Snapshot();
  ASSERT_TRUE(db.Insert("A", {Value::Int(2)}, Ts(2)).ok());
  ASSERT_TRUE(db.Insert("B", {Value::Int(3)}, Ts(2)).ok());

  auto a = snap.GetTable("A");
  auto b = snap.GetTable("B");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*a)->size(), 1u);
  EXPECT_EQ((*b)->size(), 0u);
  // A fresh snapshot sees both writes.
  DatabaseView now = db.Snapshot();
  EXPECT_EQ((*now.GetTable("A"))->size(), 2u);
  EXPECT_EQ((*now.GetTable("B"))->size(), 1u);
}

TEST(DatabaseSnapshotTest, EpochFingerprintIsPerTable) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema(
                                 "A", {{"x", ValueType::kInt}}))
                  .ok());
  ASSERT_TRUE(db.CreateTable(TableSchema(
                                 "B", {{"y", ValueType::kInt}}))
                  .ok());
  DatabaseView v1 = db.Snapshot();
  ASSERT_TRUE(db.Insert("B", {Value::Int(1)}, Ts(1)).ok());
  DatabaseView v2 = db.Snapshot();

  // A write to B changes fingerprints that read B, not those that only
  // read A — this is exactly what keeps caches hot across unrelated
  // writes.
  EXPECT_EQ(v1.EpochFingerprint({"A"}), v2.EpochFingerprint({"A"}));
  EXPECT_NE(v1.EpochFingerprint({"B"}), v2.EpochFingerprint({"B"}));
  EXPECT_NE(v1.EpochFingerprint({"A", "B"}),
            v2.EpochFingerprint({"A", "B"}));
  // Order-independent; absent tables hash as absent, not as epoch 0.
  EXPECT_EQ(v1.EpochFingerprint({"A", "B"}),
            v1.EpochFingerprint({"B", "A"}));
  EXPECT_NE(v1.EpochFingerprint({"A", "missing"}),
            v1.EpochFingerprint({"A"}));
}

TEST(DatabaseSnapshotTest, CatalogEpochTracksSchemaNotRows) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema(
                                 "A", {{"x", ValueType::kInt}}))
                  .ok());
  const uint64_t schema_epoch = db.catalog_epoch();
  ASSERT_TRUE(db.Insert("A", {Value::Int(1)}, Ts(1)).ok());
  EXPECT_EQ(db.catalog_epoch(), schema_epoch);
  ASSERT_TRUE(db.CreateTable(TableSchema(
                                 "B", {{"y", ValueType::kInt}}))
                  .ok());
  EXPECT_GT(db.catalog_epoch(), schema_epoch);
}

}  // namespace
}  // namespace auditdb
