#include "src/backlog/backlog.h"

#include <gtest/gtest.h>

#include "src/engine/executor.h"

namespace auditdb {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

TableSchema TSchema() {
  return TableSchema("T",
                     {{"a", ValueType::kInt}, {"b", ValueType::kString}});
}

class BacklogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    backlog_.Attach(&db_);
    ASSERT_TRUE(db_.CreateTable(TSchema()).ok());
  }

  /// Value of column a for tid at snapshot time t (or nullopt if absent).
  std::optional<int64_t> ValueAt(Timestamp t, Tid tid) {
    auto snapshot = backlog_.SnapshotAt(t);
    EXPECT_TRUE(snapshot.ok());
    auto table = snapshot->GetTable("T");
    EXPECT_TRUE(table.ok());
    auto row = (*table)->Get(tid);
    if (!row.ok()) return std::nullopt;
    return (*row)->values[0].int_value();
  }

  Database db_;
  Backlog backlog_;
};

TEST_F(BacklogTest, CapturesEventsInOrder) {
  auto tid = db_.Insert("T", {Value::Int(1), Value::String("x")}, Ts(10));
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE(
      db_.Update("T", *tid, {Value::Int(2), Value::String("x")}, Ts(20))
          .ok());
  ASSERT_TRUE(db_.Delete("T", *tid, Ts(30)).ok());
  ASSERT_EQ(backlog_.event_count(), 3u);
  EXPECT_EQ(backlog_.EventAt(0).op, ChangeEvent::Op::kInsert);
  EXPECT_EQ(backlog_.EventAt(1).op, ChangeEvent::Op::kUpdate);
  EXPECT_EQ(backlog_.EventAt(2).op, ChangeEvent::Op::kDelete);
  EXPECT_EQ(backlog_.EventsForTable("T").size(), 3u);
  EXPECT_TRUE(backlog_.EventsForTable("U").empty());
}

TEST_F(BacklogTest, SnapshotReconstructsPastStates) {
  auto tid = db_.Insert("T", {Value::Int(1), Value::String("x")}, Ts(10));
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE(
      db_.Update("T", *tid, {Value::Int(2), Value::String("x")}, Ts(20))
          .ok());
  ASSERT_TRUE(db_.Delete("T", *tid, Ts(30)).ok());

  EXPECT_EQ(ValueAt(Ts(5), *tid), std::nullopt);   // before insert
  EXPECT_EQ(ValueAt(Ts(10), *tid), 1);             // at insert
  EXPECT_EQ(ValueAt(Ts(15), *tid), 1);             // between
  EXPECT_EQ(ValueAt(Ts(20), *tid), 2);             // at update
  EXPECT_EQ(ValueAt(Ts(25), *tid), 2);
  EXPECT_EQ(ValueAt(Ts(30), *tid), std::nullopt);  // deleted
  EXPECT_EQ(ValueAt(Ts(100), *tid), std::nullopt);
}

TEST_F(BacklogTest, SnapshotPreservesTids) {
  ASSERT_TRUE(
      db_.InsertWithTid("T", 42, {Value::Int(7), Value::String("q")}, Ts(10))
          .ok());
  auto snapshot = backlog_.SnapshotAt(Ts(10));
  ASSERT_TRUE(snapshot.ok());
  auto table = snapshot->GetTable("T");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE((*table)->Contains(42));
}

TEST_F(BacklogTest, SnapshotViewIsQueryable) {
  ASSERT_TRUE(db_.Insert("T", {Value::Int(1), Value::String("x")}, Ts(10))
                  .ok());
  ASSERT_TRUE(db_.Insert("T", {Value::Int(5), Value::String("y")}, Ts(20))
                  .ok());
  auto snapshot = backlog_.SnapshotAt(Ts(15));
  ASSERT_TRUE(snapshot.ok());
  auto result = ExecuteSql("SELECT a FROM T", snapshot->View());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0], Value::Int(1));
}

TEST_F(BacklogTest, VersionTimestamps) {
  ASSERT_TRUE(db_.Insert("T", {Value::Int(1), Value::String("x")}, Ts(10))
                  .ok());
  ASSERT_TRUE(db_.Insert("T", {Value::Int(2), Value::String("y")}, Ts(20))
                  .ok());
  ASSERT_TRUE(db_.Insert("T", {Value::Int(3), Value::String("z")}, Ts(30))
                  .ok());

  // Interval covering everything after the first insert.
  auto stamps = backlog_.VersionTimestamps({Ts(15), Ts(35)});
  EXPECT_EQ(stamps, (std::vector<Timestamp>{Ts(15), Ts(20), Ts(30)}));

  // Instant interval: exactly one version.
  stamps = backlog_.VersionTimestamps({Ts(25), Ts(25)});
  EXPECT_EQ(stamps, (std::vector<Timestamp>{Ts(25)}));

  // Events at the interval start are not re-listed (state at start
  // already includes them).
  stamps = backlog_.VersionTimestamps({Ts(20), Ts(25)});
  EXPECT_EQ(stamps, (std::vector<Timestamp>{Ts(20)}));
}

TEST_F(BacklogTest, EventCountAt) {
  ASSERT_TRUE(db_.Insert("T", {Value::Int(1), Value::String("x")}, Ts(10))
                  .ok());
  ASSERT_TRUE(db_.Insert("T", {Value::Int(2), Value::String("y")}, Ts(20))
                  .ok());
  EXPECT_EQ(backlog_.EventCountAt(Ts(5)), 0u);
  EXPECT_EQ(backlog_.EventCountAt(Ts(10)), 1u);
  EXPECT_EQ(backlog_.EventCountAt(Ts(15)), 1u);
  EXPECT_EQ(backlog_.EventCountAt(Ts(20)), 2u);
  EXPECT_EQ(backlog_.EventCountAt(Ts(99)), 2u);
}

TEST_F(BacklogTest, MaterializedBacklogTableIsQueryable) {
  auto tid = db_.Insert("T", {Value::Int(1), Value::String("x")}, Ts(10));
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE(
      db_.Update("T", *tid, {Value::Int(2), Value::String("y")}, Ts(20))
          .ok());
  ASSERT_TRUE(db_.Delete("T", *tid, Ts(30)).ok());

  auto b_table = backlog_.MaterializeBacklogTable("T");
  ASSERT_TRUE(b_table.ok()) << b_table.status().ToString();
  EXPECT_EQ((*b_table)->name(), "b-T");
  ASSERT_EQ((*b_table)->size(), 3u);

  // Query the backlog relation like any other table (the paper's
  // b-Patients idiom).
  DatabaseView view;
  view.AddTable(b_table->get());
  auto updates = ExecuteSql("SELECT a, tid FROM b-T WHERE op = 'update'",
                            view);
  ASSERT_TRUE(updates.ok()) << updates.status().ToString();
  ASSERT_EQ(updates->rows.size(), 1u);
  EXPECT_EQ(updates->rows[0][0], Value::Int(2));
  EXPECT_EQ(updates->rows[0][1], Value::Int(*tid));

  // All versions of column a ever associated with the tuple.
  auto versions = ExecuteSql(
      "SELECT a FROM b-T WHERE tid = " + std::to_string(*tid), view);
  ASSERT_TRUE(versions.ok());
  EXPECT_EQ(versions->rows.size(), 3u);  // insert, update, delete images
}

TEST_F(BacklogTest, MaterializeUnknownTableFails) {
  EXPECT_FALSE(backlog_.MaterializeBacklogTable("Nope").ok());
}

TEST(UnattachedBacklogTest, SnapshotFails) {
  Backlog backlog;
  EXPECT_FALSE(backlog.SnapshotAt(Ts(1)).ok());
}

TEST(MultiTableBacklogTest, SnapshotCoversAllTables) {
  Database db;
  Backlog backlog;
  backlog.Attach(&db);
  ASSERT_TRUE(db.CreateTable(TSchema()).ok());
  ASSERT_TRUE(
      db.CreateTable(TableSchema("U", {{"x", ValueType::kInt}})).ok());
  ASSERT_TRUE(db.Insert("T", {Value::Int(1), Value::String("a")}, Ts(1))
                  .ok());
  ASSERT_TRUE(db.Insert("U", {Value::Int(9)}, Ts(2)).ok());
  auto snapshot = backlog.SnapshotAt(Ts(2));
  ASSERT_TRUE(snapshot.ok());
  EXPECT_TRUE(snapshot->GetTable("T").ok());
  EXPECT_TRUE(snapshot->GetTable("U").ok());
  auto u = snapshot->GetTable("U");
  EXPECT_EQ((*u)->size(), 1u);
}

}  // namespace
}  // namespace auditdb
