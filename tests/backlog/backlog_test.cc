#include "src/backlog/backlog.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

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

/// Rows of `table` in `view`, in storage order.
std::vector<Row> RowsOf(const DatabaseView& view, const std::string& table) {
  auto version = view.GetTable(table);
  EXPECT_TRUE(version.ok()) << version.status().ToString();
  if (!version.ok()) return {};
  return {(*version)->rows().begin(), (*version)->rows().end()};
}

TEST(BacklogCursorTest, NonMonotoneCaptureOrderMatchesSnapshotAt) {
  Database db;
  Backlog backlog;
  backlog.Attach(&db);
  ASSERT_TRUE(db.CreateTable(TSchema()).ok());
  auto a = db.Insert("T", {Value::Int(1), Value::String("a")}, Ts(10));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(db.Insert("T", {Value::Int(2), Value::String("b")}, Ts(30))
                  .ok());
  // Captured after the insert at 30 but stamped 20: a sweep that stops at
  // the first later event would miss it at t = 25.
  ASSERT_TRUE(
      db.Update("T", *a, {Value::Int(3), Value::String("a")}, Ts(20)).ok());
  // An update stamped earlier than the insert before it: replay fails
  // for every t in [40, 50), and the cursor must fail the same way.
  auto c = db.Insert("T", {Value::Int(4), Value::String("c")}, Ts(50));
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(
      db.Update("T", *c, {Value::Int(5), Value::String("c")}, Ts(40)).ok());

  BacklogCursor cursor(backlog);
  for (int64_t s = 0; s <= 60; s += 5) {
    auto want = backlog.SnapshotAt(Ts(s));
    auto got = cursor.ViewAt(Ts(s));
    ASSERT_EQ(got.ok(), want.ok()) << "at " << s;
    if (!want.ok()) {
      EXPECT_EQ(got.status().ToString(), want.status().ToString());
      continue;
    }
    EXPECT_EQ(RowsOf(*got, "T"), RowsOf(want->View(), "T")) << "at " << s;
  }
}

TEST(BacklogCursorTest, PinnedViewIsUnchangedByLaterAdvances) {
  Database db;
  Backlog backlog;
  backlog.Attach(&db);
  ASSERT_TRUE(db.CreateTable(TSchema()).ok());
  auto a = db.Insert("T", {Value::Int(1), Value::String("a")}, Ts(10));
  auto b = db.Insert("T", {Value::Int(2), Value::String("b")}, Ts(10));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(
      db.Update("T", *a, {Value::Int(7), Value::String("a")}, Ts(20)).ok());
  ASSERT_TRUE(db.Delete("T", *b, Ts(20)).ok());
  ASSERT_TRUE(db.Insert("T", {Value::Int(3), Value::String("c")}, Ts(30))
                  .ok());

  auto replayed = backlog.SnapshotAt(Ts(10));
  ASSERT_TRUE(replayed.ok());
  const std::vector<Row> at_10 = RowsOf(replayed->View(), "T");
  ASSERT_EQ(at_10.size(), 2u);

  std::optional<DatabaseView> pinned;
  {
    BacklogCursor cursor(backlog);
    auto early = cursor.ViewAt(Ts(10));
    ASSERT_TRUE(early.ok());
    pinned = std::move(*early);
    auto late = cursor.ViewAt(Ts(30));
    ASSERT_TRUE(late.ok());
    EXPECT_EQ(RowsOf(*pinned, "T"), at_10);
    EXPECT_EQ(RowsOf(*late, "T").size(), 2u);
    // Going back in time restarts the sweep and finds the same state.
    auto again = cursor.ViewAt(Ts(10));
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(RowsOf(*again, "T"), at_10);
  }
  // The view outlives its cursor.
  EXPECT_EQ(RowsOf(*pinned, "T"), at_10);
}

TEST(BacklogCursorTest, UntouchedTableKeepsItsVersionAndJoinIndex) {
  Database db;
  Backlog backlog;
  backlog.Attach(&db);
  ASSERT_TRUE(db.CreateTable(TSchema()).ok());
  ASSERT_TRUE(
      db.CreateTable(TableSchema("U", {{"x", ValueType::kInt}})).ok());
  ASSERT_TRUE(db.Insert("T", {Value::Int(1), Value::String("a")}, Ts(10))
                  .ok());
  ASSERT_TRUE(db.Insert("U", {Value::Int(1)}, Ts(10)).ok());
  ASSERT_TRUE(db.Insert("T", {Value::Int(2), Value::String("b")}, Ts(20))
                  .ok());

  BacklogCursor cursor(backlog);
  auto first = cursor.ViewAt(Ts(10));
  ASSERT_TRUE(first.ok());
  auto u_first = first->GetTable("U");
  ASSERT_TRUE(u_first.ok());
  (*u_first)->JoinIndex(0);

  auto second = cursor.ViewAt(Ts(20));
  ASSERT_TRUE(second.ok());
  auto u_second = second->GetTable("U");
  ASSERT_TRUE(u_second.ok());
  EXPECT_EQ(*u_second, *u_first);
  EXPECT_NE(*second->GetTable("T"), *first->GetTable("T"));
  (*u_second)->JoinIndex(0);
  EXPECT_EQ((*u_second)->stats().join_index_builds.load(), 1u);
  EXPECT_EQ((*u_second)->stats().join_index_hits.load(), 1u);
}

TEST(BacklogCursorTest, UnattachedBacklogFailsAsSnapshotAt) {
  Backlog backlog;
  BacklogCursor cursor(backlog);
  auto view = cursor.ViewAt(Ts(1));
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().ToString(),
            backlog.SnapshotAt(Ts(1)).status().ToString());
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
