/// Seeded property over churned tables and backlogs: every TableVersion
/// a BacklogCursor yields must read, through its shared per-column
/// slots, exactly what a fresh build over its own rows gives —
/// its columnar tids and columns (bit for bit), every column layout and
/// every join-key probe. The churn mixes the cases the sharing rule has
/// to get right: same-value updates, 0.0 <-> -0.0, INT and DOUBLE cells
/// stored under one declared type, NULLs, NaN, inserts and deletes, and
/// out-of-order timestamps, which send the cursor to its SnapshotAt
/// fallback.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "src/backlog/backlog.h"
#include "src/common/random.h"
#include "src/storage/database.h"

namespace auditdb {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

/// W holds a join key, a DOUBLE column that also stores INTs, and a
/// string; U is touched rarely, so most states share its version.
struct World {
  Database db;
  Backlog backlog;
  std::vector<Timestamp> times;  // of every event, in capture order
};

Value RandomKey(Random& rng) {
  if (rng.OneIn(0.15)) return Value::Null();
  return Value::Int(rng.UniformInt(0, 9));
}

Value RandomDouble(Random& rng) {
  static const double kCells[] = {0.0, -0.0, 1.5, -2.25, 3.0,
                                  std::numeric_limits<double>::quiet_NaN()};
  const uint64_t pick = rng.Uniform(10);
  if (pick == 0) return Value::Null();
  if (pick == 1) return Value::Int(rng.UniformInt(0, 3));
  return Value::Double(kCells[rng.Uniform(6)]);
}

Value RandomString(Random& rng) {
  static const char* const kCells[] = {"a", "b", "c", ""};
  if (rng.OneIn(0.1)) return Value::Null();
  return Value::String(kCells[rng.Uniform(4)]);
}

Value RandomCell(Random& rng, size_t column) {
  switch (column) {
    case 0:
      return RandomKey(rng);
    case 1:
      return RandomDouble(rng);
    default:
      return RandomString(rng);
  }
}

/// A changed cell for column `column`: mostly a fresh random one, often
/// a sign flip of a double or the cell's own value (a same-value write).
Value Mutate(Random& rng, const Value& cell, size_t column) {
  const uint64_t pick = rng.Uniform(4);
  if (pick == 0) return cell;
  if (pick == 1 && cell.type() == ValueType::kDouble) {
    return Value::Double(-cell.double_value());
  }
  return RandomCell(rng, column);
}

/// Builds W and U and applies `events` random mutations through the
/// database, so the backlog captures them. `shuffle_times` lets a tenth
/// of the events step back in time.
std::unique_ptr<World> BuildWorld(uint64_t seed, size_t events,
                                  bool shuffle_times) {
  auto world = std::make_unique<World>();
  Random rng(seed);
  world->backlog.Attach(&world->db);
  EXPECT_TRUE(world->db
                  .CreateTable(TableSchema("W", {{"k", ValueType::kInt},
                                                 {"x", ValueType::kDouble},
                                                 {"s", ValueType::kString}}))
                  .ok());
  EXPECT_TRUE(
      world->db.CreateTable(TableSchema("U", {{"k", ValueType::kInt}})).ok());
  auto w = world->db.GetTable("W");
  EXPECT_TRUE(w.ok());
  const Table& table = **w;

  int64_t now = 1;
  auto next_time = [&]() {
    if (rng.OneIn(0.7)) ++now;
    const int64_t t =
        shuffle_times && rng.OneIn(0.1) ? now - rng.UniformInt(1, 5) : now;
    world->times.push_back(Ts(t));
    return Ts(t);
  };
  for (size_t i = 0; i < 70; ++i) {
    std::vector<Value> row = {RandomKey(rng), RandomDouble(rng),
                              RandomString(rng)};
    EXPECT_TRUE(world->db.Insert("W", std::move(row), next_time()).ok());
  }
  EXPECT_TRUE(world->db.Insert("U", {Value::Int(1)}, next_time()).ok());

  for (size_t i = 0; i < events; ++i) {
    const uint64_t op = rng.Uniform(20);
    if (op == 0) {
      EXPECT_TRUE(world->db.Insert("U", {RandomKey(rng)}, next_time()).ok());
      continue;
    }
    if (op <= 4 || table.size() == 0) {
      std::vector<Value> row = {RandomKey(rng), RandomDouble(rng),
                                RandomString(rng)};
      EXPECT_TRUE(world->db.Insert("W", std::move(row), next_time()).ok());
      continue;
    }
    const Row& row = table.rows()[rng.Uniform(table.size())];
    const Tid tid = row.tid;
    if (op <= 6) {
      EXPECT_TRUE(world->db.Delete("W", tid, next_time()).ok());
    } else if (op <= 12) {
      static const char* const kNames[] = {"k", "x", "s"};
      const size_t column = rng.Uniform(3);
      Value cell = Mutate(rng, row.values[column], column);
      EXPECT_TRUE(world->db
                      .UpdateColumn("W", tid, kNames[column], std::move(cell),
                                    next_time())
                      .ok());
    } else {
      std::vector<Value> values = row.values;
      for (size_t c = 0; c < values.size(); ++c) {
        if (rng.OneIn(0.4)) values[c] = Mutate(rng, values[c], c);
      }
      EXPECT_TRUE(
          world->db.Update("W", tid, std::move(values), next_time()).ok());
    }
  }
  return world;
}

/// Same alternative and same bits (NaN included, sign of zero included).
bool SameCell(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() != ValueType::kDouble) return a == b;
  const double x = a.double_value();
  const double y = b.double_value();
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

void ExpectSameColumn(const ColumnVector& got, const ColumnVector& want,
                      const std::string& where) {
  ASSERT_EQ(got.layout(), want.layout()) << where;
  ASSERT_EQ(got.size(), want.size()) << where;
  EXPECT_EQ(got.has_nulls(), want.has_nulls()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.IsNull(i), want.IsNull(i)) << where << " row " << i;
    EXPECT_EQ(got.TypeAt(i), want.TypeAt(i)) << where << " row " << i;
    EXPECT_TRUE(SameCell(got.ValueAt(i), want.ValueAt(i)))
        << where << " row " << i << ": " << got.ValueAt(i).ToString()
        << " vs " << want.ValueAt(i).ToString();
  }
}

/// Every position of `rows` whose column `column` is Value == `key`.
std::vector<size_t> ScanMatches(const RowStore& rows, size_t column,
                                const Value& key) {
  std::vector<size_t> out;
  for (size_t p = 0; p < rows.size(); ++p) {
    if (rows[p].values[column] == key) out.push_back(p);
  }
  return out;
}

/// Checks every derived structure of `version` against a fresh
/// build over its rows. `layout_first` reads the layouts before the
/// batch, so a slot may be filled in either order.
void CheckVersion(const TableVersion& version, bool layout_first,
                  const std::string& where) {
  const RowStore& rows = version.rows();
  const size_t num_columns = version.schema().num_columns();
  auto check_layouts = [&]() {
    for (size_t c = 0; c < num_columns; ++c) {
      EXPECT_EQ(version.ColumnLayout(c),
                ColumnVector::LayoutOf(rows.size(),
                                       [&](size_t i) -> const Value& {
                                         return rows[i].values[c];
                                       }))
          << where << " column " << c;
    }
  };
  if (layout_first) check_layouts();

  auto batch = version.Columnar();
  ASSERT_EQ(batch->num_rows, rows.size()) << where;
  ASSERT_EQ(batch->num_columns(), num_columns) << where;
  std::vector<int64_t> tids;
  for (const Row& row : rows) tids.push_back(row.tid);
  EXPECT_EQ(*batch->tids, tids) << where;
  for (size_t c = 0; c < num_columns; ++c) {
    ExpectSameColumn(batch->column(c),
                     ColumnVector::Gather(rows.size(),
                                          [&](size_t i) -> const Value& {
                                            return rows[i].values[c];
                                          }),
                     where + " column " + std::to_string(c));
  }
  if (!layout_first) check_layouts();

  for (size_t c = 0; c < num_columns; ++c) {
    std::vector<Value> keys = {Value::Null(), Value::Int(42),
                               Value::Double(0.0), Value::Double(-0.0),
                               Value::String("absent")};
    for (const Row& row : rows) keys.push_back(row.values[c]);
    const JoinKeyIndex& index = version.JoinIndex(c);
    for (const Value& key : keys) {
      std::vector<size_t> got;
      ASSERT_TRUE(index
                      .ForEachMatch(rows, key,
                                    [&](size_t position) {
                                      got.push_back(position);
                                      return Status::Ok();
                                    })
                      .ok());
      EXPECT_EQ(got, ScanMatches(rows, c, key))
          << where << " column " << c << " key " << key.ToString();
    }
  }
}

/// The distinct event times in ascending order, plus one before them.
std::vector<Timestamp> SweepTimes(const World& world) {
  std::vector<Timestamp> times = world.times;
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  times.insert(times.begin(), Ts(0));
  return times;
}

/// One forward sweep. Each state is checked (or, now and then, only
/// pinned) and released before the next is taken, so a later version
/// reads slots whose builder is gone. A monotone backlog must show some
/// version borrowing a column, or the property checked nothing; the
/// SnapshotAt fallback rebuilds every state and borrows none.
void SweepAndCheck(const World& world, uint64_t seed, bool monotone) {
  Random rng(seed ^ 0x5eedULL);
  BacklogCursor cursor(world.backlog);
  uint64_t hits = 0;
  for (Timestamp t : SweepTimes(world)) {
    auto view = cursor.ViewAt(t);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    for (const char* name : {"W", "U"}) {
      auto version = view->GetTable(name);
      ASSERT_TRUE(version.ok());
      if (rng.OneIn(0.2)) continue;
      CheckVersion(**version, rng.OneIn(0.5),
                   "seed " + std::to_string(seed) + " " + name + " at " +
                       t.ToString());
      hits = (*version)->stats().columnar_hits.load();
    }
  }
  EXPECT_EQ(hits > 0, monotone) << "seed " << seed;
}

TEST(VersionSharingProperty, SweptVersionsMatchFreshBuilds) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    auto world = BuildWorld(seed, 160, /*shuffle_times=*/false);
    SweepAndCheck(*world, seed, /*monotone=*/true);
  }
}

TEST(VersionSharingProperty, NonMonotoneBacklogMatchesFreshBuilds) {
  for (uint64_t seed = 101; seed <= 104; ++seed) {
    auto world = BuildWorld(seed, 120, /*shuffle_times=*/true);
    ASSERT_FALSE(std::is_sorted(world->times.begin(), world->times.end()))
        << "seed " << seed << " never steps back in time";
    SweepAndCheck(*world, seed, /*monotone=*/false);
  }
}

// Pool workers share the versions one cursor pinned, and neighbouring
// versions share slots: racing first uses must still build each
// structure once and read what a fresh build gives.
TEST(VersionSharingProperty, ConcurrentProbesMatchFreshBuilds) {
  for (uint64_t seed = 201; seed <= 203; ++seed) {
    auto world = BuildWorld(seed, 120, /*shuffle_times=*/false);
    BacklogCursor cursor(world->backlog);
    std::vector<DatabaseView> views;
    for (Timestamp t : SweepTimes(*world)) {
      auto view = cursor.ViewAt(t);
      ASSERT_TRUE(view.ok());
      views.push_back(std::move(*view));
    }
    constexpr size_t kThreads = 4;
    std::vector<std::thread> threads;
    for (size_t w = 0; w < kThreads; ++w) {
      threads.emplace_back([&, w] {
        // Each worker starts at its own offset and walks every state.
        for (size_t i = 0; i < views.size(); ++i) {
          const DatabaseView& view = views[(i + w * views.size() / kThreads) %
                                           views.size()];
          auto version = view.GetTable("W");
          ASSERT_TRUE(version.ok());
          CheckVersion(**version, (i + w) % 2 == 0,
                       "seed " + std::to_string(seed) + " worker " +
                           std::to_string(w));
        }
      });
    }
    for (auto& thread : threads) thread.join();

    // However the races fell, each slot was built once: the builds equal
    // the distinct structures the states read.
    std::set<const void*> vectors;
    std::set<const void*> indexes;
    for (const DatabaseView& view : views) {
      auto version = view.GetTable("W");
      ASSERT_TRUE(version.ok());
      auto batch = (*version)->Columnar();
      for (size_t c = 0; c < batch->num_columns(); ++c) {
        vectors.insert(batch->columns[c].get());
        indexes.insert(&(*version)->JoinIndex(c));
      }
    }
    auto last = views.back().GetTable("W");
    ASSERT_TRUE(last.ok());
    const TableStats& stats = (*last)->stats();
    EXPECT_EQ(stats.columnar_builds.load(), vectors.size()) << seed;
    EXPECT_EQ(stats.join_index_builds.load(), indexes.size()) << seed;
    EXPECT_LT(vectors.size(), 3 * views.size()) << seed;
  }
}

}  // namespace
}  // namespace auditdb
