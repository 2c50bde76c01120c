// The per-version join-key index (JoinKeyIndex, TableVersion::JoinIndex):
// which rows a probe returns, in which order, and which version's rows it
// reads. The hash join probes it, so its matching rule must be exactly
// Value == and its positions must come back in storage order.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "src/engine/executor.h"
#include "src/storage/database.h"
#include "src/storage/table.h"

namespace auditdb {
namespace {

Timestamp Ts(int64_t s) { return Timestamp(s * 1000000); }

/// Every position `version`'s index on column 0 returns for `key`, in
/// the order returned.
std::vector<size_t> Probe(const TableVersion& version, const Value& key) {
  std::vector<size_t> out;
  Status status = version.JoinIndex(0).ForEachMatch(
      version.rows(), key, [&](size_t position) {
        out.push_back(position);
        return Status::Ok();
      });
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out;
}

/// A one-column table holding `keys` in order.
std::unique_ptr<Table> KeyTable(ValueType type,
                                const std::vector<Value>& keys) {
  auto table = std::make_unique<Table>(TableSchema("K", {{"k", type}}));
  for (const Value& key : keys) {
    EXPECT_TRUE(table->Insert({key}).ok());
  }
  return table;
}

TEST(JoinKeyIndexTest, NullKeysShareARunButNullNeverJoinsNull) {
  auto table = KeyTable(ValueType::kInt, {Value::Null(), Value::Int(1),
                                          Value::Null(), Value::Int(2)});
  auto version = table->CurrentVersion();
  // Under Value == every NULL key is one key: the index hands back both
  // NULL rows for a NULL probe, and nothing else.
  EXPECT_EQ(Probe(*version, Value::Null()),
            (std::vector<size_t>{0, 2}));
  EXPECT_EQ(Probe(*version, Value::Int(1)),
            (std::vector<size_t>{1}));

  // The join still rejects NULL = NULL: the equi-join conjunct runs on
  // every candidate pair the index returns.
  Database db;
  ASSERT_TRUE(
      db.CreateTable(TableSchema("L", {{"a", ValueType::kInt}})).ok());
  ASSERT_TRUE(
      db.CreateTable(TableSchema("R", {{"b", ValueType::kInt}})).ok());
  for (Value v : {Value::Null(), Value::Int(7), Value::Null()}) {
    ASSERT_TRUE(db.Insert("L", {v}, Ts(1)).ok());
    ASSERT_TRUE(db.Insert("R", {v}, Ts(1)).ok());
  }
  auto result = ExecuteSql("SELECT a, b FROM L, R WHERE L.a = R.b",
                           db.Snapshot());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0], (std::vector<Value>{Value::Int(7),
                                                 Value::Int(7)}));
}

TEST(JoinKeyIndexTest, SignedZerosJoin) {
  auto table = KeyTable(ValueType::kDouble,
                        {Value::Double(-0.0), Value::Double(1.5),
                         Value::Double(0.0)});
  auto version = table->CurrentVersion();
  EXPECT_EQ(Probe(*version, Value::Double(0.0)),
            (std::vector<size_t>{0, 2}));
  EXPECT_EQ(Probe(*version, Value::Double(-0.0)),
            (std::vector<size_t>{0, 2}));

  Database db;
  ASSERT_TRUE(
      db.CreateTable(TableSchema("L", {{"a", ValueType::kDouble}})).ok());
  ASSERT_TRUE(
      db.CreateTable(TableSchema("R", {{"b", ValueType::kDouble}})).ok());
  ASSERT_TRUE(db.Insert("L", {Value::Double(0.0)}, Ts(1)).ok());
  ASSERT_TRUE(db.Insert("R", {Value::Double(-0.0)}, Ts(1)).ok());
  auto result = ExecuteSql("SELECT a, b FROM L, R WHERE L.a = R.b",
                           db.Snapshot());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 1u);
}

TEST(JoinKeyIndexTest, NaNNeverMatches) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto table = KeyTable(ValueType::kDouble,
                        {Value::Double(nan), Value::Double(2.0),
                         Value::Double(nan)});
  auto version = table->CurrentVersion();
  EXPECT_TRUE(Probe(*version, Value::Double(nan)).empty());
  EXPECT_EQ(Probe(*version, Value::Double(2.0)),
            (std::vector<size_t>{1}));
}

TEST(JoinKeyIndexTest, PositionsWithinAKeyAscend) {
  // Many keys, interleaved, so runs are built from scattered positions.
  std::vector<Value> keys;
  for (int i = 0; i < 3000; ++i) {
    keys.push_back(Value::String("k" + std::to_string((i * 7919) % 37)));
  }
  auto table = KeyTable(ValueType::kString, keys);
  auto version = table->CurrentVersion();
  for (int k = 0; k < 37; ++k) {
    Value key = Value::String("k" + std::to_string(k));
    std::vector<size_t> expected;
    for (size_t p = 0; p < keys.size(); ++p) {
      if (keys[p] == key) expected.push_back(p);
    }
    EXPECT_EQ(Probe(*version, key), expected) << k;
  }
  EXPECT_TRUE(Probe(*version, Value::String("absent")).empty());
}

TEST(JoinKeyIndexTest, StopsAtTheFirstError) {
  auto table = KeyTable(ValueType::kInt,
                        {Value::Int(4), Value::Int(4), Value::Int(4)});
  auto version = table->CurrentVersion();
  size_t visited = 0;
  Status status =
      version->JoinIndex(0).ForEachMatch(
          version->rows(), Value::Int(4), [&](size_t) {
            return ++visited == 2 ? Status::Internal("stop") : Status::Ok();
          });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(visited, 2u);
}

TEST(JoinKeyIndexTest, PinnedVersionKeepsItsOwnIndex) {
  Table table(TableSchema("T", {{"a", ValueType::kInt},
                                {"b", ValueType::kString}}));
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::String("x")}).ok());
  ASSERT_TRUE(table.Insert({Value::Int(2), Value::String("y")}).ok());
  auto pinned = table.CurrentVersion();
  const JoinKeyIndex& before = pinned->JoinIndex(0);
  EXPECT_EQ(Probe(*pinned, Value::Int(1)), (std::vector<size_t>{0}));

  // Rewrite key 1 to 2, delete the old 2 and add a new 1: every write
  // lands in storage the pinned version shares.
  ASSERT_TRUE(table.UpdateColumn(1, "a", Value::Int(2)).ok());
  ASSERT_TRUE(table.Delete(2).ok());
  ASSERT_TRUE(table.Insert({Value::Int(1), Value::String("z")}).ok());

  // The pinned version still answers from its own rows.
  EXPECT_EQ(&pinned->JoinIndex(0), &before);
  EXPECT_EQ(Probe(*pinned, Value::Int(1)), (std::vector<size_t>{0}));
  EXPECT_EQ(Probe(*pinned, Value::Int(2)), (std::vector<size_t>{1}));

  // The new version builds its own.
  auto current = table.CurrentVersion();
  const JoinKeyIndex& after = current->JoinIndex(0);
  EXPECT_NE(&after, &before);
  EXPECT_EQ(Probe(*current, Value::Int(2)), (std::vector<size_t>{0}));
  EXPECT_EQ(Probe(*current, Value::Int(1)), (std::vector<size_t>{1}));
}

}  // namespace
}  // namespace auditdb
