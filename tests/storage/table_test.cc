#include "src/storage/table.h"

#include <gtest/gtest.h>

#include <memory>

namespace auditdb {
namespace {

TableSchema TwoColSchema() {
  return TableSchema("T",
                     {{"a", ValueType::kInt}, {"b", ValueType::kString}});
}

std::vector<Value> Row1() { return {Value::Int(1), Value::String("x")}; }
std::vector<Value> Row2() { return {Value::Int(2), Value::String("y")}; }

TEST(TidTest, Formatting) {
  EXPECT_EQ(TidToString(12), "t12");
  EXPECT_EQ(TidToString(1), "t1");
}

TEST(TableTest, InsertAssignsSequentialTids) {
  Table table(TwoColSchema());
  auto t1 = table.Insert(Row1());
  auto t2 = table.Insert(Row2());
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(*t1, 1);
  EXPECT_EQ(*t2, 2);
  EXPECT_EQ(table.size(), 2u);
}

TEST(TableTest, ArityChecked) {
  Table table(TwoColSchema());
  EXPECT_FALSE(table.Insert({Value::Int(1)}).ok());
  EXPECT_FALSE(
      table.Insert({Value::Int(1), Value::String("x"), Value::Int(2)}).ok());
}

TEST(TableTest, InsertWithTid) {
  Table table(TwoColSchema());
  ASSERT_TRUE(table.InsertWithTid(11, Row1()).ok());
  EXPECT_EQ(table.InsertWithTid(11, Row2()).code(),
            StatusCode::kAlreadyExists);
  // Auto-assign continues after the explicit tid.
  auto next = table.Insert(Row2());
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 12);
}

TEST(TableTest, GetAndContains) {
  Table table(TwoColSchema());
  auto tid = table.Insert(Row1());
  ASSERT_TRUE(tid.ok());
  EXPECT_TRUE(table.Contains(*tid));
  auto row = table.Get(*tid);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)->values[1], Value::String("x"));
  EXPECT_FALSE(table.Get(99).ok());
  EXPECT_FALSE(table.Contains(99));
}

TEST(TableTest, UpdateReplacesImage) {
  Table table(TwoColSchema());
  auto tid = table.Insert(Row1());
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE(table.Update(*tid, Row2()).ok());
  auto row = table.Get(*tid);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)->values[0], Value::Int(2));
  EXPECT_FALSE(table.Update(99, Row2()).ok());
}

TEST(TableTest, UpdateColumn) {
  Table table(TwoColSchema());
  auto tid = table.Insert(Row1());
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE(table.UpdateColumn(*tid, "b", Value::String("z")).ok());
  auto row = table.Get(*tid);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)->values[1], Value::String("z"));
  EXPECT_FALSE(table.UpdateColumn(*tid, "nope", Value::Int(0)).ok());
  EXPECT_FALSE(table.UpdateColumn(99, "b", Value::Int(0)).ok());
}

TEST(TableTest, DeleteReturnsBeforeImageAndKeepsOrder) {
  Table table(TwoColSchema());
  auto t1 = table.Insert(Row1());
  auto t2 = table.Insert(Row2());
  auto t3 = table.Insert({Value::Int(3), Value::String("z")});
  ASSERT_TRUE(t1.ok() && t2.ok() && t3.ok());

  auto before = table.Delete(*t2);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->tid, *t2);
  EXPECT_EQ(before->values[0], Value::Int(2));

  // Insertion order preserved for the remaining rows.
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table.rows()[0].tid, *t1);
  EXPECT_EQ(table.rows()[1].tid, *t3);

  // Index still valid after the shift.
  auto row3 = table.Get(*t3);
  ASSERT_TRUE(row3.ok());
  EXPECT_EQ((*row3)->values[0], Value::Int(3));

  EXPECT_FALSE(table.Delete(*t2).ok());  // already gone
}

TEST(TableTest, ColumnarIsCachedUntilMutation) {
  Table table(TwoColSchema());
  ASSERT_TRUE(table.Insert(Row1()).ok());
  auto first = table.Columnar();
  ASSERT_EQ(first->num_rows, 1u);
  // Same shared batch on a second read, no rebuild.
  EXPECT_EQ(table.Columnar().get(), first.get());

  const uint64_t before = table.epoch();
  ASSERT_TRUE(table.Insert(Row2()).ok());
  EXPECT_GT(table.epoch(), before);
  auto second = table.Columnar();
  EXPECT_NE(second.get(), first.get());
  EXPECT_EQ(second->num_rows, 2u);
  // The old batch is still valid for readers that grabbed it earlier.
  EXPECT_EQ(first->num_rows, 1u);
  EXPECT_EQ(first->column(0).ValueAt(0), Value::Int(1));
}

TEST(TableTest, EveryMutationInvalidatesColumnar) {
  Table table(TwoColSchema());
  auto t1 = table.Insert(Row1());
  ASSERT_TRUE(t1.ok());

  auto batch = table.Columnar();
  ASSERT_TRUE(table.UpdateColumn(*t1, "a", Value::Int(7)).ok());
  auto updated = table.Columnar();
  EXPECT_NE(updated.get(), batch.get());
  EXPECT_EQ(updated->column(0).ValueAt(0), Value::Int(7));

  batch = table.Columnar();
  ASSERT_TRUE(table.Update(*t1, Row2()).ok());
  EXPECT_NE(table.Columnar().get(), batch.get());

  batch = table.Columnar();
  ASSERT_TRUE(table.Delete(*t1).ok());
  auto emptied = table.Columnar();
  EXPECT_NE(emptied.get(), batch.get());
  EXPECT_EQ(emptied->num_rows, 0u);
}

TEST(TableTest, ColumnarCarriesTidsInRowOrder) {
  Table table(TwoColSchema());
  ASSERT_TRUE(table.InsertWithTid(5, Row1()).ok());
  ASSERT_TRUE(table.InsertWithTid(3, Row2()).ok());
  auto batch = table.Columnar();
  EXPECT_EQ(*batch->tids, (std::vector<int64_t>{5, 3}));
}

TEST(TableTest, DeletedTidIsNotReused) {
  Table table(TwoColSchema());
  auto t1 = table.Insert(Row1());
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(table.Delete(*t1).ok());
  auto t2 = table.Insert(Row2());
  ASSERT_TRUE(t2.ok());
  EXPECT_NE(*t2, *t1);
}

}  // namespace
}  // namespace auditdb
