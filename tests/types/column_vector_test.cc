#include "src/types/column_vector.h"

#include <gtest/gtest.h>

namespace auditdb {
namespace {

ColumnVector FromList(std::vector<Value> values) {
  return ColumnVector::FromValues(values);
}

TEST(ColumnVectorTest, UniformIntSpecializes) {
  auto col = FromList({Value::Int(1), Value::Int(2), Value::Int(3)});
  EXPECT_EQ(col.layout(), ColumnVector::Layout::kInt64);
  EXPECT_EQ(col.size(), 3u);
  EXPECT_FALSE(col.has_nulls());
  EXPECT_EQ(col.ints()[1], 2);
  EXPECT_EQ(col.ValueAt(2), Value::Int(3));
  EXPECT_EQ(col.TypeAt(0), ValueType::kInt);
}

TEST(ColumnVectorTest, UniformDoubleAndString) {
  auto d = FromList({Value::Double(1.5), Value::Double(-2.5)});
  EXPECT_EQ(d.layout(), ColumnVector::Layout::kDouble);
  EXPECT_EQ(d.doubles()[0], 1.5);
  auto s = FromList({Value::String("x"), Value::String("y")});
  EXPECT_EQ(s.layout(), ColumnVector::Layout::kString);
  EXPECT_EQ(s.strings()[1], "y");
}

TEST(ColumnVectorTest, BoolAndTimestampPackAsInts) {
  auto b = FromList({Value::Bool(true), Value::Bool(false)});
  EXPECT_EQ(b.layout(), ColumnVector::Layout::kBool);
  EXPECT_EQ(b.ints()[0], 1);
  EXPECT_EQ(b.ValueAt(1), Value::Bool(false));
  auto t = FromList({Value::Time(Timestamp(42))});
  EXPECT_EQ(t.layout(), ColumnVector::Layout::kTimestamp);
  EXPECT_EQ(t.ints()[0], 42);
  EXPECT_EQ(t.ValueAt(0), Value::Time(Timestamp(42)));
}

TEST(ColumnVectorTest, NullsKeepSpecializedLayout) {
  auto col = FromList({Value::Int(1), Value::Null(), Value::Int(3)});
  EXPECT_EQ(col.layout(), ColumnVector::Layout::kInt64);
  EXPECT_TRUE(col.has_nulls());
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.ValueAt(1), Value::Null());
  EXPECT_EQ(col.TypeAt(1), ValueType::kNull);
}

TEST(ColumnVectorTest, MixedTypesFallBackToGeneric) {
  auto col = FromList({Value::Int(1), Value::String("x"), Value::Null()});
  EXPECT_EQ(col.layout(), ColumnVector::Layout::kGeneric);
  EXPECT_TRUE(col.has_nulls());
  EXPECT_EQ(col.ValueAt(0), Value::Int(1));
  EXPECT_EQ(col.ValueAt(1), Value::String("x"));
  EXPECT_EQ(col.TypeAt(1), ValueType::kString);
  EXPECT_TRUE(col.IsNull(2));
}

TEST(ColumnVectorTest, AllNullIsGeneric) {
  auto col = FromList({Value::Null(), Value::Null()});
  EXPECT_EQ(col.layout(), ColumnVector::Layout::kGeneric);
  EXPECT_TRUE(col.has_nulls());
  EXPECT_EQ(col.ValueAt(0), Value::Null());
}

TEST(ColumnVectorTest, EmptyColumn) {
  auto col = FromList({});
  EXPECT_EQ(col.size(), 0u);
  EXPECT_FALSE(col.has_nulls());
}

}  // namespace
}  // namespace auditdb
