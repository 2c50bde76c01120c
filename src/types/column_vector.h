#ifndef AUDITDB_TYPES_COLUMN_VECTOR_H_
#define AUDITDB_TYPES_COLUMN_VECTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/types/value.h"

namespace auditdb {

/// Columnar projection of one column: the cells of a table (or of a
/// materialized fact set) stored contiguously by physical type, so batch
/// operators can run tight typed loops instead of touching a
/// std::variant per cell. A column whose non-null cells all share one
/// type is stored specialized; anything mixed falls back to a generic
/// Value array (same semantics, slower path).
class ColumnVector {
 public:
  /// Physical layout of the cells.
  enum class Layout : uint8_t {
    kInt64,      // INT, in ints()
    kDouble,     // DOUBLE, in doubles()
    kString,     // STRING, in strings()
    kBool,       // BOOL, in ints() as 0/1
    kTimestamp,  // TIMESTAMP, in ints() as micros
    kGeneric,    // mixed types, in generics()
  };

  ColumnVector() = default;

  /// The layout Gather gives `n` cells produced by `get(i)`: specialized
  /// when the non-null cells share one type, else generic (mixed-typed
  /// and all-null columns have no typed array to scan).
  template <typename GetFn>
  static Layout LayoutOf(size_t n, GetFn get) {
    ValueType uniform = ValueType::kNull;
    for (size_t i = 0; i < n; ++i) {
      const Value& v = get(i);
      if (v.is_null()) continue;
      if (uniform == ValueType::kNull) {
        uniform = v.type();
      } else if (v.type() != uniform) {
        return Layout::kGeneric;
      }
    }
    switch (uniform) {
      case ValueType::kInt:
        return Layout::kInt64;
      case ValueType::kDouble:
        return Layout::kDouble;
      case ValueType::kString:
        return Layout::kString;
      case ValueType::kBool:
        return Layout::kBool;
      case ValueType::kTimestamp:
        return Layout::kTimestamp;
      default:
        return Layout::kGeneric;
    }
  }

  /// Builds from `n` cells produced by `get(i)` (a const Value&).
  template <typename GetFn>
  static ColumnVector Gather(size_t n, GetFn get) {
    ColumnVector out;
    out.size_ = n;
    out.layout_ = LayoutOf(n, get);
    if (out.layout_ == Layout::kGeneric) {
      out.generics_.reserve(n);
      for (size_t i = 0; i < n; ++i) out.generics_.push_back(get(i));
      out.has_nulls_ = false;
      out.nulls_.assign(n, 0);
      for (size_t i = 0; i < n; ++i) {
        if (get(i).is_null()) {
          out.nulls_[i] = 1;
          out.has_nulls_ = true;
        }
      }
      return out;
    }
    out.nulls_.assign(n, 0);
    switch (out.layout_) {
      case Layout::kInt64:
        out.ints_.resize(n, 0);
        for (size_t i = 0; i < n; ++i) {
          const Value& v = get(i);
          if (v.is_null()) {
            out.nulls_[i] = 1;
            out.has_nulls_ = true;
          } else {
            out.ints_[i] = v.int_value();
          }
        }
        break;
      case Layout::kDouble:
        out.doubles_.resize(n, 0);
        for (size_t i = 0; i < n; ++i) {
          const Value& v = get(i);
          if (v.is_null()) {
            out.nulls_[i] = 1;
            out.has_nulls_ = true;
          } else {
            out.doubles_[i] = v.double_value();
          }
        }
        break;
      case Layout::kString:
        out.strings_.resize(n);
        for (size_t i = 0; i < n; ++i) {
          const Value& v = get(i);
          if (v.is_null()) {
            out.nulls_[i] = 1;
            out.has_nulls_ = true;
          } else {
            out.strings_[i] = v.string_value();
          }
        }
        break;
      case Layout::kBool:
        out.ints_.resize(n, 0);
        for (size_t i = 0; i < n; ++i) {
          const Value& v = get(i);
          if (v.is_null()) {
            out.nulls_[i] = 1;
            out.has_nulls_ = true;
          } else {
            out.ints_[i] = v.bool_value() ? 1 : 0;
          }
        }
        break;
      case Layout::kTimestamp:
        out.ints_.resize(n, 0);
        for (size_t i = 0; i < n; ++i) {
          const Value& v = get(i);
          if (v.is_null()) {
            out.nulls_[i] = 1;
            out.has_nulls_ = true;
          } else {
            out.ints_[i] = v.time_value().micros();
          }
        }
        break;
      default:
        break;
    }
    return out;
  }

  /// Builds from an already materialized value column.
  static ColumnVector FromValues(const std::vector<Value>& column) {
    return Gather(column.size(),
                  [&](size_t i) -> const Value& { return column[i]; });
  }

  Layout layout() const { return layout_; }
  size_t size() const { return size_; }
  bool has_nulls() const { return has_nulls_; }
  bool IsNull(size_t i) const { return nulls_[i] != 0; }

  /// Typed array views; valid only for the matching layout.
  const int64_t* ints() const { return ints_.data(); }
  const double* doubles() const { return doubles_.data(); }
  const std::string* strings() const { return strings_.data(); }
  const Value* generics() const { return generics_.data(); }

  /// Reconstructs the cell as a dynamically typed Value.
  Value ValueAt(size_t i) const {
    if (nulls_[i]) return Value::Null();
    switch (layout_) {
      case Layout::kInt64:
        return Value::Int(ints_[i]);
      case Layout::kDouble:
        return Value::Double(doubles_[i]);
      case Layout::kString:
        return Value::String(strings_[i]);
      case Layout::kBool:
        return Value::Bool(ints_[i] != 0);
      case Layout::kTimestamp:
        return Value::Time(Timestamp(ints_[i]));
      case Layout::kGeneric:
        return generics_[i];
    }
    return Value::Null();
  }

  /// Cell type as the evaluator would see it (kNull for NULL cells).
  ValueType TypeAt(size_t i) const {
    if (nulls_[i]) return ValueType::kNull;
    switch (layout_) {
      case Layout::kInt64:
        return ValueType::kInt;
      case Layout::kDouble:
        return ValueType::kDouble;
      case Layout::kString:
        return ValueType::kString;
      case Layout::kBool:
        return ValueType::kBool;
      case Layout::kTimestamp:
        return ValueType::kTimestamp;
      case Layout::kGeneric:
        return generics_[i].type();
    }
    return ValueType::kNull;
  }

 private:
  Layout layout_ = Layout::kGeneric;
  size_t size_ = 0;
  bool has_nulls_ = false;
  std::vector<uint8_t> nulls_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<Value> generics_;
};

/// A batch of rows in columnar form: one ColumnVector per column plus the
/// row identifiers. This is the unit the scan layer evaluates compiled
/// predicate programs over. Columns and tids are immutable and shared:
/// the batches of neighbouring table versions hold the same vector for
/// every column an update left unchanged.
struct Batch {
  size_t num_rows = 0;
  /// Tid of each row.
  std::shared_ptr<const std::vector<int64_t>> tids;
  std::vector<std::shared_ptr<const ColumnVector>> columns;

  const ColumnVector& column(size_t i) const { return *columns[i]; }
  size_t num_columns() const { return columns.size(); }
};

}  // namespace auditdb

#endif  // AUDITDB_TYPES_COLUMN_VECTOR_H_
