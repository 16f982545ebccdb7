#ifndef LOGSTORE_LOGBLOCK_ROW_BATCH_H_
#define LOGSTORE_LOGBLOCK_ROW_BATCH_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/slice.h"
#include "logblock/schema.h"

namespace logstore::logblock {

// A dynamically-typed cell value.
struct Value {
  ColumnType type = ColumnType::kInt64;
  int64_t i = 0;
  std::string s;

  static Value Int64(int64_t v) {
    Value value;
    value.type = ColumnType::kInt64;
    value.i = v;
    return value;
  }
  static Value String(std::string v) {
    Value value;
    value.type = ColumnType::kString;
    value.s = std::move(v);
    return value;
  }

  bool operator==(const Value& other) const {
    if (type != other.type) return false;
    return type == ColumnType::kInt64 ? i == other.i : s == other.s;
  }
};

// Column-major in-memory rows, the unit handed from the row store to the
// LogBlock writer and back from the reader to query execution.
class RowBatch {
 public:
  explicit RowBatch(Schema schema) : schema_(std::move(schema)) {
    ints_.resize(schema_.num_columns());
    strs_.resize(schema_.num_columns());
  }

  const Schema& schema() const { return schema_; }
  uint32_t num_rows() const { return num_rows_; }

  // Appends a row; `values` must match the schema arity and types.
  void AddRow(const std::vector<Value>& values) {
    assert(values.size() == schema_.num_columns());
    for (size_t c = 0; c < values.size(); ++c) {
      assert(values[c].type == schema_.column(c).type);
      if (schema_.column(c).type == ColumnType::kInt64) {
        ints_[c].push_back(values[c].i);
      } else {
        strs_[c].push_back(values[c].s);
      }
    }
    ++num_rows_;
  }

  // Appends rows [begin, end) of `src`, column by column; `src` must have
  // this batch's column layout.
  void AppendRows(const RowBatch& src, uint32_t begin, uint32_t end) {
    assert(src.schema_.num_columns() == schema_.num_columns());
    assert(begin <= end && end <= src.num_rows_);
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      if (schema_.column(c).type == ColumnType::kInt64) {
        ints_[c].insert(ints_[c].end(), src.ints_[c].begin() + begin,
                        src.ints_[c].begin() + end);
      } else {
        strs_[c].insert(strs_[c].end(), src.strs_[c].begin() + begin,
                        src.strs_[c].begin() + end);
      }
    }
    num_rows_ += end - begin;
  }

  // Column-at-a-time row building, for decoders: push one value into every
  // column, then EndRow().
  void Reserve(uint32_t rows) {
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      if (schema_.column(c).type == ColumnType::kInt64) {
        ints_[c].reserve(rows);
      } else {
        strs_[c].reserve(rows);
      }
    }
  }
  void PushInt64(size_t col, int64_t v) { ints_[col].push_back(v); }
  void PushString(size_t col, const Slice& v) {
    strs_[col].emplace_back(v.data(), v.size());
  }
  void EndRow() { ++num_rows_; }

  int64_t Int64At(size_t col, uint32_t row) const { return ints_[col][row]; }
  const std::string& StringAt(size_t col, uint32_t row) const {
    return strs_[col][row];
  }

  const std::vector<int64_t>& Int64Column(size_t col) const {
    return ints_[col];
  }
  const std::vector<std::string>& StringColumn(size_t col) const {
    return strs_[col];
  }

  Value ValueAt(size_t col, uint32_t row) const {
    if (schema_.column(col).type == ColumnType::kInt64) {
      return Value::Int64(ints_[col][row]);
    }
    return Value::String(strs_[col][row]);
  }

  // Approximate memory footprint, used for flush thresholds and queue
  // byte budgets.
  uint64_t ApproximateBytes() const {
    uint64_t bytes = 0;
    for (size_t c = 0; c < schema_.num_columns(); ++c) {
      bytes += ints_[c].size() * sizeof(int64_t);
      for (const std::string& s : strs_[c]) bytes += s.size() + 16;
    }
    return bytes;
  }

 private:
  Schema schema_;
  uint32_t num_rows_ = 0;
  std::vector<std::vector<int64_t>> ints_;
  std::vector<std::vector<std::string>> strs_;
};

}  // namespace logstore::logblock

#endif  // LOGSTORE_LOGBLOCK_ROW_BATCH_H_
