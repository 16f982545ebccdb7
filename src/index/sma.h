#ifndef LOGSTORE_INDEX_SMA_H_
#define LOGSTORE_INDEX_SMA_H_

#include <cstdint>
#include <string>

#include "common/coding.h"
#include "common/slice.h"
#include "common/status.h"

namespace logstore::index {

// Small Materialized Aggregates (Moerkotte '98), kept per column and per
// column block (§3.2): min/max plus row count, enough to skip a column or
// a block without touching its data.
struct Int64Sma {
  int64_t min = INT64_MAX;
  int64_t max = INT64_MIN;
  uint32_t row_count = 0;

  void Update(int64_t v) {
    if (v < min) min = v;
    if (v > max) max = v;
    ++row_count;
  }

  void Merge(const Int64Sma& other) {
    if (other.row_count == 0) return;
    if (other.min < min) min = other.min;
    if (other.max > max) max = other.max;
    row_count += other.row_count;
  }

  // True if no value in [min,max] can satisfy a comparison against the
  // range [lo,hi]: the block can be skipped. An empty range (lo > hi) is
  // disjoint from every block.
  bool DisjointWith(int64_t lo, int64_t hi) const {
    return row_count == 0 || lo > hi || hi < min || lo > max;
  }

  // True if every value in [min,max] lies in [lo,hi]: each row this SMA
  // covers satisfies the comparison.
  bool Within(int64_t lo, int64_t hi) const {
    return row_count > 0 && lo <= min && max <= hi;
  }

  void EncodeTo(std::string* dst) const {
    PutVarsint64(dst, min);
    PutVarsint64(dst, max);
    PutVarint32(dst, row_count);
  }

  bool DecodeFrom(Slice* input) {
    uint32_t rc;
    if (!GetVarsint64(input, &min) || !GetVarsint64(input, &max) ||
        !GetVarint32(input, &rc)) {
      return false;
    }
    row_count = rc;
    return true;
  }
};

struct StringSma {
  std::string min;
  std::string max;
  uint32_t row_count = 0;

  void Update(const Slice& v) {
    if (row_count == 0) {
      min = v.ToString();
      max = v.ToString();
    } else {
      if (v.compare(min) < 0) min = v.ToString();
      if (v.compare(max) > 0) max = v.ToString();
    }
    ++row_count;
  }

  void Merge(const StringSma& other) {
    if (other.row_count == 0) return;
    if (row_count == 0) {
      *this = other;
      return;
    }
    if (Slice(other.min).compare(min) < 0) min = other.min;
    if (Slice(other.max).compare(max) > 0) max = other.max;
    row_count += other.row_count;
  }

  // True if value v cannot appear in this column/block.
  bool Excludes(const Slice& v) const {
    return row_count == 0 || v.compare(min) < 0 || v.compare(max) > 0;
  }

  void EncodeTo(std::string* dst) const {
    PutLengthPrefixedSlice(dst, min);
    PutLengthPrefixedSlice(dst, max);
    PutVarint32(dst, row_count);
  }

  bool DecodeFrom(Slice* input) {
    Slice mn, mx;
    uint32_t rc;
    if (!GetLengthPrefixedSlice(input, &mn) ||
        !GetLengthPrefixedSlice(input, &mx) || !GetVarint32(input, &rc)) {
      return false;
    }
    min = mn.ToString();
    max = mx.ToString();
    row_count = rc;
    return true;
  }
};

}  // namespace logstore::index

#endif  // LOGSTORE_INDEX_SMA_H_
