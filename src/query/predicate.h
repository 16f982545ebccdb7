#ifndef LOGSTORE_QUERY_PREDICATE_H_
#define LOGSTORE_QUERY_PREDICATE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace logstore::query {

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

// One conjunct of a log-retrieval query's WHERE clause. The paper's query
// template (§5.1) uses exactly these three shapes:
//   - integer comparisons      (ts >= .., latency >= 100)
//   - string equality          (ip = '192.168.0.1', fail = 'false')
//   - full-text match          (log MATCH 'connection timeout')
struct Predicate {
  enum class Kind { kInt64Compare, kStringEq, kMatch };

  Kind kind = Kind::kInt64Compare;
  std::string column;
  CompareOp op = CompareOp::kEq;  // kInt64Compare only
  int64_t int_value = 0;          // kInt64Compare only
  std::string str_value;          // kStringEq / kMatch

  static Predicate Int64Compare(std::string column, CompareOp op,
                                int64_t value) {
    Predicate p;
    p.kind = Kind::kInt64Compare;
    p.column = std::move(column);
    p.op = op;
    p.int_value = value;
    return p;
  }

  static Predicate StringEq(std::string column, std::string value) {
    Predicate p;
    p.kind = Kind::kStringEq;
    p.column = std::move(column);
    p.str_value = std::move(value);
    return p;
  }

  static Predicate Match(std::string column, std::string text) {
    Predicate p;
    p.kind = Kind::kMatch;
    p.column = std::move(column);
    p.str_value = std::move(text);
    return p;
  }

  // The [lo, hi] interval implied by an int comparison, for SMA skipping
  // and index probes. kNe implies no useful interval (full range). No value
  // is below INT64_MIN or above INT64_MAX, so `< INT64_MIN` and
  // `> INT64_MAX` give an empty interval (lo > hi).
  std::pair<int64_t, int64_t> Int64Interval() const {
    switch (op) {
      case CompareOp::kEq: return {int_value, int_value};
      case CompareOp::kLt:
        if (int_value == INT64_MIN) return {INT64_MAX, INT64_MIN};
        return {INT64_MIN, int_value - 1};
      case CompareOp::kLe: return {INT64_MIN, int_value};
      case CompareOp::kGt:
        if (int_value == INT64_MAX) return {INT64_MAX, INT64_MIN};
        return {int_value + 1, INT64_MAX};
      case CompareOp::kGe: return {int_value, INT64_MAX};
      case CompareOp::kNe: return {INT64_MIN, INT64_MAX};
    }
    return {INT64_MIN, INT64_MAX};
  }

  bool EvalInt64(int64_t v) const {
    switch (op) {
      case CompareOp::kEq: return v == int_value;
      case CompareOp::kNe: return v != int_value;
      case CompareOp::kLt: return v < int_value;
      case CompareOp::kLe: return v <= int_value;
      case CompareOp::kGt: return v > int_value;
      case CompareOp::kGe: return v >= int_value;
    }
    return false;
  }
};

// An aggregation over the matching rows, evaluated below the merge: each
// block yields a partial aggregate (AggResult) instead of rows, and the
// merge combines them. kNone is a plain row-retrieval query.
struct Aggregate {
  enum class Kind : uint8_t {
    kNone = 0,
    kCount,       // row count; needs no data IO beyond filtering
    kSum,         // int64 column sum
    kMin,         // int64 column min
    kMax,         // int64 column max
    kGroupCount,  // per-value row counts (small-cardinality group-by)
  };

  Kind kind = Kind::kNone;
  std::string column;  // aggregated column; unused for kCount

  static Aggregate Count() { return {Kind::kCount, {}}; }
  static Aggregate Sum(std::string column) {
    return {Kind::kSum, std::move(column)};
  }
  static Aggregate Min(std::string column) {
    return {Kind::kMin, std::move(column)};
  }
  static Aggregate Max(std::string column) {
    return {Kind::kMax, std::move(column)};
  }
  static Aggregate GroupCount(std::string column) {
    return {Kind::kGroupCount, std::move(column)};
  }
};

// A single-tenant log retrieval: the paper's canonical template
// (tenant + time range + per-field conjuncts + projection).
struct LogQuery {
  uint64_t tenant_id = 0;
  int64_t ts_min = INT64_MIN;
  int64_t ts_max = INT64_MAX;
  std::vector<Predicate> predicates;         // ANDed
  std::vector<std::string> select_columns;   // empty = all columns
  uint32_t limit = 0;                        // 0 = unlimited
  // When set, the query returns QueryResult::agg instead of rows. The
  // aggregate always covers ALL matching rows: `limit` does not cut the
  // scan (for kGroupCount it is the presentation top-k only, applied by
  // AggResult::TopK at the very end).
  Aggregate agg;

  bool is_aggregate() const { return agg.kind != Aggregate::Kind::kNone; }
};

}  // namespace logstore::query

#endif  // LOGSTORE_QUERY_PREDICATE_H_
