#ifndef LOGSTORE_QUERY_AGGREGATION_H_
#define LOGSTORE_QUERY_AGGREGATION_H_

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "logblock/row_batch.h"
#include "query/predicate.h"

namespace logstore::query {

// Lightweight BI aggregations over query results (§1: "which IP addresses
// frequently accessed this API in the past day?").

struct GroupCount {
  std::string key;
  uint64_t count = 0;
};

// Groups `values` (rendered as strings; int64 values are decimal-formatted)
// and returns the k most frequent groups, descending by count, ties broken
// by key for determinism.
inline std::vector<GroupCount> GroupCountTopK(
    const std::vector<logblock::Value>& values, size_t k) {
  std::map<std::string, uint64_t> counts;
  for (const logblock::Value& v : values) {
    const std::string key =
        v.type == logblock::ColumnType::kInt64 ? std::to_string(v.i) : v.s;
    counts[key]++;
  }
  std::vector<GroupCount> groups;
  groups.reserve(counts.size());
  for (auto& [key, count] : counts) groups.push_back({key, count});
  std::sort(groups.begin(), groups.end(),
            [](const GroupCount& a, const GroupCount& b) {
              return a.count != b.count ? a.count > b.count : a.key < b.key;
            });
  if (groups.size() > k) groups.resize(k);
  return groups;
}

// Simple numeric rollups over an int64 value list.
struct Int64Rollup {
  uint64_t count = 0;
  int64_t min = INT64_MAX;
  int64_t max = INT64_MIN;
  int64_t sum = 0;

  double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }
};

inline Int64Rollup RollupInt64(const std::vector<logblock::Value>& values) {
  Int64Rollup rollup;
  for (const logblock::Value& v : values) {
    if (v.type != logblock::ColumnType::kInt64) continue;
    rollup.count++;
    rollup.min = std::min(rollup.min, v.i);
    rollup.max = std::max(rollup.max, v.i);
    rollup.sum += v.i;
  }
  return rollup;
}

// A partial aggregate computed below the merge — per column block, per
// LogBlock — and combined by the merge. Every combine is
// order-independent (count/sum/min/max are commutative; groups merge by
// key), so the merged result is placement- and scheduling-independent.
//
// `groups` is kept CANONICAL (ascending by key) at every stage; the
// presentation order (count-desc top-k) is applied only at the very end via
// TopK(), because trimming before the last merge could drop a key another
// partial would have pushed into the top k.
struct AggResult {
  Aggregate::Kind kind = Aggregate::Kind::kNone;
  uint64_t rows = 0;  // rows aggregated (the count for kCount)
  int64_t sum = 0;
  int64_t min = INT64_MAX;  // identity when rows == 0
  int64_t max = INT64_MIN;
  std::vector<GroupCount> groups;  // kGroupCount only, ascending by key

  void MergeFrom(const AggResult& other) {
    if (other.kind == Aggregate::Kind::kNone) return;
    kind = other.kind;
    rows += other.rows;
    sum += other.sum;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    if (!other.groups.empty()) {
      // Both sides are ascending by key: a linear merge-join keeps the
      // result canonical without re-sorting.
      std::vector<GroupCount> merged;
      merged.reserve(groups.size() + other.groups.size());
      size_t a = 0, b = 0;
      while (a < groups.size() && b < other.groups.size()) {
        if (groups[a].key < other.groups[b].key) {
          merged.push_back(std::move(groups[a++]));
        } else if (other.groups[b].key < groups[a].key) {
          merged.push_back(other.groups[b++]);
        } else {
          groups[a].count += other.groups[b].count;
          merged.push_back(std::move(groups[a]));
          ++a;
          ++b;
        }
      }
      while (a < groups.size()) merged.push_back(std::move(groups[a++]));
      while (b < other.groups.size()) merged.push_back(other.groups[b++]);
      groups = std::move(merged);
    }
  }

  // Presentation order for kGroupCount: count-desc, key-asc ties, trimmed
  // to k (0 = all groups). Matches GroupCountTopK over the raw values.
  std::vector<GroupCount> TopK(size_t k) const {
    std::vector<GroupCount> out = groups;
    std::sort(out.begin(), out.end(),
              [](const GroupCount& a, const GroupCount& b) {
                return a.count != b.count ? a.count > b.count : a.key < b.key;
              });
    if (k != 0 && out.size() > k) out.resize(k);
    return out;
  }
};

// The one fold of matching rows, archived or realtime, into a partial
// aggregate: Add the aggregated column's value of each matching row (none
// for kCount), then Finish once with the number of matching rows. Int64
// group keys are decimal, by std::to_chars.
class AggFold {
 public:
  explicit AggFold(Aggregate::Kind kind) { result_.kind = kind; }

  void Add(int64_t v) {
    switch (result_.kind) {
      case Aggregate::Kind::kSum:
        result_.sum += v;
        break;
      case Aggregate::Kind::kMin:
        result_.min = std::min(result_.min, v);
        break;
      case Aggregate::Kind::kMax:
        result_.max = std::max(result_.max, v);
        break;
      case Aggregate::Kind::kGroupCount: {
        char key[24];
        const auto end = std::to_chars(key, key + sizeof(key), v);
        CountGroup(std::string_view(key, end.ptr - key));
        break;
      }
      default:
        break;
    }
  }
  // Only groups fold strings: Bind refuses sum/min/max over one.
  void Add(std::string_view v) {
    if (result_.kind == Aggregate::Kind::kGroupCount) CountGroup(v);
  }

  AggResult Finish(uint64_t rows) {
    result_.rows = rows;
    result_.groups.reserve(groups_.size());
    for (auto& [key, count] : groups_) {
      result_.groups.push_back({key, count});  // ascending by key: canonical
    }
    return std::move(result_);
  }

 private:
  // A row whose group exists costs no allocation.
  void CountGroup(std::string_view key) {
    auto it = groups_.find(key);
    if (it == groups_.end()) it = groups_.emplace(std::string(key), 0).first;
    ++it->second;
  }

  AggResult result_;
  std::map<std::string, uint64_t, std::less<>> groups_;
};

}  // namespace logstore::query

#endif  // LOGSTORE_QUERY_AGGREGATION_H_
