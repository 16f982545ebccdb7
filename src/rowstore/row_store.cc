#include "rowstore/row_store.h"

#include <algorithm>

#include "index/inverted_index.h"

namespace logstore::rowstore {

using logblock::ColumnType;
using logblock::RowBatch;

namespace {

// A predicate bound to the store's schema once per scan: its column and,
// for MATCH, its query tokens.
struct BoundPredicate {
  const query::Predicate* pred;
  size_t col;
  std::vector<std::string> tokens;
};

bool RowMatches(const RowBatch& rows, uint32_t r, int ts_col, int64_t ts_min,
                int64_t ts_max, const std::vector<BoundPredicate>& bound) {
  if (ts_col >= 0) {
    const int64_t ts = rows.Int64At(ts_col, r);
    if (ts < ts_min || ts > ts_max) return false;
  }
  for (const BoundPredicate& b : bound) {
    switch (b.pred->kind) {
      case query::Predicate::Kind::kInt64Compare:
        if (!b.pred->EvalInt64(rows.Int64At(b.col, r))) return false;
        break;
      case query::Predicate::Kind::kStringEq:
        if (rows.StringAt(b.col, r) != b.pred->str_value) return false;
        break;
      case query::Predicate::Kind::kMatch: {
        const auto have = index::Tokenize(rows.StringAt(b.col, r));
        for (const std::string& token : b.tokens) {
          if (std::find(have.begin(), have.end(), token) == have.end()) {
            return false;
          }
        }
        break;
      }
    }
  }
  return true;
}

}  // namespace

RowStore::RowStore(logblock::Schema schema)
    : schema_(std::move(schema)), ts_col_(schema_.FindColumn("ts")) {}

uint64_t RowStore::Append(uint64_t tenant_id, RowBatch&& rows) {
  const uint32_t n = rows.num_rows();
  const uint64_t bytes = rows.ApproximateBytes();
  std::lock_guard<std::mutex> lock(mu_);
  if (n > 0) {
    entries_.push_back({next_seq_, tenant_id, std::move(rows)});
    row_count_ += n;
    bytes_ += bytes;
    next_seq_ += n;
  }
  return next_seq_ - 1;
}

uint64_t RowStore::Append(uint64_t tenant_id, const RowBatch& rows) {
  RowBatch copy(schema_);
  copy.AppendRows(rows, 0, rows.num_rows());
  return Append(tenant_id, std::move(copy));
}

uint64_t RowStore::row_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return row_count_;
}

uint64_t RowStore::ApproximateBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

uint64_t RowStore::last_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_ - 1;
}

uint64_t RowStore::archived_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return archived_seq_;
}

RowStore::BuildSnapshot RowStore::SnapshotForBuild(uint64_t max_rows) const {
  std::lock_guard<std::mutex> lock(mu_);
  BuildSnapshot snapshot;
  snapshot.end_seq = archived_seq_;
  for (const Entry& entry : entries_) {
    if (snapshot.total_rows >= max_rows) break;
    const uint32_t n = entry.rows.num_rows();
    if (entry.first_seq + n - 1 <= archived_seq_) continue;
    // Rows at or below archived_seq_ are archived already; the cut at
    // max_rows may fall inside the entry.
    const uint32_t begin = archived_seq_ >= entry.first_seq
                               ? static_cast<uint32_t>(archived_seq_ -
                                                       entry.first_seq + 1)
                               : 0;
    const uint64_t quota = max_rows - snapshot.total_rows;
    const uint32_t end =
        begin + static_cast<uint32_t>(std::min<uint64_t>(n - begin, quota));
    auto [it, inserted] =
        snapshot.per_tenant.try_emplace(entry.tenant_id, schema_);
    it->second.AppendRows(entry.rows, begin, end);
    snapshot.end_seq = entry.first_seq + end - 1;
    snapshot.total_rows += end - begin;
  }
  return snapshot;
}

void RowStore::TruncateUpTo(uint64_t seq) {
  std::lock_guard<std::mutex> lock(mu_);
  while (!entries_.empty() && entries_.front().first_seq <= seq) {
    Entry& front = entries_.front();
    const uint32_t n = front.rows.num_rows();
    bytes_ -= front.rows.ApproximateBytes();
    if (front.first_seq + n - 1 <= seq) {
      row_count_ -= n;
      entries_.pop_front();
      continue;
    }
    // Partly archived: keep the rows above `seq`.
    const uint32_t drop = static_cast<uint32_t>(seq - front.first_seq + 1);
    RowBatch rest(schema_);
    rest.AppendRows(front.rows, drop, n);
    front.rows = std::move(rest);
    front.first_seq = seq + 1;
    row_count_ -= drop;
    bytes_ += front.rows.ApproximateBytes();
    break;
  }
  if (seq > archived_seq_) archived_seq_ = seq;
}

void RowStore::ResetToArchived() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  row_count_ = 0;
  bytes_ = 0;
  archived_seq_ = next_seq_ - 1;
}

RowBatch RowStore::ScanTenant(
    uint64_t tenant_id, int64_t ts_min, int64_t ts_max,
    const std::vector<query::Predicate>& predicates) const {
  RowBatch result(schema_);
  // A predicate naming no column, or a column of the other type, holds
  // for no row.
  std::vector<BoundPredicate> bound;
  bound.reserve(predicates.size());
  for (const query::Predicate& pred : predicates) {
    const int col = schema_.FindColumn(pred.column);
    if (col < 0) return result;
    const bool int_pred = pred.kind == query::Predicate::Kind::kInt64Compare;
    if (int_pred != (schema_.column(col).type == ColumnType::kInt64)) {
      return result;
    }
    bound.push_back({&pred, static_cast<size_t>(col), {}});
    if (pred.kind == query::Predicate::Kind::kMatch) {
      bound.back().tokens = index::Tokenize(pred.str_value);
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& entry : entries_) {
    if (entry.tenant_id != tenant_id) continue;
    const RowBatch& rows = entry.rows;
    // Each run of matching rows is appended as one column range.
    uint32_t run = 0;
    for (uint32_t r = 0; r < rows.num_rows(); ++r) {
      if (RowMatches(rows, r, ts_col_, ts_min, ts_max, bound)) continue;
      if (run < r) result.AppendRows(rows, run, r);
      run = r + 1;
    }
    if (run < rows.num_rows()) result.AppendRows(rows, run, rows.num_rows());
  }
  return result;
}

}  // namespace logstore::rowstore
