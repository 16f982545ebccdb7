#include "rowstore/row_store.h"

#include <string_view>

#include "query/bind.h"
#include "query/vectorized.h"

namespace logstore::rowstore {

using logblock::RowBatch;

namespace {

std::vector<index::Int64Sma> IntSmas(const RowBatch& rows) {
  std::vector<index::Int64Sma> smas(rows.schema().num_columns());
  for (size_t c = 0; c < smas.size(); ++c) {
    if (rows.schema().column(c).type != logblock::ColumnType::kInt64) continue;
    for (int64_t v : rows.Int64Column(c)) smas[c].Update(v);
  }
  return smas;
}

}  // namespace

RowStore::RowStore(logblock::Schema schema) : schema_(std::move(schema)) {}

uint64_t RowStore::Append(uint64_t tenant_id, RowBatch&& rows) {
  const uint32_t n = rows.num_rows();
  const uint64_t bytes = rows.ApproximateBytes();
  std::vector<index::Int64Sma> smas = IntSmas(rows);
  std::lock_guard<std::mutex> lock(mu_);
  if (n > 0) {
    entries_.push_back(
        {next_seq_, tenant_id, std::move(rows), std::move(smas)});
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
    // Partly archived: keep the rows above `seq`. The entry's SMAs still
    // bound the rows it keeps.
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
  query::LogQuery filter;
  filter.ts_min = ts_min;
  filter.ts_max = ts_max;
  filter.predicates = predicates;
  // A predicate naming no column, or a column of the other type, holds
  // for no row.
  const auto bound = query::Bind(filter, schema_);
  if (!bound.ok()) return result;

  // Selection bitmaps, one bit per row of an entry, and string views of
  // the column a string predicate reads; reused across entries.
  std::vector<uint64_t> selected;
  std::vector<uint64_t> words;
  std::vector<std::string_view> views;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& entry : entries_) {
    if (entry.tenant_id != tenant_id) continue;
    const RowBatch& rows = entry.rows;
    const uint32_t n = rows.num_rows();
    // One predicate at a time, ANDed into `selected`: the entry's SMA first,
    // then the LogBlock kernels.
    selected.assign((n + 63) / 64, ~uint64_t{0});
    words.resize(selected.size());
    bool excluded = false;
    for (const query::BoundPredicate& bp : bound->filter) {
      if (query::SmaExcludes(bp, entry.int_smas[bp.col])) {
        excluded = true;
        break;
      }
      if (query::SmaCovers(bp, entry.int_smas[bp.col])) continue;
      const std::string_view* strs = nullptr;
      if (bp.pred.kind != query::Predicate::Kind::kInt64Compare) {
        const std::vector<std::string>& column = rows.StringColumn(bp.col);
        views.assign(column.begin(), column.end());
        strs = views.data();
      }
      query::vectorized::Filter(bp, rows.Int64Column(bp.col).data(), strs, n,
                                words.data());
      for (size_t w = 0; w < words.size(); ++w) selected[w] &= words[w];
    }
    if (excluded) continue;
    // Each run of selected rows is appended as one column range.
    uint32_t run = 0;
    for (uint32_t r = 0; r < n; ++r) {
      if ((selected[r >> 6] >> (r & 63)) & 1) continue;
      if (run < r) result.AppendRows(rows, run, r);
      run = r + 1;
    }
    if (run < n) result.AppendRows(rows, run, n);
  }
  return result;
}

}  // namespace logstore::rowstore
