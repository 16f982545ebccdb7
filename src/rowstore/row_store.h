#ifndef LOGSTORE_ROWSTORE_ROW_STORE_H_
#define LOGSTORE_ROWSTORE_ROW_STORE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "index/sma.h"
#include "logblock/row_batch.h"
#include "query/predicate.h"

namespace logstore::rowstore {

// The write-optimized real-time store of §3.1: "all log data is stored in a
// single huge table, and organized only by the timestamp, rather than
// separated by tenants, to improve space efficiency and reduce random I/O
// accesses". Rows arrive in WAL-apply order and are retained until the data
// builder archives them into per-tenant LogBlocks and truncates (the
// checkpoint). Recent rows remain queryable here, giving LogStore its
// real-time data visibility.
//
// Each applied write stays one entry: the tenant's column batch as it
// arrived, with the sequence number of its first row. Rows are never
// re-materialized one by one; scans, snapshots and truncation work on
// column ranges of those entries.
//
// Thread-safe.
class RowStore {
 public:
  explicit RowStore(logblock::Schema schema);

  const logblock::Schema& schema() const { return schema_; }

  // Appends a tenant's batch; returns the sequence number of the last row.
  // The rvalue overload keeps the batch itself; the other copies it.
  uint64_t Append(uint64_t tenant_id, logblock::RowBatch&& rows);
  uint64_t Append(uint64_t tenant_id, const logblock::RowBatch& rows);

  uint64_t row_count() const;
  uint64_t ApproximateBytes() const;
  uint64_t last_seq() const;
  uint64_t archived_seq() const;

  // Snapshot of un-archived rows (seq in (archived_seq, end_seq]), divided
  // into per-tenant column batches — the remote-archiving step where "the
  // row-store table will be divided into separated columnar tables
  // according to tenants". At most `max_rows` rows are taken.
  struct BuildSnapshot {
    uint64_t end_seq = 0;
    std::map<uint64_t, logblock::RowBatch> per_tenant;
    uint64_t total_rows = 0;
  };
  BuildSnapshot SnapshotForBuild(uint64_t max_rows) const;

  // Drops rows with seq <= `seq` after they have been archived to the
  // object store (the checkpoint advancing).
  void TruncateUpTo(uint64_t seq);

  // Drops every retained row and marks everything issued so far as
  // archived, as if a checkpoint covered the whole store. Used when a
  // lagging replica installs a snapshot: all rows at or below the snapshot
  // live in LogBlocks on the object store, and rows above it re-arrive
  // through the replication protocol.
  void ResetToArchived();

  // Real-time query path: scans retained rows of `tenant` within the ts
  // range, applying `predicates` (all must hold) as a LogBlock scan does:
  // query::Bind, then per entry its SMAs and the LogBlock filter kernels.
  // A predicate that does not bind selects no row. Other tenants' entries
  // are skipped whole, but the walk still visits every entry under the
  // store's lock.
  logblock::RowBatch ScanTenant(
      uint64_t tenant_id, int64_t ts_min, int64_t ts_max,
      const std::vector<query::Predicate>& predicates = {}) const;

 private:
  // One applied write: rows first_seq .. first_seq + rows.num_rows() - 1,
  // with an SMA per column (empty for strings), as a column block has.
  struct Entry {
    uint64_t first_seq;
    uint64_t tenant_id;
    logblock::RowBatch rows;
    std::vector<index::Int64Sma> int_smas;
  };

  const logblock::Schema schema_;

  mutable std::mutex mu_;
  std::deque<Entry> entries_;  // never empty batches
  uint64_t row_count_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t archived_seq_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace logstore::rowstore

#endif  // LOGSTORE_ROWSTORE_ROW_STORE_H_
