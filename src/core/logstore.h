#ifndef LOGSTORE_CORE_LOGSTORE_H_
#define LOGSTORE_CORE_LOGSTORE_H_

#include <memory>
#include <string>

#include "cluster/data_builder.h"
#include "common/metrics.h"
#include "common/result.h"
#include "consensus/durable_log.h"
#include "logblock/logblock_map.h"
#include "logblock/row_batch.h"
#include "logblock/schema.h"
#include "objectstore/fault_injecting_object_store.h"
#include "objectstore/object_store.h"
#include "objectstore/retrying_object_store.h"
#include "objectstore/simulated_object_store.h"
#include "query/engine.h"
#include "query/predicate.h"
#include "rowstore/row_store.h"

namespace logstore {

// ---------------------------------------------------------------------------
// LogStore — embedded single-process engine.
//
// The complete LogStore write/read pipeline in one object:
//
//   Append  ->  write-optimized row store (real-time visibility)
//   Flush   ->  data builder converts rows to per-tenant LogBlocks on the
//               object store and advances the checkpoint
//   Query   ->  LogBlock-map pruning + data skipping + caches + prefetch
//               over archived data, merged with the real-time store
//   Expire  ->  retires whole LogBlocks per tenant retention policy
//
// For the multi-node deployment with Raft replication and traffic
// scheduling, see cluster::Cluster; this facade is the single-worker
// equivalent that examples and embedding applications use.
// ---------------------------------------------------------------------------

struct LogStoreOptions {
  logblock::Schema schema = logblock::RequestLogSchema();

  // Object storage: a local directory, or in-memory when empty.
  std::string storage_dir;
  // Injects OSS-like latency/bandwidth on every object-store request.
  bool simulate_object_latency = false;
  objectstore::SimulatedStoreOptions simulated;
  // Injects transient object-store faults (errors, short reads, latency
  // spikes) for resilience testing; the facade's retry layer must absorb
  // them.
  bool inject_object_faults = false;
  objectstore::FaultInjectionOptions fault_options;
  // Bounded retries of every object-store call the facade makes: catalog
  // checkpoint and recovery, uploads, reads and expiry deletes all go
  // through one RetryingObjectStore over the store chain above.
  objectstore::RetryOptions retry_options;

  query::EngineOptions engine;
  cluster::DataBuilderOptions builder;

  // Automatically Flush() when the row store exceeds this many rows
  // (0 = manual flushing only).
  uint64_t autoflush_rows = 0;

  // Non-empty: journal every Append into a durable segmented WAL at this
  // directory before acknowledging it, and on Open replay un-archived
  // entries (those above the archived-through watermark) back into the row
  // store — so rows that were appended but not yet flushed survive a
  // process crash. Flush advances the watermark and garbage-collects WAL
  // segments whose entries are all on the object store.
  std::string wal_dir;
  consensus::DurableLogOptions wal;

  // Registry receiving the facade's `core.*` counters and — propagated
  // into the nested engine/retry/fault/WAL options when those are unset —
  // every wrapped layer's metrics. nullptr means the process-wide default.
  metrics::MetricRegistry* registry = nullptr;
};

class LogStore {
 public:
  static Result<std::unique_ptr<LogStore>> Open(LogStoreOptions options = {});

  ~LogStore();
  LogStore(const LogStore&) = delete;
  LogStore& operator=(const LogStore&) = delete;

  const logblock::Schema& schema() const { return options_.schema; }

  // Appends rows for `tenant`. Data is immediately visible to Query.
  Status Append(uint64_t tenant, const logblock::RowBatch& rows);

  // Runs one archive pass (row store -> LogBlocks on object storage) and
  // checkpoints the catalog. Returns the number of LogBlocks built.
  Result<int> Flush();

  // Key of the persisted catalog (tenant LogBlock map) checkpoint. In the
  // distributed deployment the controller owns this; the embedded engine
  // writes it on Flush/Expire and recovers it on Open.
  static constexpr char kCatalogKey[] = "catalog/MANIFEST";

  // Single-tenant retrieval and analytics.
  Result<query::QueryResult> Query(const query::LogQuery& query);

  // Deletes `tenant`'s LogBlocks wholly older than `cutoff_ts`; returns
  // how many were removed.
  Result<int> Expire(uint64_t tenant, int64_t cutoff_ts);

  // Differentiated per-tenant retention (§3.1: "differentiated data
  // recycling and billing policies for different tenants"). A tenant with
  // retention R keeps logs whose ts is within R of `now`; 0 (default)
  // keeps everything (the compliance/archival tenants).
  void SetRetention(uint64_t tenant, int64_t retention_micros);

  // The periodic expiration task (controller's "cleaning up expired
  // data"): applies every tenant's retention policy against `now_micros`.
  // Returns the number of LogBlocks deleted.
  Result<int> ApplyRetentionPolicies(int64_t now_micros);

  struct Stats {
    uint64_t rows_appended = 0;
    uint64_t rows_in_rowstore = 0;
    uint64_t rows_archived = 0;
    uint64_t logblocks = 0;
    uint64_t object_bytes = 0;  // uploaded so far
    uint64_t tenant_count = 0;
  };
  Stats GetStats() const;

  // Storage footprint of one tenant (the billing input).
  uint64_t TenantBytes(uint64_t tenant) const {
    return metadata_.TenantBytes(tenant);
  }

  // The store chain beneath the retry layer (simulated latency and
  // injected faults included).
  objectstore::ObjectStore* object_store() { return store_.get(); }
  query::QueryEngine* engine() { return engine_.get(); }
  logblock::LogBlockMap* metadata() { return &metadata_; }
  // Null when wal_dir is unset.
  consensus::DurableLog* wal() { return wal_.get(); }

 private:
  LogStore() = default;

  // Persists the catalog checkpoint to the object store.
  Status CheckpointCatalog();

  LogStoreOptions options_;
  std::unique_ptr<objectstore::ObjectStore> store_;
  // The one retry layer over store_: every object-store call goes through it.
  std::unique_ptr<objectstore::RetryingObjectStore> retrying_store_;
  std::unique_ptr<rowstore::RowStore> row_store_;
  logblock::LogBlockMap metadata_;
  std::unique_ptr<cluster::DataBuilder> builder_;
  std::unique_ptr<query::QueryEngine> engine_;

  // Durable append journal (wal_dir mode). Guarded by flush_mu_ together
  // with wal_index_to_seq_, which maps WAL entry index to the row store's
  // last seq after applying it (translates the builder's checkpoint into
  // the WAL GC watermark).
  std::unique_ptr<consensus::DurableLog> wal_;
  uint64_t next_wal_index_ = 1;
  std::map<uint64_t, uint64_t> wal_index_to_seq_;

  std::mutex flush_mu_;

  // `core.*` registry mirrors. The counters dual-write through
  // metrics::Counter; the gauges mirror the computed Stats fields and are
  // refreshed by GetStats().
  metrics::Counter rows_appended_{0};
  metrics::Counter appends_{0};
  metrics::Counter flushes_{0};
  metrics::Counter logblocks_built_{0};
  metrics::Counter queries_{0};
  metrics::Counter blocks_expired_{0};
  std::atomic<int64_t>* rows_in_rowstore_gauge_ = nullptr;
  std::atomic<int64_t>* logblocks_gauge_ = nullptr;
  std::atomic<int64_t>* object_bytes_gauge_ = nullptr;
  std::atomic<int64_t>* tenant_count_gauge_ = nullptr;

  std::mutex retention_mu_;
  std::map<uint64_t, int64_t> retention_micros_;
};

}  // namespace logstore

#endif  // LOGSTORE_CORE_LOGSTORE_H_
