#ifndef LOGSTORE_CLUSTER_DATA_BUILDER_H_
#define LOGSTORE_CLUSTER_DATA_BUILDER_H_

#include <atomic>
#include <cstdint>
#include <string>

#include <memory>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "logblock/logblock_map.h"
#include "logblock/logblock_writer.h"
#include "objectstore/object_store.h"
#include "rowstore/row_store.h"

namespace logstore::cluster {

struct DataBuilderOptions {
  // Rows consumed from the row store per build pass.
  uint64_t max_rows_per_build = 500'000;
  // §3.1: "If a tenant is too large due to data skew, it will be divided
  // into multiple LogBlocks."
  uint32_t max_rows_per_logblock = 100'000;
  logblock::LogBlockWriterOptions block_options;
  // Object keys: <prefix><tenant>/<salt><sequence>.tar — one OSS
  // "directory" per tenant holding its chronological LogBlocks. The salt
  // identifies the producing worker incarnation: sequence counters are
  // per-builder, so without it two builders archiving the same tenant
  // (failover moved the tenant, or a rejoined worker whose wiped WAL reset
  // the recovered counter) could reuse a key and overwrite a LogBlock that
  // is the only archived copy of acked rows.
  std::string key_prefix = "tenants/";
  std::string key_salt;
};

// The remote-archiving stage (§3, phase two): converts row-store snapshots
// into per-tenant LogBlocks, uploads them, registers them in the tenant
// LogBlock map, and advances the row store's checkpoint.
class DataBuilder {
 public:
  // `store` and `map` must outlive the builder. Uploads go to `store` as
  // given; the deployment's RetryingObjectStore absorbs transient failures.
  DataBuilder(objectstore::ObjectStore* store, logblock::LogBlockMap* map,
              DataBuilderOptions options = {});

  // Runs one build pass over `row_store`; returns the number of LogBlocks
  // produced. The pass builds and uploads its LogBlocks concurrently on a
  // process-wide pool, with the calling thread helping. It registers them
  // all or none: only when every upload succeeded does it add the map
  // entries and archived keys and truncate the row store past the archived
  // rows. A failed pass keeps every row; what it did upload stays on the
  // store, unreferenced.
  Result<int> BuildOnce(rowstore::RowStore* row_store);

  // Restarts object-key numbering after catalog recovery, so new LogBlocks
  // never collide with keys already on the store.
  void set_next_sequence(uint64_t sequence) { sequence_.store(sequence); }
  uint64_t next_sequence() const { return sequence_.load(); }

  uint64_t blocks_built() const { return blocks_built_.load(); }
  uint64_t rows_archived() const { return rows_archived_.load(); }
  uint64_t bytes_uploaded() const { return bytes_uploaded_.load(); }

  // Object keys this builder instance has registered, in key order (by
  // sequence number): the archived prefix a snapshot of this worker asks a
  // catching-up replica to trust. Shipped as the snapshot-manifest blob (see
  // Worker::InstallSnapshotHooks); a production deployment would cap or
  // checkpoint this list, the simulation keeps every key of the incarnation.
  std::vector<std::string> ArchivedKeys() const;

 private:
  objectstore::ObjectStore* store_;
  logblock::LogBlockMap* map_;
  const DataBuilderOptions options_;

  mutable std::mutex keys_mu_;
  std::vector<std::string> archived_keys_;  // guarded by keys_mu_

  std::atomic<uint64_t> sequence_{0};
  std::atomic<uint64_t> blocks_built_{0};
  std::atomic<uint64_t> rows_archived_{0};
  std::atomic<uint64_t> bytes_uploaded_{0};
};

}  // namespace logstore::cluster

#endif  // LOGSTORE_CLUSTER_DATA_BUILDER_H_
