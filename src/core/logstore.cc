#include "core/logstore.h"

#include "consensus/raft.h"
#include "objectstore/file_object_store.h"
#include "objectstore/memory_object_store.h"
#include "objectstore/simulated_object_store.h"
#include "rowstore/wal.h"

namespace logstore {

LogStore::~LogStore() = default;

Result<std::unique_ptr<LogStore>> LogStore::Open(LogStoreOptions options) {
  std::unique_ptr<LogStore> db(new LogStore());
  db->options_ = std::move(options);

  // One registry serves every layer the facade stacks up; propagate it into
  // the nested options (when unset) before any wrapped store, engine, or
  // WAL is constructed.
  metrics::MetricRegistry* registry = metrics::OrDefault(db->options_.registry);
  if (db->options_.engine.registry == nullptr) {
    db->options_.engine.registry = registry;
  }
  if (db->options_.retry_options.registry == nullptr) {
    db->options_.retry_options.registry = registry;
  }
  if (db->options_.fault_options.registry == nullptr) {
    db->options_.fault_options.registry = registry;
  }
  if (db->options_.wal.registry == nullptr) {
    db->options_.wal.registry = registry;
  }
  db->rows_appended_.Bind(registry->Counter("core.rows_appended"));
  db->appends_.Bind(registry->Counter("core.appends"));
  db->flushes_.Bind(registry->Counter("core.flushes"));
  db->logblocks_built_.Bind(registry->Counter("core.logblocks_built"));
  db->queries_.Bind(registry->Counter("core.queries"));
  db->blocks_expired_.Bind(registry->Counter("core.logblocks_expired"));
  db->rows_in_rowstore_gauge_ = registry->Gauge("core.rows_in_rowstore");
  db->logblocks_gauge_ = registry->Gauge("core.logblocks");
  db->object_bytes_gauge_ = registry->Gauge("core.object_bytes");
  db->tenant_count_gauge_ = registry->Gauge("core.tenant_count");

  std::unique_ptr<objectstore::ObjectStore> base;
  if (db->options_.storage_dir.empty()) {
    base = std::make_unique<objectstore::MemoryObjectStore>(registry);
  } else {
    auto opened =
        objectstore::FileObjectStore::Open(db->options_.storage_dir, registry);
    if (!opened.ok()) return opened.status();
    base = std::move(opened).value();
  }
  if (db->options_.simulate_object_latency) {
    base = std::make_unique<objectstore::SimulatedObjectStore>(
        std::move(base), db->options_.simulated);
  }
  if (db->options_.inject_object_faults) {
    base = std::make_unique<objectstore::FaultInjectingObjectStore>(
        std::move(base), db->options_.fault_options);
  }
  db->store_ = std::move(base);
  db->retrying_store_ = std::make_unique<objectstore::RetryingObjectStore>(
      db->store_.get(), db->options_.retry_options);

  db->row_store_ = std::make_unique<rowstore::RowStore>(db->options_.schema);
  db->builder_ = std::make_unique<cluster::DataBuilder>(
      db->retrying_store_.get(), &db->metadata_, db->options_.builder);

  auto engine = query::QueryEngine::Open(db->retrying_store_.get(),
                                         db->options_.engine);
  if (!engine.ok()) return engine.status();
  db->engine_ = std::move(engine).value();

  // Recover the catalog checkpoint, if one exists: reopening a store picks
  // up every LogBlock archived by previous runs.
  auto manifest = db->retrying_store_->Get(kCatalogKey);
  if (manifest.ok()) {
    Slice in(*manifest);
    LOGSTORE_RETURN_IF_ERROR(
        logblock::LogBlockMap::DecodeFrom(&in, &db->metadata_));
    // Resume key numbering past every recovered object
    // (keys are <prefix><tenant>/<sequence>.tar).
    uint64_t max_sequence = 0;
    for (uint64_t tenant : db->metadata_.Tenants()) {
      for (const auto& block : db->metadata_.TenantBlocks(tenant)) {
        const size_t slash = block.object_key.rfind('/');
        if (slash == std::string::npos) continue;
        const uint64_t seq =
            strtoull(block.object_key.c_str() + slash + 1, nullptr, 10);
        max_sequence = std::max(max_sequence, seq + 1);
      }
    }
    db->builder_->set_next_sequence(max_sequence);
  } else if (!manifest.status().IsNotFound()) {
    return manifest.status();
  }

  if (!db->options_.wal_dir.empty()) {
    auto wal =
        consensus::DurableLog::Open(db->options_.wal_dir, db->options_.wal);
    if (!wal.ok()) return wal.status();
    db->wal_ = std::move(wal).value();
    const consensus::RecoveredState& recovered = db->wal_->recovered();
    // Key numbering must clear both the recovered catalog and the WAL
    // watermark cookie (a crash between upload and checkpoint can leave
    // the cookie ahead of the catalog).
    db->builder_->set_next_sequence(
        std::max(db->builder_->next_sequence(), recovered.watermark_aux));
    // Replay un-archived entries: rows appended but not flushed before the
    // crash become visible again. Entries at or below the watermark are
    // already on the object store and stay out of the row store.
    uint64_t index = recovered.base_index;
    for (const consensus::LogEntry& entry : recovered.entries) {
      ++index;
      auto record =
          rowstore::DecodeWalRecord(entry.payload, db->options_.schema);
      if (record.ok()) {
        db->rows_appended_ += record->rows.num_rows();
        db->row_store_->Append(record->tenant_id, std::move(record->rows));
      }
      db->wal_index_to_seq_[index] = db->row_store_->last_seq();
    }
    db->next_wal_index_ = index + 1;
  }
  return db;
}

Status LogStore::CheckpointCatalog() {
  std::string manifest;
  metadata_.EncodeTo(&manifest);
  return retrying_store_->Put(kCatalogKey, manifest);
}

Status LogStore::Append(uint64_t tenant, const logblock::RowBatch& rows) {
  if (!(rows.schema() == options_.schema)) {
    return Status::InvalidArgument("batch schema does not match table schema");
  }
  if (wal_ != nullptr) {
    std::lock_guard<std::mutex> lock(flush_mu_);
    // Write-ahead: the entry is journaled and (per the sync policy) on disk
    // before the row store applies it — an OK return means the batch
    // survives a crash.
    consensus::LogEntry entry;
    entry.term = 1;
    entry.payload = rowstore::EncodeWalRecord(tenant, rows);
    // A failed append rolls the WAL back to the previous record boundary,
    // so the index is NOT consumed and the next append retries it.
    LOGSTORE_RETURN_IF_ERROR(wal_->AppendEntry(next_wal_index_, entry));
    // Past this point the WAL HAS consumed the index (the record is
    // journaled, even if not yet on disk), so the counter must advance
    // even when the sync fails — otherwise every later append would be
    // rejected as non-contiguous. The batch is simply not acked and not
    // applied: journaled-but-unacknowledged is a legal WAL state (recovery
    // may or may not replay it; the client saw an error either way).
    const uint64_t index = next_wal_index_++;
    const Status synced = wal_->Sync();
    if (!synced.ok()) return synced;
    row_store_->Append(tenant, rows);
    wal_index_to_seq_[index] = row_store_->last_seq();
  } else {
    row_store_->Append(tenant, rows);
  }
  rows_appended_ += rows.num_rows();
  ++appends_;

  if (options_.autoflush_rows != 0 &&
      row_store_->row_count() >= options_.autoflush_rows) {
    auto flushed = Flush();
    if (!flushed.ok()) return flushed.status();
  }
  return Status::OK();
}

Result<int> LogStore::Flush() {
  std::lock_guard<std::mutex> lock(flush_mu_);
  ++flushes_;
  auto built = builder_->BuildOnce(row_store_.get());
  if (!built.ok()) return built.status();
  logblocks_built_ += static_cast<uint64_t>(*built);
  if (*built > 0) {
    LOGSTORE_RETURN_IF_ERROR(CheckpointCatalog());
    if (wal_ != nullptr) {
      // Advance the archived-through watermark to the largest entry whose
      // rows are ALL on the object store (a build pass can cut mid-entry),
      // then GC segments wholly below it. A crash before this point merely
      // replays the entries: at-least-once archiving, nothing lost.
      const uint64_t archived = row_store_->archived_seq();
      uint64_t watermark = 0;
      for (const auto& [index, seq] : wal_index_to_seq_) {
        if (seq > archived) break;
        watermark = index;
      }
      if (watermark > 0) {
        LOGSTORE_RETURN_IF_ERROR(wal_->PersistWatermark(
            watermark, /*term=*/1, builder_->next_sequence()));
        wal_index_to_seq_.erase(wal_index_to_seq_.begin(),
                                wal_index_to_seq_.upper_bound(watermark));
      }
    }
  }
  return built;
}

Result<query::QueryResult> LogStore::Query(const query::LogQuery& query) {
  ++queries_;
  query::ReadContext context;
  context.schema = &options_.schema;
  context.scan_realtime = [&] {
    query::RealtimeRows batches;
    batches.emplace_back(0, row_store_->ScanTenant(query.tenant_id,
                                                   query.ts_min, query.ts_max,
                                                   query.predicates));
    return batches;
  };
  return engine_->Read(query, metadata_, context);
}

Result<int> LogStore::Expire(uint64_t tenant, int64_t cutoff_ts) {
  const auto expired = metadata_.ExpireBefore(tenant, cutoff_ts);
  if (expired.empty()) return 0;
  // The catalog stops naming the blocks before their objects go: a failure
  // leaves orphan objects, never a catalog entry naming a deleted object.
  LOGSTORE_RETURN_IF_ERROR(CheckpointCatalog());
  for (const auto& entry : expired) {
    LOGSTORE_RETURN_IF_ERROR(retrying_store_->Delete(entry.object_key));
  }
  blocks_expired_ += expired.size();
  return static_cast<int>(expired.size());
}

void LogStore::SetRetention(uint64_t tenant, int64_t retention_micros) {
  std::lock_guard<std::mutex> lock(retention_mu_);
  if (retention_micros <= 0) {
    retention_micros_.erase(tenant);
  } else {
    retention_micros_[tenant] = retention_micros;
  }
}

Result<int> LogStore::ApplyRetentionPolicies(int64_t now_micros) {
  std::map<uint64_t, int64_t> policies;
  {
    std::lock_guard<std::mutex> lock(retention_mu_);
    policies = retention_micros_;
  }
  int total = 0;
  for (const auto& [tenant, retention] : policies) {
    auto expired = Expire(tenant, now_micros - retention);
    if (!expired.ok()) return expired.status();
    total += *expired;
  }
  return total;
}

LogStore::Stats LogStore::GetStats() const {
  Stats stats;
  stats.rows_appended = rows_appended_.load();
  stats.rows_in_rowstore = row_store_->row_count();
  stats.rows_archived = builder_->rows_archived();
  stats.logblocks = metadata_.TotalBlocks();
  stats.object_bytes = builder_->bytes_uploaded();
  stats.tenant_count = metadata_.Tenants().size();
  // Refresh the registry mirrors of the computed fields, so a registry
  // dump after GetStats reflects the same snapshot.
  rows_in_rowstore_gauge_->store(static_cast<int64_t>(stats.rows_in_rowstore),
                                 std::memory_order_relaxed);
  logblocks_gauge_->store(static_cast<int64_t>(stats.logblocks),
                          std::memory_order_relaxed);
  object_bytes_gauge_->store(static_cast<int64_t>(stats.object_bytes),
                             std::memory_order_relaxed);
  tenant_count_gauge_->store(static_cast<int64_t>(stats.tenant_count),
                             std::memory_order_relaxed);
  return stats;
}

}  // namespace logstore
