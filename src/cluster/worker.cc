#include "cluster/worker.h"

#include "rowstore/wal.h"

namespace logstore::cluster {

Worker::Worker(uint32_t id, objectstore::ObjectStore* store,
               logblock::LogBlockMap* map, WorkerOptions options)
    : id_(id), options_(std::move(options)), store_(store) {
  row_store_ = std::make_unique<rowstore::RowStore>(options_.schema);
  DataBuilderOptions builder_options = options_.builder;
  // Per-tenant directories in a shared bucket; the salt scopes sequence
  // numbers to this worker incarnation so no two lives of a worker (or two
  // workers archiving the same tenant after a failover move) can collide on
  // an object key and overwrite each other's LogBlocks.
  builder_options.key_salt = "w" + std::to_string(id) + "-" +
                             std::to_string(options_.incarnation) + "-";
  builder_ = std::make_unique<DataBuilder>(store, map, builder_options);

  // Replication is what the WAL is for, and the WAL is what makes an acked
  // replicated write durable: one without the other is refused.
  if (options_.replicated == options_.wal_dir.empty()) {
    wal_status_ = Status::InvalidArgument(
        options_.replicated ? "a replicated worker needs a wal_dir"
                            : "a wal_dir needs a replicated worker");
    return;
  }
  if (!options_.replicated) return;

  // Recover each replica's WAL before the raft group exists, so a worker
  // whose journal cannot be opened never runs raft without one.
  for (int i = 0; i < 3; ++i) {
    auto wal = consensus::DurableLog::Open(WalNodeDir(i), options_.wal);
    if (!wal.ok()) {
      wal_status_ = wal.status();
      wals_.clear();
      return;
    }
    wals_.push_back(std::move(wal).value());
  }
  raft_ = std::make_unique<consensus::RaftCluster>(3, options_.raft,
                                                   /*seed=*/1000 + id);
  // Node 0 applies into the row store; nodes 1 and 2 store the log and
  // apply nothing (§3: "it can store only WAL on other replicas").
  for (int i = 0; i < 3; ++i) {
    raft_->SetApplyFn(i, i == 0 ? MakeApplyFn() : consensus::ApplyFn());
    InstallSnapshotHooks(i);
    // After SetApplyFn — that recreates the node.
    raft_->AttachPersistence(i, wals_[i].get(), &wals_[i]->recovered());
  }
  // The builder's object-key numbering rides in the watermark cookie of
  // node 0's WAL, so recovered uploads never collide with LogBlocks
  // already on the object store.
  builder_->set_next_sequence(wals_[0]->recovered().watermark_aux);

  const int leader = raft_->WaitForLeader();
  if (leader >= 0 &&
      raft_->node(leader).log_size() > raft_->node(leader).log_base_index()) {
    // Recovered entries carry earlier terms, and Raft §5.4.2 forbids
    // committing those by counting. A no-op barrier in the new term
    // re-commits everything beneath it, replaying committed entries into
    // node 0's row store through the normal apply path.
    const uint64_t barrier = raft_->node(leader).log_size() + 1;
    raft_->node(leader).Propose("").IgnoreError();
    for (int i = 0; i < 1000 && raft_->node(0).last_applied() < barrier;
         ++i) {
      raft_->Tick(10);
    }
  }
}

consensus::ApplyFn Worker::MakeApplyFn() {
  return [this](uint64_t index, const std::string& payload) {
    // Empty payloads are recovery no-op barriers, not data.
    if (!payload.empty()) {
      auto record = rowstore::DecodeWalRecord(payload, options_.schema);
      if (record.ok()) {
        row_store_->Append(record->tenant_id, std::move(record->rows));
      }
    }
    applied_index_to_seq_[index] = row_store_->last_seq();
  };
}

consensus::InstallSnapshotFn Worker::MakeInstallFn(int node) {
  return [this, node](uint64_t /*index*/, uint64_t aux,
                      const std::string& state) {
    // Everything the snapshot covers lives in LogBlocks on the object
    // store (the aux cookie is the builder's object-key sequence at the
    // time of the snapshot): node 0 drops its rows and serves that prefix
    // from shared storage — Taurus-style catch-up, no log replay.
    if (node == 0) {
      row_store_->ResetToArchived();
      // Mappings recorded before the snapshot refer to discarded rows.
      applied_index_to_seq_.clear();
      builder_->set_next_sequence(std::max(builder_->next_sequence(), aux));
    }
    VerifySnapshotManifest(state);
  };
}

void Worker::InstallSnapshotHooks(int node) {
  // A LogStore snapshot's STATE is the watermark itself — the state
  // machine up to it is already in shared storage — so the blob carries a
  // MANIFEST, not data: the object keys this worker's builder has archived
  // (one per line after a version header). Shipping the manifest does two
  // things: the installer can probe that shared storage actually holds the
  // prefix it is about to trust (ResetToArchived discards local rows on
  // that promise — a lost or overwritten LogBlock would otherwise surface
  // only at query time), and the transfer has real bytes to stream, so the
  // chunk/resume/rewind machinery runs the same multi-chunk path at worker
  // scale that the raft-level harness exercises, not an empty-blob special
  // case.
  raft_->SetSnapshotHooks(
      node, [this](uint64_t, uint64_t) { return BuildSnapshotManifest(); },
      MakeInstallFn(node));
}

std::string Worker::BuildSnapshotManifest() const {
  std::string manifest = "logstore-manifest-v1\n";
  for (const std::string& key : builder_->ArchivedKeys()) {
    manifest += key;
    manifest += '\n';
  }
  return manifest;
}

void Worker::VerifySnapshotManifest(const std::string& manifest) {
  const std::string header = "logstore-manifest-v1\n";
  if (manifest.rfind(header, 0) != 0) return;  // pre-manifest (empty) blob
  size_t pos = header.size();
  while (pos < manifest.size()) {
    const size_t eol = manifest.find('\n', pos);
    if (eol == std::string::npos) break;
    const std::string key = manifest.substr(pos, eol - pos);
    pos = eol + 1;
    if (key.empty()) continue;
    ++manifest_keys_checked_;
    if (!store_->Head(key).ok()) ++manifest_keys_unverified_;
  }
}

Status Worker::CrashReplica(int node, consensus::CrashMode mode,
                            uint64_t seed) {
  std::lock_guard<std::mutex> lock(raft_mu_);
  if (wals_.empty()) {
    return Status::InvalidArgument("crash injection needs a durable WAL");
  }
  raft_->Disconnect(node);
  return wals_[node]->SimulateCrash(mode, seed);
}

Status Worker::RecoverReplica(int node) {
  std::lock_guard<std::mutex> lock(raft_mu_);
  if (raft_ == nullptr) {
    return Status::InvalidArgument("recovery needs a replicated worker");
  }
  // Release the dead log before reopening the directory.
  wals_[node].reset();
  auto wal = consensus::DurableLog::Open(WalNodeDir(node), options_.wal);
  if (!wal.ok()) return wal.status();
  wals_[node] = std::move(wal).value();
  // A fresh raft node models the restarted process: volatile state is
  // gone, and term/vote/log reload from the WAL.
  raft_->RestartNode(node, node == 0 ? MakeApplyFn() : consensus::ApplyFn());
  raft_->AttachPersistence(node, wals_[node].get(), &wals_[node]->recovered());
  InstallSnapshotHooks(node);
  if (node == 0) {
    // The restarted process starts with an empty row store. Rows at or
    // below the recovered base are in LogBlocks already; the rest re-apply
    // through the protocol once the node rejoins (or arrive via
    // InstallSnapshot if the group's base has moved past this replica's
    // log).
    row_store_->ResetToArchived();
    applied_index_to_seq_.clear();
    builder_->set_next_sequence(std::max(
        builder_->next_sequence(), wals_[node]->recovered().watermark_aux));
  }
  raft_->Reconnect(node);
  return Status::OK();
}

Status Worker::InjectReplicaSyncError(int node) {
  std::lock_guard<std::mutex> lock(raft_mu_);
  if (node < 0 || node >= static_cast<int>(wals_.size())) {
    return Status::InvalidArgument("sync-error injection needs a durable WAL");
  }
  wals_[node]->InjectSyncErrors(1);
  return Status::OK();
}

Status Worker::PartitionReplica(int node) {
  std::lock_guard<std::mutex> lock(raft_mu_);
  if (raft_ == nullptr || node < 0 || node >= raft_->num_nodes()) {
    return Status::InvalidArgument("no such replica");
  }
  raft_->Disconnect(node);
  return Status::OK();
}

void Worker::PumpRaft(int ms) {
  std::lock_guard<std::mutex> lock(raft_mu_);
  if (raft_ != nullptr) raft_->Tick(ms);
}

WorkerHealth Worker::Health() const {
  WorkerHealth health;
  health.worker_id = id_;
  health.fenced = fenced_.load();
  health.wal_ok = wal_status_.ok();
  health.replicated = options_.replicated;
  std::lock_guard<std::mutex> lock(raft_mu_);
  if (raft_ != nullptr) {
    const consensus::GroupHealth group = raft_->Health();
    health.num_replicas = raft_->num_nodes();
    health.connected_replicas = group.connected;
    health.wedged_replicas = group.wedged_connected;
    health.has_leader = group.leader >= 0;
    for (const consensus::ReplicaHealth& replica : group.replicas) {
      WorkerHealth::Replica r;
      r.node = replica.node;
      r.connected = replica.connected;
      r.wedged = replica.connected && !replica.persist_ok;
      r.leader = replica.role == consensus::Role::kLeader && replica.connected;
      health.replicas.push_back(r);
    }
  }
  return health;
}

Status Worker::Write(uint64_t tenant, const logblock::RowBatch& rows) {
  if (fenced_.load()) {
    return Status::Unavailable("worker " + std::to_string(id_) +
                               " is fenced (failed over)");
  }
  if (!wal_status_.ok()) return wal_status_;
  if (!options_.replicated) {
    row_store_->Append(tenant, rows);
    return Status::OK();
  }
  // Encoded before the raft lock is taken; only the proposal needs it.
  std::string record = rowstore::EncodeWalRecord(tenant, rows);
  // Synchronous commit: propose on the leader and pump the group until
  // the entry is applied (models "the synchronization can only be
  // completed after most of the followers have persisted the WAL").
  std::lock_guard<std::mutex> lock(raft_mu_);
  const int leader = raft_->WaitForLeader();
  if (leader < 0) return Status::Unavailable("no raft leader");
  const uint64_t target = raft_->node(leader).log_size() + 1;
  Status proposed = raft_->node(leader).Propose(std::move(record));
  if (!proposed.ok()) return proposed;  // kResourceExhausted = BFC
  // Wait for the commit to reach node 0, whose row store serves real-time
  // reads, not just the current leader.
  for (int i = 0; i < 1000 && raft_->node(0).last_applied() < target; ++i) {
    raft_->Tick(10);
  }
  if (raft_->node(0).last_applied() < target) {
    return Status::TimedOut("replication did not complete");
  }
  // Group commit: the ack promises durability on every replica under
  // kOnSync as well as kPerRecord.
  return raft_->SyncAll();
}

Result<int> Worker::RunBuildPass(bool advance_watermark) {
  // Under the raft lock end to end: the builder's sequence counter and the
  // applied-index map are shared with the monitor thread's RecoverReplica.
  std::lock_guard<std::mutex> lock(raft_mu_);
  auto built = builder_->BuildOnce(row_store_.get());
  if (built.ok() && advance_watermark && !wals_.empty()) {
    AdvanceWalWatermark();
  }
  return built;
}

void Worker::AdvanceWalWatermark() {
  // Translate the row store's checkpoint (rows through archived_seq are on
  // the object store) into the largest entry index whose rows are ALL
  // archived. SnapshotForBuild can cut mid-entry, so an entry straddling
  // the checkpoint keeps the watermark below it until the next pass.
  const uint64_t archived = row_store_->archived_seq();
  uint64_t watermark = 0;
  for (const auto& [index, seq] : applied_index_to_seq_) {
    if (seq > archived) break;
    watermark = index;
  }
  if (watermark == 0) return;
  const uint64_t aux = builder_->next_sequence();
  for (int i = 0; i < raft_->num_nodes(); ++i) {
    // Per-node: clamped to that node's own applied point, so a lagging
    // replica retains its segments until it catches up. Crashed replicas
    // are skipped — the LIVE replicas' GC keeps advancing regardless (disk
    // stays bounded with a member down), and the dead one is repaired with
    // an InstallSnapshot when it returns rather than by retained segments.
    if (raft_->disconnected(i)) continue;
    raft_->node(i).AdvanceWatermark(watermark, aux).IgnoreError();
  }
  applied_index_to_seq_.erase(applied_index_to_seq_.begin(),
                              applied_index_to_seq_.upper_bound(watermark));
}

logblock::RowBatch Worker::ScanRealtime(
    uint64_t tenant, int64_t ts_min, int64_t ts_max,
    const std::vector<query::Predicate>& predicates) const {
  return row_store_->ScanTenant(tenant, ts_min, ts_max, predicates);
}

}  // namespace logstore::cluster
