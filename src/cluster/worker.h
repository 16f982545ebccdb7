#ifndef LOGSTORE_CLUSTER_WORKER_H_
#define LOGSTORE_CLUSTER_WORKER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "cluster/data_builder.h"
#include "common/result.h"
#include "consensus/durable_log.h"
#include "consensus/raft.h"
#include "logblock/logblock_map.h"
#include "objectstore/object_store.h"
#include "rowstore/row_store.h"

namespace logstore::cluster {

struct WorkerOptions {
  logblock::Schema schema;
  // When true, every write goes through a 3-replica Raft group before it
  // is acknowledged: node 0 applies it into the worker's row store, and
  // nodes 1 and 2 keep only the WAL (DESIGN §2 says why no follower keeps
  // a second row store). When false, writes apply directly — the mode used
  // by large-scale scheduling simulations. Set exactly when wal_dir is:
  // the constructor refuses either one without the other (wal_status()).
  bool replicated = false;
  consensus::RaftOptions raft;
  DataBuilderOptions builder;

  // The replicas' durable WALs, one at <wal_dir>/node-<i>. Constructing a
  // worker over an existing directory is a process restart — term, vote
  // and log reload from disk, committed entries replay into node 0's row
  // store, and the builder's object-key sequence resumes from the
  // recovered watermark cookie.
  std::string wal_dir;
  consensus::DurableLogOptions wal;

  // Distinguishes successive lives of the same worker id in the builder's
  // object-key salt. A rejoin after failover wipes the WAL directory, which
  // resets the recovered sequence cookie to zero — without a fresh
  // incarnation the revived worker would re-issue object keys its previous
  // life (or the survivor that inherited its tenants) already uploaded,
  // silently overwriting LogBlocks that hold the only archived copy of
  // those rows. The cluster bumps this on every Worker construction.
  uint64_t incarnation = 0;
};

// Aggregated health of one worker, harvested by the cluster's control
// cycle alongside the monitor metrics (the signal layer the controller's
// FailoverWorker decision consumes). `process_alive` is filled in by the
// harvester: a worker whose process died cannot report anything, so the
// cluster synthesizes a dead report for it.
struct WorkerHealth {
  uint32_t worker_id = 0;
  bool process_alive = true;
  bool fenced = false;       // failed over; must not acknowledge writes
  bool wal_ok = true;        // WAL open/recovery succeeded
  bool replicated = false;
  int num_replicas = 0;
  int connected_replicas = 0;
  int wedged_replicas = 0;   // connected members with sticky persist errors
  bool has_leader = true;

  // Per-replica detail, so the escalation ladder can name WHICH replica to
  // repair in place instead of condemning the whole worker.
  struct Replica {
    int node = -1;
    bool connected = false;
    bool wedged = false;  // sticky persist error latched
    bool leader = false;
  };
  std::vector<Replica> replicas;

  // Whether this worker can durably acknowledge a write right now. A false
  // answer from a live process means the worker is wedged (sticky
  // persist_error_, lost quorum, broken WAL) — exactly the state that used
  // to degrade the deployment silently.
  bool CanAck() const {
    if (!process_alive || fenced || !wal_ok) return false;
    if (!replicated) return true;
    return has_leader && wedged_replicas == 0 &&
           connected_replicas >= num_replicas / 2 + 1;
  }
};

// One execution-layer worker (Figure 3): local WAL + row store and a data
// builder for background archiving. The broker routes writes to it by shard
// and counts them in the `cluster.rows_routed` cells the controller reads.
class Worker {
 public:
  // `store` and `map` must outlive the worker.
  Worker(uint32_t id, objectstore::ObjectStore* store,
         logblock::LogBlockMap* map, WorkerOptions options);

  uint32_t id() const { return id_; }

  // Local-write phase: WAL + replication + row-store apply. Returns
  // ResourceExhausted under backpressure (BFC), letting the client retry
  // at a reduced rate. An OK return means the batch is applied on node 0
  // AND durable on every replica WAL (SyncAll ran) — the crash harness
  // holds the worker to exactly this promise.
  Status Write(uint64_t tenant, const logblock::RowBatch& rows);

  // Remote-archive phase: one data-builder pass. Returns LogBlocks built.
  // With `advance_watermark` (the normal path), a successful pass then
  // persists the archived-through watermark into every replica WAL and
  // deletes log segments wholly below it. Passing false models a crash in
  // the window between upload completion and watermark persist: recovery
  // replays those entries again (at-least-once archiving; acked data is
  // never lost, duplicate LogBlocks are possible).
  Result<int> RunBuildPass(bool advance_watermark = true);

  // Real-time query path over un-archived rows.
  logblock::RowBatch ScanRealtime(
      uint64_t tenant, int64_t ts_min, int64_t ts_max,
      const std::vector<query::Predicate>& predicates = {}) const;

  rowstore::RowStore* row_store() { return row_store_.get(); }
  const DataBuilder& builder() const { return *builder_; }

  // Durable-WAL introspection (null when not replicated). After
  // SimulateCrash on the returned logs, destroy the worker and construct a
  // new one over the same wal_dir.
  consensus::DurableLog* wal(int node) {
    return node < static_cast<int>(wals_.size()) ? wals_[node].get() : nullptr;
  }
  consensus::RaftCluster* raft() { return raft_.get(); }
  // Error from opening/recovering the WALs; Write fails with it when set.
  const Status& wal_status() const { return wal_status_; }

  // Kills one replica in place (replicated mode): partitions it from the
  // group and mangles its WAL the way a crash at this instant could have.
  // The surviving majority keeps accepting writes; WAL GC on the live
  // replicas keeps advancing (their disk usage stays bounded).
  Status CrashReplica(int node, consensus::CrashMode mode, uint64_t seed);
  // Restarts a crashed replica: recovers its WAL, rebuilds the raft node
  // from it (volatile state lost, like a real process restart) and rejoins
  // the group. If the group's log base has moved past what this replica
  // holds, the leader repairs it with an InstallSnapshot — drive ticks
  // (e.g. via Write) to let it catch up.
  Status RecoverReplica(int node);

  // Fault injection for the chaos harness (replicated mode): the next WAL
  // fsync on `node` fails with EIO, wedging that replica fail-stop the
  // next time the group tries to ack a write.
  Status InjectReplicaSyncError(int node);
  // Partitions one replica from the group (a lost network link, not a
  // crash). RecoverReplica heals it.
  Status PartitionReplica(int node);
  // Drives the replication group forward without proposing anything —
  // elections converge, repaired replicas catch up. Safe concurrently
  // with Write (both serialize on the raft lock).
  void PumpRaft(int ms);

  // Health snapshot for the control cycle: WAL status, replica
  // connectivity, leader presence, and latched persistence errors.
  WorkerHealth Health() const;

  // Snapshot-manifest verification counters (§13). A chunked InstallSnapshot
  // ships the builder's archived-key manifest as its blob; the installing
  // replica probes each key against shared storage before trusting the
  // archived prefix. `unverified` counts keys the probe could not confirm —
  // a lost/overwritten LogBlock, or shared storage browning out during the
  // install (retryable; the next transfer re-verifies).
  uint64_t snapshot_manifest_keys_checked() const {
    return manifest_keys_checked_.load();
  }
  uint64_t snapshot_manifest_keys_unverified() const {
    return manifest_keys_unverified_.load();
  }

  // Fencing: after the controller fails this worker over, its shards belong
  // to survivors, so a late write accepted here would be acknowledged into
  // a store nobody archives. Fence() makes every later Write fail with
  // kUnavailable; it is irreversible for this object (the worker rejoins
  // the deployment only as a fresh instance via Cluster::RestartWorker).
  void Fence() { fenced_.store(true); }
  bool fenced() const { return fenced_.load(); }

 private:
  // Persists the largest fully-archived entry index into every live
  // replica WAL and GCs segments below it.
  void AdvanceWalWatermark();

  // Node 0's apply function and one node's snapshot-install behavior,
  // reusable for both construction and RecoverReplica (which rebuilds the
  // node). Nodes 1 and 2 are WAL-only: they get no apply function.
  consensus::ApplyFn MakeApplyFn();
  consensus::InstallSnapshotFn MakeInstallFn(int node);
  void InstallSnapshotHooks(int node);
  // Leader-side snapshot blob: the archived-key manifest (see
  // InstallSnapshotHooks). Follower-side check of a received manifest.
  std::string BuildSnapshotManifest() const;
  void VerifySnapshotManifest(const std::string& manifest);
  std::string WalNodeDir(int node) const {
    return options_.wal_dir + "/node-" + std::to_string(node);
  }

  const uint32_t id_;
  WorkerOptions options_;
  // Shared object store, for snapshot-manifest verification (the builder
  // holds its own pointer for uploads).
  objectstore::ObjectStore* store_ = nullptr;
  std::atomic<uint64_t> manifest_keys_checked_{0};
  std::atomic<uint64_t> manifest_keys_unverified_{0};

  // The worker's one row store: raft node 0 applies into it when
  // replicated, Write appends to it directly when not.
  std::unique_ptr<rowstore::RowStore> row_store_;
  std::unique_ptr<consensus::RaftCluster> raft_;

  // Durable WALs, one per replica, indexed like raft nodes.
  std::vector<std::unique_ptr<consensus::DurableLog>> wals_;
  Status wal_status_ = Status::OK();
  // Apply-order map from raft entry index to the row store's last seq
  // after node 0 applied it; lets the build pass translate "rows archived
  // through seq S" into "entries archived through index I" for WAL GC.
  std::map<uint64_t, uint64_t> applied_index_to_seq_;

  std::unique_ptr<DataBuilder> builder_;
  std::atomic<bool> fenced_{false};

  // Serializes every raft-group access (Write's propose/tick/sync loop,
  // the build pass's watermark advance, health harvests, and the monitor
  // thread's replica recoveries). The raft harness itself is
  // single-threaded by design; this lock is what lets a background control
  // plane share a worker with foreground writers.
  mutable std::mutex raft_mu_;
};

}  // namespace logstore::cluster

#endif  // LOGSTORE_CLUSTER_WORKER_H_
