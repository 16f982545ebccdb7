#ifndef LOGSTORE_CONSENSUS_RAFT_H_
#define LOGSTORE_CONSENSUS_RAFT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/retry.h"
#include "common/status.h"
#include "consensus/raft_persistence.h"

namespace logstore::consensus {

// ---------------------------------------------------------------------------
// A Raft implementation (Ongaro & Ousterhout '14) with the backpressure
// flow control (BFC) integration of §4.2: the two blocking points of the
// protocol — WAL synchronization and WAL apply — are fronted by bounded
// queues (`sync_queue`, `apply_queue`). When a queue is at its limit the
// node rejects further input, propagating backpressure upstream until the
// client's write rate is limited, instead of letting internal queues
// "explode" and make the node unresponsive.
//
// Persistent state (term, vote, log) can be backed by a RaftPersistence
// (see durable_log.h): the node notifies it on every term/vote change and
// log append/truncate, so a real process restart reloads state from disk
// via AttachPersistence. Without one attached, behavior is the original
// in-memory simulation.
//
// The log carries a base offset (log_base_index_/log_base_term_): entries
// at or below the base have been archived to the object store (the durable
// watermark) and are dropped from memory and from WAL segments. A follower
// whose log ends below a leader's base is repaired with an InstallSnapshot
// RPC: the snapshot is the base itself (index/term/embedder cookie) plus an
// opaque state blob from the embedder — for LogStore the heavy state lives
// in OSS-resident LogBlocks (Taurus-style catch-up from shared storage), so
// the blob stays small and the RPC mostly re-points the follower at the
// shared substrate. This is what lets the embedder advance the watermark
// past a slow, partitioned or dead replica instead of pinning WAL growth on
// the slowest member.
//
// The implementation is tick-driven and single-threaded per cluster: a
// harness (RaftCluster) advances virtual time and shuttles messages, which
// keeps elections, replication and failure tests fully deterministic.
// ---------------------------------------------------------------------------

enum class MessageType {
  kRequestVote,
  kVoteResponse,
  kAppendEntries,
  kAppendResponse,
  kInstallSnapshot,
  // Acknowledges one chunk of a chunked InstallSnapshot transfer; carries
  // the follower's receive cursor so the leader can resume mid-blob after
  // a loss, reorder, or reconnect. The FINAL chunk is acknowledged with a
  // normal kAppendResponse (the install itself), like an unchunked
  // snapshot.
  kSnapshotChunkAck,
};

struct LogEntry {
  uint64_t term = 0;
  std::string payload;
};

struct Message {
  MessageType type = MessageType::kRequestVote;
  int from = -1;
  int to = -1;
  uint64_t term = 0;

  // kRequestVote
  uint64_t last_log_index = 0;
  uint64_t last_log_term = 0;
  // kVoteResponse
  bool vote_granted = false;
  // kAppendEntries
  uint64_t prev_log_index = 0;
  uint64_t prev_log_term = 0;
  std::vector<LogEntry> entries;
  uint64_t leader_commit = 0;
  // kAppendResponse (also acknowledges kInstallSnapshot)
  bool success = false;
  uint64_t match_index = 0;
  bool backpressured = false;  // rejection came from a full apply_queue
  // kInstallSnapshot: the leader's log base and the embedder state blob.
  uint64_t snapshot_index = 0;
  uint64_t snapshot_term = 0;
  uint64_t snapshot_aux = 0;
  std::string snapshot_state;
  // Chunked InstallSnapshot framing. `snapshot_state` holds the chunk's
  // bytes, `snapshot_offset` its position in the blob, `snapshot_total` the
  // full blob size, and `snapshot_last` marks the chunk whose receipt
  // triggers the install. `snapshot_xfer` identifies the transfer: a new
  // leader snapshot (or a restarted transfer) gets a fresh id, and chunks
  // carrying a stale id or an older term are rejected rather than spliced
  // into the current staging buffer. Unchunked snapshots are the
  // degenerate single-chunk case (offset 0, last = true).
  uint64_t snapshot_xfer = 0;
  uint64_t snapshot_offset = 0;
  uint64_t snapshot_total = 0;
  bool snapshot_last = true;
  // kSnapshotChunkAck: where the follower wants the next byte. `success`
  // false asks the leader to rewind (gap or discarded staging).
  uint64_t next_offset = 0;

  // Transport bookkeeping (not protocol state): retransmit attempt count
  // and cumulative backoff rounds already spent on this RPC, carried so a
  // retransmitted copy that is dropped again knows its remaining budget.
  int transport_attempt = 0;
  int64_t transport_delay = 0;
};

enum class Role { kFollower, kCandidate, kLeader };

struct RaftOptions {
  int election_timeout_min_ms = 150;
  int election_timeout_max_ms = 300;
  int heartbeat_interval_ms = 50;
  int max_entries_per_append = 64;

  // BFC limits (§4.2): both item count and byte size are monitored.
  size_t sync_queue_max_items = 1024;
  uint64_t sync_queue_max_bytes = 8ull << 20;
  size_t apply_queue_max_items = 1024;
  uint64_t apply_queue_max_bytes = 8ull << 20;

  // Entries applied to the state machine per tick; models apply-path IO
  // throughput. 0 = unlimited.
  int apply_per_tick = 0;

  // Pipeline window: the leader stops draining the sync queue when the log
  // is this many entries ahead of the commit index. This is what couples a
  // slow follower (stalled commit) back to the client: the window fills,
  // then the sync queue fills, then Propose returns ResourceExhausted.
  uint64_t max_uncommitted_entries = 4096;

  // Chunked InstallSnapshot: state blobs larger than this are shipped in
  // offset-framed chunks with per-chunk acks, so an embedder with large
  // per-replica state can catch up across a lossy link without one giant
  // RPC. 0 = unchunked (single-message snapshots, the original behavior).
  // A LogStore worker's blob is its archived-key manifest, one line per
  // LogBlock, so it chunks once the manifest outgrows this limit.
  size_t snapshot_chunk_bytes = 0;

  // Transport retransmit schedule (RetryPolicy semantics, in delivery
  // rounds): a dropped RPC is retransmitted after an exponential backoff
  // with jitter, up to max_retries extra attempts or the deadline in
  // cumulative backoff rounds. Raft RPCs are idempotent by construction —
  // the transport already injects the duplication a retry layer must
  // tolerate — so retransmission never violates protocol safety; it only
  // turns an effective loss rate p into p^(1+retries). max_retries 0
  // disables (the original fire-and-forget transport).
  int rpc_max_retries = 3;
  int rpc_backoff_base_rounds = 1;
  int rpc_backoff_max_rounds = 8;
  double rpc_backoff_jitter = 0.5;
  int64_t rpc_retry_deadline_rounds = 32;

  // Registry receiving the `raft.*` aggregates; nullptr means the
  // process-wide default.
  metrics::MetricRegistry* registry = nullptr;
};

// Applies committed entries; the worker's row store implements this. A
// node without one is WAL-only (§3: "it can store only WAL on other
// replicas"): it replicates, votes and advances last_applied(), but
// applies nothing.
using ApplyFn = std::function<void(uint64_t index, const std::string& payload)>;

// Produces the opaque state blob a leader ships in InstallSnapshot: the
// state machine's content through `index` (whose watermark cookie is
// `aux`). For LogStore the rows below the watermark already live in OSS
// LogBlocks, so the blob carries no rows: it is the worker's archived-key
// manifest, which the installer checks against shared storage — the
// snapshot re-points the follower at shared storage rather than copying
// state.
using SnapshotStateFn = std::function<std::string(uint64_t index, uint64_t aux)>;

// Installs a received snapshot: REPLACES the state machine's content with
// the state through `index` described by (`aux`, `state`). Called before
// last_applied jumps to `index`; entries above it re-apply normally.
using InstallSnapshotFn =
    std::function<void(uint64_t index, uint64_t aux, const std::string& state)>;

class RaftNode {
 public:
  RaftNode(int id, int cluster_size, RaftOptions options, uint64_t seed,
           ApplyFn apply_fn);

  // Installs the durability layer. With `recovered` non-null, term, vote,
  // log and base are reloaded from it first (process-restart path);
  // commit/applied restart at the base and committed entries re-commit and
  // re-apply through the normal protocol once a leader emerges. Call before
  // the first Tick.
  void AttachPersistence(RaftPersistence* persistence,
                         const RecoveredState* recovered);

  // Installs the snapshot callbacks (both optional). Without a state fn the
  // leader ships an empty blob; without an install fn the follower only
  // adopts the log base. Call before the first Tick.
  void SetSnapshotHooks(SnapshotStateFn state_fn, InstallSnapshotFn install_fn);

  // Client write: enqueue a payload for replication. Fails with
  // kUnavailable when not leader, kResourceExhausted when the sync queue is
  // at its BFC limit.
  Status Propose(std::string payload);

  // Advances virtual time by `ms`, producing outbound messages.
  void Tick(int ms, std::vector<Message>* out);

  // Delivers one inbound message, producing responses.
  void Receive(const Message& message, std::vector<Message>* out);

  // Declares entries through `index` archived: persists a watermark record
  // (with the embedder cookie `aux`), garbage-collects WAL segments wholly
  // below it, and drops the in-memory prefix. Clamped to last_applied().
  Status AdvanceWatermark(uint64_t index, uint64_t aux);

  // Group-commit point: flushes WAL appends buffered under kOnSync. Call
  // before acknowledging a client write. Returns the first persistence
  // error this node has seen (a failed entry append wedges the node until
  // it is restarted over a reopened WAL — acking on top of a diverged
  // journal would break the durability promise).
  Status SyncWal();

  int id() const { return id_; }
  Role role() const { return role_; }
  uint64_t term() const { return term_; }
  uint64_t commit_index() const { return commit_index_; }
  uint64_t last_applied() const { return last_applied_; }
  // Index of the newest entry (log indexes are global and 1-based; entries
  // at or below log_base_index() have been archived and dropped).
  uint64_t log_size() const { return log_base_index_ + log_.size(); }
  uint64_t log_base_index() const { return log_base_index_; }
  uint64_t log_base_aux() const { return log_base_aux_; }
  // How many snapshots this node has installed (tests).
  uint64_t snapshots_installed() const { return snapshots_installed_; }
  // How many snapshots this node has shipped as leader (tests).
  uint64_t snapshots_sent() const { return snapshots_sent_; }
  // Chunked-transfer observability (tests): chunks shipped as leader,
  // chunks accepted as follower, and mid-blob resumes (a transfer that
  // continued from a non-zero offset after a loss/reorder/reconnect).
  uint64_t snapshot_chunks_sent() const { return snapshot_chunks_sent_; }
  uint64_t snapshot_chunks_received() const {
    return snapshot_chunks_received_;
  }
  uint64_t snapshot_chunk_rewinds() const { return snapshot_chunk_rewinds_; }
  // Snapshot traffic refused as stale: chunks from a deposed leader's term
  // and mid-blob chunks whose transfer the follower no longer stages (so a
  // later transfer can never splice a dead transfer's bytes).
  uint64_t snapshot_stale_rejections() const {
    return snapshot_stale_rejections_;
  }
  const LogEntry& log_at(uint64_t index) const {
    return log_[index - log_base_index_ - 1];
  }
  size_t sync_queue_depth() const { return sync_queue_.size(); }
  size_t apply_queue_depth() const { return apply_queue_.size(); }
  int leader_hint() const { return leader_hint_; }
  // First persistence failure this node has latched (sticky until the
  // embedder rebuilds the node over a reopened WAL). A non-OK value means
  // the replica is wedged fail-stop: it will never acknowledge another
  // write, and a health monitor should schedule its repair or failover.
  const Status& persist_error() const { return persist_error_; }

  // Simulated crash/restart: volatile state is lost, persistent state
  // (term, vote, log) survives.
  void Restart();

 private:
  void BecomeFollower(uint64_t term, int leader_hint);
  void BecomeCandidate(std::vector<Message>* out);
  void BecomeLeader(std::vector<Message>* out);
  void BroadcastAppendEntries(std::vector<Message>* out);
  Message MakeAppendFor(int peer) const;
  Message MakeSnapshotFor(int peer);
  // One chunk message of the peer's in-flight transfer, at its cursor.
  Message MakeSnapshotChunkFor(int peer);
  void HandleInstallSnapshot(const Message& m, std::vector<Message>* out);
  void HandleSnapshotChunkAck(const Message& m, std::vector<Message>* out);
  // Installs a fully-received blob (unchunked, or the staging buffer after
  // the final chunk): adopts the log base, resets the state machine, and
  // emits the kAppendResponse acknowledging the install.
  void InstallSnapshotBlob(const Message& m, const std::string& state,
                           std::vector<Message>* out);
  void AdvanceCommit();
  void DrainApplyQueue(int budget);
  void ResetElectionTimer();
  uint64_t LastLogIndex() const { return log_base_index_ + log_.size(); }
  uint64_t LastLogTerm() const {
    return log_.empty() ? log_base_term_ : log_.back().term;
  }
  uint64_t TermAt(uint64_t index) const {
    return index == log_base_index_ ? log_base_term_
                                    : log_[index - log_base_index_ - 1].term;
  }
  // Mirror a term/vote change to the durability layer (no-op when none).
  void PersistHardState();
  // Latches the first persistence failure; SyncWal surfaces it so a write
  // whose journaling failed is never acknowledged.
  void NotePersistError(const Status& s);

  const int id_;
  const int cluster_size_;
  const RaftOptions options_;
  Random rng_;
  ApplyFn apply_fn_;
  SnapshotStateFn snapshot_state_fn_;
  InstallSnapshotFn install_snapshot_fn_;
  RaftPersistence* persistence_ = nullptr;  // not owned; may be null
  // First persistence failure; sticky until the embedder rebuilds the node
  // over a reopened WAL. SyncWal reports it so a wedged journal blocks acks.
  Status persist_error_ = Status::OK();

  // Persistent state.
  uint64_t term_ = 0;
  int voted_for_ = -1;
  // In-memory suffix of the log: log_[i] holds global index
  // log_base_index_ + 1 + i.
  std::vector<LogEntry> log_;
  uint64_t log_base_index_ = 0;
  uint64_t log_base_term_ = 0;
  // Embedder cookie persisted with the watermark/snapshot at the base.
  uint64_t log_base_aux_ = 0;

  // Volatile state.
  Role role_ = Role::kFollower;
  int leader_hint_ = -1;
  uint64_t commit_index_ = 0;
  uint64_t last_applied_ = 0;
  int election_elapsed_ms_ = 0;
  int election_timeout_ms_ = 0;
  int heartbeat_elapsed_ms_ = 0;
  int votes_received_ = 0;

  // Leader state.
  std::vector<uint64_t> next_index_;
  std::vector<uint64_t> match_index_;
  // Atomic (metrics::Counter): ticked on the embedder's control thread but
  // read by test oracles and the monitor from other threads.
  metrics::Counter snapshots_installed_{0};
  metrics::Counter snapshots_sent_{0};
  metrics::Counter snapshot_chunks_sent_{0};
  metrics::Counter snapshot_chunks_received_{0};
  metrics::Counter snapshot_chunk_rewinds_{0};
  metrics::Counter snapshot_stale_rejections_{0};

  // Leader-side chunked transfers, one per peer: the frozen blob being
  // shipped and the send cursor. Frozen at transfer start — if the base
  // advances mid-transfer, the NEXT snapshot trigger starts a fresh
  // transfer with a new id and the follower discards its staging.
  struct SnapshotTransfer {
    uint64_t xfer = 0;
    uint64_t index = 0;
    uint64_t term_at = 0;
    uint64_t aux = 0;
    std::string blob;
    uint64_t offset = 0;  // next byte to ship
  };
  std::map<int, SnapshotTransfer> snapshot_xfers_;
  uint64_t next_snapshot_xfer_ = 0;

  // Follower-side staging for one in-flight chunked transfer. Survives a
  // partition (resume-on-reconnect); replaced when a chunk with a newer
  // transfer id arrives at offset 0; never consulted across terms (a
  // stale-term chunk is rejected before reaching it).
  struct SnapshotStaging {
    uint64_t xfer = 0;  // 0 = none
    int from = -1;
    uint64_t from_term = 0;
    uint64_t index = 0;
    uint64_t total = 0;
    std::string data;  // data.size() is the receive cursor
  };
  SnapshotStaging snapshot_staging_;

  // BFC queues. sync_queue: payloads accepted from clients but not yet
  // appended+broadcast. apply_queue: committed entries awaiting apply.
  std::deque<std::string> sync_queue_;
  uint64_t sync_queue_bytes_ = 0;
  std::deque<std::pair<uint64_t, std::string>> apply_queue_;
  uint64_t apply_queue_bytes_ = 0;
};

// Per-replica health, exported by RaftCluster::Health(). This is the raw
// signal layer the embedder (cluster::Worker) aggregates into a
// WorkerHealth report for the controller's failover decision.
struct ReplicaHealth {
  int node = -1;
  bool connected = false;   // member of the group (not Disconnect()ed)
  bool persist_ok = true;   // no sticky persist_error_ latched
  Role role = Role::kFollower;
  uint64_t last_applied = 0;
};

struct GroupHealth {
  int leader = -1;               // -1: no leader among connected members
  int connected = 0;             // connected member count
  int wedged_connected = 0;      // connected members with a persist error
  std::vector<ReplicaHealth> replicas;

  // A group can durably acknowledge writes only with a leader, a connected
  // majority, and no wedged member inside that majority (SyncAll flushes
  // every connected WAL, so one wedged connected replica fails every ack).
  bool CanAck(int cluster_size) const {
    return leader >= 0 && wedged_connected == 0 &&
           connected >= cluster_size / 2 + 1;
  }
};

// Harness owning a full cluster: routes messages, injects drops, duplicates
// and bounded reordering, advances time. Deterministic given a seed.
class RaftCluster {
 public:
  RaftCluster(int num_nodes, RaftOptions options, uint64_t seed = 42);

  // Per-node apply callbacks must be installed before first Tick.
  void SetApplyFn(int node, ApplyFn fn);

  // Installs a node's durability layer (after SetApplyFn — installing an
  // apply fn recreates the node and would discard the attachment).
  void AttachPersistence(int node, RaftPersistence* persistence,
                         const RecoveredState* recovered);

  // Installs a node's snapshot callbacks (after SetApplyFn, same reason).
  void SetSnapshotHooks(int node, SnapshotStateFn state_fn,
                        InstallSnapshotFn install_fn);

  // Replaces the node with a fresh object (volatile state lost), modeling a
  // single replica's process restart. Re-attach persistence and snapshot
  // hooks afterwards; the node stays disconnected until Reconnect.
  void RestartNode(int node, ApplyFn fn);

  // Advances all nodes by `ms` (in steps), delivering messages in between.
  void Tick(int ms);

  // Runs ticks until a leader exists (or `max_ms` elapses). Returns leader
  // id or -1.
  int WaitForLeader(int max_ms = 10000);

  // Proposes on the current leader.
  Status Propose(std::string payload);

  // Flushes every CONNECTED node's WAL (group commit); first error wins.
  // Call before acknowledging a write so acked ⇒ durable under kOnSync too.
  // Disconnected replicas are skipped: a crashed member must not block the
  // surviving quorum from acknowledging writes.
  Status SyncAll();

  RaftNode& node(int id) { return *nodes_[id]; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int leader() const;

  // Aggregated per-replica health: connectivity, leader presence, and
  // sticky persistence errors. Cheap; safe to call every control cycle.
  GroupHealth Health() const;

  // Fault injection.
  void Disconnect(int node);
  void Reconnect(int node);
  bool disconnected(int node) const { return disconnected_[node]; }
  bool IsConnected(int node) const { return !disconnected_[node]; }
  // Fraction of messages dropped on otherwise-connected links.
  void SetDropRate(double rate) { drop_rate_ = rate; }
  // Fraction of delivered messages that are delivered twice.
  void SetDuplicateRate(double rate) { duplicate_rate_ = rate; }
  // Fraction of messages held back and re-injected 1–3 delivery rounds
  // later (bounded reordering).
  void SetReorderRate(double rate) { reorder_rate_ = rate; }

  // RPCs retransmitted by the transport retry layer after an injected drop
  // (tests: proves the backoff path ran, and bounds it).
  uint64_t retransmits() const { return retransmits_; }

 private:
  void DeliverAll(std::vector<Message>* messages);
  // Transport retry: schedules a dropped message for retransmission after
  // a jittered exponential backoff, if its budget allows.
  void MaybeRetransmit(const Message& message);

  RaftOptions options_;
  Random rng_;
  std::vector<std::unique_ptr<RaftNode>> nodes_;
  std::vector<bool> disconnected_;
  double drop_rate_ = 0.0;
  double duplicate_rate_ = 0.0;
  double reorder_rate_ = 0.0;
  metrics::Counter retransmits_{0};
  struct DelayedMessage {
    Message message;
    int rounds_left = 0;
  };
  std::vector<DelayedMessage> delayed_;
};

}  // namespace logstore::consensus

#endif  // LOGSTORE_CONSENSUS_RAFT_H_
