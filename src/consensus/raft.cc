#include "consensus/raft.h"

#include <algorithm>

namespace logstore::consensus {

RaftNode::RaftNode(int id, int cluster_size, RaftOptions options,
                   uint64_t seed, ApplyFn apply_fn)
    : id_(id),
      cluster_size_(cluster_size),
      options_(options),
      rng_(seed),
      apply_fn_(std::move(apply_fn)),
      next_index_(cluster_size, 1),
      match_index_(cluster_size, 0) {
  metrics::MetricRegistry* registry = metrics::OrDefault(options_.registry);
  snapshots_installed_.Bind(registry->Counter("raft.snapshots_installed"));
  snapshots_sent_.Bind(registry->Counter("raft.snapshots_sent"));
  snapshot_chunks_sent_.Bind(registry->Counter("raft.snapshot_chunks_sent"));
  snapshot_chunks_received_.Bind(
      registry->Counter("raft.snapshot_chunks_received"));
  snapshot_chunk_rewinds_.Bind(
      registry->Counter("raft.snapshot_chunk_rewinds"));
  snapshot_stale_rejections_.Bind(
      registry->Counter("raft.snapshot_stale_rejections"));
  ResetElectionTimer();
}

void RaftNode::AttachPersistence(RaftPersistence* persistence,
                                 const RecoveredState* recovered) {
  persistence_ = persistence;
  persist_error_ = Status::OK();
  if (recovered == nullptr) return;
  term_ = recovered->term;
  voted_for_ = recovered->voted_for;
  log_base_index_ = recovered->base_index;
  log_base_term_ = recovered->base_term;
  log_base_aux_ = recovered->watermark_aux;
  log_ = recovered->entries;
  // Entries at or below the base were archived before the crash and are
  // never re-applied; everything above re-commits through the protocol
  // (the embedder drives a no-op barrier to force it, Raft §5.4.2).
  commit_index_ = log_base_index_;
  last_applied_ = log_base_index_;
  std::fill(next_index_.begin(), next_index_.end(), LastLogIndex() + 1);
  std::fill(match_index_.begin(), match_index_.end(), 0);
}

void RaftNode::PersistHardState() {
  if (persistence_ == nullptr) return;
  // A failed persist must not crash the tick loop; it is latched instead so
  // SyncWal (and so the write ack path) observes it.
  NotePersistError(persistence_->PersistHardState(term_, voted_for_));
}

void RaftNode::NotePersistError(const Status& s) {
  if (!s.ok() && persist_error_.ok()) persist_error_ = s;
}

void RaftNode::SetSnapshotHooks(SnapshotStateFn state_fn,
                                InstallSnapshotFn install_fn) {
  snapshot_state_fn_ = std::move(state_fn);
  install_snapshot_fn_ = std::move(install_fn);
}

void RaftNode::ResetElectionTimer() {
  election_elapsed_ms_ = 0;
  election_timeout_ms_ = static_cast<int>(
      options_.election_timeout_min_ms +
      rng_.Uniform(options_.election_timeout_max_ms -
                   options_.election_timeout_min_ms + 1));
}

Status RaftNode::Propose(std::string payload) {
  if (role_ != Role::kLeader) {
    return Status::Unavailable("not leader; try node " +
                               std::to_string(leader_hint_));
  }
  // BFC trigger point 1: the sync queue monitors both the number and size
  // of pending requests.
  if (sync_queue_.size() >= options_.sync_queue_max_items ||
      (sync_queue_bytes_ + payload.size() > options_.sync_queue_max_bytes &&
       !sync_queue_.empty())) {
    return Status::ResourceExhausted("sync queue at BFC limit");
  }
  sync_queue_bytes_ += payload.size();
  sync_queue_.push_back(std::move(payload));
  return Status::OK();
}

Status RaftNode::AdvanceWatermark(uint64_t index, uint64_t aux) {
  // Only applied entries may be archived, and the base never moves back.
  index = std::min(index, last_applied_);
  if (index < log_base_index_) return Status::OK();
  const uint64_t term = TermAt(index);
  if (persistence_ != nullptr) {
    const Status s = persistence_->PersistWatermark(index, term, aux);
    if (!s.ok()) {
      NotePersistError(s);
      return s;
    }
  }
  log_.erase(log_.begin(), log_.begin() + (index - log_base_index_));
  log_base_index_ = index;
  log_base_term_ = term;
  log_base_aux_ = aux;
  // A peer's next_index below the base would make us fabricate entries we
  // no longer hold; clamp. When such a peer rejects the resulting append it
  // is repaired with an InstallSnapshot instead of further decrements.
  for (uint64_t& next : next_index_) {
    next = std::max(next, log_base_index_ + 1);
  }
  return Status::OK();
}

Status RaftNode::SyncWal() {
  if (!persist_error_.ok()) return persist_error_;
  if (persistence_ == nullptr) return Status::OK();
  // Latch a failed group-commit fsync like any other persistence failure:
  // the journal is fail-stop, so this node must never ack again, and the
  // health report has to show the wedge (not just the one refused write).
  Status s = persistence_->Sync();
  NotePersistError(s);
  return s;
}

void RaftNode::Restart() {
  role_ = Role::kFollower;
  leader_hint_ = -1;
  commit_index_ = log_base_index_;  // volatile; recomputed from the leader
  last_applied_ = log_base_index_;  // state machine is rebuilt by re-applying
  votes_received_ = 0;
  heartbeat_elapsed_ms_ = 0;
  sync_queue_.clear();
  sync_queue_bytes_ = 0;
  apply_queue_.clear();
  apply_queue_bytes_ = 0;
  // A process restart loses in-flight snapshot transfers on both sides:
  // the leader re-freezes a blob on the next trigger, and a follower that
  // lost its staging rejects mid-blob chunks until the leader rewinds.
  snapshot_xfers_.clear();
  snapshot_staging_ = SnapshotStaging();
  std::fill(next_index_.begin(), next_index_.end(), LastLogIndex() + 1);
  std::fill(match_index_.begin(), match_index_.end(), 0);
  ResetElectionTimer();
}

void RaftNode::BecomeFollower(uint64_t term, int leader_hint) {
  const bool term_changed = term != term_;
  term_ = term;
  role_ = Role::kFollower;
  if (leader_hint >= 0) leader_hint_ = leader_hint;
  votes_received_ = 0;
  // Client payloads queued while we thought we were leader are dropped;
  // clients observe kUnavailable on subsequent writes and re-route.
  sync_queue_.clear();
  sync_queue_bytes_ = 0;
  // Leader-side snapshot transfers die with the leadership; a follower's
  // chunk acks for them are ignored by the term/role guard.
  snapshot_xfers_.clear();
  if (term_changed) PersistHardState();
  ResetElectionTimer();
}

void RaftNode::BecomeCandidate(std::vector<Message>* out) {
  ++term_;
  role_ = Role::kCandidate;
  voted_for_ = id_;
  votes_received_ = 1;  // own vote
  PersistHardState();
  ResetElectionTimer();
  for (int peer = 0; peer < cluster_size_; ++peer) {
    if (peer == id_) continue;
    Message m;
    m.type = MessageType::kRequestVote;
    m.from = id_;
    m.to = peer;
    m.term = term_;
    m.last_log_index = LastLogIndex();
    m.last_log_term = LastLogTerm();
    out->push_back(std::move(m));
  }
  if (cluster_size_ == 1) BecomeLeader(out);
}

void RaftNode::BecomeLeader(std::vector<Message>* out) {
  role_ = Role::kLeader;
  leader_hint_ = id_;
  heartbeat_elapsed_ms_ = 0;
  snapshot_xfers_.clear();
  std::fill(next_index_.begin(), next_index_.end(), LastLogIndex() + 1);
  std::fill(match_index_.begin(), match_index_.end(), 0);
  match_index_[id_] = LastLogIndex();
  BroadcastAppendEntries(out);  // immediate heartbeat asserts leadership
}

Message RaftNode::MakeAppendFor(int peer) const {
  Message m;
  m.type = MessageType::kAppendEntries;
  m.from = id_;
  m.to = peer;
  m.term = term_;
  m.prev_log_index = next_index_[peer] - 1;
  m.prev_log_term = m.prev_log_index == 0 ? 0 : TermAt(m.prev_log_index);
  const uint64_t last = LastLogIndex();
  uint64_t next = next_index_[peer];
  for (int n = 0; next <= last && n < options_.max_entries_per_append;
       ++next, ++n) {
    m.entries.push_back(log_at(next));
  }
  m.leader_commit = commit_index_;
  return m;
}

void RaftNode::BroadcastAppendEntries(std::vector<Message>* out) {
  for (int peer = 0; peer < cluster_size_; ++peer) {
    if (peer == id_) continue;
    out->push_back(MakeAppendFor(peer));
  }
}

void RaftNode::AdvanceCommit() {
  // Raft §5.4.2: only entries of the current term commit by counting.
  for (uint64_t n = LastLogIndex(); n > commit_index_; --n) {
    if (TermAt(n) != term_) break;
    int replicas = 0;
    for (int peer = 0; peer < cluster_size_; ++peer) {
      if (match_index_[peer] >= n) ++replicas;
    }
    if (replicas * 2 > cluster_size_) {
      commit_index_ = n;
      break;
    }
  }
}

void RaftNode::DrainApplyQueue(int budget) {
  // Move newly committed entries into the apply queue (BFC point 2)...
  while (last_applied_ + static_cast<uint64_t>(apply_queue_.size()) <
         commit_index_) {
    const uint64_t next =
        last_applied_ + static_cast<uint64_t>(apply_queue_.size()) + 1;
    const std::string& payload = log_at(next).payload;
    if (apply_queue_.size() >= options_.apply_queue_max_items ||
        (apply_queue_bytes_ + payload.size() >
             options_.apply_queue_max_bytes &&
         !apply_queue_.empty())) {
      break;  // apply queue full: stop pulling committed entries
    }
    apply_queue_bytes_ += payload.size();
    apply_queue_.emplace_back(next, payload);
  }
  // ...then apply up to `budget` of them to the state machine.
  int applied = 0;
  while (!apply_queue_.empty() && (budget == 0 || applied < budget)) {
    auto& [index, payload] = apply_queue_.front();
    if (apply_fn_) apply_fn_(index, payload);
    last_applied_ = index;
    apply_queue_bytes_ -= payload.size();
    apply_queue_.pop_front();
    ++applied;
  }
}

void RaftNode::Tick(int ms, std::vector<Message>* out) {
  if (role_ == Role::kLeader) {
    // Append queued client payloads to the log, bounded by the pipeline
    // window so a stalled commit (slow/backpressured followers) propagates
    // into a full sync queue.
    while (!sync_queue_.empty() &&
           LastLogIndex() - commit_index_ < options_.max_uncommitted_entries) {
      sync_queue_bytes_ -= sync_queue_.front().size();
      log_.push_back(LogEntry{term_, std::move(sync_queue_.front())});
      sync_queue_.pop_front();
      // Under kOnSync this write reaches the disk at the embedder's group
      // commit (SyncWal before the client ack), not here. A journaling
      // failure is latched so that group commit refuses the ack.
      if (persistence_ != nullptr) {
        NotePersistError(
            persistence_->AppendEntry(LastLogIndex(), log_.back()));
      }
    }
    match_index_[id_] = LastLogIndex();
    if (cluster_size_ == 1) AdvanceCommit();

    heartbeat_elapsed_ms_ += ms;
    if (heartbeat_elapsed_ms_ >= options_.heartbeat_interval_ms) {
      heartbeat_elapsed_ms_ = 0;
      BroadcastAppendEntries(out);
    }
  } else {
    election_elapsed_ms_ += ms;
    if (election_elapsed_ms_ >= election_timeout_ms_) {
      BecomeCandidate(out);
    }
  }
  DrainApplyQueue(options_.apply_per_tick);
}

void RaftNode::Receive(const Message& m, std::vector<Message>* out) {
  if (m.term > term_) {
    voted_for_ = -1;
    const bool from_leader = m.type == MessageType::kAppendEntries ||
                             m.type == MessageType::kInstallSnapshot;
    BecomeFollower(m.term, from_leader ? m.from : -1);
  }

  switch (m.type) {
    case MessageType::kRequestVote: {
      Message reply;
      reply.type = MessageType::kVoteResponse;
      reply.from = id_;
      reply.to = m.from;
      reply.term = term_;
      const bool log_ok =
          m.last_log_term > LastLogTerm() ||
          (m.last_log_term == LastLogTerm() &&
           m.last_log_index >= LastLogIndex());
      if (m.term == term_ && log_ok &&
          (voted_for_ == -1 || voted_for_ == m.from)) {
        voted_for_ = m.from;
        // The vote must be durable before the response leaves: a vote
        // granted, forgotten in a crash, then granted to another candidate
        // would elect two leaders for this term.
        PersistHardState();
        reply.vote_granted = true;
        ResetElectionTimer();
      }
      out->push_back(std::move(reply));
      break;
    }

    case MessageType::kVoteResponse: {
      if (role_ != Role::kCandidate || m.term != term_) break;
      if (m.vote_granted) {
        ++votes_received_;
        if (votes_received_ * 2 > cluster_size_) BecomeLeader(out);
      }
      break;
    }

    case MessageType::kAppendEntries: {
      Message reply;
      reply.type = MessageType::kAppendResponse;
      reply.from = id_;
      reply.to = m.from;
      reply.term = term_;
      if (m.term < term_) {
        reply.success = false;
        out->push_back(std::move(reply));
        break;
      }
      // Valid leader for this term.
      if (role_ != Role::kFollower) BecomeFollower(m.term, m.from);
      leader_hint_ = m.from;
      ResetElectionTimer();

      // BFC trigger point 2: a follower whose apply path has fallen behind
      // (committed-but-unapplied backlog at the queue limit) rejects new
      // entries, slowing the leader (and so the client) down.
      if (!m.entries.empty() &&
          commit_index_ >=
              last_applied_ + options_.apply_queue_max_items) {
        reply.success = false;
        reply.backpressured = true;
        reply.match_index = 0;
        out->push_back(std::move(reply));
        break;
      }

      // Log consistency check. A prev below our base is consistent by
      // construction: those entries are committed and archived here.
      if (m.prev_log_index > LastLogIndex() ||
          (m.prev_log_index > log_base_index_ &&
           TermAt(m.prev_log_index) != m.prev_log_term)) {
        reply.success = false;
        out->push_back(std::move(reply));
        break;
      }
      // Append, truncating conflicts. Durability of the success ack below
      // follows the sync policy: kPerRecord syncs inside AppendEntry,
      // kOnSync defers to the embedder's group commit before the client
      // ack (SyncAll).
      uint64_t index = m.prev_log_index;
      for (const LogEntry& entry : m.entries) {
        ++index;
        if (index <= log_base_index_) continue;  // archived, already durable
        if (index <= LastLogIndex()) {
          if (TermAt(index) != entry.term) {
            log_.resize(index - log_base_index_ - 1);
            if (persistence_ != nullptr) {
              NotePersistError(persistence_->TruncateSuffix(index));
            }
            log_.push_back(entry);
            if (persistence_ != nullptr) {
              NotePersistError(persistence_->AppendEntry(index, entry));
            }
          }
        } else {
          log_.push_back(entry);
          if (persistence_ != nullptr) {
            NotePersistError(persistence_->AppendEntry(index, entry));
          }
        }
      }
      if (m.leader_commit > commit_index_) {
        commit_index_ = std::min<uint64_t>(m.leader_commit, LastLogIndex());
      }
      reply.success = true;
      reply.match_index = m.prev_log_index + m.entries.size();
      out->push_back(std::move(reply));
      break;
    }

    case MessageType::kAppendResponse: {
      if (role_ != Role::kLeader || m.term != term_) break;
      if (m.success) {
        match_index_[m.from] = std::max(match_index_[m.from], m.match_index);
        next_index_[m.from] = match_index_[m.from] + 1;
        // A duplicated old response can leave next_index below the base
        // after compaction; clamp (entries below base no longer exist).
        next_index_[m.from] =
            std::max(next_index_[m.from], log_base_index_ + 1);
        // The install ack that completes a chunked transfer.
        auto xfer = snapshot_xfers_.find(m.from);
        if (xfer != snapshot_xfers_.end() &&
            match_index_[m.from] >= xfer->second.index) {
          snapshot_xfers_.erase(xfer);
        }
        AdvanceCommit();
        // Keep streaming if the follower is behind.
        if (next_index_[m.from] <= LastLogIndex()) {
          out->push_back(MakeAppendFor(m.from));
        }
      } else if (m.backpressured) {
        // Follower is applying slowly; retry later (next heartbeat) rather
        // than decrementing next_index.
      } else if (next_index_[m.from] > log_base_index_ + 1) {
        --next_index_[m.from];
        out->push_back(MakeAppendFor(m.from));
      } else if (log_base_index_ > 0) {
        // The follower needs entries at or below our base, which are
        // compacted away: repair it with a snapshot instead (the state up
        // to the base lives in shared storage, Taurus-style catch-up).
        out->push_back(MakeSnapshotFor(m.from));
      }
      break;
    }

    case MessageType::kInstallSnapshot: {
      HandleInstallSnapshot(m, out);
      break;
    }

    case MessageType::kSnapshotChunkAck: {
      HandleSnapshotChunkAck(m, out);
      break;
    }
  }
}

Message RaftNode::MakeSnapshotFor(int peer) {
  std::string blob;
  if (snapshot_state_fn_) {
    blob = snapshot_state_fn_(log_base_index_, log_base_aux_);
  }
  if (options_.snapshot_chunk_bytes > 0 &&
      blob.size() > options_.snapshot_chunk_bytes) {
    // Chunked transfer. Resume the peer's in-flight transfer if it still
    // describes the current base; otherwise freeze a fresh blob under a
    // new transfer id (the follower discards stale staging on seeing it).
    auto it = snapshot_xfers_.find(peer);
    if (it == snapshot_xfers_.end() || it->second.index != log_base_index_) {
      SnapshotTransfer xfer;
      xfer.xfer = ++next_snapshot_xfer_;
      xfer.index = log_base_index_;
      xfer.term_at = log_base_term_;
      xfer.aux = log_base_aux_;
      xfer.blob = std::move(blob);
      snapshot_xfers_[peer] = std::move(xfer);
      ++snapshots_sent_;
    }
    return MakeSnapshotChunkFor(peer);
  }

  Message m;
  m.type = MessageType::kInstallSnapshot;
  m.from = id_;
  m.to = peer;
  m.term = term_;
  m.snapshot_index = log_base_index_;
  m.snapshot_term = log_base_term_;
  m.snapshot_aux = log_base_aux_;
  m.snapshot_state = std::move(blob);
  m.snapshot_total = m.snapshot_state.size();
  m.leader_commit = commit_index_;
  snapshot_xfers_.erase(peer);
  ++snapshots_sent_;
  // Optimistically resume appends right after the snapshot; if the follower
  // rejects them again (it never installed), the trigger above re-sends it.
  next_index_[peer] = log_base_index_ + 1;
  return m;
}

Message RaftNode::MakeSnapshotChunkFor(int peer) {
  SnapshotTransfer& xfer = snapshot_xfers_[peer];
  Message m;
  m.type = MessageType::kInstallSnapshot;
  m.from = id_;
  m.to = peer;
  m.term = term_;
  m.snapshot_index = xfer.index;
  m.snapshot_term = xfer.term_at;
  m.snapshot_aux = xfer.aux;
  m.snapshot_xfer = xfer.xfer;
  m.snapshot_offset = xfer.offset;
  m.snapshot_total = xfer.blob.size();
  const size_t len =
      std::min(options_.snapshot_chunk_bytes,
               xfer.blob.size() - static_cast<size_t>(xfer.offset));
  m.snapshot_state = xfer.blob.substr(xfer.offset, len);
  m.snapshot_last = xfer.offset + len >= xfer.blob.size();
  m.leader_commit = commit_index_;
  ++snapshot_chunks_sent_;
  if (m.snapshot_last) {
    // Optimistic, as in the unchunked path: the follower's install ack
    // (kAppendResponse) confirms; a later reject re-triggers the snapshot
    // path, which resumes or restarts this transfer.
    next_index_[peer] = xfer.index + 1;
  }
  return m;
}

void RaftNode::HandleSnapshotChunkAck(const Message& m,
                                      std::vector<Message>* out) {
  if (role_ != Role::kLeader || m.term != term_) return;
  auto it = snapshot_xfers_.find(m.from);
  if (it == snapshot_xfers_.end() || it->second.xfer != m.snapshot_xfer) {
    return;  // ack for a transfer we already finished or replaced
  }
  SnapshotTransfer& xfer = it->second;
  // The follower's cursor is authoritative: a success ack advances past
  // the chunk it received; a reject rewinds to where its staging actually
  // ends (0 if it discarded). Duplicated acks are idempotent — the cursor
  // just lands where it already was.
  xfer.offset = std::min<uint64_t>(m.next_offset, xfer.blob.size());
  if (!m.success) ++snapshot_chunk_rewinds_;
  if (xfer.offset < xfer.blob.size()) {
    out->push_back(MakeSnapshotChunkFor(m.from));
  }
  // At offset == size the final chunk is in flight (or was installed); the
  // follower's kAppendResponse completes the transfer.
}

void RaftNode::HandleInstallSnapshot(const Message& m,
                                     std::vector<Message>* out) {
  Message reply;
  reply.type = MessageType::kAppendResponse;
  reply.from = id_;
  reply.to = m.from;
  reply.term = term_;
  if (m.term < term_) {
    // Stale-term rejection: chunks (and whole snapshots) from a deposed
    // leader must never touch the staging buffer or the state machine.
    ++snapshot_stale_rejections_;
    reply.success = false;
    out->push_back(std::move(reply));
    return;
  }
  if (role_ != Role::kFollower) BecomeFollower(m.term, m.from);
  leader_hint_ = m.from;
  ResetElectionTimer();

  if (m.snapshot_index <= last_applied_) {
    // Stale or duplicated: everything the snapshot covers is applied here
    // already (this also swallows duplicated chunks of a transfer that
    // completed). Installing it anyway would rewind last_applied_ and
    // re-apply entries, so acknowledge progress and do nothing.
    if (snapshot_staging_.index == m.snapshot_index) {
      snapshot_staging_ = SnapshotStaging();
    }
    reply.success = true;
    reply.match_index = last_applied_;
    out->push_back(std::move(reply));
    return;
  }

  if (m.snapshot_xfer != 0) {
    // One chunk of a chunked transfer: splice it into the staging buffer
    // at its offset, ack the receive cursor, and install only when the
    // final byte lands.
    Message ack;
    ack.type = MessageType::kSnapshotChunkAck;
    ack.from = id_;
    ack.to = m.from;
    ack.term = term_;
    ack.snapshot_xfer = m.snapshot_xfer;
    // A transfer's identity is (leader, term, xfer id, snapshot index) —
    // ALL four. Leader-side xfer ids restart from zero after a process
    // restart, so a deposed leader's id can collide with its next life's;
    // without the term in the key, a chunk of the new transfer could
    // splice into bytes staged by the abandoned one.
    const bool same_transfer = snapshot_staging_.xfer == m.snapshot_xfer &&
                               snapshot_staging_.from == m.from &&
                               snapshot_staging_.from_term == m.term &&
                               snapshot_staging_.index == m.snapshot_index;
    if (!same_transfer) {
      if (m.snapshot_offset != 0) {
        // Mid-blob chunk of a transfer we are not staging (stale transfer
        // id, or our staging was lost in a restart): refuse and ask the
        // leader to rewind to 0.
        ++snapshot_stale_rejections_;
        ack.success = false;
        ack.next_offset = 0;
        out->push_back(std::move(ack));
        return;
      }
      // A transfer begins (replacing any stale staging).
      snapshot_staging_ = SnapshotStaging();
      snapshot_staging_.xfer = m.snapshot_xfer;
      snapshot_staging_.from = m.from;
      snapshot_staging_.from_term = m.term;
      snapshot_staging_.index = m.snapshot_index;
      snapshot_staging_.total = m.snapshot_total;
    }
    SnapshotStaging& staging = snapshot_staging_;
    if (m.snapshot_offset > staging.data.size()) {
      // Gap — a chunk was lost or reordered past us. Resume from the
      // cursor instead of restarting the blob.
      ack.success = false;
      ack.next_offset = staging.data.size();
      out->push_back(std::move(ack));
      return;
    }
    if (m.snapshot_offset < staging.data.size()) {
      // Duplicate of bytes already staged (the transport duplicates
      // messages by design): re-ack the cursor, idempotently.
      ack.success = true;
      ack.next_offset = staging.data.size();
      out->push_back(std::move(ack));
      return;
    }
    staging.data += m.snapshot_state;
    ++snapshot_chunks_received_;
    if (!m.snapshot_last) {
      ack.success = true;
      ack.next_offset = staging.data.size();
      out->push_back(std::move(ack));
      return;
    }
    // Final chunk: the blob is complete; fall through to the install.
    std::string blob = std::move(staging.data);
    snapshot_staging_ = SnapshotStaging();
    InstallSnapshotBlob(m, blob, out);
    return;
  }

  InstallSnapshotBlob(m, m.snapshot_state, out);
}

void RaftNode::InstallSnapshotBlob(const Message& m, const std::string& state,
                                   std::vector<Message>* out) {
  Message reply;
  reply.type = MessageType::kAppendResponse;
  reply.from = id_;
  reply.to = m.from;
  reply.term = term_;

  // A snapshotted prefix is committed on a quorum, so a local suffix whose
  // term lines up at the snapshot point can be kept; anything else (or a
  // log that ends short of the snapshot) is discarded wholesale.
  const bool retain_suffix = m.snapshot_index <= LastLogIndex() &&
                             m.snapshot_index > log_base_index_ &&
                             TermAt(m.snapshot_index) == m.snapshot_term;
  if (retain_suffix) {
    log_.erase(log_.begin(),
               log_.begin() + (m.snapshot_index - log_base_index_));
  } else {
    log_.clear();
    if (persistence_ != nullptr) {
      // Drop journaled entries above the old base before the watermark
      // record jumps the WAL's expected next index past the snapshot.
      NotePersistError(persistence_->TruncateSuffix(log_base_index_ + 1));
    }
  }
  log_base_index_ = m.snapshot_index;
  log_base_term_ = m.snapshot_term;
  log_base_aux_ = m.snapshot_aux;
  if (persistence_ != nullptr) {
    NotePersistError(persistence_->PersistWatermark(
        m.snapshot_index, m.snapshot_term, m.snapshot_aux));
  }
  // The embedder rebuilds its state machine from shared storage (or the
  // blob); entries the snapshot covers must never be applied again.
  if (install_snapshot_fn_) {
    install_snapshot_fn_(m.snapshot_index, m.snapshot_aux, state);
  }
  apply_queue_.clear();
  apply_queue_bytes_ = 0;
  last_applied_ = m.snapshot_index;
  commit_index_ =
      std::max(std::min(commit_index_, LastLogIndex()), m.snapshot_index);
  if (m.leader_commit > commit_index_) {
    commit_index_ = std::min<uint64_t>(m.leader_commit, LastLogIndex());
  }
  ++snapshots_installed_;
  reply.success = true;
  reply.match_index = m.snapshot_index;
  out->push_back(std::move(reply));
}

// ---------------------------------------------------------------------------
// RaftCluster
// ---------------------------------------------------------------------------

RaftCluster::RaftCluster(int num_nodes, RaftOptions options, uint64_t seed)
    : options_(options), rng_(seed), disconnected_(num_nodes, false) {
  retransmits_.Bind(
      metrics::OrDefault(options_.registry)->Counter("raft.retransmits"));
  nodes_.reserve(num_nodes);
  for (int i = 0; i < num_nodes; ++i) {
    nodes_.push_back(std::make_unique<RaftNode>(
        i, num_nodes, options, seed * 1000 + i, ApplyFn()));
  }
}

void RaftCluster::SetApplyFn(int node, ApplyFn fn) {
  nodes_[node] = std::make_unique<RaftNode>(
      node, static_cast<int>(nodes_.size()), options_,
      /*seed=*/rng_.Next(), std::move(fn));
}

void RaftCluster::AttachPersistence(int node, RaftPersistence* persistence,
                                    const RecoveredState* recovered) {
  nodes_[node]->AttachPersistence(persistence, recovered);
}

void RaftCluster::SetSnapshotHooks(int node, SnapshotStateFn state_fn,
                                   InstallSnapshotFn install_fn) {
  nodes_[node]->SetSnapshotHooks(std::move(state_fn), std::move(install_fn));
}

void RaftCluster::RestartNode(int node, ApplyFn fn) {
  // A fresh object loses all volatile state, exactly like a process
  // restart; the caller re-attaches persistence and hooks, then Reconnects.
  disconnected_[node] = true;
  SetApplyFn(node, std::move(fn));
}

Status RaftCluster::SyncAll() {
  // Skip crashed/partitioned members: an acked write is durable on every
  // live replica, and a quorum of those synced WALs is what recovery
  // elects from — a stale rejoiner cannot win an election (vote log check),
  // so acked writes survive any single-node loss.
  for (auto& node : nodes_) {
    if (disconnected_[node->id()]) continue;
    LOGSTORE_RETURN_IF_ERROR(node->SyncWal());
  }
  return Status::OK();
}

void RaftCluster::MaybeRetransmit(const Message& message) {
  // The in-process analogue of a sender retransmitting after an ack
  // timeout: the dropped RPC re-enters the network after a jittered
  // exponential backoff, carrying its spent budget. Safe for every raft
  // message type — the transport already injects duplication, so receivers
  // are idempotent by construction.
  if (options_.rpc_max_retries <= 0) return;
  if (message.transport_attempt >= options_.rpc_max_retries) return;
  RetryPolicy policy;
  policy.max_retries = 1;  // one step of the schedule at a time
  policy.base_delay = options_.rpc_backoff_base_rounds;
  policy.max_delay = options_.rpc_backoff_max_rounds;
  policy.jitter = options_.rpc_backoff_jitter;
  double delay = static_cast<double>(options_.rpc_backoff_base_rounds);
  for (int i = 0; i < message.transport_attempt; ++i) delay *= 2.0;
  delay = std::min(delay, static_cast<double>(options_.rpc_backoff_max_rounds));
  if (policy.jitter > 0.0) {
    delay *= 1.0 - policy.jitter + 2.0 * policy.jitter * rng_.NextDouble();
  }
  const int64_t rounds = std::max<int64_t>(1, static_cast<int64_t>(delay));
  if (options_.rpc_retry_deadline_rounds > 0 &&
      message.transport_delay + rounds > options_.rpc_retry_deadline_rounds) {
    return;  // deadline: give up; the protocol's own timers take over
  }
  DelayedMessage retry;
  retry.message = message;
  ++retry.message.transport_attempt;
  retry.message.transport_delay += rounds;
  retry.rounds_left = static_cast<int>(rounds);
  delayed_.push_back(std::move(retry));
  ++retransmits_;
}

void RaftCluster::DeliverAll(std::vector<Message>* messages) {
  // Messages held back by the reorder injector re-enter one delivery batch
  // (= one Tick step) later, so reordering is bounded, not starvation.
  for (auto it = delayed_.begin(); it != delayed_.end();) {
    if (--it->rounds_left <= 0) {
      messages->push_back(std::move(it->message));
      it = delayed_.erase(it);
    } else {
      ++it;
    }
  }
  // Deliver rounds until quiescent, so RPCs and their cascading responses
  // settle within one logical step.
  int rounds = 0;
  while (!messages->empty() && rounds++ < 64) {
    std::vector<Message> next;
    for (const Message& m : *messages) {
      if (disconnected_[m.from] || disconnected_[m.to]) continue;
      if (drop_rate_ > 0.0 && rng_.NextDouble() < drop_rate_) {
        MaybeRetransmit(m);
        continue;
      }
      if (reorder_rate_ > 0.0 && rng_.NextDouble() < reorder_rate_) {
        delayed_.push_back({m, static_cast<int>(rng_.Uniform(3)) + 1});
        continue;
      }
      nodes_[m.to]->Receive(m, &next);
      if (duplicate_rate_ > 0.0 && rng_.NextDouble() < duplicate_rate_) {
        nodes_[m.to]->Receive(m, &next);
      }
    }
    *messages = std::move(next);
  }
}

void RaftCluster::Tick(int ms) {
  const int step = 10;
  for (int elapsed = 0; elapsed < ms; elapsed += step) {
    std::vector<Message> messages;
    for (auto& node : nodes_) {
      if (!disconnected_[node->id()]) {
        node->Tick(std::min(step, ms - elapsed), &messages);
      }
    }
    DeliverAll(&messages);
  }
}

int RaftCluster::leader() const {
  for (const auto& node : nodes_) {
    if (node->role() == Role::kLeader && !disconnected_[node->id()]) {
      return node->id();
    }
  }
  return -1;
}

GroupHealth RaftCluster::Health() const {
  GroupHealth health;
  health.leader = leader();
  for (const auto& node : nodes_) {
    ReplicaHealth replica;
    replica.node = node->id();
    replica.connected = !disconnected_[node->id()];
    replica.persist_ok = node->persist_error().ok();
    replica.role = node->role();
    replica.last_applied = node->last_applied();
    if (replica.connected) {
      ++health.connected;
      if (!replica.persist_ok) ++health.wedged_connected;
    }
    health.replicas.push_back(std::move(replica));
  }
  return health;
}

int RaftCluster::WaitForLeader(int max_ms) {
  for (int elapsed = 0; elapsed < max_ms; elapsed += 10) {
    if (leader() >= 0) return leader();
    Tick(10);
  }
  return leader();
}

void RaftCluster::Disconnect(int node) { disconnected_[node] = true; }

void RaftCluster::Reconnect(int node) { disconnected_[node] = false; }

Status RaftCluster::Propose(std::string payload) {
  const int l = leader();
  if (l < 0) return Status::Unavailable("no leader");
  return nodes_[l]->Propose(std::move(payload));
}

}  // namespace logstore::consensus
