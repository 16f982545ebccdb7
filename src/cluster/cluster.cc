#include "cluster/cluster.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>

#include "common/clock.h"
#include "rowstore/wal.h"

namespace logstore::cluster {

Result<std::unique_ptr<Cluster>> Cluster::Open(
    objectstore::ObjectStore* store, ClusterDeploymentOptions options) {
  std::unique_ptr<Cluster> cluster(new Cluster());
  cluster->options_ = options;
  // One registry serves the whole deployment: propagate it into the nested
  // worker/engine/retry options (when those are unset) BEFORE any worker or
  // engine is constructed, so `wal.*`, `raft.*`, `query.*` and
  // `objectstore.retry.*` land in it.
  cluster->registry_ = metrics::OrDefault(options.registry);
  if (cluster->options_.engine.registry == nullptr) {
    cluster->options_.engine.registry = cluster->registry_;
  }
  if (cluster->options_.retry.registry == nullptr) {
    cluster->options_.retry.registry = cluster->registry_;
  }
  if (cluster->options_.worker.wal.registry == nullptr) {
    cluster->options_.worker.wal.registry = cluster->registry_;
  }
  if (cluster->options_.worker.raft.registry == nullptr) {
    cluster->options_.worker.raft.registry = cluster->registry_;
  }
  cluster->store_ = std::make_unique<objectstore::RetryingObjectStore>(
      store, cluster->options_.retry);
  cluster->monitor_cells_.BindTo(cluster->registry_);
  cluster->availability_cells_.BindTo(cluster->registry_);
  // Shard/worker routing counters: the universe is fixed at deployment
  // time, so the cells are pre-resolved and the write path indexes a
  // vector instead of taking a lock.
  const uint32_t num_shards = options.num_workers * options.shards_per_worker;
  for (uint32_t s = 0; s < num_shards; ++s) {
    cluster->shard_cells_.push_back(cluster->registry_->Counter(
        "cluster.rows_routed", {{"shard", std::to_string(s)}}));
  }
  for (uint32_t w = 0; w < options.num_workers; ++w) {
    cluster->worker_cells_.push_back(cluster->registry_->Counter(
        "cluster.rows_routed", {{"worker", std::to_string(w)}}));
  }
  cluster->last_shard_rows_.assign(num_shards, 0);
  cluster->last_worker_rows_.assign(options.num_workers, 0);
  cluster->controller_ = std::make_unique<Controller>(
      options.num_workers, options.shards_per_worker, options.controller);
  for (uint32_t w = 0; w < options.num_workers; ++w) {
    cluster->workers_.push_back(std::make_shared<Worker>(
        w, cluster->store_.get(), cluster->controller_->metadata(),
        cluster->WorkerOptionsFor(w)));
    // Fail fast: a worker that could not open/recover its WALs would
    // reject every write anyway, and surfacing the recovery error here
    // (rather than on the first Write) makes restart bugs visible.
    LOGSTORE_RETURN_IF_ERROR(cluster->workers_.back()->wal_status());
  }
  // One engine serves every read. Its cache budgets are the per-worker
  // budgets times the worker count (see ClusterDeploymentOptions::engine).
  query::EngineOptions engine_options = cluster->options_.engine;
  engine_options.cache_options.memory_capacity_bytes *= options.num_workers;
  engine_options.cache_options.ssd_capacity_bytes *= options.num_workers;
  engine_options.object_cache_bytes *= options.num_workers;
  auto engine = query::QueryEngine::Open(cluster->store_.get(), engine_options);
  if (!engine.ok()) return engine.status();
  cluster->engine_ = std::move(engine).value();
  return cluster;
}

WorkerOptions Cluster::WorkerOptionsFor(uint32_t id) const {
  WorkerOptions worker_options = options_.worker;
  if (!worker_options.wal_dir.empty()) {
    worker_options.wal_dir += "/worker-" + std::to_string(id);
  }
  // Fresh incarnation per options snapshot: every Worker construction —
  // initial open, in-place restart, rejoin after failover — gets object
  // keys no previous life of any worker can have issued. Callers that only
  // need the wal_dir burn a number; uniqueness needs monotonicity, not
  // density.
  worker_options.incarnation = next_worker_incarnation_.fetch_add(1);
  return worker_options;
}

std::shared_ptr<Worker> Cluster::WorkerRef(uint32_t id) const {
  std::lock_guard<std::mutex> lock(workers_mu_);
  return id < workers_.size() ? workers_[id] : nullptr;
}

std::vector<std::shared_ptr<Worker>> Cluster::SnapshotWorkers() const {
  std::lock_guard<std::mutex> lock(workers_mu_);
  return workers_;
}

std::shared_ptr<Worker> Cluster::FenceAndRemoveWorker(uint32_t id) {
  std::lock_guard<std::mutex> lock(workers_mu_);
  std::shared_ptr<Worker> worker = std::move(workers_[id]);
  workers_[id] = nullptr;
  // Fence before the slot swap is visible: a broker write already holding
  // the old reference fails instead of acking into a store about to
  // disappear. Readers holding it may finish their realtime scan — their
  // epoch/seqlock re-check refuses the result afterwards.
  if (worker != nullptr) worker->Fence();
  return worker;
}

void Cluster::ClearQueryCaches() { engine_->ClearCaches(); }

Status Cluster::RestartWorker(uint32_t id) {
  if (id >= num_workers()) return Status::InvalidArgument("no such worker");
  std::lock_guard<std::mutex> control_lock(control_mu_);
  ControlMutation mutation(&control_seq_);
  if (!controller_->WorkerAlive(id)) {
    // Rejoin after failover. The old journal's tail was already recovered
    // (or declared lost) by FailoverWorker and re-routed to survivors;
    // replaying it here would resurrect those rows as duplicates, so the
    // directory is wiped — this is the point at which a failed-over
    // worker's WAL segments may finally be deleted — and the worker comes
    // back as a fresh empty instance with no shards.
    FenceAndRemoveWorker(id);
    if (!options_.worker.wal_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(WorkerOptionsFor(id).wal_dir, ec);
      if (ec) {
        return Status::IOError("wipe of failed-over WAL dir failed: " +
                               ec.message());
      }
    }
    auto worker = std::make_shared<Worker>(
        id, store_.get(), controller_->metadata(), WorkerOptionsFor(id));
    LOGSTORE_RETURN_IF_ERROR(worker->wal_status());
    {
      std::lock_guard<std::mutex> lock(workers_mu_);
      workers_[id] = std::move(worker);
    }
    return controller_->ReviveWorker(id);
  }
  if (options_.worker.wal_dir.empty()) {
    return Status::InvalidArgument(
        "RestartWorker without wal_dir would lose acked writes");
  }
  // Fence + release first, then reconstruct over the WAL directories: the
  // Worker constructor IS the recovery path. An in-flight reader may keep
  // the old (fenced, write-refusing) object alive a little longer; its
  // open WAL handles are read-only by then.
  FenceAndRemoveWorker(id);
  auto worker = std::make_shared<Worker>(
      id, store_.get(), controller_->metadata(), WorkerOptionsFor(id));
  LOGSTORE_RETURN_IF_ERROR(worker->wal_status());
  std::lock_guard<std::mutex> lock(workers_mu_);
  workers_[id] = std::move(worker);
  return Status::OK();
}

Status Cluster::KillWorker(uint32_t id) {
  if (id >= num_workers()) return Status::InvalidArgument("no such worker");
  std::lock_guard<std::mutex> control_lock(control_mu_);
  ControlMutation mutation(&control_seq_);
  // Fence first so any concurrent broker write fails instead of acking
  // into a store that is about to disappear, then release the object —
  // its WAL file handles close once in-flight references drain, leaving
  // the directory on disk for the failover tail recovery.
  if (FenceAndRemoveWorker(id) == nullptr) {
    return Status::AlreadyExists("worker already dead");
  }
  return Status::OK();
}

Result<Cluster::FailoverReport> Cluster::FailoverWorker(uint32_t id) {
  if (id >= num_workers()) return Status::InvalidArgument("no such worker");
  std::lock_guard<std::mutex> control_lock(control_mu_);
  ControlMutation mutation(&control_seq_);
  // Wedged-but-running worker: terminate the process before reassigning,
  // so its replica WALs are closed and it can never ack again.
  FenceAndRemoveWorker(id);

  auto decision = controller_->FailoverWorker(id);
  if (!decision.ok()) return decision.status();

  FailoverReport report;
  report.worker = id;
  report.moved = decision->moved;
  LOGSTORE_RETURN_IF_ERROR(RecoverTail(id, &report));
  return report;
}

Status Cluster::RecoverTail(uint32_t id, FailoverReport* report) {
  // Tail recovery: everything acked but not archived lives in the dead
  // worker's replica WALs. Re-ingest it through the broker write path —
  // the placement map now routes those tenants' shards to survivors.
  if (options_.worker.wal_dir.empty()) {
    report->tail_lost = true;  // no journal was ever kept
    return Status::OK();
  }
  const std::string wal_dir = WorkerOptionsFor(id).wal_dir;

  // Merge the recovered suffixes of all replicas, keyed by raft index with
  // higher terms winning conflicts: an acked entry was fsynced on every
  // replica, so it survives as long as at least one directory is readable.
  std::map<uint64_t, consensus::LogEntry> tail;
  uint64_t archived_through = 0;
  int readable = 0;
  for (int node = 0; node < 3; ++node) {
    const std::string node_dir = wal_dir + "/node-" + std::to_string(node);
    if (!std::filesystem::exists(node_dir)) continue;
    auto wal = consensus::DurableLog::Open(node_dir, options_.worker.wal);
    if (!wal.ok()) continue;  // unreadable replica: others may still serve
    ++readable;
    const consensus::RecoveredState& recovered = (*wal)->recovered();
    archived_through = std::max(archived_through, recovered.base_index);
    for (size_t i = 0; i < recovered.entries.size(); ++i) {
      const uint64_t index = recovered.base_index + 1 + i;
      auto it = tail.find(index);
      if (it == tail.end() || recovered.entries[i].term > it->second.term) {
        tail[index] = recovered.entries[i];
      }
    }
  }
  if (readable == 0) {
    // Machine (and its disks) gone: the un-archived tail is lost. Data at
    // or below the archived-through watermark is safe in LogBlocks; this
    // is the data-loss boundary the deployment accepted by running one
    // worker per WAL directory.
    report->tail_lost = true;
    return Status::OK();
  }

  // Batched replay (the LogBase-style recovery path): entries are decoded
  // one at a time — each still subject to the per-entry skip rules above
  // and below — but their rows coalesce into per-tenant batches that flush
  // through the broker in bulk, so a long tail costs a handful of
  // replicated group commits instead of one per entry.
  constexpr uint32_t kTailReplayBatchRows = 512;
  std::map<uint64_t, logblock::RowBatch> pending;  // tenant -> rows
  uint32_t pending_rows = 0;
  auto flush = [&]() -> Status {
    for (auto& [tenant, rows] : pending) {
      if (rows.num_rows() == 0) continue;
      Status status = Status::OK();
      for (int attempt = 0; attempt < 4; ++attempt) {
        // WriteImpl, not Write: replay is the control plane moving rows it
        // already owns, so its outcomes must not count against the
        // client-facing cluster.availability.* cells.
        status = WriteImpl(tenant, rows);
        if (status.ok()) break;
        // A replay target just failed mid-commit — e.g. a survivor's
        // journal hit ENOSPC and wedged on exactly this write. The victim
        // is already failed over, so giving up here would lose its acked
        // tail: repair the casualty in place and retry the batch. The
        // retry is safe — the failed attempt was never acknowledged, and
        // duplicates fall under the replay's at-least-once contract.
        for (const WorkerHealth& health : HarvestHealth()) {
          if (!health.process_alive || health.fenced) continue;
          for (const auto& replica : health.replicas) {
            if (!replica.wedged && replica.connected) continue;
            if (auto worker = WorkerRef(health.worker_id)) {
              worker->RecoverReplica(replica.node).IgnoreError();
              worker->PumpRaft(500);
            }
          }
        }
      }
      LOGSTORE_RETURN_IF_ERROR(status);
      ++report->tail_batches;
    }
    pending.clear();
    pending_rows = 0;
    return Status::OK();
  };
  for (const auto& [index, entry] : tail) {
    if (index <= archived_through) continue;  // already in LogBlocks
    if (entry.payload.empty()) continue;      // recovery no-op barrier
    auto record =
        rowstore::DecodeWalRecord(entry.payload, options_.worker.schema);
    if (!record.ok()) continue;  // un-acked torn tail entry
    const uint32_t entry_rows = record->rows.num_rows();
    auto it = pending.find(record->tenant_id);
    if (it == pending.end()) {
      pending.emplace(record->tenant_id, std::move(record->rows));
    } else {
      it->second.AppendRows(record->rows, 0, entry_rows);
    }
    ++report->tail_entries_recovered;
    report->tail_rows_recovered += entry_rows;
    pending_rows += entry_rows;
    if (pending_rows >= kTailReplayBatchRows) {
      LOGSTORE_RETURN_IF_ERROR(flush());
    }
  }
  return flush();
}

std::vector<WorkerHealth> Cluster::HarvestHealth() {
  const std::vector<std::shared_ptr<Worker>> workers = SnapshotWorkers();
  std::vector<WorkerHealth> reports;
  for (uint32_t id = 0; id < workers.size(); ++id) {
    if (workers[id] == nullptr) {
      WorkerHealth dead;
      dead.worker_id = id;
      dead.process_alive = false;
      dead.fenced = !controller_->WorkerAlive(id);
      reports.push_back(dead);
    } else {
      reports.push_back(workers[id]->Health());
    }
  }
  return reports;
}

Result<Cluster::ControlCycleReport> Cluster::RunControlCycle() {
  std::lock_guard<std::mutex> control_lock(control_mu_);
  return RunControlCycleLocked();
}

Result<Cluster::ControlCycleReport> Cluster::RunControlCycleLocked() {
  ControlCycleReport report;
  ControlMutation mutation(&control_seq_);
  // Phase 1: walk every unhealthy worker up the escalation ladder. The
  // cheap rungs (wait out an election, repair one replica in place) act
  // without touching the placement; only the last rung fences the worker
  // and reassigns its shards. All placement moves land before any tail
  // recovery, so with multiple simultaneous failures a recovered write can
  // never be routed at a worker this same cycle is about to declare dead.
  for (const WorkerHealth& health : HarvestHealth()) {
    const uint32_t id = health.worker_id;
    if (!controller_->WorkerAlive(id)) continue;  // already failed over
    EscalationState& state = escalation_[id];
    // Failure memory decays on observed health: a replica seen pulling its
    // weight gets its attempt budget back, and a visible leader resets the
    // election patience.
    if (health.has_leader) state.election_waits = 0;
    for (const WorkerHealth::Replica& replica : health.replicas) {
      if (replica.connected && !replica.wedged) {
        state.recover_attempts.erase(replica.node);
      }
    }
    const EscalationDecision decision = DecideEscalation(
        health, state.recover_attempts, controller_->live_worker_count(),
        state.election_waits, options_.escalation);
    switch (decision.action) {
      case EscalationAction::kHealthy:
        // Drop the bookkeeping only once it is empty: a degraded-but-
        // acking worker that exhausted a replica's repair budget keeps its
        // memory, or the budget would reset and the repair churn restart.
        if (state.recover_attempts.empty() && state.election_waits == 0) {
          escalation_.erase(id);
        }
        break;
      case EscalationAction::kWaitElection: {
        ++state.election_waits;
        report.awaiting_election.push_back(id);
        if (auto worker = WorkerRef(id)) worker->PumpRaft(200);
        break;
      }
      case EscalationAction::kRecoverReplica: {
        // Bounded in-place repair: the attempt is charged BEFORE it runs,
        // so a recovery that wedges again (or fails outright) consumes
        // budget and the ladder eventually escalates.
        ++state.recover_attempts[decision.replica];
        ReplicaRecovery recovery;
        recovery.worker = id;
        recovery.replica = decision.replica;
        if (auto worker = WorkerRef(id)) {
          recovery.ok = worker->RecoverReplica(decision.replica).ok();
          // Drive the group so the repaired member rejoins and catches up
          // (possibly via InstallSnapshot) before the next harvest.
          if (recovery.ok) worker->PumpRaft(500);
        }
        report.replica_recoveries.push_back(recovery);
        break;
      }
      case EscalationAction::kSkip:
        // Last live worker: nowhere to fail over to. Report it and let the
        // rest of the cycle (tail recovery, traffic control) still run.
        report.skipped.push_back(id);
        break;
      case EscalationAction::kFailover: {
        escalation_.erase(id);
        FenceAndRemoveWorker(id);
        auto failed = controller_->FailoverWorker(id);
        if (!failed.ok()) return failed.status();
        FailoverReport failover;
        failover.worker = id;
        failover.moved = failed->moved;
        report.failovers.push_back(std::move(failover));
        break;
      }
    }
  }
  // Phase 2: recover each dead worker's un-archived WAL tail into the
  // (now final) placement. Readers stay fenced out (seqlock odd) until the
  // recovery lands: between the placement flip and the last re-ingested
  // row, the tail is neither on the dead worker nor fully on the
  // survivors, and a query overlapping that window must retry, not read
  // half a tail.
  for (FailoverReport& failover : report.failovers) {
    LOGSTORE_RETURN_IF_ERROR(RecoverTail(failover.worker, &failover));
    report.tail_replay_batches += failover.tail_batches;
  }
  report.traffic = RunTrafficControl();
  // Phase 3: drain shards back onto any worker that rejoined empty, so a
  // revived worker becomes load-bearing instead of idling forever.
  report.rebalanced = controller_->RebalanceBack().moved;
  return report;
}

// --- Background monitor thread ---

Status Cluster::StartMonitor(MonitorOptions options) {
  std::lock_guard<std::mutex> lock(monitor_mu_);
  if (monitor_.joinable()) {
    return Status::AlreadyExists("monitor already running");
  }
  monitor_stop_ = false;
  monitor_pause_depth_ = 0;
  monitor_kick_ = false;
  monitor_ = std::thread([this, options] { MonitorLoop(options); });
  return Status::OK();
}

void Cluster::StopMonitor() {
  std::thread stopped;
  {
    std::lock_guard<std::mutex> lock(monitor_mu_);
    if (!monitor_.joinable()) return;
    monitor_stop_ = true;
    stopped = std::move(monitor_);
  }
  monitor_cv_.notify_all();
  stopped.join();
}

void Cluster::PauseMonitor() {
  std::unique_lock<std::mutex> lock(monitor_mu_);
  // Depth, not a flag: concurrent pausers each hold their own claim on the
  // quiescent window, and the monitor re-arms only when the last one
  // resumes (see the wake contract in cluster.h).
  ++monitor_pause_depth_;
  // Block until any in-flight cycle drains, so the caller observes a
  // quiescent control plane.
  monitor_cv_.wait(lock, [this] { return !monitor_in_cycle_; });
}

void Cluster::ResumeMonitor() {
  {
    std::lock_guard<std::mutex> lock(monitor_mu_);
    if (monitor_pause_depth_ > 0) --monitor_pause_depth_;
    if (monitor_pause_depth_ > 0) return;  // other pausers still hold it
    // Last resume: kick the loop so the next cycle starts now instead of
    // after the remainder of poll_interval_ms.
    monitor_kick_ = true;
  }
  monitor_cv_.notify_all();
}

bool Cluster::monitor_running() const {
  std::lock_guard<std::mutex> lock(monitor_mu_);
  return monitor_.joinable() && !monitor_stop_;
}

MonitorStats Cluster::monitor_stats() const {
  std::lock_guard<std::mutex> lock(monitor_mu_);
  return monitor_stats_;
}

void Cluster::MonitorLoop(MonitorOptions options) {
  std::unique_lock<std::mutex> lock(monitor_mu_);
  while (!monitor_stop_) {
    // The predicate must include monitor_kick_, or ResumeMonitor's notify
    // lands on a wait whose predicate is still false and the loop sleeps
    // out the rest of the poll interval anyway — the flaky-prone timing
    // assumption the soak harness flushed out.
    monitor_cv_.wait_for(lock,
                         std::chrono::milliseconds(options.poll_interval_ms),
                         [this] { return monitor_stop_ || monitor_kick_; });
    monitor_kick_ = false;
    if (monitor_stop_) break;
    if (monitor_pause_depth_ > 0) continue;
    monitor_in_cycle_ = true;
    lock.unlock();
    const int64_t start_us = SystemClock::Default()->NowMicros();
    const auto report = RunControlCycle();
    const int64_t elapsed_us = SystemClock::Default()->NowMicros() - start_us;
    lock.lock();
    monitor_in_cycle_ = false;
    RecordCycle(report, elapsed_us);
    monitor_cv_.notify_all();  // wake PauseMonitor waiters
  }
}

void Cluster::MonitorCells::BindTo(metrics::MetricRegistry* registry) {
  cycles = registry->Counter("monitor.cycles");
  cycle_errors = registry->Counter("monitor.cycle_errors");
  failovers = registry->Counter("monitor.failovers");
  replica_recoveries = registry->Counter("monitor.replica_recoveries");
  election_waits = registry->Counter("monitor.election_waits");
  skipped_workers = registry->Counter("monitor.skipped_workers");
  rebalanced_shards = registry->Counter("monitor.rebalanced_shards");
  tails_lost = registry->Counter("monitor.tails_lost");
  last_cycle_us = registry->Gauge("monitor.last_cycle_us");
  max_cycle_us = registry->Gauge("monitor.max_cycle_us");
  total_cycle_us = registry->Gauge("monitor.total_cycle_us");
}

void Cluster::AvailabilityCells::BindTo(metrics::MetricRegistry* registry) {
  write_attempts = registry->Counter("cluster.availability.write_attempts");
  write_successes = registry->Counter("cluster.availability.write_successes");
  write_unavailable =
      registry->Counter("cluster.availability.write_unavailable");
  write_errors = registry->Counter("cluster.availability.write_errors");
  query_attempts = registry->Counter("cluster.availability.query_attempts");
  query_successes = registry->Counter("cluster.availability.query_successes");
  query_unavailable =
      registry->Counter("cluster.availability.query_unavailable");
  query_errors = registry->Counter("cluster.availability.query_errors");
}

void Cluster::AvailabilityCells::RecordWrite(const Status& status) {
  write_attempts->fetch_add(1, std::memory_order_relaxed);
  if (status.ok()) {
    write_successes->fetch_add(1, std::memory_order_relaxed);
  } else if (status.IsUnavailable()) {
    write_unavailable->fetch_add(1, std::memory_order_relaxed);
  } else {
    write_errors->fetch_add(1, std::memory_order_relaxed);
  }
}

void Cluster::AvailabilityCells::RecordQuery(const Status& status) {
  query_attempts->fetch_add(1, std::memory_order_relaxed);
  if (status.ok()) {
    query_successes->fetch_add(1, std::memory_order_relaxed);
  } else if (status.IsUnavailable()) {
    query_unavailable->fetch_add(1, std::memory_order_relaxed);
  } else {
    query_errors->fetch_add(1, std::memory_order_relaxed);
  }
}

void Cluster::RecordCycle(const Result<ControlCycleReport>& report,
                          int64_t elapsed_us) {
  // Caller holds monitor_mu_ (which also makes the gauge read-max-store
  // below race-free: RecordCycle is the only writer).
  ++monitor_stats_.cycles;
  monitor_stats_.last_cycle_us = elapsed_us;
  monitor_stats_.max_cycle_us =
      std::max(monitor_stats_.max_cycle_us, elapsed_us);
  monitor_stats_.total_cycle_us += elapsed_us;
  monitor_cells_.cycles->fetch_add(1, std::memory_order_relaxed);
  monitor_cells_.last_cycle_us->store(elapsed_us, std::memory_order_relaxed);
  monitor_cells_.max_cycle_us->store(monitor_stats_.max_cycle_us,
                                     std::memory_order_relaxed);
  monitor_cells_.total_cycle_us->fetch_add(elapsed_us,
                                           std::memory_order_relaxed);
  if (!report.ok()) {
    ++monitor_stats_.cycle_errors;
    monitor_cells_.cycle_errors->fetch_add(1, std::memory_order_relaxed);
    return;
  }
  monitor_stats_.failovers += report->failovers.size();
  monitor_stats_.replica_recoveries += report->replica_recoveries.size();
  monitor_stats_.election_waits += report->awaiting_election.size();
  monitor_stats_.skipped_workers += report->skipped.size();
  monitor_stats_.rebalanced_shards += report->rebalanced.size();
  monitor_cells_.failovers->fetch_add(report->failovers.size(),
                                      std::memory_order_relaxed);
  monitor_cells_.replica_recoveries->fetch_add(
      report->replica_recoveries.size(), std::memory_order_relaxed);
  monitor_cells_.election_waits->fetch_add(report->awaiting_election.size(),
                                           std::memory_order_relaxed);
  monitor_cells_.skipped_workers->fetch_add(report->skipped.size(),
                                            std::memory_order_relaxed);
  monitor_cells_.rebalanced_shards->fetch_add(report->rebalanced.size(),
                                              std::memory_order_relaxed);
  for (const FailoverReport& failover : report->failovers) {
    if (failover.tail_lost) {
      ++monitor_stats_.tails_lost;
      monitor_cells_.tails_lost->fetch_add(1, std::memory_order_relaxed);
    }
  }
}

Status Cluster::Write(uint64_t tenant, const logblock::RowBatch& rows) {
  Status status = WriteImpl(tenant, rows);
  availability_cells_.RecordWrite(status);
  return status;
}

Status Cluster::WriteImpl(uint64_t tenant, const logblock::RowBatch& rows) {
  double uniform = 0;
  {
    // The RNG is the broker's only shared-mutable state on this path; its
    // lock covers exactly the one draw each write makes, so a seeded
    // sequence of writes always lands on the same shards.
    std::lock_guard<std::mutex> lock(rng_mu_);
    uniform = rng_.NextDouble();
  }
  uint32_t shard = 0;
  if (!controller_->PickShard(tenant, uniform, &shard)) {
    return Status::Internal("no route for tenant");
  }
  const uint32_t worker_id = controller_->WorkerForShard(shard);
  // Liveness check before dereferencing: between a worker's death and the
  // next control cycle the routes still point at its shards. That window
  // is a retryable condition for the client, not a crash for the broker.
  const std::shared_ptr<Worker> worker = WorkerRef(worker_id);
  if (worker == nullptr || !controller_->WorkerAlive(worker_id)) {
    return Status::Unavailable("worker " + std::to_string(worker_id) +
                               " for shard " + std::to_string(shard) +
                               " is dead; retry after the control cycle");
  }
  const uint64_t epoch = controller_->placement_epoch();
  LOGSTORE_RETURN_IF_ERROR(worker->Write(tenant, rows));
  // Fencing: if a failover reassigned this worker's shards while the write
  // was in flight, the rows may sit in a store nobody will archive. Refuse
  // the ack; the client retries against the new placement.
  if (controller_->placement_epoch() != epoch &&
      !controller_->WorkerAlive(worker_id)) {
    return Status::Unavailable("worker " + std::to_string(worker_id) +
                               " was fenced during the write; not acked");
  }

  // Routing accounting for the monitor: lock-free registry counters, only
  // bumped once the write actually acked.
  const uint64_t n = rows.num_rows();
  if (shard < shard_cells_.size()) {
    shard_cells_[shard]->fetch_add(n, std::memory_order_relaxed);
  }
  if (worker_id < worker_cells_.size()) {
    worker_cells_[worker_id]->fetch_add(n, std::memory_order_relaxed);
  }
  TenantCell(tenant)->fetch_add(n, std::memory_order_relaxed);
  return Status::OK();
}

std::atomic<uint64_t>* Cluster::TenantCell(uint64_t tenant) {
  {
    std::shared_lock<std::shared_mutex> lock(tenant_cells_mu_);
    auto it = tenant_cells_.find(tenant);
    if (it != tenant_cells_.end()) return it->second;
  }
  // Resolve outside the cache lock (the registry has its own); a racing
  // first-writer resolves the same canonical cell, so emplace is idempotent.
  std::atomic<uint64_t>* cell = registry_->Counter(
      "cluster.rows_routed", {{"tenant", std::to_string(tenant)}});
  std::unique_lock<std::shared_mutex> lock(tenant_cells_mu_);
  return tenant_cells_.emplace(tenant, cell).first->second;
}

namespace {

// The liveness rule of a read: a worker that is dead but not failed over
// makes the read kUnavailable.
Status CheckLiveness(const std::vector<std::shared_ptr<Worker>>& workers,
                     const Controller::PlacementView& placement) {
  for (uint32_t id = 0; id < workers.size(); ++id) {
    const bool alive =
        id < placement.worker_alive.size() && placement.worker_alive[id];
    if (workers[id] == nullptr && alive) {
      // Dead process, failover not run yet: its un-archived rows are
      // unreachable but NOT absent. Refusing the read (retryable) beats
      // silently dropping them.
      return Status::Unavailable(
          "worker " + std::to_string(id) +
          " is dead but not failed over; retry after the control cycle");
    }
  }
  return Status::OK();
}

}  // namespace

Result<query::QueryResult> Cluster::Query(const query::LogQuery& query) {
  Result<query::QueryResult> result = Read(query);
  // Availability accounting lives on the public dispatcher only —
  // QuerySingleEngine stays out of the denominator.
  availability_cells_.RecordQuery(result.status());
  return result;
}

Result<query::QueryResult> Cluster::QuerySingleEngine(
    const query::LogQuery& query) {
  return Read(query);
}

Result<query::QueryResult> Cluster::Read(const query::LogQuery& query) {
  const uint64_t seq = control_seq_.load(std::memory_order_acquire);
  if (seq % 2 != 0) {
    return Status::Unavailable("control mutation in progress; retry");
  }
  const Controller::PlacementView placement = controller_->PlacementSnapshot();
  const std::vector<std::shared_ptr<Worker>> workers = SnapshotWorkers();

  // The liveness rule first: a worker that is dead but not failed over
  // refuses the read before any block is read.
  LOGSTORE_RETURN_IF_ERROR(CheckLiveness(workers, placement));

  query::ReadContext context;
  context.schema = &options_.worker.schema;
  // Real-time rows from the live workers, scanned after the archived scan:
  // each scan holds its worker's row-store lock, which that worker's writes
  // need, while it walks every write the store retains, and at the start of
  // the read it stalls the writes that arrive together with the read
  // (DESIGN.md §12).
  context.scan_realtime = [&] {
    query::RealtimeRows batches;
    for (uint32_t id = 0; id < workers.size(); ++id) {
      // A null slot here is a failed-over worker (CheckLiveness refused the
      // rest): its tail was re-ingested into survivors. A fenced-out
      // worker's rows were recovered elsewhere.
      if (workers[id] == nullptr || id >= placement.worker_alive.size() ||
          !placement.worker_alive[id]) {
        continue;
      }
      batches.emplace_back(
          id, workers[id]->ScanRealtime(query.tenant_id, query.ts_min,
                                        query.ts_max, query.predicates));
    }
    return batches;
  };
  // Read fencing (the §12 analogue of the write-side epoch check): any
  // placement move or control mutation since the snapshot invalidates the
  // result — the archived scan and the realtime scans may reflect
  // different worlds, and an expiry may have deleted blocks the archived
  // scan was reading. Retryable, never partial.
  context.fence = [&]() -> Status {
    if (controller_->placement_epoch() != placement.epoch ||
        control_seq_.load(std::memory_order_acquire) != seq) {
      return Status::Unavailable("placement changed during the read; retry");
    }
    return Status::OK();
  };
  return engine_->Read(query, *controller_->metadata(), context);
}

Result<int> Cluster::RunBuildPass() {
  std::lock_guard<std::mutex> control_lock(control_mu_);
  ControlMutation mutation(&control_seq_);
  const std::vector<std::shared_ptr<Worker>> workers = SnapshotWorkers();
  int total = 0;
  for (auto& worker : workers) {
    if (worker == nullptr) continue;  // dead worker: nothing to archive
    auto built = worker->RunBuildPass();
    if (!built.ok()) return built.status();
    total += *built;
  }
  return total;
}

Controller::ControlDecision Cluster::RunTrafficControl() {
  // The routing counters are cumulative (registry counters never reset);
  // traffic control consumes the delta since the previous cycle, so each
  // cycle subtracts the remembered baseline. Entries with no traffic since
  // the last cycle are omitted, matching the old move-and-clear maps.
  std::map<uint64_t, int64_t> tenants;
  std::map<uint32_t, int64_t> shards;
  std::map<uint32_t, int64_t> workers;
  std::lock_guard<std::mutex> baseline_lock(traffic_baseline_mu_);
  {
    std::shared_lock<std::shared_mutex> cells_lock(tenant_cells_mu_);
    for (const auto& [tenant, cell] : tenant_cells_) {
      const int64_t cur =
          static_cast<int64_t>(cell->load(std::memory_order_relaxed));
      const int64_t delta = cur - last_tenant_rows_[tenant];
      if (delta != 0) tenants[tenant] = delta;
      last_tenant_rows_[tenant] = cur;
    }
  }
  for (uint32_t s = 0; s < shard_cells_.size(); ++s) {
    const int64_t cur =
        static_cast<int64_t>(shard_cells_[s]->load(std::memory_order_relaxed));
    const int64_t delta = cur - last_shard_rows_[s];
    if (delta != 0) shards[s] = delta;
    last_shard_rows_[s] = cur;
  }
  for (uint32_t w = 0; w < worker_cells_.size(); ++w) {
    const int64_t cur =
        static_cast<int64_t>(worker_cells_[w]->load(std::memory_order_relaxed));
    const int64_t delta = cur - last_worker_rows_[w];
    if (delta != 0) workers[w] = delta;
    last_worker_rows_[w] = cur;
  }
  return controller_->RunTrafficControl(tenants, shards, workers);
}

Result<int> Cluster::ExpireTenantData(uint64_t tenant, int64_t cutoff_ts) {
  // A control mutation: a read that overlaps the deletes is fenced
  // (kUnavailable) instead of failing on a vanished object.
  std::lock_guard<std::mutex> control_lock(control_mu_);
  ControlMutation mutation(&control_seq_);
  return controller_->ExpireTenantData(tenant, cutoff_ts, store_.get());
}

}  // namespace logstore::cluster
