#ifndef LOGSTORE_CLUSTER_CLUSTER_H_
#define LOGSTORE_CLUSTER_CLUSTER_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/controller.h"
#include "cluster/escalation.h"
#include "cluster/worker.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/result.h"
#include "objectstore/object_store.h"
#include "objectstore/retrying_object_store.h"
#include "query/engine.h"

namespace logstore::cluster {

struct ClusterDeploymentOptions {
  uint32_t num_workers = 4;
  uint32_t shards_per_worker = 4;
  // `worker.wal_dir`, set exactly when `worker.replicated` is (Open refuses
  // one without the other), is the base of the deployment's durable state:
  // each worker's replica WALs live under <wal_dir>/worker-<id>, so
  // re-Opening a cluster over the same directory is a full restart — every
  // worker recovers its term/vote/log/watermark from disk.
  WorkerOptions worker;
  ControllerOptions controller;
  // Options of the deployment's one query engine. Its cache budgets
  // (cache_options.memory_capacity_bytes, cache_options.ssd_capacity_bytes
  // and object_cache_bytes) are per worker, as each worker node of the
  // paper has its own caches: the engine gets num_workers times each. Its
  // query_threads is the deployment's budget for pooled block scans, shared
  // round-robin across tenants (DESIGN §12).
  query::EngineOptions engine;
  // Retry policy of the deployment's one RetryingObjectStore, which every
  // object-store call goes through: the engine's reads, each worker's
  // uploads and snapshot-manifest Heads, and expiry deletes. Its registry
  // defaults to `registry`.
  objectstore::RetryOptions retry;
  // Escalation-ladder knobs for the control cycle (replica-recovery attempt
  // budget, election patience).
  EscalationPolicy escalation;
  // Registry receiving every layer's counters (`cluster.*`, `monitor.*`,
  // and — propagated into the worker/engine/retry options when those are
  // unset — `wal.*`, `raft.*`, `query.*`, `cache.*`,
  // `objectstore.retry.*`). nullptr means the process-wide default.
  metrics::MetricRegistry* registry = nullptr;
};

// Knobs for the background monitor thread (StartMonitor).
struct MonitorOptions {
  // Sleep between control cycles. The monitor also wakes immediately on
  // StopMonitor/PauseMonitor.
  int64_t poll_interval_ms = 20;
};

// Counters exported by the monitor thread: what the autonomous control
// plane decided and how long its cycles took. Snapshot via monitor_stats().
struct MonitorStats {
  uint64_t cycles = 0;
  uint64_t cycle_errors = 0;        // RunControlCycle returned non-OK
  uint64_t failovers = 0;           // whole-worker fence-and-failover rung
  uint64_t replica_recoveries = 0;  // in-place RecoverReplica rung
  uint64_t election_waits = 0;      // quorate-but-leaderless wait rung
  uint64_t skipped_workers = 0;     // last-live-worker reported skips
  uint64_t rebalanced_shards = 0;   // shards drained onto rejoined workers
  uint64_t tails_lost = 0;          // failovers that declared the tail lost
  int64_t last_cycle_us = 0;
  int64_t max_cycle_us = 0;
  int64_t total_cycle_us = 0;
};

// An in-process LogStore deployment (Figure 3): brokers route tenant writes
// by the controller's routing table to workers' shards; data builders
// archive to the object store; queries scan the LogBlocks on one query
// engine and merge the live workers' real-time row stores. This is the
// functional simulation of the multi-node production system in one address
// space: the workers share one query pool, prefetch service and cache
// instead of running a copy each, and that pool's tenant-fair queue is
// where one tenant's wide scan waits behind its own blocks, not in front
// of another tenant's.
class Cluster {
 public:
  // `store` must outlive the cluster.
  static Result<std::unique_ptr<Cluster>> Open(
      objectstore::ObjectStore* store, ClusterDeploymentOptions options);

  // Broker write path: pick a shard by routing weight, write to its worker.
  // Returns kUnavailable (retryable) when the routed worker is dead and the
  // control cycle has not yet reassigned its shards — the client retries
  // after RunControlCycle instead of crashing into a null worker.
  Status Write(uint64_t tenant, const logblock::RowBatch& rows);

  // Broker read path (§12): the query's pruned LogBlocks run on the
  // cluster's one engine and merge in LogBlock-map order; real-time rows
  // from the live workers merge after in a deterministic
  // placement-independent order. Returns kUnavailable (retryable) when a
  // worker is dead but not yet failed over, or a control mutation or
  // placement move overlapped the read — never a partial result. Counted
  // in the cluster.availability.* cells.
  Result<query::QueryResult> Query(const query::LogQuery& query);

  // The same read as Query, kept for callers that compare against it; not
  // counted in the availability cells.
  Result<query::QueryResult> QuerySingleEngine(const query::LogQuery& query);

  // Background tasks, invoked by tests/benches instead of timers.
  Result<int> RunBuildPass();           // all workers archive
  Controller::ControlDecision RunTrafficControl();
  Result<int> ExpireTenantData(uint64_t tenant, int64_t cutoff_ts);

  // Tears one worker down and reconstructs it over its own wal_dir — a
  // single worker-process restart inside a live deployment (replicated
  // mode only). Acked writes survive: they are either in LogBlocks on the
  // object store or recovered from the worker's replica WALs.
  //
  // For a FAILED-OVER worker this is the rejoin path instead: its tail was
  // already recovered (or declared lost) by FailoverWorker and re-routed to
  // survivors, so the old journal is wiped and the worker rejoins as a
  // fresh empty instance, eligible for future placement.
  Status RestartWorker(uint32_t id);

  // --- Failover subsystem ---

  // Simulates a worker-process death: the Worker object is fenced and
  // released (WAL file handles close once in-flight readers drain), its
  // on-disk WAL directory left behind. Writes routed to it return
  // kUnavailable until RunControlCycle (or an explicit FailoverWorker)
  // reassigns its shards.
  Status KillWorker(uint32_t id);

  // One failover: fence + release the worker if its process is still up
  // (the wedged-replica case), reassign its shards to survivors through the
  // controller, then recover the un-archived tail of its per-worker WAL
  // directory by re-ingesting it through the broker write path (the routes
  // now point at survivors). A missing/unreadable WAL directory declares
  // the tail lost up to the archived-through watermark instead of failing.
  struct FailoverReport {
    uint32_t worker = 0;
    std::map<uint32_t, uint32_t> moved;  // shard -> surviving worker
    uint64_t tail_entries_recovered = 0;  // WAL entries re-ingested
    uint64_t tail_rows_recovered = 0;     // rows inside those entries
    uint64_t tail_batches = 0;  // broker writes the replay coalesced into
    bool tail_lost = false;  // no WAL dir: tail gone, archived prefix safe
  };
  Result<FailoverReport> FailoverWorker(uint32_t id);

  // Health harvest (monitor input): one report per worker. A worker whose
  // process died gets a synthesized report with process_alive=false.
  std::vector<WorkerHealth> HarvestHealth();

  // The full monitor->escalation->failover->balancer->router cycle: harvest
  // health, walk each unhealthy worker up the escalation ladder (wait out
  // an election, repair one replica in place, or — last rung — fence and
  // fail over), recover failed-over tails, run traffic control, and drain
  // shards back onto rejoined empty workers. An unhealthy LAST live worker
  // is reported in `skipped` and the rest of the cycle still runs.
  struct ReplicaRecovery {
    uint32_t worker = 0;
    int replica = -1;
    bool ok = false;
  };
  struct ControlCycleReport {
    std::vector<FailoverReport> failovers;
    std::vector<ReplicaRecovery> replica_recoveries;
    std::vector<uint32_t> awaiting_election;  // quorate, election in flight
    std::vector<uint32_t> skipped;  // unhealthy but last live worker
    std::map<uint32_t, uint32_t> rebalanced;  // shard -> rejoined worker
    uint64_t tail_replay_batches = 0;
    Controller::ControlDecision traffic;
  };
  Result<ControlCycleReport> RunControlCycle();

  // --- Background monitor thread ---

  // Starts the monitor: a background thread driving RunControlCycle every
  // poll interval until StopMonitor. Errors from individual cycles are
  // counted, not fatal — the monitor's job is to keep trying.
  Status StartMonitor(MonitorOptions options = {});
  // Stops and joins the monitor thread (idempotent; also runs at
  // destruction).
  void StopMonitor();
  // Pauses the monitor between cycles; blocks until any in-flight cycle
  // completes, so after return the caller observes a quiescent control
  // plane (tests use this to make assertions race-free). Resume re-arms it.
  //
  // Wake contract (the soak harness leans on every clause):
  //  - Pauses NEST: each PauseMonitor must be matched by one ResumeMonitor,
  //    and the monitor stays quiescent until the LAST resume. Two fault
  //    injectors may pause concurrently; neither's quiescent window can be
  //    broken by the other's resume (monitor_pause_depth_ is a counter, not
  //    a flag — a bool here once let a pause/resume storm re-arm the
  //    monitor inside another thread's window, invalidating its raw
  //    Worker* accesses).
  //  - PauseMonitor returns only when no cycle is in flight; after return
  //    no new cycle can start until the matching resume.
  //  - ResumeMonitor (at depth zero) and StopMonitor wake the loop
  //    IMMEDIATELY via monitor_kick_ — the loop's wait predicate must not
  //    sleep out the remainder of poll_interval_ms, or a chaos schedule
  //    that resumes right before asserting convergence goes flaky.
  //  - StopMonitor may be called while paused; stop outranks pause.
  void PauseMonitor();
  void ResumeMonitor();
  bool monitor_running() const;
  MonitorStats monitor_stats() const;

  Controller* controller() { return controller_.get(); }
  Worker* worker(uint32_t id) { return WorkerRef(id).get(); }
  uint32_t num_workers() const {
    return static_cast<uint32_t>(options_.num_workers);
  }
  // The one query engine every read runs on; it lives as long as the
  // cluster, whatever happens to the workers.
  query::QueryEngine* engine() { return engine_.get(); }

  // Drops the engine's cached state (for cold-cache measurements).
  void ClearQueryCaches();

  ~Cluster() { StopMonitor(); }

 private:
  Cluster() : rng_(12345) {}

  // Per-worker construction options (worker.wal_dir already rewritten to
  // the worker's own subdirectory), kept for RestartWorker. Each call
  // allocates a fresh builder-key incarnation (see WorkerOptions).
  WorkerOptions WorkerOptionsFor(uint32_t id) const;
  mutable std::atomic<uint64_t> next_worker_incarnation_{0};

  // RunControlCycle body; caller holds control_mu_.
  Result<ControlCycleReport> RunControlCycleLocked();

  // Monitor thread body.
  void MonitorLoop(MonitorOptions options);
  void RecordCycle(const Result<ControlCycleReport>& report,
                   int64_t elapsed_us);

  // The tail-recovery half of a failover: re-ingests the un-archived
  // suffix of the dead worker's replica WALs through the broker write
  // path, filling the recovery fields of `report`. Must run only after
  // EVERY dead worker of the cycle is marked dead in the controller, or a
  // recovered write could be routed at a worker about to be failed over.
  Status RecoverTail(uint32_t id, FailoverReport* report);

  // Slot accessors: worker slots are shared_ptrs guarded by workers_mu_,
  // so a reader holds the OBJECT alive while a failover nulls the SLOT —
  // the in-process analogue of a connection outliving the cluster
  // membership change. Never hold workers_mu_ across worker calls.
  std::shared_ptr<Worker> WorkerRef(uint32_t id) const;
  std::vector<std::shared_ptr<Worker>> SnapshotWorkers() const;
  // Fences worker `id` (if present) and nulls its slot, returning the old
  // worker object. Part of every kill/failover.
  std::shared_ptr<Worker> FenceAndRemoveWorker(uint32_t id);

  // The one read path behind Query and QuerySingleEngine: snapshots the
  // control seqlock, placement and workers, applies the liveness rule (so a
  // dead worker refuses the read before any block is read), then runs the
  // engine's Read with the deployment schema, the live workers' realtime
  // scans and the seqlock/epoch fence.
  Result<query::QueryResult> Read(const query::LogQuery& query);

  // Write() body; the public wrapper classifies the outcome into the
  // cluster.availability.* cells on every exit path.
  Status WriteImpl(uint64_t tenant, const logblock::RowBatch& rows);

  ClusterDeploymentOptions options_;
  // The one retry layer over the caller's store; every object-store call of
  // the deployment goes through it.
  std::unique_ptr<objectstore::RetryingObjectStore> store_;
  std::unique_ptr<Controller> controller_;

  mutable std::mutex workers_mu_;
  std::vector<std::shared_ptr<Worker>> workers_;  // guarded by workers_mu_

  std::unique_ptr<query::QueryEngine> engine_;
  Random rng_;

  // Read-side fence for in-process control mutations, a seqlock: odd while
  // a control mutation (kill / failover / restart / build pass) is in
  // progress. A query snapshots it first and re-checks it last; any change
  // or an odd value makes the result kUnavailable (retryable), so a reader
  // overlapping a mutation can never return a partial result — the window
  // the placement epoch alone cannot cover (tail recovery and archive
  // moves do not bump the epoch).
  std::atomic<uint64_t> control_seq_{0};

  class ControlMutation {
   public:
    explicit ControlMutation(std::atomic<uint64_t>* seq) : seq_(seq) {
      seq_->fetch_add(1, std::memory_order_acq_rel);
    }
    ~ControlMutation() { seq_->fetch_add(1, std::memory_order_acq_rel); }
    ControlMutation(const ControlMutation&) = delete;
    ControlMutation& operator=(const ControlMutation&) = delete;

   private:
    std::atomic<uint64_t>* seq_;
  };

  // Broker write-path accounting (§4.1.3 monitor input), kept as registry
  // counters so the hot path touches only lock-free atomics — the old
  // metrics_mu_ serialized every Write twice (once for the RNG shard pick,
  // once for three counter-map updates). Shard/worker cells are
  // pre-resolved at Open (the universe is fixed); tenant cells resolve on
  // first write through a read-mostly cache.
  std::atomic<uint64_t>* TenantCell(uint64_t tenant);
  metrics::MetricRegistry* registry_ = nullptr;
  std::vector<std::atomic<uint64_t>*> shard_cells_;
  std::vector<std::atomic<uint64_t>*> worker_cells_;
  mutable std::shared_mutex tenant_cells_mu_;
  std::unordered_map<uint64_t, std::atomic<uint64_t>*> tenant_cells_;

  // The RNG is the one piece of Write that still needs mutual exclusion;
  // it gets its own narrow lock instead of riding the metrics lock.
  std::mutex rng_mu_;  // guards rng_

  // Traffic control consumes per-cycle deltas, but the registry counters
  // are cumulative; these baselines remember each counter's value at the
  // previous cycle. Guarded by traffic_baseline_mu_ (cycles are already
  // serialized by control_mu_, but tests call RunTrafficControl directly).
  std::mutex traffic_baseline_mu_;
  std::unordered_map<uint64_t, int64_t> last_tenant_rows_;
  std::vector<int64_t> last_shard_rows_;
  std::vector<int64_t> last_worker_rows_;

  // Registry mirror of MonitorStats (monitor.*), dual-written at the
  // accounting points.
  struct MonitorCells {
    std::atomic<uint64_t>* cycles = nullptr;
    std::atomic<uint64_t>* cycle_errors = nullptr;
    std::atomic<uint64_t>* failovers = nullptr;
    std::atomic<uint64_t>* replica_recoveries = nullptr;
    std::atomic<uint64_t>* election_waits = nullptr;
    std::atomic<uint64_t>* skipped_workers = nullptr;
    std::atomic<uint64_t>* rebalanced_shards = nullptr;
    std::atomic<uint64_t>* tails_lost = nullptr;
    std::atomic<int64_t>* last_cycle_us = nullptr;
    std::atomic<int64_t>* max_cycle_us = nullptr;
    std::atomic<int64_t>* total_cycle_us = nullptr;
    void BindTo(metrics::MetricRegistry* registry);
  };
  MonitorCells monitor_cells_;

  // Availability accounting (cluster.availability.*): every broker write
  // and read classified at the moment it returns to the client. The soak
  // harness samples these cells into time buckets to compute write-success
  // rate over wall clock the way Taurus's evaluation does; `*_unavailable`
  // counts the retryable kUnavailable refusals (dead route, control-seqlock
  // overlap, epoch move, brownout surfacing through the engine) that
  // the availability floor is measured against. Other errors (a bad
  // query, a block that failed to decode) land in `*_errors` so refusal and
  // failure stay distinguishable.
  struct AvailabilityCells {
    std::atomic<uint64_t>* write_attempts = nullptr;
    std::atomic<uint64_t>* write_successes = nullptr;
    std::atomic<uint64_t>* write_unavailable = nullptr;
    std::atomic<uint64_t>* write_errors = nullptr;
    std::atomic<uint64_t>* query_attempts = nullptr;
    std::atomic<uint64_t>* query_successes = nullptr;
    std::atomic<uint64_t>* query_unavailable = nullptr;
    std::atomic<uint64_t>* query_errors = nullptr;
    void BindTo(metrics::MetricRegistry* registry);
    void RecordWrite(const Status& status);
    void RecordQuery(const Status& status);
  };
  AvailabilityCells availability_cells_;

  // Serializes control-plane entry points (control cycles, kill / restart /
  // failover, build passes) against each other — the monitor thread and
  // test threads share them. Ordered BEFORE workers_mu_ and any worker's
  // raft lock; never acquired while holding either.
  std::mutex control_mu_;

  // The escalation ladder's failure memory, per worker: in-place recovery
  // attempts per replica (cleared when the replica is observed healthy)
  // and consecutive leaderless-but-quorate cycles. Guarded by control_mu_.
  struct EscalationState {
    std::map<int, int> recover_attempts;
    int election_waits = 0;
  };
  std::map<uint32_t, EscalationState> escalation_;

  // Monitor thread machinery. monitor_mu_ guards the flags and stats;
  // cycles themselves run outside it (under control_mu_). See the wake
  // contract on PauseMonitor above.
  mutable std::mutex monitor_mu_;
  std::condition_variable monitor_cv_;
  std::thread monitor_;
  bool monitor_stop_ = false;       // guarded by monitor_mu_
  int monitor_pause_depth_ = 0;     // guarded by monitor_mu_; nested pauses
  bool monitor_kick_ = false;       // guarded by monitor_mu_; skip the nap
  bool monitor_in_cycle_ = false;   // guarded by monitor_mu_
  MonitorStats monitor_stats_;      // guarded by monitor_mu_
};

}  // namespace logstore::cluster

#endif  // LOGSTORE_CLUSTER_CLUSTER_H_
