#ifndef LOGSTORE_CLUSTER_CONTROLLER_H_
#define LOGSTORE_CLUSTER_CONTROLLER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "flow/balancer.h"
#include "flow/consistent_hash.h"
#include "flow/route_table.h"
#include "logblock/logblock_map.h"
#include "objectstore/object_store.h"

namespace logstore::cluster {

enum class BalancePolicy { kNone, kGreedy, kMaxFlow };

struct ControllerOptions {
  BalancePolicy policy = BalancePolicy::kMaxFlow;
  double alpha = 0.85;
  double hot_threshold = 0.9;
  int64_t edge_max_flow = 100'000;
  int64_t shard_capacity = 150'000;
  int64_t worker_capacity = 300'000;
};

// The controller of Figure 3/Figure 6: owns the metadata (tenant LogBlock
// map), the tenant routing table, and the hotspot manager (monitor ->
// balancer -> router). This in-process controller stands in for the
// ZooKeeper-elected controller of the production deployment.
class Controller {
 public:
  Controller(uint32_t num_workers, uint32_t shards_per_worker,
             ControllerOptions options = {});

  // Initial placement: ConsistentHash(K_i) with weight 100% (Algorithm 1
  // lines 4-7). Idempotent per tenant.
  void EnsureTenantRoute(uint64_t tenant);

  // One monitor->balancer->router cycle (Algorithm 1 body). `tenant_traffic`
  // / `shard_loads` / `worker_loads` are the metrics harvested since the
  // last cycle, in rows per interval.
  struct ControlDecision {
    bool rebalanced = false;
    bool scale_needed = false;
    int routes_added = 0;
    size_t route_count = 0;
  };
  ControlDecision RunTrafficControl(
      const std::map<uint64_t, int64_t>& tenant_traffic,
      const std::map<uint32_t, int64_t>& shard_loads,
      const std::map<uint32_t, int64_t>& worker_loads);

  // A copy of the current write routing table.
  flow::RouteTable routes() const;

  // The shard for one write of `tenant`, picked from the routing table in
  // place under one lock: the tenant first gets its initial route if it
  // has none (EnsureTenantRoute), then RouteTable::PickShard chooses with
  // the caller's draw `uniform` in [0, 1). Returns false if the tenant has
  // no shard.
  bool PickShard(uint64_t tenant, double uniform, uint32_t* shard);

  // Shard -> worker placement: a dynamic map, seeded with the uniform
  // shard/shards_per_worker layout and rewritten by FailoverWorker. (The
  // FoundationDB Record Layer lesson: placement must be a lookup, not a
  // formula, or no shard can ever move.)
  uint32_t WorkerForShard(uint32_t shard) const {
    std::lock_guard<std::mutex> lock(mu_);
    return placement_[shard];
  }
  // Shards currently placed on `worker`, ascending.
  std::vector<uint32_t> ShardsOfWorker(uint32_t worker) const;
  uint32_t num_shards() const {
    std::lock_guard<std::mutex> lock(mu_);
    return num_shards_;
  }
  uint32_t num_workers() const {
    std::lock_guard<std::mutex> lock(mu_);
    return num_workers_;
  }

  // --- Worker liveness / failover ---

  bool WorkerAlive(uint32_t worker) const {
    std::lock_guard<std::mutex> lock(mu_);
    return worker < worker_alive_.size() && worker_alive_[worker];
  }
  uint32_t live_worker_count() const;

  // Bumped on every failover; brokers snapshot it around a write to detect
  // a placement change that raced with the write (the fencing epoch).
  uint64_t placement_epoch() const {
    std::lock_guard<std::mutex> lock(mu_);
    return placement_epoch_;
  }

  // Atomic snapshot of the placement map, liveness vector, and epoch — one
  // lock acquisition, so a read can never observe a half-applied failover.
  // The read-side analogue of the write fencing: read by the snapshot,
  // re-check the epoch after the read.
  struct PlacementView {
    uint64_t epoch = 0;
    std::vector<uint32_t> shard_to_worker;
    std::vector<bool> worker_alive;
  };
  PlacementView PlacementSnapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    PlacementView view;
    view.epoch = placement_epoch_;
    view.shard_to_worker = placement_;
    view.worker_alive = worker_alive_;
    return view;
  }

  // The failover decision of the monitor->balancer->router cycle: marks
  // `worker` dead, fences it out of the placement epoch, and reassigns its
  // shards to survivors — capacity-aware, least-loaded first, using the
  // loads harvested by the last control cycle. Tenant routes reference
  // shards, not workers, so every route follows its shard automatically.
  // Fails when the worker is already dead or is the last live worker.
  struct FailoverDecision {
    uint32_t worker = 0;
    uint64_t epoch = 0;                  // placement epoch after the failover
    std::map<uint32_t, uint32_t> moved;  // shard -> surviving worker
  };
  Result<FailoverDecision> FailoverWorker(uint32_t worker);

  // Rejoin after RestartWorker: the worker comes back alive, empty, with no
  // shards — eligible as a target for future failovers and scale-out.
  // Nothing moves back to it inside this call; the control cycle's
  // RebalanceBack pass drains shards onto it on its next run.
  Status ReviveWorker(uint32_t worker);

  // The inverse of failover: drains shards onto live workers that own none
  // (a worker that rejoined empty after a failover), so a revived worker
  // becomes a load-bearing member again instead of idling forever. Donors
  // are the most-shard-loaded live workers; the shards moved are their
  // coldest by the last harvested shard loads, and a move never pushes the
  // target past the balancer's worker capacity. All moves land under one
  // placement-epoch bump, so an in-flight read that snapshotted the old
  // placement fails its epoch re-check and retries.
  struct RebalanceDecision {
    uint64_t epoch = 0;                  // placement epoch after the pass
    std::map<uint32_t, uint32_t> moved;  // shard -> new (rejoined) worker
  };
  RebalanceDecision RebalanceBack();

  // ScaleCluster (Algorithm 1 lines 23-27): provisions one more worker and
  // its shards ("add new shards; add new workers"). New shards join the
  // consistent-hash ring (future tenants) and become targets for the
  // balancer's route additions (existing hot tenants). Returns the new
  // worker id.
  uint32_t AddWorker();

  logblock::LogBlockMap* metadata() { return &metadata_; }

  // Data-expiration task (§3.1): removes LogBlocks of `tenant` wholly older
  // than `cutoff_ts` from the catalog and the object store. Returns the
  // number of deleted blocks.
  Result<int> ExpireTenantData(uint64_t tenant, int64_t cutoff_ts,
                               objectstore::ObjectStore* store);

  const ControllerOptions& options() const { return options_; }

 private:
  void EnsureTenantRouteLocked(uint64_t tenant);  // requires mu_
  flow::ClusterState BuildState(
      const std::map<uint64_t, int64_t>& tenant_traffic,
      const std::map<uint32_t, int64_t>& shard_loads,
      const std::map<uint32_t, int64_t>& worker_loads) const;

  const uint32_t shards_per_worker_;
  const ControllerOptions options_;
  uint32_t num_workers_;  // guarded by mu_
  uint32_t num_shards_;   // guarded by mu_

  mutable std::mutex mu_;
  std::vector<uint32_t> placement_;   // shard -> worker, guarded by mu_
  std::vector<bool> worker_alive_;    // guarded by mu_
  uint64_t placement_epoch_ = 0;      // guarded by mu_
  // Worker/shard loads from the last monitor harvest, for capacity-aware
  // failover target selection and rebalance-back donor/shard choice.
  // Guarded by mu_.
  std::map<uint32_t, int64_t> last_worker_loads_;
  std::map<uint32_t, int64_t> last_shard_loads_;
  flow::ConsistentHashRing ring_;
  flow::RouteTable routes_;
  std::unique_ptr<flow::Balancer> balancer_;

  logblock::LogBlockMap metadata_;
};

}  // namespace logstore::cluster

#endif  // LOGSTORE_CLUSTER_CONTROLLER_H_
