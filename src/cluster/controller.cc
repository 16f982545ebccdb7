#include "cluster/controller.h"

namespace logstore::cluster {

Controller::Controller(uint32_t num_workers, uint32_t shards_per_worker,
                       ControllerOptions options)
    : shards_per_worker_(shards_per_worker),
      options_(options),
      num_workers_(num_workers),
      num_shards_(num_workers * shards_per_worker) {
  placement_.reserve(num_shards_);
  for (uint32_t s = 0; s < num_shards_; ++s) {
    placement_.push_back(s / shards_per_worker_);
  }
  worker_alive_.assign(num_workers_, true);
  for (uint32_t s = 0; s < num_shards_; ++s) ring_.AddNode(s);
  switch (options_.policy) {
    case BalancePolicy::kGreedy:
      balancer_ = std::make_unique<flow::GreedyBalancer>();
      break;
    case BalancePolicy::kMaxFlow:
      balancer_ = std::make_unique<flow::MaxFlowBalancer>();
      break;
    case BalancePolicy::kNone:
      break;
  }
}

uint32_t Controller::AddWorker() {
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t worker = num_workers_++;
  worker_alive_.push_back(true);
  for (uint32_t s = 0; s < shards_per_worker_; ++s) {
    ring_.AddNode(num_shards_ + s);
    placement_.push_back(worker);
  }
  num_shards_ += shards_per_worker_;
  return worker;
}

std::vector<uint32_t> Controller::ShardsOfWorker(uint32_t worker) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint32_t> shards;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    if (placement_[s] == worker) shards.push_back(s);
  }
  return shards;
}

uint32_t Controller::live_worker_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint32_t live = 0;
  for (bool alive : worker_alive_) live += alive ? 1 : 0;
  return live;
}

Result<Controller::FailoverDecision> Controller::FailoverWorker(
    uint32_t worker) {
  std::lock_guard<std::mutex> lock(mu_);
  if (worker >= num_workers_) {
    return Status::InvalidArgument("no such worker");
  }
  if (!worker_alive_[worker]) {
    return Status::AlreadyExists("worker already failed over");
  }
  // Survivors, by current shard count then last harvested load: the
  // capacity-aware target order for reassignment.
  std::vector<uint32_t> survivors;
  for (uint32_t w = 0; w < num_workers_; ++w) {
    if (w != worker && worker_alive_[w]) survivors.push_back(w);
  }
  if (survivors.empty()) {
    return Status::Unavailable(
        "cannot fail over the last live worker; no survivors");
  }

  worker_alive_[worker] = false;
  ++placement_epoch_;  // fences the dead worker's in-flight acks

  std::map<uint32_t, uint32_t> shard_counts;
  for (uint32_t s = 0; s < num_shards_; ++s) ++shard_counts[placement_[s]];

  FailoverDecision decision;
  decision.worker = worker;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    if (placement_[s] != worker) continue;
    uint32_t best = survivors[0];
    for (uint32_t candidate : survivors) {
      const auto count = [&](uint32_t w) { return shard_counts[w]; };
      const auto load = [&](uint32_t w) {
        auto it = last_worker_loads_.find(w);
        return it == last_worker_loads_.end() ? int64_t{0} : it->second;
      };
      if (std::pair(count(candidate), load(candidate)) <
          std::pair(count(best), load(best))) {
        best = candidate;
      }
    }
    placement_[s] = best;
    ++shard_counts[best];
    decision.moved[s] = best;
  }
  // Tenant routes key on shards, so every route follows its shard to the
  // new worker without being rewritten; the next balancer cycle re-weights
  // against the survivors' measured loads as usual.
  decision.epoch = placement_epoch_;
  return decision;
}

Controller::RebalanceDecision Controller::RebalanceBack() {
  std::lock_guard<std::mutex> lock(mu_);
  RebalanceDecision decision;
  decision.epoch = placement_epoch_;

  std::map<uint32_t, uint32_t> shard_counts;
  std::map<uint32_t, int64_t> projected_loads;  // target's load after moves
  uint32_t live = 0;
  for (uint32_t w = 0; w < num_workers_; ++w) {
    if (worker_alive_[w]) {
      ++live;
      shard_counts[w];  // materialize zero-shard live workers
    }
  }
  for (uint32_t s = 0; s < num_shards_; ++s) ++shard_counts[placement_[s]];

  std::vector<uint32_t> targets;  // live and empty: rejoined workers
  for (const auto& [w, count] : shard_counts) {
    if (worker_alive_[w] && count == 0) targets.push_back(w);
  }
  if (targets.empty() || live < 2) return decision;

  const auto shard_load = [&](uint32_t s) {
    auto it = last_shard_loads_.find(s);
    return it == last_shard_loads_.end() ? int64_t{0} : it->second;
  };
  // Even split across the live fleet; a target never takes more than its
  // fair share, a donor never gives below its own.
  const uint32_t fair = std::max<uint32_t>(1, num_shards_ / live);

  for (uint32_t target : targets) {
    while (shard_counts[target] < fair) {
      // Donor: the live worker with the most shards (ties: higher load),
      // as long as it stays at or above the fair share after donating.
      uint32_t donor = target;
      for (const auto& [w, count] : shard_counts) {
        if (!worker_alive_[w] || w == target || count <= fair) continue;
        if (donor == target || count > shard_counts[donor]) donor = w;
      }
      if (donor == target) break;  // fleet already balanced
      // Move the donor's coldest shard: it restores membership with the
      // least route-table disruption, and cannot hot-spot the target.
      uint32_t moved_shard = num_shards_;
      for (uint32_t s = 0; s < num_shards_; ++s) {
        if (placement_[s] != donor || decision.moved.count(s)) continue;
        if (moved_shard == num_shards_ ||
            shard_load(s) < shard_load(moved_shard)) {
          moved_shard = s;
        }
      }
      if (moved_shard == num_shards_) break;
      if (projected_loads[target] + shard_load(moved_shard) >
          options_.worker_capacity) {
        break;  // capacity math says the target is full; stop draining
      }
      placement_[moved_shard] = target;
      projected_loads[target] += shard_load(moved_shard);
      --shard_counts[donor];
      ++shard_counts[target];
      decision.moved[moved_shard] = target;
    }
  }
  if (!decision.moved.empty()) {
    // One epoch bump for the whole pass: a read that snapshotted the old
    // placement fails its epoch re-check and retries against the settled
    // map. (Writes acked to a donor are safe — it stays a live, archiving
    // worker — so only readers need the fence.)
    ++placement_epoch_;
  }
  decision.epoch = placement_epoch_;
  return decision;
}

Status Controller::ReviveWorker(uint32_t worker) {
  std::lock_guard<std::mutex> lock(mu_);
  if (worker >= num_workers_) {
    return Status::InvalidArgument("no such worker");
  }
  if (worker_alive_[worker]) {
    return Status::AlreadyExists("worker is already live");
  }
  worker_alive_[worker] = true;  // empty: owns no shards until assigned
  return Status::OK();
}

void Controller::EnsureTenantRoute(uint64_t tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  EnsureTenantRouteLocked(tenant);
}

void Controller::EnsureTenantRouteLocked(uint64_t tenant) {
  if (routes_.Contains(tenant)) return;
  routes_.Set(tenant, {{ring_.GetNode(tenant), 1.0}});
}

flow::RouteTable Controller::routes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return routes_;
}

bool Controller::PickShard(uint64_t tenant, double uniform, uint32_t* shard) {
  std::lock_guard<std::mutex> lock(mu_);
  EnsureTenantRouteLocked(tenant);
  return routes_.PickShard(tenant, uniform, shard);
}

flow::ClusterState Controller::BuildState(
    const std::map<uint64_t, int64_t>& tenant_traffic,
    const std::map<uint32_t, int64_t>& shard_loads,
    const std::map<uint32_t, int64_t>& worker_loads) const {
  flow::ClusterState state;
  state.alpha = options_.alpha;
  state.hot_threshold = options_.hot_threshold;
  state.edge_max_flow = options_.edge_max_flow;
  state.routes = routes_;
  for (const auto& [tenant, traffic] : tenant_traffic) {
    state.tenants.push_back({tenant, traffic});
  }
  for (uint32_t s = 0; s < num_shards_; ++s) {
    auto it = shard_loads.find(s);
    // placement_ read directly: callers hold mu_ (WorkerForShard would
    // re-lock it).
    state.shards.push_back({s, placement_[s], options_.shard_capacity,
                            it == shard_loads.end() ? 0 : it->second});
  }
  for (uint32_t w = 0; w < num_workers_; ++w) {
    auto it = worker_loads.find(w);
    state.workers.push_back({w, options_.worker_capacity,
                             it == worker_loads.end() ? 0 : it->second,
                             worker_alive_[w]});
  }
  return state;
}

Controller::ControlDecision Controller::RunTrafficControl(
    const std::map<uint64_t, int64_t>& tenant_traffic,
    const std::map<uint32_t, int64_t>& shard_loads,
    const std::map<uint32_t, int64_t>& worker_loads) {
  std::lock_guard<std::mutex> lock(mu_);
  last_worker_loads_ = worker_loads;  // capacity signal for failover targets
  last_shard_loads_ = shard_loads;    // and for rebalance-back shard choice
  ControlDecision decision;
  if (balancer_ == nullptr) return decision;  // kNone policy

  const flow::ClusterState state =
      BuildState(tenant_traffic, shard_loads, worker_loads);

  // Algorithm 1: act only when hot shards exist.
  if (flow::DetectHotShards(state).empty()) {
    decision.route_count = routes_.RouteCount();
    return decision;
  }
  if (flow::NeedsScaleOut(state)) {
    // Only adding worker nodes can satisfy the demand.
    decision.scale_needed = true;
    decision.route_count = routes_.RouteCount();
    return decision;
  }

  flow::BalanceResult result = balancer_->Schedule(state);
  routes_ = std::move(result.routes);
  decision.rebalanced = true;
  decision.scale_needed = result.scale_needed;
  decision.routes_added = result.routes_added;
  decision.route_count = routes_.RouteCount();
  return decision;
}

Result<int> Controller::ExpireTenantData(uint64_t tenant, int64_t cutoff_ts,
                                         objectstore::ObjectStore* store) {
  const auto expired = metadata_.ExpireBefore(tenant, cutoff_ts);
  for (const auto& entry : expired) {
    LOGSTORE_RETURN_IF_ERROR(store->Delete(entry.object_key));
  }
  return static_cast<int>(expired.size());
}

}  // namespace logstore::cluster
