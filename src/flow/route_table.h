#ifndef LOGSTORE_FLOW_ROUTE_TABLE_H_
#define LOGSTORE_FLOW_ROUTE_TABLE_H_

#include <cstdint>
#include <map>
#include <string>

namespace logstore::flow {

// The tenant routing table pushed from the controller to the brokers
// (§4.1.2): Rules{T0: {P0: X00, P1: X01, ...}, ...} where X_ij is the
// fraction of tenant i's traffic sent to shard j. A plain value type;
// brokers swap whole tables atomically.
class RouteTable {
 public:
  using ShardWeights = std::map<uint32_t, double>;

  void Set(uint64_t tenant, ShardWeights weights) {
    rules_[tenant] = std::move(weights);
  }

  bool Contains(uint64_t tenant) const { return rules_.count(tenant) > 0; }

  const ShardWeights* Get(uint64_t tenant) const {
    auto it = rules_.find(tenant);
    return it == rules_.end() ? nullptr : &it->second;
  }

  // Weighted random shard choice for one write batch of `tenant`, given
  // the write's uniform draw in [0, 1). Returns false if the tenant has no
  // route.
  bool PickShard(uint64_t tenant, double uniform, uint32_t* shard) const {
    const ShardWeights* weights = Get(tenant);
    if (weights == nullptr || weights->empty()) return false;
    double total = 0;
    for (const auto& [_, w] : *weights) total += w;
    double r = uniform * total;
    for (const auto& [s, w] : *weights) {
      r -= w;
      if (r <= 0) {
        *shard = s;
        return true;
      }
    }
    *shard = weights->rbegin()->first;
    return true;
  }

  // Total number of routing rules (tenant->shard edges), the metric of
  // Figure 12(c): max-flow should add fewer than greedy.
  size_t RouteCount() const {
    size_t count = 0;
    for (const auto& [_, weights] : rules_) count += weights.size();
    return count;
  }

  size_t TenantCount() const { return rules_.size(); }

  // Sum of one tenant's route weights (0 when the tenant has no route).
  // Every producer of this table (initial placement, both balancers)
  // normalizes to 1.0 — "each tenant's weights sum to 100%" — which the
  // placement property tests assert through this accessor.
  double WeightSum(uint64_t tenant) const {
    const ShardWeights* weights = Get(tenant);
    if (weights == nullptr) return 0;
    double total = 0;
    for (const auto& [_, w] : *weights) total += w;
    return total;
  }

  // Structural validity: every routed tenant has at least one shard, no
  // negative weights, and weights sum to 1 within `tolerance`. On failure
  // fills `error` (when non-null) with the offending tenant.
  bool Validate(double tolerance = 1e-6, std::string* error = nullptr) const {
    for (const auto& [tenant, weights] : rules_) {
      double total = 0;
      for (const auto& [shard, w] : weights) {
        (void)shard;
        if (w < 0) {
          if (error != nullptr) {
            *error = "tenant " + std::to_string(tenant) + " negative weight";
          }
          return false;
        }
        total += w;
      }
      if (weights.empty() || total < 1.0 - tolerance ||
          total > 1.0 + tolerance) {
        if (error != nullptr) {
          *error = "tenant " + std::to_string(tenant) +
                   " weights sum to " + std::to_string(total);
        }
        return false;
      }
    }
    return true;
  }

  const std::map<uint64_t, ShardWeights>& rules() const { return rules_; }

  // Read-side merge (§4.1.5): during a transition, reads must be forwarded
  // to the union of old and new plans; weights are irrelevant for reads.
  static RouteTable MergeForReads(const RouteTable& old_table,
                                  const RouteTable& new_table) {
    RouteTable merged = new_table;
    for (const auto& [tenant, weights] : old_table.rules_) {
      auto& target = merged.rules_[tenant];
      for (const auto& [shard, weight] : weights) {
        target.emplace(shard, weight);  // keep new weight if present
      }
    }
    return merged;
  }

 private:
  std::map<uint64_t, ShardWeights> rules_;
};

}  // namespace logstore::flow

#endif  // LOGSTORE_FLOW_ROUTE_TABLE_H_
