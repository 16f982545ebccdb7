#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include "common/random.h"
#include "flow/balancer.h"
#include "flow/consistent_hash.h"
#include "flow/dinic.h"
#include "flow/route_table.h"

namespace logstore::flow {
namespace {

TEST(DinicTest, SimplePath) {
  DinicMaxFlow graph(4);
  graph.AddEdge(0, 1, 10);
  graph.AddEdge(1, 2, 5);
  graph.AddEdge(2, 3, 10);
  EXPECT_EQ(graph.Solve(0, 3), 5);
}

TEST(DinicTest, ParallelPathsSum) {
  DinicMaxFlow graph(4);
  graph.AddEdge(0, 1, 7);
  graph.AddEdge(0, 2, 9);
  graph.AddEdge(1, 3, 6);
  graph.AddEdge(2, 3, 20);
  EXPECT_EQ(graph.Solve(0, 3), 15);  // min(7,6) + min(9,20)
}

TEST(DinicTest, ClassicTextbookGraph) {
  // CLRS figure: max flow 23.
  DinicMaxFlow graph(6);
  graph.AddEdge(0, 1, 16);
  graph.AddEdge(0, 2, 13);
  graph.AddEdge(1, 2, 10);
  graph.AddEdge(2, 1, 4);
  graph.AddEdge(1, 3, 12);
  graph.AddEdge(3, 2, 9);
  graph.AddEdge(2, 4, 14);
  graph.AddEdge(4, 3, 7);
  graph.AddEdge(3, 5, 20);
  graph.AddEdge(4, 5, 4);
  EXPECT_EQ(graph.Solve(0, 5), 23);
}

TEST(DinicTest, DisconnectedIsZero) {
  DinicMaxFlow graph(4);
  graph.AddEdge(0, 1, 10);
  graph.AddEdge(2, 3, 10);
  EXPECT_EQ(graph.Solve(0, 3), 0);
}

TEST(DinicTest, FlowOnEdgesMatchesConservation) {
  DinicMaxFlow graph(5);
  const int e01 = graph.AddEdge(0, 1, 8);
  const int e02 = graph.AddEdge(0, 2, 8);
  const int e13 = graph.AddEdge(1, 3, 5);
  const int e23 = graph.AddEdge(2, 3, 5);
  const int e34 = graph.AddEdge(3, 4, 9);
  const int64_t total = graph.Solve(0, 4);
  EXPECT_EQ(total, 9);
  EXPECT_EQ(graph.flow_on(e01) + graph.flow_on(e02), total);
  EXPECT_EQ(graph.flow_on(e13) + graph.flow_on(e23), total);
  EXPECT_EQ(graph.flow_on(e34), total);
  EXPECT_LE(graph.flow_on(e13), 5);
  EXPECT_LE(graph.flow_on(e23), 5);
}

TEST(DinicTest, SolveIsRepeatable) {
  DinicMaxFlow graph(3);
  graph.AddEdge(0, 1, 4);
  graph.AddEdge(1, 2, 4);
  EXPECT_EQ(graph.Solve(0, 2), 4);
  EXPECT_EQ(graph.Solve(0, 2), 4);  // residuals reset between solves
}

TEST(ConsistentHashTest, DeterministicAndComplete) {
  ConsistentHashRing ring;
  for (uint32_t s = 0; s < 8; ++s) ring.AddNode(s);
  EXPECT_EQ(ring.GetNode(42), ring.GetNode(42));
  std::set<uint32_t> seen;
  for (uint64_t t = 0; t < 2000; ++t) seen.insert(ring.GetNode(t));
  EXPECT_EQ(seen.size(), 8u);  // every shard receives tenants
}

TEST(ConsistentHashTest, RemovalOnlyRemapsOwnedKeys) {
  ConsistentHashRing ring;
  for (uint32_t s = 0; s < 8; ++s) ring.AddNode(s);
  std::map<uint64_t, uint32_t> before;
  for (uint64_t t = 0; t < 1000; ++t) before[t] = ring.GetNode(t);
  ring.RemoveNode(3);
  int moved = 0;
  for (auto& [t, node] : before) {
    const uint32_t now = ring.GetNode(t);
    if (node != 3) {
      EXPECT_EQ(now, node) << "tenant " << t << " moved unnecessarily";
    }
    if (now != node) ++moved;
  }
  EXPECT_GT(moved, 0);
}

TEST(RouteTableTest, PickShardFollowsWeights) {
  RouteTable table;
  table.Set(1, {{0, 0.8}, {1, 0.2}});
  Random rng(77);
  int counts[2] = {0, 0};
  for (int i = 0; i < 10000; ++i) {
    uint32_t shard;
    ASSERT_TRUE(table.PickShard(1, rng.NextDouble(), &shard));
    counts[shard]++;
  }
  EXPECT_NEAR(counts[0] / 10000.0, 0.8, 0.05);
  EXPECT_NEAR(counts[1] / 10000.0, 0.2, 0.05);
}

TEST(RouteTableTest, MissingTenantFails) {
  RouteTable table;
  uint32_t shard;
  EXPECT_FALSE(table.PickShard(9, 0.5, &shard));
}

TEST(RouteTableTest, RouteCountAndMerge) {
  RouteTable old_table;
  old_table.Set(1, {{0, 1.0}});
  old_table.Set(2, {{1, 1.0}});
  RouteTable new_table;
  new_table.Set(1, {{0, 0.5}, {2, 0.5}});

  EXPECT_EQ(old_table.RouteCount(), 2u);
  EXPECT_EQ(new_table.RouteCount(), 2u);

  const RouteTable merged = RouteTable::MergeForReads(old_table, new_table);
  // Tenant 1: union {0, 2}; tenant 2 kept from old.
  EXPECT_EQ(merged.Get(1)->size(), 2u);
  EXPECT_TRUE(merged.Contains(2));
  EXPECT_DOUBLE_EQ(merged.Get(1)->at(0), 0.5);  // new weight wins
}

// --- Balancer fixtures -----------------------------------------------------

// A cluster where one tenant overwhelms its shard: 4 shards on 2 workers,
// tenant 0 sends 250k logs/s (f_max 100k), others 10k each.
ClusterState SkewedState() {
  ClusterState state;
  state.tenants = {{0, 250'000}, {1, 10'000}, {2, 10'000}, {3, 10'000}};
  for (uint32_t j = 0; j < 4; ++j) {
    state.shards.push_back({j, j / 2, 150'000, 0});
  }
  state.workers = {{0, 300'000, 0}, {1, 300'000, 0}};
  // Initial placement: everything hashed onto shard 0 except tenant 3.
  state.routes.Set(0, {{0, 1.0}});
  state.routes.Set(1, {{0, 1.0}});
  state.routes.Set(2, {{0, 1.0}});
  state.routes.Set(3, {{1, 1.0}});
  // Measured loads.
  std::vector<int64_t> shard_loads, worker_loads;
  ComputeLoads(state, state.routes, &shard_loads, &worker_loads);
  for (size_t j = 0; j < state.shards.size(); ++j) {
    state.shards[j].load = shard_loads[j];
  }
  for (size_t k = 0; k < state.workers.size(); ++k) {
    state.workers[k].load = worker_loads[k];
  }
  return state;
}

TEST(BalancerTest, DetectHotShardsFindsOverload) {
  ClusterState state = SkewedState();
  const auto hot = DetectHotShards(state);
  ASSERT_EQ(hot.size(), 1u);
  EXPECT_EQ(hot[0], 0u);  // 270k load on 150k capacity
}

TEST(BalancerTest, NeedsScaleOutWhenSaturated) {
  ClusterState state = SkewedState();
  EXPECT_FALSE(NeedsScaleOut(state));
  state.workers[0].load = 299'000;
  state.workers[1].load = 299'000;
  EXPECT_TRUE(NeedsScaleOut(state));
}

TEST(BalancerTest, GreedySplitsHotTenant) {
  ClusterState state = SkewedState();
  GreedyBalancer balancer;
  const BalanceResult result = balancer.Schedule(state);

  // 250k / 100k => at least 3 routes for tenant 0.
  const auto* weights = result.routes.Get(0);
  ASSERT_NE(weights, nullptr);
  EXPECT_GE(weights->size(), 3u);
  // Weights are averaged.
  for (const auto& [_, w] : *weights) {
    EXPECT_NEAR(w, 1.0 / weights->size(), 1e-9);
  }

  // No shard exceeds its capacity under the new plan.
  std::vector<int64_t> shard_loads, worker_loads;
  ComputeLoads(state, result.routes, &shard_loads, &worker_loads);
  for (size_t j = 0; j < state.shards.size(); ++j) {
    EXPECT_LE(shard_loads[j], state.shards[j].capacity) << "shard " << j;
  }
}

TEST(BalancerTest, MaxFlowCoversDemand) {
  ClusterState state = SkewedState();
  MaxFlowBalancer balancer;
  const BalanceResult result = balancer.Schedule(state);

  int64_t demand = 0;
  for (const auto& tenant : state.tenants) demand += tenant.traffic;
  EXPECT_GE(result.max_flow, demand);
  EXPECT_FALSE(result.scale_needed);

  // Constraints hold.
  std::vector<int64_t> shard_loads, worker_loads;
  ComputeLoads(state, result.routes, &shard_loads, &worker_loads);
  for (size_t j = 0; j < state.shards.size(); ++j) {
    EXPECT_LE(shard_loads[j], state.shards[j].capacity + 1) << "shard " << j;
  }
  for (size_t k = 0; k < state.workers.size(); ++k) {
    EXPECT_LE(static_cast<double>(worker_loads[k]),
              state.alpha * state.workers[k].capacity + 1)
        << "worker " << k;
  }
  // Per-route limit respected: no single route carries more than f_max.
  for (const auto& [tenant_id, weights] : result.routes.rules()) {
    for (const auto& [shard, w] : weights) {
      const auto& tenant = state.tenants[tenant_id];
      EXPECT_LE(w * tenant.traffic, state.edge_max_flow * 1.01)
          << "tenant " << tenant_id << " shard " << shard;
    }
  }
}

TEST(BalancerTest, MaxFlowUsesNoMoreRoutesThanGreedy) {
  // Figure 12(c): the max-flow plan needs fewer route rules because it
  // re-weights existing edges before adding new ones.
  ClusterState state = SkewedState();
  GreedyBalancer greedy;
  MaxFlowBalancer maxflow;
  const auto greedy_result = greedy.Schedule(state);
  const auto maxflow_result = maxflow.Schedule(state);
  EXPECT_LE(maxflow_result.routes.RouteCount(),
            greedy_result.routes.RouteCount());
}

TEST(BalancerTest, MaxFlowReportsScaleNeededWhenImpossible) {
  ClusterState state = SkewedState();
  state.tenants[0].traffic = 10'000'000;  // far beyond cluster capacity
  state.shards[0].load = 10'020'000;
  MaxFlowBalancer balancer;
  const BalanceResult result = balancer.Schedule(state);
  EXPECT_TRUE(result.scale_needed);
  EXPECT_LT(result.max_flow, 10'030'000);
}

TEST(BalancerTest, BalancedClusterIsLeftAlone) {
  ClusterState state = SkewedState();
  // Calm the hot tenant: no shard is hot now.
  state.tenants[0].traffic = 20'000;
  std::vector<int64_t> shard_loads, worker_loads;
  ComputeLoads(state, state.routes, &shard_loads, &worker_loads);
  for (size_t j = 0; j < state.shards.size(); ++j) {
    state.shards[j].load = shard_loads[j];
  }
  EXPECT_TRUE(DetectHotShards(state).empty());

  GreedyBalancer greedy;
  const auto result = greedy.Schedule(state);
  EXPECT_EQ(result.routes_added, 0);
  EXPECT_EQ(result.routes.RouteCount(), state.routes.RouteCount());
}

TEST(BalancerTest, MaxFlowReducesLoadStddev) {
  // Figure 13: after balancing, the standard deviation of shard loads
  // drops substantially.
  ClusterState state = SkewedState();
  auto stddev = [&](const RouteTable& routes) {
    std::vector<int64_t> shard_loads, worker_loads;
    ComputeLoads(state, routes, &shard_loads, &worker_loads);
    double mean = 0;
    for (int64_t l : shard_loads) mean += static_cast<double>(l);
    mean /= shard_loads.size();
    double var = 0;
    for (int64_t l : shard_loads) {
      var += (static_cast<double>(l) - mean) * (static_cast<double>(l) - mean);
    }
    return std::sqrt(var / shard_loads.size());
  };

  MaxFlowBalancer balancer;
  const auto result = balancer.Schedule(state);
  EXPECT_LT(stddev(result.routes), stddev(state.routes) / 2);
}

// Property sweep: random clusters; max-flow must satisfy demand whenever
// total demand fits under the aggregate worker watermark and per-route
// limits allow it, and must never violate capacity constraints.
class MaxFlowPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MaxFlowPropertyTest, ConstraintsAlwaysHold) {
  Random rng(static_cast<uint64_t>(GetParam()));
  ClusterState state;
  const int num_workers = 2 + static_cast<int>(rng.Uniform(4));
  const int shards_per_worker = 2 + static_cast<int>(rng.Uniform(3));
  for (int k = 0; k < num_workers; ++k) {
    state.workers.push_back(
        {static_cast<uint32_t>(k), 200'000 + static_cast<int64_t>(rng.Uniform(200'000)), 0});
  }
  uint32_t shard_id = 0;
  for (int k = 0; k < num_workers; ++k) {
    for (int s = 0; s < shards_per_worker; ++s) {
      state.shards.push_back({shard_id++, static_cast<uint32_t>(k), 120'000, 0});
    }
  }
  ConsistentHashRing ring;
  for (const auto& shard : state.shards) ring.AddNode(shard.id);
  const int num_tenants = 5 + static_cast<int>(rng.Uniform(20));
  for (int t = 0; t < num_tenants; ++t) {
    state.tenants.push_back(
        {static_cast<uint64_t>(t),
         static_cast<int64_t>(rng.Uniform(120'000)) + 1000});
    state.routes.Set(t, {{ring.GetNode(t), 1.0}});
  }
  std::vector<int64_t> shard_loads, worker_loads;
  ComputeLoads(state, state.routes, &shard_loads, &worker_loads);
  for (size_t j = 0; j < state.shards.size(); ++j) {
    state.shards[j].load = shard_loads[j];
  }
  for (size_t k = 0; k < state.workers.size(); ++k) {
    state.workers[k].load = worker_loads[k];
  }

  MaxFlowBalancer balancer;
  const BalanceResult result = balancer.Schedule(state);

  // When the planner finds a feasible assignment, capacity constraints must
  // hold. (When demand genuinely exceeds cluster capacity the planner says
  // scale_needed and admission control, not routing, bounds the load.)
  if (!result.scale_needed) {
    ComputeLoads(state, result.routes, &shard_loads, &worker_loads);
    for (size_t j = 0; j < state.shards.size(); ++j) {
      EXPECT_LE(shard_loads[j], state.shards[j].capacity + 2)
          << "seed " << GetParam() << " shard " << j;
    }
  }
  // Every tenant keeps at least one route.
  for (const auto& tenant : state.tenants) {
    const auto* weights = result.routes.Get(tenant.id);
    ASSERT_NE(weights, nullptr) << "tenant " << tenant.id;
    EXPECT_GE(weights->size(), 1u);
    double total_weight = 0;
    for (const auto& [_, w] : *weights) total_weight += w;
    EXPECT_NEAR(total_weight, 1.0, 1e-6) << "tenant " << tenant.id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxFlowPropertyTest, ::testing::Range(1, 13));

}  // namespace
}  // namespace logstore::flow
