// The traffic-control model (traffic_sim.h) that Figures 12-14 run: skewed
// tenant load over a simulated fleet, with and without the controller's
// balancing policies and scale-out. Single-threaded and deterministic.

#include <gtest/gtest.h>

#include "cluster/traffic_sim.h"

namespace logstore::cluster {
namespace {

TrafficSimOptions SimOptions(double theta, BalancePolicy policy) {
  TrafficSimOptions options;
  options.num_workers = 8;
  options.shards_per_worker = 2;
  options.num_tenants = 1000;  // the evaluation's tenant count
  options.theta = theta;
  options.policy = policy;
  return options;
}

TEST(TrafficSimTest, UniformLoadIsBalancedWithoutControl) {
  TrafficSimulator sim(SimOptions(0.0, BalancePolicy::kNone));
  const auto metrics = sim.Run(5, 5);
  // Uniform traffic over many tenants: nearly all offered load processed.
  EXPECT_GT(metrics.throughput, 0.98 * metrics.offered);
  EXPECT_LT(metrics.avg_latency_ms, 50);
}

TEST(TrafficSimTest, SkewWithoutControlCollapsesThroughput) {
  TrafficSimulator sim(SimOptions(0.99, BalancePolicy::kNone));
  const auto metrics = sim.Run(20, 10);
  EXPECT_LT(metrics.throughput, 0.8 * metrics.offered);
  EXPECT_GT(metrics.avg_latency_ms, 50);
}

TEST(TrafficSimTest, MaxFlowRestoresThroughputUnderSkew) {
  TrafficSimulator sim(SimOptions(0.99, BalancePolicy::kMaxFlow));
  const auto metrics = sim.Run(20, 10);
  EXPECT_GT(metrics.throughput, 0.95 * metrics.offered);
  EXPECT_LT(metrics.avg_latency_ms, 50);
  EXPECT_GT(metrics.rebalances, 0);
}

TEST(TrafficSimTest, GreedyAlsoRestoresThroughputButSlower) {
  TrafficSimulator sim(SimOptions(0.99, BalancePolicy::kGreedy));
  const auto metrics = sim.Run(20, 10);
  EXPECT_GT(metrics.throughput, 0.9 * metrics.offered);
}

TEST(TrafficSimTest, MaxFlowUsesFewerRoutesThanGreedy) {
  // Figure 12(c): greedy keeps splitting hot tenants onto more shards;
  // max-flow re-weights existing routes first.
  TrafficSimulator greedy_sim(SimOptions(0.99, BalancePolicy::kGreedy));
  TrafficSimulator maxflow_sim(SimOptions(0.99, BalancePolicy::kMaxFlow));
  const auto greedy = greedy_sim.Run(20, 10);
  const auto maxflow = maxflow_sim.Run(20, 10);
  EXPECT_LT(maxflow.route_count, greedy.route_count);
}

TEST(TrafficSimTest, BalancingReducesAccessStddev) {
  TrafficSimulator sim(SimOptions(0.99, BalancePolicy::kMaxFlow));
  const auto before = sim.MeasureUnbalancedRound();
  const auto after = sim.Run(20, 10);
  EXPECT_LT(after.ShardAccessStddev(), before.ShardAccessStddev());
  EXPECT_LT(after.WorkerAccessStddev(), before.WorkerAccessStddev());
}

TEST(TrafficSimTest, ScaleOutAbsorbsExcessDemand) {
  // Offered load beyond the initial cluster's alpha watermark: rebalancing
  // alone cannot help (Algorithm 1 line 17 fails), so the controller must
  // add workers until the demand fits.
  TrafficSimOptions options = SimOptions(0.8, BalancePolicy::kMaxFlow);
  options.total_offered_load =
      static_cast<int64_t>(1.2 * 8 * options.worker_capacity);

  // Without scale-out: saturated, throughput capped below offered.
  TrafficSimulator capped(options);
  const auto capped_metrics = capped.Run(20, 10);
  EXPECT_TRUE(capped_metrics.scale_requested);
  EXPECT_EQ(capped_metrics.workers_added, 0u);
  EXPECT_LT(capped_metrics.throughput, 0.95 * capped_metrics.offered);

  // With scale-out allowed: workers are added and throughput recovers.
  options.max_workers_on_scale_out = 16;
  TrafficSimulator elastic(options);
  const auto elastic_metrics = elastic.Run(30, 10);
  EXPECT_GT(elastic_metrics.workers_added, 0u);
  EXPECT_GT(elastic_metrics.final_workers, 8u);
  EXPECT_GT(elastic_metrics.throughput, 0.95 * elastic_metrics.offered);
}

TEST(TrafficSimTest, WorkerUtilizationApproachesAlphaAfterBalancing) {
  // Figure 14(c): after max-flow balancing, workers run near-uniformly
  // below the alpha watermark.
  TrafficSimulator sim(SimOptions(0.99, BalancePolicy::kMaxFlow));
  const auto metrics = sim.Run(20, 10);
  for (double util : metrics.worker_utilization) {
    EXPECT_LT(util, 0.9);
    EXPECT_GT(util, 0.4);
  }
}

}  // namespace
}  // namespace logstore::cluster
