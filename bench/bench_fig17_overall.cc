// Figure 17: effect of all query optimizations combined, as a latency CDF
// over a mixed online-retrieval workload.
//
// "Before": no data skipping, no caches, no prefetch, serial block scans —
// every query reads its blocks one at a time from OSS. "After": the full
// §5 stack including parallel LogBlock execution (query_threads=8).
//
// A second section sweeps query_threads over cold-cache multi-block scans
// (the queries parallel execution actually accelerates), and everything is
// emitted to BENCH_fig17.json.
//
// Expected shape (paper): before, >50% of queries take over 10 s and ~1%
// over 30 s; after, 75% return within 100 ms, 90% within 1 s, 99% within
// 2 s. Absolute values differ on the simulated substrate; the orders of
// magnitude between the two CDFs are the target.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "query_bench_common.h"

using namespace logstore;
using namespace logstore::bench;

namespace {

std::vector<double> RunWorkload(Dataset* dataset, bool optimized,
                                uint32_t tenants, int query_threads) {
  query::EngineOptions options;
  options.use_data_skipping = optimized;
  options.use_cache = optimized;
  options.use_prefetch = optimized;
  options.query_threads = query_threads;
  options.prefetch_threads = 32;
  options.io_block_size = 8 * 1024;
  options.cache_options.memory_capacity_bytes = 512ull << 20;
  options.cache_options.ssd_dir.clear();
  auto engine = query::QueryEngine::Open(dataset->store.get(), options);
  if (!engine.ok()) abort();

  std::vector<double> latencies_ms;
  workload::QueryGenerator qgen(9);
  for (uint32_t t = 0; t < tenants; ++t) {
    for (const auto& q :
         qgen.TenantQuerySet(t, 0, dataset->options.history_micros)) {
      const int64_t start = NowUs();
      auto r = (*engine)->Execute(q, dataset->map);
      if (!r.ok()) abort();
      latencies_ms.push_back((NowUs() - start) / 1000.0);
    }
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  return latencies_ms;
}

struct SweepPoint {
  int threads;
  double cold_ms = 0;
  double warm_ms = 0;
};

// Full-history scans of every tenant with >= 4 LogBlocks: the multi-block
// workload that parallel execution targets. Fresh engine per call, so the
// first pass is cold-cache.
SweepPoint RunMultiBlockScans(Dataset* dataset,
                              const std::vector<uint64_t>& tenants,
                              int query_threads) {
  query::EngineOptions options;
  options.query_threads = query_threads;
  options.prefetch_threads = 32;
  options.io_block_size = 8 * 1024;
  options.cache_options.memory_capacity_bytes = 512ull << 20;
  options.cache_options.ssd_dir.clear();
  auto engine = query::QueryEngine::Open(dataset->store.get(), options);
  if (!engine.ok()) abort();

  SweepPoint point{query_threads};
  for (int pass = 0; pass < 2; ++pass) {
    double pass_ms = 0;
    for (uint64_t tenant : tenants) {
      query::LogQuery q;
      q.tenant_id = tenant;
      q.ts_min = 0;
      q.ts_max = dataset->options.history_micros;
      q.select_columns = {"ts", "latency"};
      const int64_t start = NowUs();
      auto r = (*engine)->Execute(q, dataset->map);
      if (!r.ok()) abort();
      pass_ms += (NowUs() - start) / 1000.0;
    }
    (pass == 0 ? point.cold_ms : point.warm_ms) = pass_ms;
  }
  return point;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t idx = static_cast<size_t>(p * (sorted.size() - 1));
  return sorted[idx];
}

double FractionUnder(const std::vector<double>& sorted, double ms) {
  const auto it = std::upper_bound(sorted.begin(), sorted.end(), ms);
  return static_cast<double>(it - sorted.begin()) /
         static_cast<double>(sorted.size());
}

}  // namespace

int main() {
  const bool smoke = BenchSmoke();
  const uint32_t kTenants = smoke ? 8 : 30;
  const std::vector<int> kThreadSweep =
      smoke ? std::vector<int>{1, 8} : std::vector<int>{1, 2, 4, 8, 16};
  DatasetOptions data_options;
  data_options.num_tenants = 100;
  data_options.total_rows = smoke ? 60'000 : 300'000;

  printf("building dataset on simulated OSS...%s\n", smoke ? " (smoke)" : "");
  Dataset before_data, after_data;
  BuildDataset(data_options, /*simulate_oss=*/true, &before_data);
  BuildDataset(data_options, /*simulate_oss=*/true, &after_data);

  printf("running %u tenants x 6 queries per configuration...\n\n", kTenants);
  const auto before =
      RunWorkload(&before_data, /*optimized=*/false, kTenants, 1);
  const auto after = RunWorkload(&after_data, /*optimized=*/true, kTenants, 8);

  printf("=== Figure 17: query latency CDF, before vs after optimizations "
         "===\n");
  printf("%-12s %-14s %-14s\n", "percentile", "before (ms)", "after (ms)");
  for (double p : {0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.00}) {
    printf("p%-11.0f %-14.1f %-14.1f\n", p * 100, Percentile(before, p),
           Percentile(after, p));
  }

  printf("\nfraction of queries returning within a budget:\n");
  printf("%-12s %-10s %-10s\n", "budget", "before", "after");
  for (double ms : {10.0, 50.0, 100.0, 500.0, 1000.0, 2000.0}) {
    printf("%-12.0f %-10.2f %-10.2f\n", ms, FractionUnder(before, ms),
           FractionUnder(after, ms));
  }

  double before_total = 0, after_total = 0;
  for (double v : before) before_total += v;
  for (double v : after) after_total += v;
  printf("\nmean latency: %.1f ms before vs %.1f ms after (%.1fx)\n",
         before_total / before.size(), after_total / after.size(),
         before_total / std::max(1.0, after_total));

  // Parallel-execution sweep over cold multi-block scans.
  std::vector<uint64_t> wide_tenants;
  for (uint32_t t = 0; t < data_options.num_tenants; ++t) {
    if (after_data.map.TenantBlocks(t).size() >= 4) wide_tenants.push_back(t);
  }
  printf("\n=== query_threads sweep: cold full scans of %zu multi-block "
         "tenants ===\n",
         wide_tenants.size());
  printf("%-14s %-14s %-14s %-10s\n", "query_threads", "cold (ms)",
         "warm (ms)", "vs 1thr");
  std::vector<SweepPoint> sweep;
  for (int threads : kThreadSweep) {
    sweep.push_back(RunMultiBlockScans(&after_data, wide_tenants, threads));
    printf("%-14d %-14.0f %-14.0f %-10.2f\n", threads, sweep.back().cold_ms,
           sweep.back().warm_ms,
           sweep.front().cold_ms / std::max(1.0, sweep.back().cold_ms));
  }

  std::string json = "{\n  \"bench\": \"fig17_overall\",\n";
  json += "  \"smoke\": " + std::string(smoke ? "true" : "false") + ",\n";
  json += "  \"tenants\": " + std::to_string(kTenants) + ",\n";
  auto cdf_json = [&](const char* name, const std::vector<double>& sorted,
                      double total) {
    std::string s = "  \"" + std::string(name) + "\": {";
    s += "\"p50_ms\": " + JsonNum(Percentile(sorted, 0.50));
    s += ", \"p90_ms\": " + JsonNum(Percentile(sorted, 0.90));
    s += ", \"p99_ms\": " + JsonNum(Percentile(sorted, 0.99));
    s += ", \"max_ms\": " + JsonNum(Percentile(sorted, 1.00));
    s += ", \"mean_ms\": " +
         JsonNum(total / static_cast<double>(sorted.size()));
    s += "}";
    return s;
  };
  json += cdf_json("before", before, before_total) + ",\n";
  json += cdf_json("after", after, after_total) + ",\n";
  json += "  \"multi_block_tenants\": " +
          std::to_string(wide_tenants.size()) + ",\n";
  json += "  \"threads_sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    json += "    {\"query_threads\": " + std::to_string(sweep[i].threads) +
            ", \"cold_ms\": " + JsonNum(sweep[i].cold_ms) +
            ", \"warm_ms\": " + JsonNum(sweep[i].warm_ms) +
            ", \"cold_speedup_vs_1\": " +
            JsonNum(sweep.front().cold_ms / std::max(1.0, sweep[i].cold_ms)) +
            "}";
    json += (i + 1 < sweep.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}";
  WriteBenchJson("BENCH_fig17.json", json);
  return 0;
}
