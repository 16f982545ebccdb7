// Interactive log search and root-cause analysis over archived logs on a
// (simulated) remote object store. Shows the §5 query optimizations doing
// their work: LogBlock-map pruning, index probes, block skipping, and the
// cache making a repeated query much faster.
//
//   ./examples/log_search

#include <cinttypes>
#include <cstdio>

#include "core/logstore.h"
#include "query/aggregation.h"
#include "workload/loggen.h"

int main() {
  // Simulated OSS latency makes the optimization effects visible.
  logstore::LogStoreOptions options;
  options.simulate_object_latency = true;
  options.simulated.first_byte_latency_us = 2000;  // 2 ms per request
  options.simulated.bandwidth_bytes_per_us = 100;  // 100 MB/s
  options.engine.cache_options.ssd_dir.clear();
  auto db = logstore::LogStore::Open(options);
  if (!db.ok()) {
    fprintf(stderr, "open failed: %s\n", db.status().ToString().c_str());
    return 1;
  }

  // 12 hours of logs for one busy tenant, archived into LogBlocks.
  const uint64_t kTenant = 7;
  const int64_t kHour = 3600ll * 1'000'000;
  logstore::workload::LogGenerator gen(7);
  for (int hour = 0; hour < 12; ++hour) {
    auto status = (*db)->Append(
        kTenant, gen.Generate(kTenant, 20'000, hour * kHour, (hour + 1) * kHour));
    if (!status.ok()) return 1;
    if (!(*db)->Flush().ok()) return 1;  // one+ LogBlock per hour
  }
  printf("archived %llu LogBlocks covering 12 hours (240k rows)\n\n",
         static_cast<unsigned long long>((*db)->GetStats().logblocks));

  auto run = [&](const char* label, const logstore::query::LogQuery& query) {
    auto result = (*db)->Query(query);
    if (!result.ok()) {
      fprintf(stderr, "query failed: %s\n",
              result.status().ToString().c_str());
      return logstore::query::QueryResult();
    }
    printf("%-44s %6zu rows in %6.1f ms  (blocks: %" PRIu64
           " pruned by map, %" PRIu64 " scanned, %" PRIu64 " skipped)\n",
           label, result->rows.size(), result->stats.elapsed_us / 1000.0,
           result->stats.logblocks_pruned,
           result->stats.exec.column_blocks_scanned,
           result->stats.exec.column_blocks_skipped);
    return std::move(result).value();
  };

  // Step 1: an alert fired between hours 5 and 6 — find timeouts there.
  logstore::query::LogQuery investigate;
  investigate.tenant_id = kTenant;
  investigate.ts_min = 5 * kHour;
  investigate.ts_max = 6 * kHour;
  investigate.predicates = {
      logstore::query::Predicate::Match("log", "failed connection timeout")};
  investigate.select_columns = {"ts", "ip", "latency"};
  auto hits = run("[1] timeouts in the alert window", investigate);

  // Step 2: same query again — the multi-level cache serves it.
  run("[2] same query, warm cache", investigate);

  // Step 3: which IPs are behind the failures across the whole day?
  logstore::query::LogQuery who;
  who.tenant_id = kTenant;
  who.predicates = {logstore::query::Predicate::StringEq("fail", "true")};
  who.select_columns = {"ip"};
  auto failures = run("[3] all failures, full 12 hours", who);
  printf("\n    top offender IPs:\n");
  for (const auto& group : logstore::query::GroupCountTopK(
           logstore::query::QueryEngine::Column(failures, "ip"), 3)) {
    printf("      %-16s %llu failures\n", group.key.c_str(),
           static_cast<unsigned long long>(group.count));
  }

  // Step 4: latency distribution of the slow requests (unindexed column:
  // served by block-SMA skipping plus scan).
  logstore::query::LogQuery slow;
  slow.tenant_id = kTenant;
  slow.predicates = {logstore::query::Predicate::Int64Compare(
      "latency", logstore::query::CompareOp::kGe, 1000)};
  slow.select_columns = {"latency"};
  auto slow_result = run("\n[4] requests slower than 1s", slow);
  const auto rollup = logstore::query::RollupInt64(
      logstore::query::QueryEngine::Column(slow_result, "latency"));
  printf("    latency of those: min=%lldms max=%lldms mean=%.0fms\n",
         static_cast<long long>(rollup.min),
         static_cast<long long>(rollup.max), rollup.mean());

  (void)hits;
  return 0;
}
