// Interactive SQL shell over an embedded LogStore preloaded with synthetic
// audit logs for a few tenants. Reads one query per line from stdin; with
// no terminal attached it runs a scripted demo session.
//
//   ./examples/sql_shell
//   echo "SELECT ip FROM request_log WHERE tenant_id = 1 LIMIT 3" |
//     ./examples/sql_shell

#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <string>

#include "core/logstore.h"
#include "query/sql_parser.h"
#include "workload/loggen.h"

namespace {

void PrintResult(const logstore::query::QueryResult& result) {
  for (const auto& name : result.columns) printf("%-24s", name.c_str());
  printf("\n");
  const size_t shown = std::min<size_t>(result.rows.size(), 20);
  for (size_t r = 0; r < shown; ++r) {
    for (const auto& value : result.rows[r]) {
      if (value.type == logstore::logblock::ColumnType::kInt64) {
        printf("%-24lld", static_cast<long long>(value.i));
      } else {
        printf("%-24s", value.s.substr(0, 22).c_str());
      }
    }
    printf("\n");
  }
  if (result.rows.size() > shown) {
    printf("... (%zu more rows)\n", result.rows.size() - shown);
  }
  printf("-- %zu row(s), %.1f ms, %" PRIu64 "/%" PRIu64
         " LogBlocks pruned by map, %" PRIu64
         " column blocks scanned, %" PRIu64 " skipped\n",
         result.rows.size(), result.stats.elapsed_us / 1000.0,
         result.stats.logblocks_pruned, result.stats.logblocks_total,
         result.stats.exec.column_blocks_scanned,
         result.stats.exec.column_blocks_skipped);
}

}  // namespace

int main() {
  logstore::LogStoreOptions options;
  options.engine.cache_options.ssd_dir.clear();
  auto db = logstore::LogStore::Open(options);
  if (!db.ok()) {
    fprintf(stderr, "open failed: %s\n", db.status().ToString().c_str());
    return 1;
  }

  // Preload: 3 tenants, 12 hours of logs each.
  logstore::workload::LogGenerator gen(99);
  const int64_t kHour = 3600ll * 1'000'000;
  for (uint64_t tenant = 1; tenant <= 3; ++tenant) {
    (void)(*db)->Append(tenant, gen.Generate(tenant, 30'000, 0, 12 * kHour));
  }
  (void)(*db)->Flush();
  printf("LogStore SQL shell — table request_log(tenant_id, ts, ip, latency, "
         "fail, log)\n");
  printf("preloaded tenants 1-3 with 30k rows each over ts [0, %lld)\n",
         static_cast<long long>(12 * kHour));
  printf("example: SELECT log FROM request_log WHERE tenant_id = 1 AND "
         "fail = 'true' LIMIT 5\n\n");

  std::string line;
  bool any_input = false;
  while (printf("logstore> "), fflush(stdout), std::getline(std::cin, line)) {
    any_input = true;
    if (line == "quit" || line == "exit") break;
    if (line.empty()) continue;
    auto query = logstore::query::ParseSql(line, (*db)->schema());
    if (!query.ok()) {
      printf("error: %s\n", query.status().ToString().c_str());
      continue;
    }
    auto result = (*db)->Query(*query);
    if (!result.ok()) {
      printf("error: %s\n", result.status().ToString().c_str());
      continue;
    }
    PrintResult(*result);
  }

  if (!any_input) {
    // Scripted demo when stdin is closed immediately.
    const char* demo[] = {
        "SELECT ip, latency, log FROM request_log WHERE tenant_id = 1 AND "
        "fail = 'true' LIMIT 5",
        "SELECT log FROM request_log WHERE tenant_id = 2 AND log MATCH "
        "'connection timeout' LIMIT 3",
        "SELECT ts, ip FROM request_log WHERE tenant_id = 3 AND latency >= "
        "1500 LIMIT 5",
    };
    for (const char* sql : demo) {
      printf("\nlogstore> %s\n", sql);
      auto query = logstore::query::ParseSql(sql, (*db)->schema());
      if (!query.ok()) continue;
      auto result = (*db)->Query(*query);
      if (result.ok()) PrintResult(*result);
    }
  }
  return 0;
}
