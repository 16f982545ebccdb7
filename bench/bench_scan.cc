// Scan-kernel sweep (§15): residual full scans (data skipping OFF, so every
// column block of every predicate column is decoded and run through the
// selection-bitmap kernels), cold (fresh engine) and warm (object bytes
// cached; the per-execution decode + filter still run, isolating the CPU
// path). A second section measures aggregation pushdown against the
// broker-side rows-then-aggregate strategy it replaces.
//
// Emits BENCH_scan.json (+ BENCH_scan.metrics.json with the registry dump,
// including the query.vectorized.* cells) for the perf-smoke CI gate. The
// row-at-a-time scalar baseline no longer exists; its last measured
// comparison is carried verbatim under "history".

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "query/aggregation.h"
#include "query_bench_common.h"

using namespace logstore;
using namespace logstore::bench;

namespace {

struct ScanCase {
  std::string name;
  query::LogQuery query;
};

struct ScanMeasure {
  double cold_ms = 0;
  double warm_ms = 0;
  uint64_t rows_matched = 0;
  uint64_t vectorized_rows_scanned = 0;
  uint64_t bytes_decoded = 0;
};

// The scalar-vs-vectorized columns of the last sweep that still had the
// row-at-a-time baseline (800k rows, query_threads=1), kept as measured.
constexpr char kScalarHistory[] =
    R"({"note":"row-at-a-time scalar baseline vs vectorized kernels, )"
    R"(800k rows, query_threads=1; measured before the scalar path was )"
    R"(removed, not re-measured","scans":[)"
    R"({"predicate":"int_ge","threads":1,"scalar_cold_ms":2.51,"vectorized_cold_ms":1.63,"speedup_cold":1.54,"scalar_warm_ms":1.75,"vectorized_warm_ms":1.36,"speedup_warm":1.29,"rows_matched":1000,"vectorized_rows_scanned":82350},)"
    R"({"predicate":"int_band","threads":1,"scalar_cold_ms":16.22,"vectorized_cold_ms":13.49,"speedup_cold":1.20,"scalar_warm_ms":12.77,"vectorized_warm_ms":12.55,"speedup_warm":1.02,"rows_matched":398,"vectorized_rows_scanned":876748},)"
    R"({"predicate":"str_eq","threads":1,"scalar_cold_ms":2.21,"vectorized_cold_ms":1.98,"speedup_cold":1.12,"scalar_warm_ms":1.77,"vectorized_warm_ms":1.57,"speedup_warm":1.13,"rows_matched":1000,"vectorized_rows_scanned":82350},)"
    R"({"predicate":"match","threads":1,"scalar_cold_ms":67.33,"vectorized_cold_ms":61.41,"speedup_cold":1.10,"scalar_warm_ms":60.38,"vectorized_warm_ms":49.02,"speedup_warm":1.23,"rows_matched":1000,"vectorized_rows_scanned":164700},)"
    R"({"predicate":"mixed","threads":1,"scalar_cold_ms":15.54,"vectorized_cold_ms":13.54,"speedup_cold":1.15,"scalar_warm_ms":12.85,"vectorized_warm_ms":12.04,"speedup_warm":1.07,"rows_matched":1000,"vectorized_rows_scanned":549000})"
    R"(]})";

query::EngineOptions ScanOptions(int threads) {
  query::EngineOptions options;
  options.use_data_skipping = false;  // full residual scan on every block
  options.query_threads = threads;
  options.prefetch_threads = 8;
  options.io_block_size = 64 * 1024;
  options.cache_options.memory_capacity_bytes = 512ull << 20;
  options.cache_options.ssd_dir.clear();
  return options;
}

// Cold: best of `cold_repeats` fresh-engine first executions (min, the
// usual CPU-bench noise filter). Warm: best of `warm_repeats` re-runs on
// the last engine (object bytes cached; decode + filter still execute).
// query_threads stays 1: the sweep isolates the per-block kernels; the
// parallel/scatter axes are measured by the fig16/fig17 benches.
ScanMeasure RunScan(Dataset* dataset, const query::LogQuery& query,
                    int cold_repeats, int warm_repeats) {
  ScanMeasure m;
  m.cold_ms = 1e18;
  std::unique_ptr<query::QueryEngine> engine;
  for (int i = 0; i < cold_repeats; ++i) {
    auto opened =
        query::QueryEngine::Open(dataset->store.get(), ScanOptions(1));
    if (!opened.ok()) abort();
    engine = std::move(opened).value();
    const int64_t start = NowUs();
    auto r = engine->Execute(query, dataset->map);
    if (!r.ok()) abort();
    m.cold_ms = std::min(m.cold_ms, (NowUs() - start) / 1000.0);
    m.rows_matched = r->stats.exec.rows_matched;
    m.vectorized_rows_scanned = r->stats.exec.vectorized_rows_scanned;
    m.bytes_decoded = r->stats.exec.bytes_decoded;
  }
  m.warm_ms = 1e18;
  for (int i = 0; i < warm_repeats; ++i) {
    const int64_t start = NowUs();
    auto r = engine->Execute(query, dataset->map);
    if (!r.ok()) abort();
    m.warm_ms = std::min(m.warm_ms, (NowUs() - start) / 1000.0);
  }
  return m;
}

}  // namespace

int main() {
  const bool smoke = BenchSmoke();
  const int kColdRepeats = smoke ? 2 : 3;
  const int kWarmRepeats = smoke ? 3 : 7;

  DatasetOptions data_options;
  data_options.num_tenants = 20;  // Zipfian: tenant 0 holds the bulk
  data_options.total_rows = smoke ? 120'000 : 800'000;
  data_options.rows_per_column_block = 2048;

  printf("building dataset (%llu rows)...%s\n",
         static_cast<unsigned long long>(data_options.total_rows),
         smoke ? " (smoke)" : "");
  Dataset dataset;
  BuildDataset(data_options, /*simulate_oss=*/false, &dataset);
  const int64_t history = data_options.history_micros;

  // Full-history scans over the largest tenant, one per kernel shape plus
  // the paper's combined template. limit bounds the gather (the residual
  // scan itself is limit-independent), so the filter path dominates.
  std::vector<ScanCase> cases;
  {
    query::LogQuery base;
    base.tenant_id = 0;
    base.ts_min = 0;
    base.ts_max = history;
    base.select_columns = {"ts"};
    base.limit = 1000;

    ScanCase int_ge{"int_ge", base};
    int_ge.query.predicates.push_back(
        query::Predicate::Int64Compare("latency", query::CompareOp::kGe, 100));
    cases.push_back(int_ge);

    ScanCase int_band{"int_band", base};
    int_band.query.predicates.push_back(
        query::Predicate::Int64Compare("latency", query::CompareOp::kGe, 300));
    int_band.query.predicates.push_back(
        query::Predicate::Int64Compare("latency", query::CompareOp::kLt, 1500));
    cases.push_back(int_band);

    ScanCase str_eq{"str_eq", base};
    str_eq.query.predicates.push_back(
        query::Predicate::StringEq("fail", "false"));
    cases.push_back(str_eq);

    ScanCase match{"match", base};
    match.query.predicates.push_back(
        query::Predicate::Match("log", "timeout"));
    cases.push_back(match);

    ScanCase mixed{"mixed", base};
    mixed.query.predicates.push_back(
        query::Predicate::StringEq("ip", "192.168.1.8"));
    mixed.query.predicates.push_back(
        query::Predicate::Int64Compare("latency", query::CompareOp::kGe, 100));
    mixed.query.predicates.push_back(
        query::Predicate::StringEq("fail", "false"));
    cases.push_back(mixed);
  }

  printf("\n=== full-scan kernels (query_threads=1) ===\n");
  printf("%-10s %-10s %-10s %-14s %-14s %-14s %-10s\n", "predicate",
         "cold(ms)", "warm(ms)", "kernel rows", "bytes decoded", "warm rows/s",
         "rows");

  std::string scans_json;
  for (const ScanCase& c : cases) {
    const ScanMeasure m =
        RunScan(&dataset, c.query, kColdRepeats, kWarmRepeats);
    const double rows_per_s =
        m.vectorized_rows_scanned / std::max(1e-6, m.warm_ms / 1000.0);
    printf("%-10s %-10.2f %-10.2f %-14llu %-14llu %-14.3g %-10llu\n",
           c.name.c_str(), m.cold_ms, m.warm_ms,
           static_cast<unsigned long long>(m.vectorized_rows_scanned),
           static_cast<unsigned long long>(m.bytes_decoded), rows_per_s,
           static_cast<unsigned long long>(m.rows_matched));
    if (!scans_json.empty()) scans_json += ",";
    scans_json += "{\"predicate\":\"" + c.name + "\"";
    scans_json += ",\"cold_ms\":" + JsonNum(m.cold_ms);
    scans_json += ",\"warm_ms\":" + JsonNum(m.warm_ms);
    scans_json += ",\"warm_rows_per_s\":" + JsonNum(rows_per_s);
    scans_json += ",\"rows_matched\":" + std::to_string(m.rows_matched);
    scans_json += ",\"vectorized_rows_scanned\":" +
                  std::to_string(m.vectorized_rows_scanned);
    scans_json += ",\"bytes_decoded\":" + std::to_string(m.bytes_decoded);
    scans_json += "}";
  }

  // Aggregation pushdown vs the broker-side strategy it replaces: ship all
  // matching rows to the broker and aggregate there (select the aggregated
  // column, no limit) against folding partial aggregates below the merge.
  printf("\n=== aggregation pushdown vs broker-side rows+aggregate ===\n");
  printf("%-14s %-14s %-14s %-9s %-12s\n", "aggregate", "broker(ms)",
         "pushdown(ms)", "speedup", "rows");
  std::string agg_json;
  struct AggCase {
    std::string name;
    query::Aggregate agg;
    std::string column;  // broker-side select list
  };
  const AggCase agg_cases[] = {
      {"count", query::Aggregate::Count(), "ts"},
      {"sum_latency", query::Aggregate::Sum("latency"), "latency"},
      {"group_ip", query::Aggregate::GroupCount("ip"), "ip"},
  };
  for (const AggCase& c : agg_cases) {
    query::LogQuery rows_query;
    rows_query.tenant_id = 0;
    rows_query.ts_min = 0;
    rows_query.ts_max = history;
    rows_query.predicates.push_back(
        query::Predicate::StringEq("fail", "false"));
    rows_query.select_columns = {c.column};
    rows_query.limit = 0;

    auto engine = query::QueryEngine::Open(dataset.store.get(),
                                           ScanOptions(8));
    if (!engine.ok()) abort();
    // Warm the caches once so both strategies measure the CPU path.
    if (!(*engine)->Execute(rows_query, dataset.map).ok()) abort();

    double broker_ms = 0, pushdown_ms = 0;
    uint64_t rows_matched = 0;
    for (int i = 0; i < kWarmRepeats; ++i) {
      int64_t start = NowUs();
      auto rows = (*engine)->Execute(rows_query, dataset.map);
      if (!rows.ok()) abort();
      // The broker-side fold is part of the strategy being measured.
      const auto values = query::QueryEngine::Column(*rows, c.column);
      if (c.agg.kind == query::Aggregate::Kind::kGroupCount) {
        (void)query::GroupCountTopK(values, 10);
      } else {
        (void)query::RollupInt64(values);
      }
      broker_ms += (NowUs() - start) / 1000.0;
      rows_matched = rows->stats.exec.rows_matched;

      query::LogQuery agg_query = rows_query;
      agg_query.select_columns.clear();
      agg_query.agg = c.agg;
      start = NowUs();
      auto pushed = (*engine)->Execute(agg_query, dataset.map);
      if (!pushed.ok()) abort();
      if (c.agg.kind == query::Aggregate::Kind::kGroupCount) {
        (void)pushed->agg.TopK(10);
      }
      pushdown_ms += (NowUs() - start) / 1000.0;
    }
    broker_ms /= kWarmRepeats;
    pushdown_ms /= kWarmRepeats;
    const double speedup = broker_ms / std::max(0.001, pushdown_ms);
    printf("%-14s %-14.2f %-14.2f %-9.2f %-12llu\n", c.name.c_str(),
           broker_ms, pushdown_ms, speedup,
           static_cast<unsigned long long>(rows_matched));
    if (!agg_json.empty()) agg_json += ",";
    agg_json += "{\"aggregate\":\"" + c.name + "\"";
    agg_json += ",\"broker_ms\":" + JsonNum(broker_ms);
    agg_json += ",\"pushdown_ms\":" + JsonNum(pushdown_ms);
    agg_json += ",\"speedup\":" + JsonNum(speedup);
    agg_json += ",\"rows_matched\":" + std::to_string(rows_matched);
    agg_json += "}";
  }

  std::string json = "{\"smoke\":" + std::string(smoke ? "1" : "0");
  json += ",\"total_rows\":" + std::to_string(data_options.total_rows);
  json += ",\"warm_repeats\":" + std::to_string(kWarmRepeats);
  json += ",\"scans\":[" + scans_json + "]";
  json += ",\"aggregation\":[" + agg_json + "]";
  json += ",\"history\":" + std::string(kScalarHistory) + "}";
  WriteBenchJson("BENCH_scan.json", json);
  return 0;
}
