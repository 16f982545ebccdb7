// Build-pass benchmark: one DataBuilder::BuildOnce per iteration, timed in
// real time. The pass makes one LogBlock per tenant of its row store, which
// holds one of two shapes:
//
//   archive  the first slice of the perfbench retrieval archive: 100
//            Zipfian(0.99) tenants sharing 400000 rows over 48 h, where a
//            tenant above 8000 rows contributes an eighth of its rows (one
//            of its 8 time slices) and every other tenant all of them.
//   ingest   one build pass of the perfbench `ingest` workload: 2 s of its
//            writes (60 per second of 100 rows, 12000 rows) from 40
//            Zipfian(0.99) tenants, so a few hundred rows per LogBlock.
//
//   BM_BuildPass/memory  archive, uploaded to a MemoryObjectStore: the CPU
//                        of slicing, encoding, compressing and indexing.
//   BM_BuildPass/oss     archive, uploaded through the OSS model of the
//                        figure benches (2 ms to first byte, 50 MB/s shared,
//                        64 requests in flight), so Put round trips count.
//   BM_BuildPass/ingest  ingest, uploaded to a MemoryObjectStore: small
//                        LogBlocks, where per-LogBlock and per-column-block
//                        costs weigh most.
//
// rows_per_s and logblocks_per_s are rates over the passes' real time;
// logblocks and stored_bytes are per pass, and are the same on every run
// and every host (CI checks stored_bytes against EXPERIMENTS.md).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/data_builder.h"
#include "logblock/schema.h"
#include "objectstore/memory_object_store.h"
#include "objectstore/simulated_object_store.h"
#include "rowstore/row_store.h"
#include "workload/loggen.h"
#include "workload/zipfian.h"

namespace {

namespace cluster = logstore::cluster;
namespace logblock = logstore::logblock;
namespace objectstore = logstore::objectstore;

using Batches = std::vector<std::pair<uint64_t, logblock::RowBatch>>;

constexpr uint32_t kTenants = 100;
constexpr uint64_t kArchiveRows = 400'000;
constexpr int kSlices = 8;
constexpr int64_t kHistoryUs = 48ll * 3600 * 1'000'000;

constexpr uint32_t kIngestTenants = 40;
constexpr int kIngestWrites = 120;
constexpr uint32_t kRowsPerWrite = 100;
constexpr int64_t kWritePeriodUs = 1'000'000 / 60;

// The (tenant, rows) batches of the archive's first time slice.
const Batches& FirstSlice() {
  static const auto* slice = [] {
    auto* batches = new Batches();
    const std::vector<double> shares =
        logstore::workload::ZipfianShares(kTenants, 0.99);
    logstore::workload::LogGenerator gen(41);
    for (uint32_t t = 0; t < kTenants; ++t) {
      const uint64_t rows = std::max<uint64_t>(
          1, static_cast<uint64_t>(shares[t] * static_cast<double>(kArchiveRows)));
      const int pieces = rows > 8000 ? kSlices : 1;
      const uint64_t piece_rows = rows / pieces + (rows % pieces > 0 ? 1 : 0);
      batches->emplace_back(
          t, gen.Generate(t, static_cast<uint32_t>(piece_rows), 0,
                          kHistoryUs / pieces));
    }
    return batches;
  }();
  return *slice;
}

// The (tenant, rows) batches of one ingest build pass, one per write.
const Batches& IngestPass() {
  static const auto* pass = [] {
    auto* batches = new Batches();
    logstore::workload::ZipfianGenerator tenants(kIngestTenants, 0.99, 43);
    logstore::workload::LogGenerator gen(43);
    for (int w = 0; w < kIngestWrites; ++w) {
      const uint64_t tenant = tenants.Next();
      batches->emplace_back(
          tenant, gen.Generate(tenant, kRowsPerWrite, w * kWritePeriodUs,
                               (w + 1) * kWritePeriodUs));
    }
    return batches;
  }();
  return *pass;
}

void BM_BuildPass(benchmark::State& state, const Batches& (*rows_of)(),
                  bool oss) {
  const Batches& slice = rows_of();
  uint64_t rows_per_pass = 0;
  for (const auto& [tenant, batch] : slice) rows_per_pass += batch.num_rows();
  int logblocks = 0;
  uint64_t stored_bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto memory = std::make_unique<objectstore::MemoryObjectStore>();
    objectstore::MemoryObjectStore* backend = memory.get();
    std::unique_ptr<objectstore::ObjectStore> store = std::move(memory);
    if (oss) {
      objectstore::SimulatedStoreOptions model;
      model.first_byte_latency_us = 2000;
      model.bandwidth_bytes_per_us = 50.0;
      model.max_concurrent_requests = 64;
      store = std::make_unique<objectstore::SimulatedObjectStore>(
          std::move(store), model);
    }
    logblock::LogBlockMap map;
    cluster::DataBuilderOptions options;
    options.key_salt = "archive-";
    cluster::DataBuilder builder(store.get(), &map, options);
    logstore::rowstore::RowStore rows(logblock::RequestLogSchema());
    for (const auto& [tenant, batch] : slice) rows.Append(tenant, batch);
    state.ResumeTiming();

    auto built = builder.BuildOnce(&rows);
    if (!built.ok()) {
      state.SkipWithError(built.status().ToString().c_str());
      break;
    }

    state.PauseTiming();
    logblocks = *built;
    stored_bytes = backend->total_bytes();
    store.reset();
    state.ResumeTiming();
  }
  const double passes = static_cast<double>(state.iterations());
  state.counters["rows_per_s"] = benchmark::Counter(
      passes * static_cast<double>(rows_per_pass), benchmark::Counter::kIsRate);
  state.counters["logblocks_per_s"] = benchmark::Counter(
      passes * logblocks, benchmark::Counter::kIsRate);
  state.counters["logblocks"] = logblocks;
  state.counters["stored_bytes"] = static_cast<double>(stored_bytes);
}

BENCHMARK_CAPTURE(BM_BuildPass, memory, FirstSlice, false)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_BuildPass, oss, FirstSlice, true)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_BuildPass, ingest, IngestPass, false)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
