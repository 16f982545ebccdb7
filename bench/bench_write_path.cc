// Write-path micro-benchmarks: the per-write CPU work of one replicated
// write outside raft. BM_WalRecord encodes a tenant's batch into its WAL
// record (the leader, before Propose) and decodes it back (node 0, the
// applying replica); BM_RowStore appends decoded batches to the realtime row store,
// scans one tenant's newest rows (a tail read) and snapshots and truncates
// the store (a build pass cut mid-write, then the rest). Every case runs
// over the same 64 LogGenerator batches of 100 rows, 16 tenants; items are
// rows.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "logblock/row_batch.h"
#include "rowstore/row_store.h"
#include "rowstore/wal.h"
#include "workload/loggen.h"

namespace {

namespace logblock = logstore::logblock;
namespace rowstore = logstore::rowstore;

constexpr int kBatches = 64;
constexpr uint32_t kRowsPerBatch = 100;
constexpr uint64_t kTenants = 16;
constexpr int64_t kBatchSpanUs = 1'000'000;

uint64_t TenantOf(size_t batch) { return batch % kTenants; }

// Batch i holds tenant TenantOf(i)'s rows for second i.
const std::vector<logblock::RowBatch>& Batches() {
  static const std::vector<logblock::RowBatch>* batches = [] {
    auto* out = new std::vector<logblock::RowBatch>;
    logstore::workload::LogGenerator gen(11);
    for (int i = 0; i < kBatches; ++i) {
      out->push_back(gen.Generate(TenantOf(i), kRowsPerBatch, i * kBatchSpanUs,
                                  (i + 1) * kBatchSpanUs));
    }
    return out;
  }();
  return *batches;
}

enum class WalOp { kEncode, kDecode };

void BM_WalRecord(benchmark::State& state, WalOp op) {
  const std::vector<logblock::RowBatch>& batches = Batches();
  std::vector<std::string> records;
  for (size_t i = 0; i < batches.size(); ++i) {
    records.push_back(rowstore::EncodeWalRecord(TenantOf(i), batches[i]));
  }
  const logblock::Schema schema = batches[0].schema();
  size_t i = 0;
  for (auto _ : state) {
    if (op == WalOp::kEncode) {
      std::string record = rowstore::EncodeWalRecord(TenantOf(i), batches[i]);
      benchmark::DoNotOptimize(record.data());
      benchmark::ClobberMemory();
    } else {
      auto record = rowstore::DecodeWalRecord(records[i], schema);
      if (!record.ok()) abort();
      benchmark::DoNotOptimize(record->rows.num_rows());
    }
    i = (i + 1) % batches.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          kRowsPerBatch);
}

// A store holding every batch, moved in as the apply path does.
std::unique_ptr<rowstore::RowStore> FilledStore() {
  const std::vector<logblock::RowBatch>& batches = Batches();
  auto store = std::make_unique<rowstore::RowStore>(batches[0].schema());
  std::vector<logblock::RowBatch> copies = batches;
  for (size_t i = 0; i < copies.size(); ++i) {
    store->Append(TenantOf(i), std::move(copies[i]));
  }
  return store;
}

enum class StoreOp { kAppend, kScanTenant, kSnapshotTruncate };

void BM_RowStore(benchmark::State& state, StoreOp op) {
  const std::vector<logblock::RowBatch>& batches = Batches();
  const uint64_t total_rows = batches.size() * kRowsPerBatch;
  int64_t rows = 0;
  if (op == StoreOp::kScanTenant) {
    // A tail read: one tenant's rows of the newest quarter of the span.
    const auto store = FilledStore();
    const int64_t ts_max = kBatches * kBatchSpanUs;
    const int64_t ts_min = ts_max - ts_max / 4;
    uint64_t tenant = 0;
    for (auto _ : state) {
      const logblock::RowBatch found =
          store->ScanTenant(tenant, ts_min, ts_max);
      benchmark::DoNotOptimize(found.num_rows());
      rows += found.num_rows();
      tenant = (tenant + 1) % kTenants;
    }
  } else {
    // Set up and torn down outside the timed region.
    std::unique_ptr<rowstore::RowStore> store;
    std::vector<logblock::RowBatch> copies;
    for (auto _ : state) {
      state.PauseTiming();
      store.reset();
      copies.clear();
      if (op == StoreOp::kAppend) {
        store = std::make_unique<rowstore::RowStore>(batches[0].schema());
        copies = batches;
      } else {
        store = FilledStore();
      }
      state.ResumeTiming();
      if (op == StoreOp::kAppend) {
        for (size_t i = 0; i < copies.size(); ++i) {
          benchmark::DoNotOptimize(
              store->Append(TenantOf(i), std::move(copies[i])));
        }
        benchmark::ClobberMemory();
      } else {
        // The first pass cuts in the middle of a write.
        const auto first = store->SnapshotForBuild(total_rows / 2 + 50);
        store->TruncateUpTo(first.end_seq);
        const auto rest = store->SnapshotForBuild(total_rows);
        store->TruncateUpTo(rest.end_seq);
        benchmark::DoNotOptimize(rest.total_rows);
        benchmark::ClobberMemory();
      }
      rows += static_cast<int64_t>(total_rows);
    }
  }
  state.SetItemsProcessed(rows);
}

BENCHMARK_CAPTURE(BM_WalRecord, encode, WalOp::kEncode);
BENCHMARK_CAPTURE(BM_WalRecord, decode, WalOp::kDecode);
BENCHMARK_CAPTURE(BM_RowStore, append, StoreOp::kAppend);
BENCHMARK_CAPTURE(BM_RowStore, scan_tenant, StoreOp::kScanTenant);
BENCHMARK_CAPTURE(BM_RowStore, snapshot_truncate, StoreOp::kSnapshotTruncate);

}  // namespace

BENCHMARK_MAIN();
