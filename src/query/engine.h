#ifndef LOGSTORE_QUERY_ENGINE_H_
#define LOGSTORE_QUERY_ENGINE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/block_manager.h"
#include "cache/lru_cache.h"
#include "common/clock.h"
#include "common/result.h"
#include "common/threadpool.h"
#include "logblock/logblock_map.h"
#include "logblock/logblock_reader.h"
#include "objectstore/object_store.h"
#include "objectstore/retrying_object_store.h"
#include "prefetch/prefetch_service.h"
#include "query/admission.h"
#include "query/block_executor.h"
#include "query/predicate.h"

namespace logstore::query {

struct EngineOptions {
  // Query-optimization toggles, mirroring the ablation axes of §6.3.
  bool use_data_skipping = true;
  bool use_cache = true;
  bool use_prefetch = true;

  // Wrap the store with bounded retry + backoff so transient object-store
  // failures (throttling, connection resets, truncated responses) are
  // absorbed below the query instead of failing it.
  bool use_retry = true;
  objectstore::RetryOptions retry_options;

  // Parallel query execution (§5.2/Figure 17): LogBlocks of one query are
  // scanned concurrently by a per-engine pool of this many threads, with
  // results merged back in LogBlock-map order so output does not depend on
  // the thread count. 1 (or 0) creates no pool: the same fragment executor
  // runs its blocks inline on the calling thread, in map order.
  int query_threads = 8;
  // While up to query_threads blocks scan, the scheduler keeps this many
  // FURTHER blocks warming: their object heads (tar header + meta member)
  // are prefetched so opening the next reader is a cache hit instead of a
  // cold object-store round trip. Requires use_cache and a pool.
  int pipeline_depth = 4;

  int prefetch_threads = 32;
  uint64_t io_block_size = 64 * 1024;
  // Adjacent-read coalescing cap (Figure 10's request merge); setting it
  // equal to io_block_size disables coalescing (one GET per block).
  uint64_t max_coalesced_bytes = 4 * 1024 * 1024;
  cache::BlockManagerOptions cache_options;
  // Decoded-object cache (§5.2's "object memory cache"): holds opened
  // LogBlockReaders (parsed meta + decoded indexes), avoiding repeated
  // parsing and re-fetch of meta for hot blocks.
  uint64_t object_cache_bytes = 256ull << 20;

  // Cluster-wide execution-slot budget (§12): when set, every block scan —
  // inline or pooled — first acquires a slot, so under load the shared
  // budget dynamically caps this engine's effective query_threads, with
  // per-tenant fair queueing. Non-owning; must outlive the engine. Null =
  // unlimited (the standalone single-engine behavior).
  AdmissionGovernor* admission = nullptr;

  // Registry receiving the engine's `query.*` aggregates (and, propagated
  // into the nested cache/retry/prefetch options when those carry none, the
  // whole read stack's); nullptr means the process-wide default.
  metrics::MetricRegistry* registry = nullptr;
};

struct QueryStats {
  // 64-bit: large-tenant soaks overflow 32-bit row/block counters.
  uint64_t logblocks_total = 0;    // blocks of the tenant in range
  uint64_t logblocks_pruned = 0;   // eliminated by the LogBlock map
  uint64_t logblocks_sma_skipped = 0;
  uint64_t realtime_rows = 0;  // rows merged from real-time stores
  BlockExecStats exec;
  int64_t elapsed_us = 0;
};

// Registry cells for whole-query accounting (`query.*`). QueryStats is a
// value type copied and merged across fragments, so each read path —
// QueryEngine::Execute and the cluster read — records the final stats once
// per query rather than per increment.
struct QueryCells {
  std::atomic<uint64_t>* queries = nullptr;
  std::atomic<uint64_t>* rows_matched = nullptr;
  std::atomic<uint64_t>* realtime_rows = nullptr;
  std::atomic<uint64_t>* logblocks_total = nullptr;
  std::atomic<uint64_t>* logblocks_pruned = nullptr;
  std::atomic<uint64_t>* logblocks_sma_skipped = nullptr;
  std::atomic<uint64_t>* column_blocks_scanned = nullptr;
  std::atomic<uint64_t>* column_blocks_skipped = nullptr;
  std::atomic<uint64_t>* index_probes = nullptr;
  std::atomic<uint64_t>* decode_cache_hits = nullptr;
  std::atomic<uint64_t>* bytes_decoded = nullptr;
  std::atomic<uint64_t>* vectorized_rows_scanned = nullptr;
  std::atomic<uint64_t>* vectorized_bitmap_hits = nullptr;
  std::atomic<uint64_t>* vectorized_kernel_ns = nullptr;

  void BindTo(metrics::MetricRegistry* registry);
  void Record(const QueryStats& stats) const;
};

struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<logblock::Value>> rows;  // empty for aggregates
  // Merged aggregate when the query carries one (LogQuery::agg): partial
  // aggregates are computed per block BELOW the merge and combined here, so
  // workers ship summaries, not rows. `agg.groups` stays canonical
  // (key-ascending); render top-k via agg.TopK(query.limit).
  AggResult agg;
  QueryStats stats;
};

// Broker-side merge of real-time (not yet archived) rows into a query
// result, applying the projection and limit. Predicate/time filtering must
// already have been applied to each batch (RowStore::ScanTenant does).
//
// Rows are appended after the archived rows in a deterministic, placement-
// independent order — (timestamp, projected row content, worker, row) — so
// a limit query returns the same bytes no matter which worker holds which
// rows, and the scatter path matches the single-engine path. Appended rows
// are accounted in QueryStats::realtime_rows and exec.rows_matched.
//
// For an aggregate query the batches are folded into result->agg instead of
// appended (all combines are commutative, so batch order cannot matter).
Status MergeRealtimeRows(
    std::vector<std::pair<uint32_t, logblock::RowBatch>> batches,
    const LogQuery& query, QueryResult* result);

struct FragmentSlot;         // one block's outcome; defined in engine.cc
class ScatterLimitTracker;  // the global limit cancel; defined in engine.cc

// Executes single-tenant log queries against LogBlocks on the object store,
// applying the full optimization stack of §5: LogBlock-map pruning, data
// skipping, multi-level caching, parallel prefetch.
class QueryEngine {
 public:
  // `store` must outlive the engine.
  static Result<std::unique_ptr<QueryEngine>> Open(
      objectstore::ObjectStore* store, const EngineOptions& options = {});

  // The query over every block of `map` this engine holds: RunFragments
  // with every pruned block in one fragment on this engine, plus the
  // `query.*` accounting.
  Result<QueryResult> Execute(const LogQuery& query,
                              const logblock::LogBlockMap& map);

  // Picks the engine that scans one pruned LogBlock; an error fails the
  // read before any block runs.
  using EngineChooser =
      std::function<Result<QueryEngine*>(const logblock::LogBlockEntry&)>;

  // The archived half of every read (§11/§12): prunes `map` on <tenant,
  // ts range>, groups the surviving blocks into one fragment per chosen
  // engine, runs the fragments (concurrently when there are several) under
  // one cancel flag and one limit tracker over the GLOBAL block-map
  // indices, merges the per-block slots in that order, and recounts
  // rows_matched for row queries. The result cannot depend on the choice.
  static Status RunFragments(const LogQuery& query,
                             const logblock::LogBlockMap& map,
                             const EngineChooser& choose_engine,
                             QueryResult* result);

  // Extracts one projected column from a result (for aggregations).
  static std::vector<logblock::Value> Column(const QueryResult& result,
                                             const std::string& name);

  cache::BlockManager* block_manager() { return cache_.get(); }
  prefetch::PrefetchService* prefetch_service() { return prefetch_.get(); }
  // Retry/giveup counters of the read path; nullptr when use_retry is off.
  const objectstore::RetryStats* retry_stats() const {
    return retry_store_ == nullptr ? nullptr : &retry_store_->retry_stats();
  }
  const EngineOptions& options() const { return options_; }

  // Drops all cached state (for cold-cache measurements).
  void ClearCaches();

 private:
  QueryEngine(objectstore::ObjectStore* store, const EngineOptions& options);

  // Executes one fragment: `blocks` (block-map order) are the query's
  // pruned LogBlocks this engine scans, `tags[i]` the global index of
  // blocks[i], whose outcome lands in (*slots)[tags[i]]. Uses the §11
  // scheduler (pipelined head prefetch, full-limit per-block execution,
  // admission-slot gating, cooperative cancel) and never fails wholesale.
  // Runs inline when the engine has no query pool or the fragment has one
  // block.
  void ExecuteFragment(const LogQuery& query,
                       const std::vector<logblock::LogBlockEntry>& blocks,
                       const std::vector<size_t>& tags,
                       std::atomic<bool>* cancel, ScatterLimitTracker* tracker,
                       std::vector<FragmentSlot>* slots);

  // `object_size` is the object's size from the LogBlock map (0 =
  // unknown); reads through the cache are clamped to it.
  Result<std::shared_ptr<logblock::LogBlockReader>> OpenReader(
      const std::string& object_key, uint64_t object_size);

  // Effective store for all engine IO: the retry wrapper when enabled,
  // otherwise the caller's store directly.
  objectstore::ObjectStore* store_;
  std::unique_ptr<objectstore::RetryingObjectStore> retry_store_;
  EngineOptions options_;
  std::unique_ptr<cache::BlockManager> cache_;
  std::unique_ptr<prefetch::PrefetchService> prefetch_;
  cache::CacheStats object_cache_stats_;
  std::unique_ptr<cache::LruCache<logblock::LogBlockReader>> object_cache_;
  // Shared by all concurrent Execute calls; null when query_threads <= 1.
  std::unique_ptr<ThreadPool> query_pool_;
  // Distinct owner tag per fragment, for fair prefetch scheduling.
  std::atomic<uint64_t> next_query_owner_{1};

  QueryCells query_cells_;
};

}  // namespace logstore::query

#endif  // LOGSTORE_QUERY_ENGINE_H_
