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
#include "prefetch/prefetch_service.h"
#include "query/block_executor.h"
#include "query/predicate.h"

namespace logstore::query {

struct EngineOptions {
  // Query-optimization toggles, mirroring the ablation axes of §6.3.
  bool use_data_skipping = true;
  bool use_cache = true;
  bool use_prefetch = true;

  // Parallel query execution (§5.2/Figure 17): LogBlocks of one query are
  // scanned concurrently by a per-engine pool of this many threads, with
  // results merged back in LogBlock-map order so output does not depend on
  // the thread count. The pool queues each block under the query's tenant
  // and serves tenants round-robin (DESIGN §12), so its width is the budget
  // every pooled scan shares. 1 (or 0) creates no pool: the same block scan
  // runs inline on the calling thread, in map order, as does every
  // one-block query; inline scans take no share of that budget.
  int query_threads = 8;

  // Fetch threads of the prefetch service, which exists only with
  // use_cache.
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

  // Registry receiving the engine's `query.*` aggregates (and, propagated
  // into the nested cache/prefetch options when those carry none, the
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
// value type merged across a query's blocks, so QueryEngine::Read records
// the final stats once per answered query rather than per increment.
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
  // blocks hand the merge summaries, not rows. `agg.groups` stays canonical
  // (key-ascending); render top-k via agg.TopK(query.limit).
  AggResult agg;
  QueryStats stats;
};

// A read's realtime (not yet archived) rows: one filtered batch per worker.
using RealtimeRows = std::vector<std::pair<uint32_t, logblock::RowBatch>>;

// Broker-side merge of realtime rows into a query result, applying the
// projection (bound per batch) and limit to rows RowStore::ScanTenant
// already filtered. Rows are appended after the archived rows in a
// deterministic, placement-independent order — (timestamp, projected row
// content, worker, row) — so a limit query returns the same bytes no matter
// which worker holds which rows, and are accounted in
// QueryStats::realtime_rows and exec.rows_matched. An aggregate folds the
// batches into result->agg with the fold LogBlocks use (AggFold).
Status MergeRealtimeRows(RealtimeRows batches, const LogQuery& query,
                         QueryResult* result);

// What a read takes from its deployment besides the LogBlock map.
struct ReadContext {
  // Binds the query before any scan; nullptr: only each LogBlock does.
  const logblock::Schema* schema = nullptr;
  // Scans the realtime rows; unset: the read merges none.
  std::function<RealtimeRows()> scan_realtime;
  // Checked once the scans are done (also after a failed archived scan);
  // a failure replaces the answer and the read records nothing.
  std::function<Status()> fence;
};

// Executes single-tenant log queries against LogBlocks on the object store,
// applying the full optimization stack of §5: LogBlock-map pruning, data
// skipping, multi-level caching, parallel prefetch.
class QueryEngine {
 public:
  // `store` must outlive the engine. The engine reads it as given: a
  // deployment that wants transient failures absorbed hands it a
  // RetryingObjectStore. Returns InvalidArgument when the cache
  // is on and its memory tier has no shard, or is too small to hold one
  // io_block_size block in each of its memory_shards shards: such a tier
  // would cache nothing, and it feeds the SSD tier only through its
  // evictions.
  static Result<std::unique_ptr<QueryEngine>> Open(
      objectstore::ObjectStore* store, const EngineOptions& options = {});

  // The query over every block of `map` alone: Read with no deployment.
  Result<QueryResult> Execute(const LogQuery& query,
                              const logblock::LogBlockMap& map);

  // The one read of every deployment (LogStore::Query, Cluster::Read), in
  // order: bind the query against context.schema, RunBlocks over `map`,
  // scan the realtime rows unless a row query's archived rows already fill
  // its limit, MergeRealtimeRows, check context.fence, and record
  // `query.*` once for the answered query.
  Result<QueryResult> Read(const LogQuery& query,
                           const logblock::LogBlockMap& map,
                           const ReadContext& context);

  // Extracts one projected column from a result (for aggregations).
  static std::vector<logblock::Value> Column(const QueryResult& result,
                                             const std::string& name);

  cache::BlockManager* block_manager() { return cache_.get(); }
  // The block-scan pool; nullptr when query_threads <= 1.
  const ThreadPool* query_pool() const { return query_pool_.get(); }
  const EngineOptions& options() const { return options_; }

  // Drops all cached state (for cold-cache measurements).
  void ClearCaches();

 private:
  QueryEngine(objectstore::ObjectStore* store, const EngineOptions& options);

  // The archived half of every read: prunes `map` on <tenant, ts range>
  // and scans the surviving blocks with the §11 scheduler (pipelined head
  // prefetch; each block filtered, then gathered for its share of the
  // limit; a stop flag per block and one limit tracker), then merges the
  // per-block results in block-map order up to the limit cut. Each filter
  // and each queued gather is one pool task under query.tenant_id. Scans
  // inline on the calling thread when the engine has no query pool or the
  // query has one block.
  Status RunBlocks(const LogQuery& query, const logblock::LogBlockMap& map,
                   QueryResult* result);

  // `object_size` is the object's size from the LogBlock map (0 =
  // unknown); reads through the cache are clamped to it.
  Result<std::shared_ptr<logblock::LogBlockReader>> OpenReader(
      const std::string& object_key, uint64_t object_size);

  objectstore::ObjectStore* store_;
  EngineOptions options_;
  // Both null without use_cache: reads then go straight to store_.
  std::unique_ptr<cache::BlockManager> cache_;
  std::unique_ptr<prefetch::PrefetchService> prefetch_;
  cache::CacheStats object_cache_stats_;
  std::unique_ptr<cache::LruCache<logblock::LogBlockReader>> object_cache_;
  // Shared by all concurrent queries, fair across tenants; null when
  // query_threads <= 1.
  std::unique_ptr<ThreadPool> query_pool_;
  // Distinct owner tag per query, for fair prefetch scheduling.
  std::atomic<uint64_t> next_query_owner_{1};

  QueryCells query_cells_;
};

}  // namespace logstore::query

#endif  // LOGSTORE_QUERY_ENGINE_H_
