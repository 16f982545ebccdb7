#include "query/engine.h"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "prefetch/cached_source.h"

namespace logstore::query {

namespace {

// While up to query_threads blocks scan, the scheduler keeps this many
// further blocks warming: their object heads (tar header + meta member) are
// prefetched so opening the next reader is a cache hit instead of a cold
// object-store round trip.
constexpr size_t kPipelineDepth = 4;

// Strict weak order over cell values: by type, then by the typed payload.
// Total and placement-independent, so realtime rows sort the same no matter
// which worker produced them.
bool ValueLess(const logblock::Value& a, const logblock::Value& b) {
  if (a.type != b.type) return a.type < b.type;
  if (a.type == logblock::ColumnType::kInt64) return a.i < b.i;
  return a.s < b.s;
}

bool RowLess(const std::vector<logblock::Value>& a,
             const std::vector<logblock::Value>& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t c = 0; c < n; ++c) {
    if (ValueLess(a[c], b[c])) return true;
    if (ValueLess(b[c], a[c])) return false;
  }
  return a.size() < b.size();
}

}  // namespace

Status MergeRealtimeRows(RealtimeRows batches, const LogQuery& query,
                         QueryResult* result) {
  // One projected row awaiting the deterministic sort. `worker`/`row_idx`
  // are final tie-breakers only: two rows compared by them are already
  // byte-identical in ts and projected content, so their relative order
  // cannot change the result bytes — they merely make the sort a total
  // order.
  struct PendingRow {
    int64_t ts = 0;
    std::vector<logblock::Value> row;
    uint32_t worker = 0;
    uint32_t row_idx = 0;
  };
  std::vector<PendingRow> rows;
  // Aggregates fold every row with the fold LogBlocks use; count, sum,
  // min, max and group merges are commutative, so batch order cannot
  // matter.
  AggFold fold(query.agg.kind);
  uint64_t folded = 0;

  for (auto& [worker, batch] : batches) {
    if (batch.num_rows() == 0) continue;
    const logblock::Schema& schema = batch.schema();
    auto bound = Bind(query, schema);
    if (!bound.ok()) return bound.status();
    if (query.is_aggregate()) {
      folded += batch.num_rows();
      if (query.agg.kind == Aggregate::Kind::kCount) continue;
      if (bound->agg_is_int) {
        for (int64_t v : batch.Int64Column(bound->agg_col)) fold.Add(v);
      } else {
        for (const std::string& v : batch.StringColumn(bound->agg_col)) {
          fold.Add(std::string_view(v));
        }
      }
      continue;
    }
    if (result->columns.empty()) {
      if (query.select_columns.empty()) {
        for (const auto& col : schema.columns()) {
          result->columns.push_back(col.name);
        }
      } else {
        result->columns = query.select_columns;
      }
    }
    for (uint32_t r = 0; r < batch.num_rows(); ++r) {
      PendingRow pending;
      pending.ts = bound->ts_col < 0 ? 0 : batch.Int64At(bound->ts_col, r);
      pending.row.reserve(bound->projection.size());
      for (size_t c : bound->projection) {
        pending.row.push_back(batch.ValueAt(c, r));
      }
      pending.worker = worker;
      pending.row_idx = r;
      rows.push_back(std::move(pending));
    }
  }
  if (query.is_aggregate()) {
    result->agg.MergeFrom(fold.Finish(folded));
    result->stats.realtime_rows += folded;
    result->stats.exec.rows_matched += folded;
    return Status::OK();
  }

  std::sort(rows.begin(), rows.end(),
            [](const PendingRow& a, const PendingRow& b) {
              if (a.ts != b.ts) return a.ts < b.ts;
              if (RowLess(a.row, b.row)) return true;
              if (RowLess(b.row, a.row)) return false;
              if (a.worker != b.worker) return a.worker < b.worker;
              return a.row_idx < b.row_idx;
            });

  uint32_t appended = 0;
  for (PendingRow& pending : rows) {
    if (query.limit != 0 && result->rows.size() >= query.limit) break;
    result->rows.push_back(std::move(pending.row));
    ++appended;
  }
  result->stats.realtime_rows += appended;
  result->stats.exec.rows_matched += appended;
  return Status::OK();
}

namespace {

// One block's outcome within a read. `status` is Aborted when the block was
// stopped (it lies past the limit cut, or after a block that failed) —
// Aborted never escapes the merge.
struct BlockSlot {
  Status status;
  bool ran = false;  // true iff `exec` holds a real result
  BlockExecResult exec;
  std::vector<std::string> columns;  // schema names (select list empty)
  // Held from the block's filter to its gather.
  std::shared_ptr<logblock::LogBlockReader> reader;
  std::optional<FilteredBlock> filtered;
};

// A block whose share of the limit is known: gather its first `rows`
// matching rows.
struct Share {
  size_t block = 0;
  uint64_t rows = 0;
};

// Turns the blocks' filter counts into their shares of the limit, in
// completed-prefix order (§11): once blocks [0, i) have all filtered, block
// i's share is min(count, limit - shares of the blocks before it). Owns
// each block's stop flag (its ExecOptions::cancel) and sets it in two cases
// only: the block lies past the cut (the prefix's counts reached the limit
// before it), or a block before it failed. So a stop never reaches a block
// the merge needs.
class LimitTracker {
 public:
  // `limit` 0 means none: each block's share is its count, known at once.
  LimitTracker(size_t num_blocks, uint32_t limit)
      : limit_(limit),
        stop_(std::make_unique<std::atomic<bool>[]>(num_blocks)),
        num_blocks_(num_blocks),
        stop_from_(num_blocks),
        counts_(limit == 0 ? 0 : num_blocks, kNotFiltered) {}

  const std::atomic<bool>* stop_flag(size_t index) const {
    return &stop_[index];
  }
  bool stopped(size_t index) const {
    return stop_[index].load(std::memory_order_acquire);
  }

  // Block `index` has filtered `count` matching rows. Returns the shares
  // this made known, in block order: block `index` first, if any.
  std::vector<Share> OnFiltered(size_t index, uint64_t count) {
    if (limit_ == 0) return {{index, count}};
    std::lock_guard<std::mutex> lock(mu_);
    counts_[index] = count;
    std::vector<Share> shares;
    while (prefix_len_ < num_blocks_ && prefix_rows_ < limit_ &&
           counts_[prefix_len_] != kNotFiltered) {
      const uint64_t share =
          std::min<uint64_t>(counts_[prefix_len_], limit_ - prefix_rows_);
      shares.push_back({prefix_len_, share});
      prefix_rows_ += share;
      ++prefix_len_;
    }
    // The cut: every block from prefix_len_ on lies past the limit.
    if (prefix_rows_ >= limit_) StopFrom(prefix_len_);
    return shares;
  }

  // Block `index` failed: the merge stops there, so stop every later block.
  void OnFailed(size_t index) {
    std::lock_guard<std::mutex> lock(mu_);
    StopFrom(index + 1);
  }

 private:
  static constexpr uint64_t kNotFiltered = UINT64_MAX;

  // Requires mu_.
  void StopFrom(size_t first) {
    for (size_t i = first; i < stop_from_; ++i) {
      stop_[i].store(true, std::memory_order_release);
    }
    stop_from_ = std::min(stop_from_, first);
  }

  const uint64_t limit_;
  const std::unique_ptr<std::atomic<bool>[]> stop_;
  const size_t num_blocks_;
  std::mutex mu_;
  size_t stop_from_;             // blocks [stop_from_, n) are all stopped
  std::vector<uint64_t> counts_;  // per-block filter counts
  size_t prefix_len_ = 0;         // blocks [0, prefix_len_) have shares
  uint64_t prefix_rows_ = 0;      // the sum of those shares
};

// Deterministic merge of a read's slots in block-map order, up to the block
// the limit cut falls in. `slots` is consumed.
Status MergeBlockSlots(const LogQuery& query, std::vector<BlockSlot>& slots,
                       QueryResult* result) {
  const size_t n = slots.size();
  for (size_t i = 0; i < n; ++i) {
    BlockSlot& slot = slots[i];
    if (!slot.ran) {
      // Only the block's own failure leaves a slot the merge reaches
      // without a result: the blocks after a failed block are stopped, and
      // those past the limit cut are never reached. So this is the error of
      // the lowest-index failing block.
      if (slot.status.ok() || slot.status.IsAborted()) {
        return Status::Internal("query block " + std::to_string(i) +
                                " has no result: " + slot.status.ToString());
      }
      return slot.status;
    }
    if (result->columns.empty()) {
      if (query.select_columns.empty()) {
        result->columns = slot.columns;
      } else {
        result->columns = query.select_columns;
      }
    }
    if (slot.exec.stats.skipped_by_column_sma) {
      ++result->stats.logblocks_sma_skipped;
    }
    result->stats.exec.MergeFrom(slot.exec.stats);
    // Partial aggregates combine across every slot; aggregate slots carry
    // no rows, so the limit cut below never ends this loop early for them.
    result->agg.MergeFrom(slot.exec.agg);
    // Each slot holds exactly its share of the limit, so the rows of the
    // slots up to the cut are the answer, and their rows_matched add up to
    // its row count.
    for (auto& row : slot.exec.rows) result->rows.push_back(std::move(row));
    if (query.limit != 0 && result->rows.size() >= query.limit) break;
  }
  return Status::OK();
}

}  // namespace

QueryEngine::QueryEngine(objectstore::ObjectStore* store,
                         const EngineOptions& options)
    : store_(store), options_(options) {}

void QueryCells::BindTo(metrics::MetricRegistry* registry) {
  queries = registry->Counter("query.queries");
  rows_matched = registry->Counter("query.rows_matched");
  realtime_rows = registry->Counter("query.realtime_rows");
  logblocks_total = registry->Counter("query.logblocks_total");
  logblocks_pruned = registry->Counter("query.logblocks_pruned");
  logblocks_sma_skipped = registry->Counter("query.logblocks_sma_skipped");
  column_blocks_scanned = registry->Counter("query.column_blocks_scanned");
  column_blocks_skipped = registry->Counter("query.column_blocks_skipped");
  index_probes = registry->Counter("query.index_probes");
  decode_cache_hits = registry->Counter("query.decode_cache_hits");
  bytes_decoded = registry->Counter("query.vectorized.bytes_decoded");
  vectorized_rows_scanned = registry->Counter("query.vectorized.rows_scanned");
  vectorized_bitmap_hits = registry->Counter("query.vectorized.bitmap_hits");
  vectorized_kernel_ns = registry->Counter("query.vectorized.kernel_ns");
}

void QueryCells::Record(const QueryStats& stats) const {
  if (queries == nullptr) return;
  const auto order = std::memory_order_relaxed;
  queries->fetch_add(1, order);
  rows_matched->fetch_add(stats.exec.rows_matched, order);
  realtime_rows->fetch_add(stats.realtime_rows, order);
  logblocks_total->fetch_add(stats.logblocks_total, order);
  logblocks_pruned->fetch_add(stats.logblocks_pruned, order);
  logblocks_sma_skipped->fetch_add(stats.logblocks_sma_skipped, order);
  column_blocks_scanned->fetch_add(stats.exec.column_blocks_scanned, order);
  column_blocks_skipped->fetch_add(stats.exec.column_blocks_skipped, order);
  index_probes->fetch_add(stats.exec.index_probes, order);
  decode_cache_hits->fetch_add(stats.exec.decode_cache_hits, order);
  bytes_decoded->fetch_add(stats.exec.bytes_decoded, order);
  vectorized_rows_scanned->fetch_add(stats.exec.vectorized_rows_scanned,
                                     order);
  vectorized_bitmap_hits->fetch_add(stats.exec.vectorized_bitmap_hits, order);
  vectorized_kernel_ns->fetch_add(stats.exec.vectorized_kernel_ns, order);
}

Result<std::unique_ptr<QueryEngine>> QueryEngine::Open(
    objectstore::ObjectStore* store, const EngineOptions& options) {
  std::unique_ptr<QueryEngine> engine(new QueryEngine(store, options));
  metrics::MetricRegistry* registry = metrics::OrDefault(options.registry);
  engine->query_cells_.BindTo(registry);
  // The nested cache options inherit the engine's registry unless the
  // caller already aimed them elsewhere.
  if (engine->options_.cache_options.registry == nullptr) {
    engine->options_.cache_options.registry = registry;
  }
  if (options.use_cache) {
    // The memory tier gives each shard an equal share and drops any block
    // larger than that share, so below this floor it caches nothing; with
    // no shard at all, its first lookup divides by zero.
    const cache::BlockManagerOptions& tier = options.cache_options;
    if (tier.memory_shards < 1 ||
        (tier.memory_capacity_bytes != 0 &&
         tier.memory_capacity_bytes / tier.memory_shards <
             options.io_block_size)) {
      return Status::InvalidArgument(
          "cache memory tier of " +
          std::to_string(tier.memory_capacity_bytes) + " bytes over " +
          std::to_string(tier.memory_shards) +
          " shards cannot hold one io_block_size block of " +
          std::to_string(options.io_block_size) + " bytes per shard");
    }
    auto cache = cache::BlockManager::Open(engine->options_.cache_options);
    if (!cache.ok()) return cache.status();
    engine->cache_ = std::move(cache).value();
    engine->object_cache_stats_.BindTo(registry, "object");
    engine->object_cache_ =
        std::make_unique<cache::LruCache<logblock::LogBlockReader>>(
            options.object_cache_bytes, &engine->object_cache_stats_);
    // The aligned-read path over the block cache; an uncached engine reads
    // through DirectObjectSource instead.
    engine->prefetch_ = std::make_unique<prefetch::PrefetchService>(
        store, engine->cache_.get(),
        prefetch::PrefetchOptions{
            .threads = options.prefetch_threads,
            .block_size = options.io_block_size,
            .max_coalesced_bytes = options.max_coalesced_bytes,
            .registry = registry});
  }
  if (options.query_threads > 1) {
    engine->query_pool_ = std::make_unique<ThreadPool>(options.query_threads);
  }
  return engine;
}

Result<std::shared_ptr<logblock::LogBlockReader>> QueryEngine::OpenReader(
    const std::string& object_key, uint64_t object_size) {
  if (object_cache_ != nullptr) {
    if (auto cached = object_cache_->Get(object_key)) return cached;
  }

  std::shared_ptr<logblock::LogBlockSource> source;
  if (options_.use_cache) {
    source = std::make_shared<prefetch::CachedObjectSource>(
        prefetch_.get(), object_key, object_size);
  } else {
    source =
        std::make_shared<prefetch::DirectObjectSource>(store_, object_key);
  }
  auto reader = logblock::LogBlockReader::Open(std::move(source));
  if (!reader.ok()) return reader.status();
  std::shared_ptr<logblock::LogBlockReader> shared = std::move(reader).value();
  if (object_cache_ != nullptr) {
    // Charge a rough decoded footprint: parsed meta plus a per-row byte for
    // cached index structures, capped so one huge block cannot pin the
    // whole cache.
    const uint64_t charge =
        std::min<uint64_t>(4096 + shared->meta().row_count, 1u << 20);
    object_cache_->Insert(object_key, shared, charge);
  }
  return shared;
}

Result<QueryResult> QueryEngine::Execute(const LogQuery& query,
                                         const logblock::LogBlockMap& map) {
  return Read(query, map, {});
}

Result<QueryResult> QueryEngine::Read(const LogQuery& query,
                                      const logblock::LogBlockMap& map,
                                      const ReadContext& context) {
  const int64_t start_us = SystemClock::Default()->NowMicros();
  QueryResult result;
  if (context.schema != nullptr) {
    auto bound = Bind(query, *context.schema);
    if (!bound.ok()) return bound.status();
    if (query.select_columns.empty()) {
      for (const auto& col : context.schema->columns()) {
        result.columns.push_back(col.name);
      }
    } else {
      result.columns = query.select_columns;
    }
  }
  const Status scanned = RunBlocks(query, map, &result);
  if (!scanned.ok()) {
    // A scan that overlapped a fenced change (an expiry deleting its
    // objects, a move) fails as the fence says: retryable.
    if (context.fence) LOGSTORE_RETURN_IF_ERROR(context.fence());
    return scanned;
  }
  // A row query whose archived rows already fill its limit scans no
  // realtime rows: the merge appends them after the archived ones and
  // stops at the limit.
  const bool limit_filled = !query.is_aggregate() && query.limit != 0 &&
                            result.rows.size() >= query.limit;
  if (context.scan_realtime && !limit_filled) {
    LOGSTORE_RETURN_IF_ERROR(
        MergeRealtimeRows(context.scan_realtime(), query, &result));
  }
  if (context.fence) LOGSTORE_RETURN_IF_ERROR(context.fence());
  result.stats.elapsed_us = SystemClock::Default()->NowMicros() - start_us;
  query_cells_.Record(result.stats);
  return result;
}

Status QueryEngine::RunBlocks(const LogQuery& query,
                              const logblock::LogBlockMap& map,
                              QueryResult* result) {
  // Figure 8 step 1: prune via the LogBlock map on <tenant, min_ts, max_ts>.
  const auto all_blocks = map.TenantBlocks(query.tenant_id);
  const auto blocks = map.Prune(query.tenant_id, query.ts_min, query.ts_max);
  result->stats.logblocks_total = all_blocks.size();
  result->stats.logblocks_pruned = all_blocks.size() - blocks.size();
  const size_t n = blocks.size();

  // Every block writes its outcome to the slot at its block-map index, and
  // one limit tracker spans the whole block list. Aggregates scan every
  // block, so the tracker gives each one its whole count.
  std::vector<BlockSlot> slots(n);
  LimitTracker tracker(n, query.is_aggregate() ? 0 : query.limit);

  ExecOptions exec_options;
  exec_options.use_data_skipping = options_.use_data_skipping;
  exec_options.use_prefetch = options_.use_cache && options_.use_prefetch;
  // Distinct owner per query: the prefetch service schedules pending runs
  // round-robin across owners, so one wide scan cannot starve others.
  exec_options.prefetch_owner =
      next_query_owner_.fetch_add(1, std::memory_order_relaxed);

  // Inline when there is no pool, or nothing to overlap.
  const bool run_inline = query_pool_ == nullptr || n <= 1;

  // Pipelined prefetch: while the pool scans, warm the head of upcoming
  // objects (the tar header plus the meta member, which the writer lays out
  // first) so opening those readers hits the cache instead of paying a cold
  // object-store round trip. The cursor only moves forward; concurrent tasks
  // claim disjoint ranges. Inline nothing is warmed and the calling thread
  // reads each head itself: one scan at a time gains from a warm-up only
  // against object-store latency, while on a fast store the hand-off to a
  // prefetch thread, and heads a limit never opens, slow it down.
  std::atomic<size_t> warm_cursor{0};
  auto warm_ahead = [&](size_t upto) {
    if (run_inline || !exec_options.use_prefetch) return;
    upto = std::min(upto, n);
    size_t claimed = warm_cursor.load(std::memory_order_relaxed);
    while (claimed < upto && !warm_cursor.compare_exchange_weak(
                                 claimed, upto, std::memory_order_relaxed)) {
    }
    for (size_t i = claimed; i < upto; ++i) {
      prefetch_->Prefetch(exec_options.prefetch_owner, blocks[i].object_key,
                          {ByteRange{0, options_.io_block_size * 2}},
                          blocks[i].size_bytes);
    }
  };
  const size_t lookahead =
      static_cast<size_t>(options_.query_threads) + kPipelineDepth;
  warm_ahead(lookahead);

  // Records a block's outcome; a real failure stops the blocks after it.
  auto fail = [&](size_t i, Status status) {
    if (!status.IsAborted()) tracker.OnFailed(i);
    slots[i].status = std::move(status);
  };

  // The filter step of block i. Returns the shares its count made known.
  auto filter = [&](size_t i) -> std::vector<Share> {
    BlockSlot& slot = slots[i];
    if (tracker.stopped(i)) {
      slot.status = Status::Aborted("query cancelled");
      return {};
    }
    warm_ahead(i + 1 + lookahead);
    auto reader = OpenReader(blocks[i].object_key, blocks[i].size_bytes);
    if (!reader.ok()) {
      fail(i, reader.status());
      return {};
    }
    if (query.select_columns.empty()) {
      for (const auto& col : (*reader)->schema().columns()) {
        slot.columns.push_back(col.name);
      }
    }
    ExecOptions block_options = exec_options;
    block_options.cancel = tracker.stop_flag(i);
    auto filtered = FilterLogBlock(reader->get(), query, block_options);
    if (!filtered.ok()) {
      fail(i, filtered.status());
      return {};
    }
    const uint64_t matched = filtered->matched();
    slot.reader = std::move(reader).value();
    slot.filtered.emplace(std::move(filtered).value());
    return tracker.OnFiltered(i, matched);
  };

  // The gather step: the block's share of the limit, which the merge keeps
  // whole, so the merged rows and stats do not depend on the schedule.
  auto gather = [&](const Share& share) {
    BlockSlot& slot = slots[share.block];
    auto exec = slot.filtered->Gather(share.rows);
    slot.filtered.reset();
    slot.reader.reset();
    if (exec.ok()) {
      slot.ran = true;
      slot.exec = std::move(exec).value();
    } else {
      fail(share.block, exec.status());
    }
  };

  if (run_inline) {
    // Same contract, on the calling thread, in map order: each block's
    // share is known as soon as it has filtered.
    for (size_t i = 0; i < n; ++i) {
      for (const Share& share : filter(i)) gather(share);
    }
  } else {
    // One pool task per block filter, queued under the tenant: the pool
    // serves tenants round-robin, so a wide scan queues behind itself, not
    // in front of another tenant's blocks. The task that makes shares known
    // gathers its own block and queues the others' gathers the same way. A
    // queued filter of a stopped block still starts, sees its flag and
    // returns Aborted.
    std::mutex mu;
    std::condition_variable done_cv;
    size_t pending = n;  // queued or running tasks
    auto task_done = [&] {
      std::lock_guard<std::mutex> lock(mu);
      if (--pending == 0) done_cv.notify_all();
    };
    for (size_t i = 0; i < n; ++i) {
      query_pool_->Schedule(query.tenant_id, [&, i] {
        const std::vector<Share> shares = filter(i);
        if (shares.size() > 1) {
          {
            std::lock_guard<std::mutex> lock(mu);
            pending += shares.size() - 1;
          }
          for (size_t k = 1; k < shares.size(); ++k) {
            query_pool_->Schedule(query.tenant_id,
                                  [&gather, &task_done, share = shares[k]] {
                                    gather(share);
                                    task_done();
                                  });
          }
        }
        if (!shares.empty()) gather(shares.front());
        task_done();
      });
    }
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [&] { return pending == 0; });
  }

  return MergeBlockSlots(query, slots, result);
}

std::vector<logblock::Value> QueryEngine::Column(const QueryResult& result,
                                                 const std::string& name) {
  std::vector<logblock::Value> values;
  for (size_t c = 0; c < result.columns.size(); ++c) {
    if (result.columns[c] == name) {
      values.reserve(result.rows.size());
      for (const auto& row : result.rows) values.push_back(row[c]);
      break;
    }
  }
  return values;
}

void QueryEngine::ClearCaches() {
  if (cache_ != nullptr) cache_->Clear();
  if (object_cache_ != nullptr) object_cache_->Clear();
}

}  // namespace logstore::query
