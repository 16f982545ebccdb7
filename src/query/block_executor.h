#ifndef LOGSTORE_QUERY_BLOCK_EXECUTOR_H_
#define LOGSTORE_QUERY_BLOCK_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "index/rowid_set.h"
#include "logblock/logblock_reader.h"
#include "query/aggregation.h"
#include "query/bind.h"
#include "query/predicate.h"

namespace logstore::query {

struct ExecOptions {
  // The multi-level data-skipping strategy of §5.1/Figure 8: LogBlock-level
  // SMA, index probes, and block-level SMA. When false, every block of
  // every predicate column is decompressed and scanned (the Figure 15
  // baseline).
  bool use_data_skipping = true;
  // Issue Prefetch hints so the source can load upcoming blocks in
  // parallel (§5.2). When false, all reads are serial and on-demand.
  bool use_prefetch = true;
  // Owner tag forwarded with prefetch hints so the shared prefetch pool can
  // schedule fairly across concurrent queries (0 = untagged).
  uint64_t prefetch_owner = 0;
  // Cooperative cancellation: when set and it becomes true, the executor
  // stops between IO/scan steps and returns Status::Aborted. The scheduler
  // gives each block a flag of its own and sets it when the block lies past
  // the limit cut or after a block that failed (DESIGN §11).
  const std::atomic<bool>* cancel = nullptr;
};

struct BlockExecStats {
  // Whole LogBlock skipped via column SMA before any data IO.
  bool skipped_by_column_sma = false;
  // 64-bit: large-tenant soaks overflow 32-bit scan/row counters.
  uint64_t column_blocks_scanned = 0;  // decompressed + scanned
  uint64_t column_blocks_skipped = 0;  // decided by block SMA / candidates
  uint64_t index_probes = 0;
  uint64_t rows_matched = 0;
  // Decoded blocks served from the per-execution cache instead of being
  // re-read and re-decoded (a second predicate or the gather touching a
  // column block the residual scan already decoded).
  uint64_t decode_cache_hits = 0;
  // Decompressed bytes of the column blocks this execution decoded, once
  // per decode (a decode-cache miss); deterministic.
  uint64_t bytes_decoded = 0;
  // Filter-kernel accounting. The first two are deterministic; kernel_ns is
  // wall clock and MUST stay out of byte-equality comparisons.
  uint64_t vectorized_rows_scanned = 0;  // rows run through filter kernels
  uint64_t vectorized_bitmap_hits = 0;   // selected bits across all kernels
  uint64_t vectorized_kernel_ns = 0;

  void MergeFrom(const BlockExecStats& other) {
    column_blocks_scanned += other.column_blocks_scanned;
    column_blocks_skipped += other.column_blocks_skipped;
    index_probes += other.index_probes;
    rows_matched += other.rows_matched;
    decode_cache_hits += other.decode_cache_hits;
    bytes_decoded += other.bytes_decoded;
    vectorized_rows_scanned += other.vectorized_rows_scanned;
    vectorized_bitmap_hits += other.vectorized_bitmap_hits;
    vectorized_kernel_ns += other.vectorized_kernel_ns;
  }
};

struct BlockExecResult {
  // Row-major projected values, one entry per matched row, columns in
  // LogQuery::select_columns order (or schema order when empty). Empty for
  // aggregate queries, which fill `agg` instead.
  std::vector<std::vector<logblock::Value>> rows;
  // Partial aggregate over this block's matching rows (LogQuery::agg set).
  AggResult agg;
  BlockExecStats stats;
};

class DecodedBlockCache;

// One LogBlock's scan after its filter step (Figure 8 steps 2-4): the rows
// that satisfy the query, waiting for the gather step (step 5). It keeps
// the reader, the query and the per-execution decode cache, so the gather
// reuses the column blocks the filter decoded. `reader` and `query` must
// outlive it. For an aggregate query the filter has already folded the
// matching rows into the partial aggregate, and the gather adds nothing.
class FilteredBlock {
 public:
  FilteredBlock(FilteredBlock&&) noexcept;
  FilteredBlock& operator=(FilteredBlock&&) noexcept;
  ~FilteredBlock();

  // Rows of the block that satisfy the query. It does not depend on the
  // query's limit.
  uint64_t matched() const { return matched_; }

  // Figure 8 step 5: loads the projected columns for the first
  // min(n, matched()) matching rows, in row order, through the decode
  // cache, and returns the block's result with the stats of both steps; a
  // row query's stats.rows_matched becomes the rows returned. With n == 0
  // it reads nothing. An aggregate returns its fold whatever n is.
  // Consumes the block: call it once.
  Result<BlockExecResult> Gather(uint64_t n);

 private:
  friend Result<FilteredBlock> FilterLogBlock(logblock::LogBlockReader*,
                                              const LogQuery&,
                                              const ExecOptions&);
  FilteredBlock(logblock::LogBlockReader* reader, const LogQuery& query,
                const ExecOptions& options);

  logblock::LogBlockReader* reader_;
  const LogQuery* query_;
  ExecOptions options_;
  index::RowIdSet candidates_;
  std::unique_ptr<DecodedBlockCache> cache_;
  BoundQuery bound_;
  uint64_t matched_ = 0;
  BlockExecResult result_;
};

// The filter step of one LogBlock scan:
//   2. skip the whole block via column SMA
//   3. probe per-column indexes (BKD / inverted) into a row-id set
//   4. for residual predicates, skip column blocks whose block SMA proves
//      no row or every row matches, scan the rest, and intersect
// and, for an aggregate query, fold the surviving rows into a partial
// AggResult (no row materialization; `limit` does not cut the fold).
// The tenant/ts pruning of step 1 happens above, against the LogBlock map.
Result<FilteredBlock> FilterLogBlock(logblock::LogBlockReader* reader,
                                     const LogQuery& query,
                                     const ExecOptions& options = {});

// The whole Figure 8 pipeline on one LogBlock: FilterLogBlock, then a
// gather of the first `query.limit` matching rows (all of them when the
// limit is 0). For an aggregate, stats.rows_matched counts ALL matching
// rows.
Result<BlockExecResult> ExecuteOnLogBlock(logblock::LogBlockReader* reader,
                                          const LogQuery& query,
                                          const ExecOptions& options = {});

}  // namespace logstore::query

#endif  // LOGSTORE_QUERY_BLOCK_EXECUTOR_H_
