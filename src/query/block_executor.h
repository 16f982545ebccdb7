#ifndef LOGSTORE_QUERY_BLOCK_EXECUTOR_H_
#define LOGSTORE_QUERY_BLOCK_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "logblock/logblock_reader.h"
#include "query/aggregation.h"
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
  // stops between IO/scan steps and returns Status::Aborted. The parallel
  // scheduler uses this for limit-aware early termination and to drain
  // in-flight work after another block failed.
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

// Evaluates the conjunctive `query` against one LogBlock, implementing the
// Figure 8 pipeline:
//   2. skip the whole block via column SMA
//   3. probe per-column indexes (BKD / inverted) into a row-id set
//   4. for residual predicates, skip column blocks whose block SMA proves
//      no row or every row matches, scan the rest, and intersect
//   5. load the projected columns for the surviving row ids — or, for an
//      aggregate query, fold the surviving rows into a partial AggResult
//      (no row materialization; `limit` does not cut the scan, and
//      stats.rows_matched counts ALL matching rows)
// The tenant/ts pruning of step 1 happens above, against the LogBlock map.
Result<BlockExecResult> ExecuteOnLogBlock(logblock::LogBlockReader* reader,
                                          const LogQuery& query,
                                          const ExecOptions& options = {});

}  // namespace logstore::query

#endif  // LOGSTORE_QUERY_BLOCK_EXECUTOR_H_
