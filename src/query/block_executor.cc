#include "query/block_executor.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "index/rowid_set.h"
#include "query/vectorized.h"

namespace logstore::query {

namespace {

using logblock::ColumnType;
using logblock::IndexType;
using logblock::LogBlockReader;
using logblock::Value;

}  // namespace

// Decoded-column-block cache for the life of ONE block scan (its filter
// and its gather): residual predicates on the same column, the aggregation
// pass, and the gather all reuse a block decoded by an earlier step instead
// of re-reading and re-decompressing it. Hits are counted in stats
// (`query.decode_cache_hits`), misses as the bytes they decompress
// (`query.vectorized.bytes_decoded`); `column_blocks_scanned` keeps its
// pre-cache semantics (one count per residual scan pass, hit or not), so
// cached and uncached runs report identical scan stats.
class DecodedBlockCache {
 public:
  explicit DecodedBlockCache(LogBlockReader* reader) : reader_(reader) {}

  Result<const logblock::DecodedColumnBlock*> Get(size_t col, size_t block_idx,
                                                  BlockExecStats* stats) {
    const auto key = std::make_pair(col, block_idx);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++stats->decode_cache_hits;
      return &it->second;
    }
    auto decoded = reader_->ReadColumnBlock(col, block_idx);
    if (!decoded.ok()) return decoded.status();
    stats->bytes_decoded += decoded->decompressed_bytes;
    auto emplaced = cache_.emplace(key, std::move(decoded).value());
    return &emplaced.first->second;
  }

 private:
  LogBlockReader* reader_;
  std::map<std::pair<size_t, size_t>, logblock::DecodedColumnBlock> cache_;
};

namespace {

// True if the column SMA of a LogBlock, or the block SMA of one of its
// column blocks, proves no row satisfies `bp`: the rows can be skipped.
// Full text has no SMA shortcut.
bool SmaSkips(const index::Int64Sma& int_sma, const index::StringSma& str_sma,
              const BoundPredicate& bp) {
  return bp.pred.kind == Predicate::Kind::kStringEq
             ? str_sma.Excludes(bp.pred.str_value)
             : SmaExcludes(bp, int_sma);
}

// True if block SMA proves every row of `block` satisfies `bp`, so a scan
// would keep all of them: the mirror of SmaSkips. Only an SMA that covers
// every row of the block can prove it.
bool BlockSmaCovers(const logblock::ColumnBlockMeta& block,
                    const BoundPredicate& bp) {
  return block.int_sma.row_count == block.row_count &&
         SmaCovers(bp, block.int_sma);
}

// True if the index of this column can serve the predicate.
bool IndexServes(const LogBlockReader& reader, const BoundPredicate& bp) {
  const IndexType index_type = reader.meta().columns[bp.col].index_type;
  const logblock::Analyzer analyzer =
      reader.schema().column(bp.col).analyzer;
  switch (bp.pred.kind) {
    case Predicate::Kind::kInt64Compare:
      return index_type == IndexType::kBkd && bp.pred.op != CompareOp::kNe;
    case Predicate::Kind::kStringEq:
      return index_type == IndexType::kInverted &&
             analyzer != logblock::Analyzer::kTokensOnly;
    case Predicate::Kind::kMatch: {
      if (index_type != IndexType::kInverted ||
          analyzer == logblock::Analyzer::kExactOnly) {
        return false;
      }
      // Every query token must be indexable, or the probe would wrongly
      // drop rows containing an unindexed high-entropy token.
      for (const std::string& token : bp.match_tokens) {
        if (!index::IsIndexableToken(token)) return false;
      }
      return true;
    }
  }
  return false;
}

Result<index::RowIdSet> ProbeIndex(LogBlockReader* reader,
                                   const BoundPredicate& bp,
                                   uint32_t num_rows) {
  switch (bp.pred.kind) {
    case Predicate::Kind::kInt64Compare: {
      auto bkd = reader->BkdIndex(bp.col);
      if (!bkd.ok()) return bkd.status();
      const auto [lo, hi] = bp.pred.Int64Interval();
      return (*bkd)->QueryRange(lo, hi, num_rows);
    }
    case Predicate::Kind::kStringEq:
      return reader->InvertedLookupExact(bp.col, bp.pred.str_value);
    case Predicate::Kind::kMatch:
      return reader->InvertedMatchAllTokens(bp.col, bp.pred.str_value);
  }
  return Status::Internal("unreachable");
}

// True when the parallel scheduler asked this executor to stop.
bool Cancelled(const ExecOptions& options) {
  return options.cancel != nullptr &&
         options.cancel->load(std::memory_order_relaxed);
}

Status CancelledStatus() { return Status::Aborted("query cancelled"); }

// Evaluates one residual predicate against the candidate set by scanning
// (and SMA-skipping) the column's blocks: each surviving block is decoded
// into column vectors, a selection-bitmap kernel runs over every row, and
// the bitmap is ANDed into the candidates word-wise.
Status ApplyResidual(LogBlockReader* reader, const BoundPredicate& bp,
                     const ExecOptions& options, DecodedBlockCache* cache,
                     index::RowIdSet* candidates, BlockExecStats* stats) {
  const auto& col_meta = reader->meta().columns[bp.col];

  // Plan: find blocks that still hold candidate rows and whose block SMA
  // decides neither none nor all of them.
  // The candidate probe is a word-level bitmap range test, so the whole
  // plan costs one pass over the RowIdSet per column instead of a
  // Contains() probe per row of every block.
  std::vector<size_t> to_scan;
  for (size_t b = 0; b < col_meta.blocks.size(); ++b) {
    const auto& block = col_meta.blocks[b];
    const uint32_t block_end = block.first_row + block.row_count;
    if (!candidates->AnyInRange(block.first_row, block_end)) {
      ++stats->column_blocks_skipped;
      continue;
    }
    if (options.use_data_skipping &&
        SmaSkips(block.int_sma, block.str_sma, bp)) {
      // Block SMA proves no row in this block matches: drop them all.
      candidates->RemoveRange(block.first_row, block_end);
      ++stats->column_blocks_skipped;
      continue;
    }
    if (options.use_data_skipping && BlockSmaCovers(block, bp)) {
      // Block SMA proves every row in this block matches: keep them all
      // without reading, verifying or decoding the block.
      ++stats->column_blocks_skipped;
      continue;
    }
    to_scan.push_back(b);
  }

  if (options.use_prefetch && to_scan.size() > 1) {
    std::vector<ByteRange> ranges;
    ranges.reserve(to_scan.size());
    for (size_t b : to_scan) {
      auto range = reader->ColumnBlockRange(bp.col, b);
      if (range.ok()) ranges.push_back(*range);
    }
    (void)reader->Prefetch(ranges, options.prefetch_owner);
  }

  std::vector<uint64_t> words;  // reused across blocks
  for (size_t b : to_scan) {
    if (Cancelled(options)) return CancelledStatus();
    auto decoded = cache->Get(bp.col, b, stats);
    if (!decoded.ok()) return decoded.status();
    ++stats->column_blocks_scanned;
    const auto& block = col_meta.blocks[b];

    words.assign((block.row_count + 63) / 64, 0);
    const auto kernel_start = std::chrono::steady_clock::now();
    const uint32_t hits =
        vectorized::Filter(bp, (*decoded)->ints.data(),
                           (*decoded)->strs.data(), block.row_count,
                           words.data());
    stats->vectorized_kernel_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - kernel_start)
            .count());
    stats->vectorized_rows_scanned += block.row_count;
    stats->vectorized_bitmap_hits += hits;
    candidates->IntersectBitmap(block.first_row, words.data(),
                                block.row_count);
  }
  return Status::OK();
}

// Folds the surviving rows into a partial aggregate directly over the
// decoded column vectors — no row materialization, no projection IO beyond
// the aggregated column (kCount needs no data IO at all).
Status AggregateCandidates(LogBlockReader* reader, const LogQuery& query,
                           const BoundQuery& bound, const ExecOptions& options,
                           const index::RowIdSet& candidates,
                           DecodedBlockCache* cache, BlockExecResult* result) {
  const uint64_t matched = candidates.Count();
  result->stats.rows_matched = matched;
  AggFold fold(query.agg.kind);
  if (query.agg.kind == Aggregate::Kind::kCount || matched == 0) {
    result->agg = fold.Finish(matched);
    return Status::OK();
  }

  const size_t col = bound.agg_col;
  const auto& blocks = reader->meta().columns[col].blocks;
  std::vector<size_t> to_scan;
  for (size_t b = 0; b < blocks.size(); ++b) {
    const auto& block = blocks[b];
    if (candidates.AnyInRange(block.first_row,
                              block.first_row + block.row_count)) {
      to_scan.push_back(b);
    }
  }
  if (options.use_prefetch && to_scan.size() > 1) {
    std::vector<ByteRange> ranges;
    ranges.reserve(to_scan.size());
    for (size_t b : to_scan) {
      auto range = reader->ColumnBlockRange(col, b);
      if (range.ok()) ranges.push_back(*range);
    }
    (void)reader->Prefetch(ranges, options.prefetch_owner);
  }

  for (size_t b : to_scan) {
    if (Cancelled(options)) return CancelledStatus();
    auto decoded = cache->Get(col, b, &result->stats);
    if (!decoded.ok()) return decoded.status();
    const auto& block = blocks[b];
    const logblock::DecodedColumnBlock& vec = **decoded;
    candidates.ForEachInRange(
        block.first_row, block.first_row + block.row_count, [&](uint32_t r) {
          const uint32_t off = r - block.first_row;
          bound.agg_is_int ? fold.Add(vec.ints[off]) : fold.Add(vec.strs[off]);
        });
  }
  result->agg = fold.Finish(matched);
  return Status::OK();
}

}  // namespace

FilteredBlock::FilteredBlock(LogBlockReader* reader, const LogQuery& query,
                             const ExecOptions& options)
    : reader_(reader),
      query_(&query),
      options_(options),
      cache_(std::make_unique<DecodedBlockCache>(reader)) {
  result_.agg.kind = query.agg.kind;
}

FilteredBlock::FilteredBlock(FilteredBlock&&) noexcept = default;
FilteredBlock& FilteredBlock::operator=(FilteredBlock&&) noexcept = default;
FilteredBlock::~FilteredBlock() = default;

Result<FilteredBlock> FilterLogBlock(LogBlockReader* reader,
                                     const LogQuery& query,
                                     const ExecOptions& options) {
  const uint32_t num_rows = reader->num_rows();
  auto bound = Bind(query, reader->schema());
  if (!bound.ok()) return bound.status();

  FilteredBlock block(reader, query, options);
  BlockExecStats* stats = &block.result_.stats;
  block.bound_ = std::move(bound).value();
  const std::vector<BoundPredicate>& preds = block.bound_.filter;

  // Figure 8 step 2: whole-block skip via column SMA.
  if (options.use_data_skipping) {
    for (const BoundPredicate& bp : preds) {
      const auto& col_meta = reader->meta().columns[bp.col];
      if (SmaSkips(col_meta.int_sma, col_meta.str_sma, bp)) {
        stats->skipped_by_column_sma = true;
        return block;
      }
    }
  }

  block.candidates_ = index::RowIdSet::All(num_rows);
  index::RowIdSet& candidates = block.candidates_;

  // Figure 8 step 3: index probes, cheapest filters first.
  std::vector<const BoundPredicate*> residual;
  if (options.use_data_skipping) {
    // Prefetch the index structures we are about to probe in one batch:
    // BKD members whole, inverted term dictionaries (postings ranges are
    // resolved and prefetched inside the probe).
    if (options.use_prefetch) {
      std::vector<ByteRange> index_ranges;
      for (const BoundPredicate& bp : preds) {
        if (!IndexServes(*reader, bp)) continue;
        const auto member_name =
            bp.pred.kind == Predicate::Kind::kInt64Compare
                ? logblock::IndexMemberName(bp.col)
                : logblock::IndexDictMemberName(bp.col);
        auto range = reader->MemberRange(member_name);
        if (range.ok()) index_ranges.push_back(*range);
      }
      if (!index_ranges.empty()) {
        (void)reader->Prefetch(index_ranges, options.prefetch_owner);
      }
    }
    for (const BoundPredicate& bp : preds) {
      if (!IndexServes(*reader, bp)) {
        residual.push_back(&bp);
        continue;
      }
      if (Cancelled(options)) return CancelledStatus();
      auto rows = ProbeIndex(reader, bp, num_rows);
      if (!rows.ok()) return rows.status();
      ++stats->index_probes;
      candidates.IntersectWith(*rows);
      if (candidates.Empty()) return block;
    }
  } else {
    for (const BoundPredicate& bp : preds) residual.push_back(&bp);
  }

  // Figure 8 step 4: residual predicates via block SMA + scan.
  for (const BoundPredicate* bp : residual) {
    if (Cancelled(options)) return CancelledStatus();
    LOGSTORE_RETURN_IF_ERROR(ApplyResidual(reader, *bp, options,
                                           block.cache_.get(), &candidates,
                                           stats));
    if (candidates.Empty()) return block;
  }

  // Aggregate queries ship a partial aggregate instead of rows: fold the
  // surviving candidates directly over the decoded vectors.
  if (query.is_aggregate()) {
    LOGSTORE_RETURN_IF_ERROR(AggregateCandidates(
        reader, query, block.bound_, options, candidates, block.cache_.get(),
        &block.result_));
  }
  block.matched_ = candidates.Count();
  return block;
}

Result<BlockExecResult> FilteredBlock::Gather(uint64_t n) {
  if (query_->is_aggregate() || n == 0 || matched_ == 0) {
    return std::move(result_);
  }
  const logblock::Schema& schema = reader_->schema();

  // The first n surviving rows, ascending.
  const std::vector<uint32_t> rows = candidates_.ToVector(n);
  result_.stats.rows_matched = rows.size();

  const std::vector<size_t>& out_cols = bound_.projection;

  if (options_.use_prefetch) {
    std::vector<ByteRange> ranges;
    for (size_t c : out_cols) {
      const auto& blocks = reader_->meta().columns[c].blocks;
      // `rows` is ascending and blocks partition the row space in order, so
      // one forward sweep finds every block holding a surviving row.
      size_t next_row = 0;
      for (size_t b = 0; b < blocks.size() && next_row < rows.size(); ++b) {
        const auto& block = blocks[b];
        const uint32_t block_end = block.first_row + block.row_count;
        while (next_row < rows.size() && rows[next_row] < block.first_row) {
          ++next_row;
        }
        if (next_row < rows.size() && rows[next_row] < block_end) {
          auto range = reader_->ColumnBlockRange(c, b);
          if (range.ok()) ranges.push_back(*range);
          while (next_row < rows.size() && rows[next_row] < block_end) {
            ++next_row;
          }
        }
      }
    }
    if (ranges.size() > 1) {
      (void)reader_->Prefetch(ranges, options_.prefetch_owner);
    }
  }

  // Gather column-wise through the decode cache (a block the residual scan
  // already decoded is not decoded again), then transpose to rows.
  std::vector<std::vector<Value>> columns(out_cols.size());
  for (size_t i = 0; i < out_cols.size(); ++i) {
    if (Cancelled(options_)) return CancelledStatus();
    const size_t c = out_cols[i];
    const bool is_int = schema.column(c).type == ColumnType::kInt64;
    const auto& blocks = reader_->meta().columns[c].blocks;
    std::vector<Value>& out = columns[i];
    out.reserve(rows.size());
    size_t next = 0;
    for (size_t b = 0; b < blocks.size() && next < rows.size(); ++b) {
      const auto& block = blocks[b];
      const uint32_t block_end = block.first_row + block.row_count;
      if (rows[next] >= block_end) continue;
      auto decoded = cache_->Get(c, b, &result_.stats);
      if (!decoded.ok()) return decoded.status();
      const logblock::DecodedColumnBlock& vec = **decoded;
      for (; next < rows.size() && rows[next] < block_end; ++next) {
        const uint32_t off = rows[next] - block.first_row;
        out.push_back(is_int ? Value::Int64(vec.ints[off])
                             : Value::String(std::string(vec.strs[off])));
      }
    }
  }
  result_.rows.resize(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    result_.rows[r].reserve(out_cols.size());
    for (size_t i = 0; i < out_cols.size(); ++i) {
      result_.rows[r].push_back(std::move(columns[i][r]));
    }
  }
  return std::move(result_);
}

Result<BlockExecResult> ExecuteOnLogBlock(LogBlockReader* reader,
                                          const LogQuery& query,
                                          const ExecOptions& options) {
  auto filtered = FilterLogBlock(reader, query, options);
  if (!filtered.ok()) return filtered.status();
  return filtered->Gather(query.limit == 0 ? filtered->matched()
                                           : query.limit);
}

}  // namespace logstore::query
