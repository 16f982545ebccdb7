#ifndef LOGSTORE_LOGBLOCK_FORMAT_H_
#define LOGSTORE_LOGBLOCK_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "compress/codec.h"
#include "index/sma.h"
#include "logblock/schema.h"

namespace logstore::logblock {

// ---------------------------------------------------------------------------
// On-storage layout of a LogBlock (paper Figure 4).
//
// A LogBlock is one immutable object on the object store, packaged as a
// seekable tar (objectstore::TarWriter) with these members:
//
//   "meta"       part 1+2+4: schema info, row count, compress type, and per
//                column: index type, column SMA, and the column block
//                headers (row count, block SMA, data/bitset offsets)
//   "index/<i>"  part 3 for column ordinal i: inverted-index or BKD bytes
//   "data/<i>"   part 5: concatenated column block chunks; each chunk is
//                [varint32 bitset_len][bitset][fixed32 masked CRC32C]
//                [codec-compressed values]. bitset_len 0 means every row
//                is valid and no bitset follows; otherwise it is
//                (row_count + 7) / 8, one validity bit per row.
//
// Each column's blocks partition the LogBlock's rows: non-empty, in order,
// from row 0 to row_count. Columns need not share block boundaries; the
// writer closes a block at rows_per_block rows or at a byte target of
// encoded values, whichever comes first.
//
// The tar manifest plays the role of Figure 4's top-level offset table; the
// "meta" member carries everything needed to plan reads, so a query touches
// only: tar header -> meta -> (indexes it needs) -> (blocks it needs).
// ---------------------------------------------------------------------------

inline std::string MetaMemberName() { return "meta"; }
// BKD (numeric) indexes are one member; inverted indexes are split into a
// small term dictionary plus a postings member so probes can range-read
// only the postings of the probed terms (Lucene's tim/doc split).
inline std::string IndexMemberName(size_t col) {
  return "index/" + std::to_string(col);
}
inline std::string IndexDictMemberName(size_t col) {
  return "index/" + std::to_string(col) + ".dict";
}
inline std::string IndexPostingsMemberName(size_t col) {
  return "index/" + std::to_string(col) + ".post";
}
inline std::string DataMemberName(size_t col) {
  return "data/" + std::to_string(col);
}

// Header of one column block within a column's data member (Figure 4 part 4).
struct ColumnBlockMeta {
  uint32_t row_count = 0;
  uint32_t first_row = 0;  // global row id of the block's first row
  uint64_t offset = 0;     // chunk offset within "data/<i>"
  uint64_t size = 0;       // chunk size
  index::Int64Sma int_sma;
  index::StringSma str_sma;
};

// Figure 4 part 2: per-column metadata.
struct ColumnMeta {
  IndexType index_type = IndexType::kNone;
  uint64_t index_size = 0;  // size of "index/<i>" (0 when kNone)
  index::Int64Sma int_sma;
  index::StringSma str_sma;
  std::vector<ColumnBlockMeta> blocks;
};

// Figure 4 part 1 plus the column metas.
struct LogBlockMeta {
  Schema schema;
  uint32_t row_count = 0;
  compress::CodecType codec = compress::CodecType::kLzRatio;
  uint64_t tenant_id = 0;
  // Time span covered, for the tenant-level LogBlock map (§3.1/§5.1).
  int64_t min_ts = 0;
  int64_t max_ts = 0;
  std::vector<ColumnMeta> columns;

  void EncodeTo(std::string* dst) const;
  static Result<LogBlockMeta> DecodeFrom(Slice* input);
};

}  // namespace logstore::logblock

#endif  // LOGSTORE_LOGBLOCK_FORMAT_H_
