#include "logblock/logblock_writer.h"

#include "common/coding.h"
#include "common/crc32c.h"
#include "index/bkd_tree.h"
#include "index/inverted_index.h"
#include "objectstore/tar_file.h"

namespace logstore::logblock {

namespace {

// A column block closes at options.rows_per_block rows or before the row
// that would take its encoded values past this many bytes, whichever comes
// first, so a gather that needs a few wide values decodes about this much
// instead of rows_per_block of them. A block always holds at least one row:
// a wider value gets a block of its own.
constexpr size_t kBlockTargetBytes = 32 << 10;

}  // namespace

Result<BuiltLogBlock> BuildLogBlock(const RowBatch& rows, uint64_t tenant_id,
                                    const LogBlockWriterOptions& options) {
  if (rows.num_rows() == 0) {
    return Status::InvalidArgument("cannot build an empty LogBlock");
  }
  const compress::Codec* codec = compress::GetCodec(options.codec);
  if (codec == nullptr) {
    return Status::InvalidArgument("unknown codec");
  }
  if (options.rows_per_block == 0) {
    return Status::InvalidArgument("rows_per_block must be positive");
  }

  const Schema& schema = rows.schema();
  const uint32_t num_rows = rows.num_rows();

  LogBlockMeta meta;
  meta.schema = schema;
  meta.row_count = num_rows;
  meta.codec = options.codec;
  meta.tenant_id = tenant_id;
  meta.columns.resize(schema.num_columns());

  objectstore::TarWriter tar;

  // Per-column: build data member (column block chunks) and index members.
  std::vector<std::string> data_members(schema.num_columns());
  std::vector<std::string> index_members(schema.num_columns());  // BKD
  std::vector<index::SerializedInvertedIndex> inverted_members(
      schema.num_columns());

  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const ColumnDef& def = schema.column(c);
    ColumnMeta& col_meta = meta.columns[c];
    col_meta.index_type = def.index_type();

    std::string& data = data_members[c];
    // Closes the open block: rows [block.first_row, end), whose encoded
    // values are the first `len` bytes of `values`. The chunk is
    // [varint32 bitset_len = 0][masked CRC32C][compressed values]: every
    // row is valid, so no validity bitmap (Figure 4 part 5) is stored, and
    // the CRC covers the compressed payload, catching storage/transfer
    // corruption before decode.
    ColumnBlockMeta block;
    std::string values;
    auto close_block = [&](uint32_t end, size_t len) -> Status {
      block.row_count = end - block.first_row;
      block.offset = data.size();
      PutVarint32(&data, 0);
      const size_t crc_at = data.size();
      const size_t payload_at = crc_at + 4;
      PutFixed32(&data, 0);
      LOGSTORE_RETURN_IF_ERROR(
          codec->Compress(Slice(values.data(), len), &data));
      EncodeFixed32(&data[crc_at],
                    crc32c::Mask(crc32c::Value(data.data() + payload_at,
                                               data.size() - payload_at)));
      block.size = data.size() - block.offset;
      col_meta.int_sma.Merge(block.int_sma);
      col_meta.str_sma.Merge(block.str_sma);
      col_meta.blocks.push_back(std::move(block));
      block = ColumnBlockMeta();
      block.first_row = end;
      values.erase(0, len);
      return Status::OK();
    };
    // One pass over the rows: encode each value uncompressed (a zigzag
    // varint, or a length-prefixed string), close the open block first if
    // the value takes it past the byte target, and fold the value into its
    // block's SMA (Figure 4 part 4).
    const bool is_int = def.type == ColumnType::kInt64;
    for (uint32_t r = 0; r < num_rows; ++r) {
      const size_t before = values.size();
      if (is_int) {
        PutVarsint64(&values, rows.Int64At(c, r));
      } else {
        PutLengthPrefixedSlice(&values, rows.StringAt(c, r));
      }
      if (r > block.first_row && values.size() > kBlockTargetBytes) {
        LOGSTORE_RETURN_IF_ERROR(close_block(r, before));
      }
      if (is_int) {
        block.int_sma.Update(rows.Int64At(c, r));
      } else {
        block.str_sma.Update(rows.StringAt(c, r));
      }
      if (r + 1 - block.first_row == options.rows_per_block) {
        LOGSTORE_RETURN_IF_ERROR(close_block(r + 1, values.size()));
      }
    }
    if (block.first_row < num_rows) {
      LOGSTORE_RETURN_IF_ERROR(close_block(num_rows, values.size()));
    }

    // Column index (Figure 4 part 3).
    switch (col_meta.index_type) {
      case IndexType::kInverted: {
        index::InvertedIndexWriter writer(
            def.analyzer != Analyzer::kTokensOnly,
            def.analyzer != Analyzer::kExactOnly);
        for (uint32_t r = 0; r < num_rows; ++r) {
          writer.Add(r, rows.StringAt(c, r));
        }
        inverted_members[c] = writer.Finish();
        break;
      }
      case IndexType::kBkd: {
        index::BkdTreeWriter writer(options.bkd_leaf_size);
        for (uint32_t r = 0; r < num_rows; ++r) {
          writer.Add(rows.Int64At(c, r), r);
        }
        index_members[c] = writer.Finish();
        break;
      }
      case IndexType::kNone:
        break;
    }
    col_meta.index_size = index_members[c].size() +
                          inverted_members[c].dict.size() +
                          inverted_members[c].postings.size();
  }

  // Time span for the LogBlock map.
  if (!options.ts_column.empty()) {
    const int ts_col = schema.FindColumn(options.ts_column);
    if (ts_col >= 0 && schema.column(ts_col).type == ColumnType::kInt64) {
      meta.min_ts = meta.columns[ts_col].int_sma.min;
      meta.max_ts = meta.columns[ts_col].int_sma.max;
    }
  }

  // Assemble the tar: meta first so readers can fetch it with the header.
  std::string meta_bytes;
  meta.EncodeTo(&meta_bytes);
  LOGSTORE_RETURN_IF_ERROR(tar.AddMember(MetaMemberName(), meta_bytes));
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (!index_members[c].empty()) {
      LOGSTORE_RETURN_IF_ERROR(
          tar.AddMember(IndexMemberName(c), index_members[c]));
    }
    if (meta.columns[c].index_type == IndexType::kInverted) {
      LOGSTORE_RETURN_IF_ERROR(
          tar.AddMember(IndexDictMemberName(c), inverted_members[c].dict));
      LOGSTORE_RETURN_IF_ERROR(tar.AddMember(IndexPostingsMemberName(c),
                                             inverted_members[c].postings));
    }
  }
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    LOGSTORE_RETURN_IF_ERROR(tar.AddMember(DataMemberName(c), data_members[c]));
  }

  BuiltLogBlock built;
  built.data = tar.Finish();
  built.meta = std::move(meta);
  return built;
}

}  // namespace logstore::logblock
