#include "logblock/format.h"

#include "common/coding.h"

namespace logstore::logblock {

namespace {
constexpr uint32_t kMetaMagic = 0x4c424d31;  // "LBM1"
// Fewest bytes one encoded ColumnBlockMeta takes: four one-byte varints
// (row count, first row, offset, size), an Int64Sma of three one-byte
// varints and a StringSma of two empty strings and a one-byte count.
constexpr size_t kMinBlockMetaBytes = 10;
}  // namespace

void LogBlockMeta::EncodeTo(std::string* dst) const {
  PutFixed32(dst, kMetaMagic);
  schema.EncodeTo(dst);
  PutVarint32(dst, row_count);
  dst->push_back(static_cast<char>(codec));
  PutVarint64(dst, tenant_id);
  PutVarsint64(dst, min_ts);
  PutVarsint64(dst, max_ts);
  PutVarint32(dst, static_cast<uint32_t>(columns.size()));
  for (const ColumnMeta& col : columns) {
    dst->push_back(static_cast<char>(col.index_type));
    PutVarint64(dst, col.index_size);
    col.int_sma.EncodeTo(dst);
    col.str_sma.EncodeTo(dst);
    PutVarint32(dst, static_cast<uint32_t>(col.blocks.size()));
    for (const ColumnBlockMeta& block : col.blocks) {
      PutVarint32(dst, block.row_count);
      PutVarint32(dst, block.first_row);
      PutVarint64(dst, block.offset);
      PutVarint64(dst, block.size);
      block.int_sma.EncodeTo(dst);
      block.str_sma.EncodeTo(dst);
    }
  }
}

Result<LogBlockMeta> LogBlockMeta::DecodeFrom(Slice* input) {
  uint32_t magic;
  if (!GetFixed32(input, &magic) || magic != kMetaMagic) {
    return Status::Corruption("logblock meta: bad magic");
  }
  LogBlockMeta meta;
  auto schema = Schema::DecodeFrom(input);
  if (!schema.ok()) return schema.status();
  meta.schema = std::move(schema).value();

  if (!GetVarint32(input, &meta.row_count) || input->empty()) {
    return Status::Corruption("logblock meta: truncated header");
  }
  meta.codec = static_cast<compress::CodecType>((*input)[0]);
  input->remove_prefix(1);
  if (compress::GetCodec(meta.codec) == nullptr) {
    return Status::Corruption("logblock meta: unknown codec");
  }

  uint32_t column_count;
  if (!GetVarint64(input, &meta.tenant_id) ||
      !GetVarsint64(input, &meta.min_ts) ||
      !GetVarsint64(input, &meta.max_ts) ||
      !GetVarint32(input, &column_count)) {
    return Status::Corruption("logblock meta: truncated header");
  }
  if (column_count != meta.schema.num_columns()) {
    return Status::Corruption("logblock meta: column count mismatch");
  }

  meta.columns.resize(column_count);
  for (uint32_t c = 0; c < column_count; ++c) {
    ColumnMeta& col = meta.columns[c];
    if (input->empty()) return Status::Corruption("logblock meta: truncated");
    col.index_type = static_cast<IndexType>((*input)[0]);
    input->remove_prefix(1);
    uint32_t block_count;
    if (!GetVarint64(input, &col.index_size) ||
        !col.int_sma.DecodeFrom(input) || !col.str_sma.DecodeFrom(input) ||
        !GetVarint32(input, &block_count)) {
      return Status::Corruption("logblock meta: truncated column meta");
    }
    // Each block holds at least one row and takes at least
    // kMinBlockMetaBytes, so a larger count is corrupt; checking first
    // keeps a hostile count from sizing the vector.
    if (block_count > meta.row_count ||
        block_count > input->size() / kMinBlockMetaBytes) {
      return Status::Corruption("logblock meta: bad column block count");
    }
    col.blocks.resize(block_count);
    // The blocks must partition the rows: non-empty, in order, from row 0
    // to row_count with no gap or overlap. Readers locate a row's value in
    // each column's own block list, so every list must cover every row.
    uint64_t next_row = 0;
    for (uint32_t b = 0; b < block_count; ++b) {
      ColumnBlockMeta& block = col.blocks[b];
      if (!GetVarint32(input, &block.row_count) ||
          !GetVarint32(input, &block.first_row) ||
          !GetVarint64(input, &block.offset) ||
          !GetVarint64(input, &block.size) ||
          !block.int_sma.DecodeFrom(input) ||
          !block.str_sma.DecodeFrom(input)) {
        return Status::Corruption("logblock meta: truncated block meta");
      }
      if (block.row_count == 0 || block.first_row != next_row) {
        return Status::Corruption(
            "logblock meta: column blocks do not partition the rows");
      }
      next_row += block.row_count;
    }
    if (next_row != meta.row_count) {
      return Status::Corruption(
          "logblock meta: column blocks do not partition the rows");
    }
  }
  return meta;
}

}  // namespace logstore::logblock
