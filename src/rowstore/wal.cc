#include "rowstore/wal.h"

#include <cassert>
#include <cstring>

#include "common/coding.h"
#include "common/crc32c.h"

namespace logstore::rowstore {

using logblock::ColumnType;
using logblock::RowBatch;

std::string EncodeWalRecord(uint64_t tenant_id, const RowBatch& rows) {
  const logblock::Schema& schema = rows.schema();
  const uint32_t num_rows = rows.num_rows();
  // Size the record exactly, then encode it in one pass behind a CRC slot.
  size_t size = 4 + VarintLength(tenant_id) + VarintLength(num_rows);
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (schema.column(c).type == ColumnType::kInt64) {
      for (int64_t v : rows.Int64Column(c)) {
        size += VarintLength(ZigZagEncode64(v));
      }
    } else {
      for (const std::string& s : rows.StringColumn(c)) {
        size += VarintLength(s.size()) + s.size();
      }
    }
  }
  std::string out(size, '\0');
  char* p = EncodeVarint64(out.data() + 4, tenant_id);
  p = EncodeVarint64(p, num_rows);
  for (uint32_t r = 0; r < num_rows; ++r) {
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      if (schema.column(c).type == ColumnType::kInt64) {
        p = EncodeVarint64(p, ZigZagEncode64(rows.Int64At(c, r)));
      } else {
        const std::string& s = rows.StringAt(c, r);
        p = EncodeVarint64(p, s.size());
        memcpy(p, s.data(), s.size());
        p += s.size();
      }
    }
  }
  assert(p == out.data() + size);
  EncodeFixed32(out.data(),
                crc32c::Mask(crc32c::Value(out.data() + 4, size - 4)));
  return out;
}

Result<WalRecord> DecodeWalRecord(const Slice& payload,
                                  const logblock::Schema& schema) {
  Slice in = payload;
  uint32_t masked_crc;
  if (!GetFixed32(&in, &masked_crc)) {
    return Status::Corruption("wal record: missing crc");
  }
  if (crc32c::Unmask(masked_crc) != crc32c::Value(in.data(), in.size())) {
    return Status::Corruption("wal record: crc mismatch");
  }

  WalRecord record(schema);
  uint32_t row_count;
  if (!GetVarint64(&in, &record.tenant_id) || !GetVarint32(&in, &row_count)) {
    return Status::Corruption("wal record: bad header");
  }
  // Every value takes at least one byte, so a count the payload cannot
  // hold reserves nothing; decoding it then fails on the missing bytes.
  const size_t num_columns = schema.num_columns();
  if (num_columns > 0 && row_count <= in.size() / num_columns) {
    record.rows.Reserve(row_count);
  }
  for (uint32_t r = 0; r < row_count; ++r) {
    for (size_t c = 0; c < num_columns; ++c) {
      if (schema.column(c).type == ColumnType::kInt64) {
        int64_t v;
        if (!GetVarsint64(&in, &v)) {
          return Status::Corruption("wal record: truncated int value");
        }
        record.rows.PushInt64(c, v);
      } else {
        Slice s;
        if (!GetLengthPrefixedSlice(&in, &s)) {
          return Status::Corruption("wal record: truncated string value");
        }
        record.rows.PushString(c, s);
      }
    }
    record.rows.EndRow();
  }
  if (!in.empty()) return Status::Corruption("wal record: trailing bytes");
  return record;
}

}  // namespace logstore::rowstore
