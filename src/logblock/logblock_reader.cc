#include "logblock/logblock_reader.h"

#include <algorithm>

#include "common/coding.h"
#include "common/crc32c.h"

namespace logstore::logblock {

namespace {

// A source returning fewer bytes than a member's recorded extent means the
// object was truncated in flight (or on the store). Classified as IOError —
// the transient/retryable class — not Corruption, so a retrying source
// above can be given another chance by the caller.
Status CheckFullRead(const std::string& bytes, uint64_t want,
                     const char* what) {
  if (bytes.size() < want) {
    return Status::IOError(std::string("truncated read of ") + what +
                           ": got " + std::to_string(bytes.size()) + " of " +
                           std::to_string(want) + " bytes");
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<LogBlockReader>> LogBlockReader::Open(
    std::shared_ptr<LogBlockSource> source) {
  // 1. Fixed-size prologue tells us the tar header extent.
  auto prologue =
      source->ReadRange(0, objectstore::TarReader::kPrologueSize);
  if (!prologue.ok()) return prologue.status();
  auto header_size = objectstore::TarReader::HeaderSize(*prologue);
  if (!header_size.ok()) return header_size.status();

  // 2. Fetch the full tar header and parse the manifest.
  auto head = source->ReadRange(0, *header_size);
  if (!head.ok()) return head.status();
  LOGSTORE_RETURN_IF_ERROR(CheckFullRead(*head, *header_size, "tar header"));
  auto tar = objectstore::TarReader::Parse(*head);
  if (!tar.ok()) return tar.status();

  // 3. Fetch and decode the meta member.
  auto meta_member = tar->Find(MetaMemberName());
  if (!meta_member.ok()) return meta_member.status();
  auto meta_bytes = source->ReadRange(meta_member->offset, meta_member->size);
  if (!meta_bytes.ok()) return meta_bytes.status();
  LOGSTORE_RETURN_IF_ERROR(
      CheckFullRead(*meta_bytes, meta_member->size, "meta member"));
  Slice meta_in(*meta_bytes);
  auto meta = LogBlockMeta::DecodeFrom(&meta_in);
  if (!meta.ok()) return meta.status();

  // Every column block's chunk must lie inside its column's data member,
  // so a read planned from the meta never leaves that member.
  for (size_t c = 0; c < meta->columns.size(); ++c) {
    const auto& blocks = meta->columns[c].blocks;
    if (blocks.empty()) continue;
    auto data = tar->Find(DataMemberName(c));
    if (!data.ok()) {
      return Status::Corruption("logblock: no member " + DataMemberName(c));
    }
    for (const ColumnBlockMeta& block : blocks) {
      if (block.offset > data->size || block.size > data->size - block.offset) {
        return Status::Corruption("logblock meta: column block outside " +
                                  DataMemberName(c));
      }
    }
  }

  std::unique_ptr<LogBlockReader> reader(new LogBlockReader());
  reader->source_ = std::move(source);
  reader->tar_ = std::move(tar).value();
  reader->meta_ = std::move(meta).value();
  return reader;
}

Result<ByteRange> LogBlockReader::MemberRange(const std::string& name) const {
  auto member = tar_.Find(name);
  if (!member.ok()) return member.status();
  return ByteRange{member->offset, member->size};
}

Result<ByteRange> LogBlockReader::ColumnBlockRange(size_t col,
                                                   size_t block_idx) const {
  if (col >= meta_.columns.size()) {
    return Status::InvalidArgument("column out of range");
  }
  if (block_idx >= meta_.columns[col].blocks.size()) {
    return Status::InvalidArgument("block out of range");
  }
  auto member = tar_.Find(DataMemberName(col));
  if (!member.ok()) return member.status();
  const ColumnBlockMeta& block = meta_.columns[col].blocks[block_idx];
  return ByteRange{member->offset + block.offset, block.size};
}

Result<std::shared_ptr<index::InvertedIndexDict>> LogBlockReader::InvertedDict(
    size_t col) {
  if (col >= meta_.columns.size() ||
      meta_.columns[col].index_type != IndexType::kInverted) {
    return Status::NotFound("column has no inverted index");
  }
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = dict_cache_.find(col);
    if (it != dict_cache_.end()) return it->second;
  }
  auto range = MemberRange(IndexDictMemberName(col));
  if (!range.ok()) return range.status();
  auto bytes = source_->ReadRange(range->offset, range->size);
  if (!bytes.ok()) return bytes.status();
  LOGSTORE_RETURN_IF_ERROR(CheckFullRead(*bytes, range->size, "index dict"));
  auto dict = index::InvertedIndexDict::Open(std::move(bytes).value());
  if (!dict.ok()) return dict.status();
  auto shared =
      std::make_shared<index::InvertedIndexDict>(std::move(dict).value());
  std::lock_guard<std::mutex> lock(cache_mu_);
  dict_cache_[col] = shared;
  return shared;
}

Result<index::RowIdSet> LogBlockReader::FetchPostings(
    size_t col, const index::PostingsRef& ref) {
  auto member = MemberRange(IndexPostingsMemberName(col));
  if (!member.ok()) return member.status();
  if (ref.offset + ref.length > member->size) {
    return Status::Corruption("postings ref out of member range");
  }
  auto bytes = source_->ReadRange(member->offset + ref.offset, ref.length);
  if (!bytes.ok()) return bytes.status();
  LOGSTORE_RETURN_IF_ERROR(CheckFullRead(*bytes, ref.length, "postings"));
  return index::DecodePostings(*bytes, ref.doc_count, meta_.row_count);
}

Result<index::RowIdSet> LogBlockReader::InvertedLookupExact(
    size_t col, const Slice& value) {
  auto dict = InvertedDict(col);
  if (!dict.ok()) return dict.status();
  const auto ref =
      (*dict)->Lookup(index::InvertedIndexWriter::ExactTerm(value));
  if (!ref.has_value()) return index::RowIdSet(meta_.row_count);
  return FetchPostings(col, *ref);
}

Result<index::RowIdSet> LogBlockReader::InvertedMatchAllTokens(
    size_t col, const Slice& text) {
  auto dict = InvertedDict(col);
  if (!dict.ok()) return dict.status();
  const auto tokens = index::Tokenize(text);
  if (tokens.empty()) return index::RowIdSet::All(meta_.row_count);

  // Resolve refs first; a missing token empties the conjunction without
  // any postings IO. Prefetch the postings ranges of the rest.
  std::vector<index::PostingsRef> refs;
  refs.reserve(tokens.size());
  for (const std::string& token : tokens) {
    const auto ref = (*dict)->LookupToken(token);
    if (!ref.has_value()) return index::RowIdSet(meta_.row_count);
    refs.push_back(*ref);
  }
  if (refs.size() > 1) {
    auto member = MemberRange(IndexPostingsMemberName(col));
    if (member.ok()) {
      std::vector<ByteRange> ranges;
      for (const auto& ref : refs) {
        ranges.push_back({member->offset + ref.offset, ref.length});
      }
      (void)source_->Prefetch(ranges);
    }
  }

  auto result = FetchPostings(col, refs[0]);
  if (!result.ok()) return result.status();
  for (size_t i = 1; i < refs.size() && !result->Empty(); ++i) {
    auto rows = FetchPostings(col, refs[i]);
    if (!rows.ok()) return rows.status();
    result->IntersectWith(*rows);
  }
  return result;
}

Result<std::shared_ptr<index::BkdTreeReader>> LogBlockReader::BkdIndex(
    size_t col) {
  if (col >= meta_.columns.size() ||
      meta_.columns[col].index_type != IndexType::kBkd) {
    return Status::NotFound("column has no BKD index");
  }
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = bkd_cache_.find(col);
    if (it != bkd_cache_.end()) return it->second;
  }
  auto range = MemberRange(IndexMemberName(col));
  if (!range.ok()) return range.status();
  auto bytes = source_->ReadRange(range->offset, range->size);
  if (!bytes.ok()) return bytes.status();
  LOGSTORE_RETURN_IF_ERROR(CheckFullRead(*bytes, range->size, "bkd index"));
  auto reader = index::BkdTreeReader::Open(std::move(bytes).value());
  if (!reader.ok()) return reader.status();
  auto shared =
      std::make_shared<index::BkdTreeReader>(std::move(reader).value());
  std::lock_guard<std::mutex> lock(cache_mu_);
  bkd_cache_[col] = shared;
  return shared;
}

Result<DecodedColumnBlock> LogBlockReader::ReadColumnBlock(size_t col,
                                                           size_t block_idx) {
  auto range = ColumnBlockRange(col, block_idx);
  if (!range.ok()) return range.status();
  auto chunk = source_->ReadRange(range->offset, range->size);
  if (!chunk.ok()) return chunk.status();
  LOGSTORE_RETURN_IF_ERROR(CheckFullRead(*chunk, range->size, "column block"));

  const ColumnBlockMeta& block_meta = meta_.columns[col].blocks[block_idx];
  Slice in(*chunk);
  // Validity bitmap: absent (every row valid, all a writer emits now) or
  // one bit per row (older LogBlocks, all ones). No row is ever null, so
  // its bits are skipped unread.
  uint32_t bitset_len;
  if (!GetVarint32(&in, &bitset_len) ||
      (bitset_len != 0 && bitset_len != (block_meta.row_count + 7) / 8) ||
      in.size() < bitset_len) {
    return Status::Corruption("column block: bad bitset");
  }
  in.remove_prefix(bitset_len);

  uint32_t masked_crc;
  if (!GetFixed32(&in, &masked_crc)) {
    return Status::Corruption("column block: missing checksum");
  }
  if (crc32c::Unmask(masked_crc) != crc32c::Value(in.data(), in.size())) {
    return Status::Corruption("column block: checksum mismatch");
  }

  const compress::Codec* codec = compress::GetCodec(meta_.codec);
  std::string values;
  LOGSTORE_RETURN_IF_ERROR(codec->Decompress(in, &values));

  // Batch decode: one tight loop filling a contiguous typed vector, instead
  // of a Get* + push_back round trip per value.
  DecodedColumnBlock decoded;
  decoded.first_row = block_meta.first_row;
  decoded.decompressed_bytes = values.size();
  Slice v;
  if (meta_.schema.column(col).type == ColumnType::kInt64) {
    v = Slice(values);
    if (!compress::DecodeVarsint64Batch(&v, block_meta.row_count,
                                        &decoded.ints)) {
      return Status::Corruption("column block: truncated int values");
    }
  } else {
    // String values are views into the decompressed bytes, so those move to
    // their final home before the views are taken.
    decoded.buffer = std::make_unique<const std::string>(std::move(values));
    v = Slice(*decoded.buffer);
    if (!compress::DecodeLengthPrefixedViews(&v, block_meta.row_count,
                                             &decoded.strs)) {
      return Status::Corruption("column block: truncated string values");
    }
  }
  if (!v.empty()) {
    return Status::Corruption("column block: trailing bytes");
  }
  return decoded;
}

}  // namespace logstore::logblock
