#ifndef LOGSTORE_LOGBLOCK_LOGBLOCK_READER_H_
#define LOGSTORE_LOGBLOCK_LOGBLOCK_READER_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/byte_range.h"
#include "common/result.h"
#include "index/bkd_tree.h"
#include "index/inverted_index.h"
#include "logblock/format.h"
#include "logblock/row_batch.h"
#include "objectstore/tar_file.h"

namespace logstore::logblock {

// Byte ranges within a LogBlock object are expressed with the shared
// logstore::ByteRange (common/byte_range.h).
using logstore::ByteRange;

// Abstraction over where LogBlock bytes come from: a raw string (tests), an
// object store key (possibly via caches), etc. Implementations must be
// thread-safe; queries fetch ranges concurrently.
class LogBlockSource {
 public:
  virtual ~LogBlockSource() = default;

  virtual Result<std::string> ReadRange(uint64_t offset, uint64_t size) = 0;

  // Hint that `ranges` will be read soon. Implementations may fetch them in
  // parallel into a cache (§5.2's parallel prefetch); the default is a
  // no-op. `owner` tags the request so a shared prefetch pool can schedule
  // fairly across concurrent queries (0 = untagged).
  virtual Status Prefetch(const std::vector<ByteRange>& ranges,
                          uint64_t owner = 0) {
    (void)ranges;
    (void)owner;
    return Status::OK();
  }
};

// In-memory source over a fully materialized LogBlock package.
class StringSource : public LogBlockSource {
 public:
  explicit StringSource(std::string data) : data_(std::move(data)) {}

  Result<std::string> ReadRange(uint64_t offset, uint64_t size) override {
    if (offset > data_.size()) {
      return Status::InvalidArgument("range offset beyond object");
    }
    const uint64_t n = std::min<uint64_t>(size, data_.size() - offset);
    return data_.substr(offset, n);
  }

 private:
  std::string data_;
};

// A decoded column block: exactly one of the two vectors is populated,
// matching the column type. String values are views into `buffer`, the
// block's decompressed value stream, so they are valid only while this
// block lives; copy a value to keep it longer. `buffer` is held through a
// pointer so that moving the block never moves the bytes the views read
// (a moved small std::string would move its inline bytes with it).
struct DecodedColumnBlock {
  uint32_t first_row = 0;
  uint64_t decompressed_bytes = 0;  // size of the decompressed value stream
  std::vector<int64_t> ints;
  std::vector<std::string_view> strs;
  std::unique_ptr<const std::string> buffer;

  uint32_t row_count() const {
    return static_cast<uint32_t>(ints.empty() ? strs.size() : ints.size());
  }
};

// Reads one LogBlock lazily: opening fetches only the tar header and the
// meta member; indexes and column blocks are fetched on demand (each is one
// ranged read against the source). Thread-safe; decoded indexes are cached
// internally so repeated predicates on the same column pay once.
class LogBlockReader {
 public:
  static Result<std::unique_ptr<LogBlockReader>> Open(
      std::shared_ptr<LogBlockSource> source);

  const LogBlockMeta& meta() const { return meta_; }
  const Schema& schema() const { return meta_.schema; }
  uint32_t num_rows() const { return meta_.row_count; }

  // Byte range of a tar member, for prefetch planning.
  Result<ByteRange> MemberRange(const std::string& name) const;

  // Byte range of one column block chunk.
  Result<ByteRange> ColumnBlockRange(size_t col, size_t block_idx) const;

  // Decoded per-column BKD index. NotFound if the column has no BKD index.
  Result<std::shared_ptr<index::BkdTreeReader>> BkdIndex(size_t col);

  // Inverted-index probes (Lucene-style lazy access): the term dictionary
  // member is fetched once and cached; each probed term then range-reads
  // only its own postings bytes — a selective term costs O(postings), not
  // O(index). NotFound if the column has no inverted index.
  Result<std::shared_ptr<index::InvertedIndexDict>> InvertedDict(size_t col);
  Result<index::RowIdSet> InvertedLookupExact(size_t col, const Slice& value);
  // Conjunction over all analyzed tokens of `text`.
  Result<index::RowIdSet> InvertedMatchAllTokens(size_t col,
                                                 const Slice& text);

  // Decodes one column block (bitset + decompression).
  Result<DecodedColumnBlock> ReadColumnBlock(size_t col, size_t block_idx);

  // Forwards a prefetch hint to the underlying source (§5.2).
  Status Prefetch(const std::vector<ByteRange>& ranges, uint64_t owner = 0) {
    return source_->Prefetch(ranges, owner);
  }

 private:
  LogBlockReader() = default;

  std::shared_ptr<LogBlockSource> source_;
  objectstore::TarReader tar_;
  LogBlockMeta meta_;

  // Fetches one term's postings as a row-id set.
  Result<index::RowIdSet> FetchPostings(size_t col,
                                        const index::PostingsRef& ref);

  std::mutex cache_mu_;
  std::map<size_t, std::shared_ptr<index::InvertedIndexDict>> dict_cache_;
  std::map<size_t, std::shared_ptr<index::BkdTreeReader>> bkd_cache_;
};

}  // namespace logstore::logblock

#endif  // LOGSTORE_LOGBLOCK_LOGBLOCK_READER_H_
