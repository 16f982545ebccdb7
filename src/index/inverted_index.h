#ifndef LOGSTORE_INDEX_INVERTED_INDEX_H_
#define LOGSTORE_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "index/rowid_set.h"

namespace logstore::index {

// A token character is an ASCII letter or digit, [A-Za-z0-9]; every other
// byte, including each byte >= 0x80, separates tokens. (This is what
// std::isalnum accepts in the C locale, without the locale lookup.) The
// index writer, Tokenize, the dict's token lookup and the MATCH scan
// kernel all use these two helpers, so they agree on every byte.
inline bool IsTokenChar(char c) {
  const unsigned u = static_cast<unsigned char>(c);
  return u - '0' < 10u || (u | 0x20u) - 'a' < 26u;
}

// Lower-cases an ASCII letter and returns every other byte unchanged.
inline char ToLowerAscii(char c) {
  const unsigned u = static_cast<unsigned char>(c);
  return u - 'A' < 26u ? static_cast<char>(u | 0x20u) : c;
}

// Tokenizes `text` into lower-cased alphanumeric terms (runs of [a-z0-9]).
// This is the analyzer used for full-text MATCH queries on log bodies.
std::vector<std::string> Tokenize(const Slice& text);

// High-entropy identifiers (request ids, hashes) are not indexed: they
// would dominate the term dictionary without ever serving as search keys.
// Queries containing such tokens fall back to scanning.
inline bool IsIndexableToken(const std::string& token) {
  return token.size() < 8 ||
         token.find_first_of("0123456789") == std::string::npos;
}

// ---------------------------------------------------------------------------
// Inverted index for string columns (§3.2), Lucene-style two-part layout:
//
//   dict:      varint32 term_count, then per term (sorted):
//              length-prefixed term, varint32 doc_count,
//              varint64 postings_offset, varint32 postings_len;
//              then a fixed32 per-term offset directory + fixed32 dir start
//   postings:  concatenated delta-varint row-id lists
//
// The dictionary is small (distinct terms) and fetched once per query; a
// term probe then range-reads ONLY its postings bytes from remote storage,
// so a selective MATCH costs far less than scanning the column. Two kinds
// of terms are indexed per value, controlled by the column's Analyzer:
//   - the exact raw value under a reserved '=' prefix (col = 'v' probes)
//   - each analyzed token (full-text MATCH probes)
// ---------------------------------------------------------------------------

struct SerializedInvertedIndex {
  std::string dict;
  std::string postings;
};

class InvertedIndexWriter {
 public:
  // `index_exact` / `index_tokens` select which term classes are built;
  // identifier columns need only exact terms, free-text columns only
  // tokens (the column's Analyzer in the schema records the choice).
  explicit InvertedIndexWriter(bool index_exact = true,
                               bool index_tokens = true)
      : index_exact_(index_exact), index_tokens_(index_tokens) {}

  // Indexes the exact value and/or its tokens for `row`. Rows are added in
  // ascending order; a term repeated within one row is posted once.
  void Add(uint32_t row, const Slice& value);

  // Serializes the index, terms in byte order; the writer is left empty.
  SerializedInvertedIndex Finish();

  size_t term_count() const { return terms_.size(); }

  // Reserved prefix for exact-value terms. '=' cannot appear in analyzed
  // tokens so exact and token namespaces never collide.
  static std::string ExactTerm(const Slice& value) {
    return "=" + value.ToString();
  }

 private:
  // One distinct term: its bytes in term_bytes_ and the rows it occurs in.
  struct Term {
    uint64_t hash;
    size_t offset;
    size_t size;
    std::vector<uint32_t> rows;
  };

  std::string_view TermBytes(const Term& term) const {
    return std::string_view(term_bytes_).substr(term.offset, term.size);
  }

  // Appends `row` to `term`'s postings unless it is already the last one,
  // adding the term the first time it is seen.
  void Post(std::string_view term, uint32_t row);
  // Doubles slots_ and re-slots every term.
  void Grow();

  const bool index_exact_;
  const bool index_tokens_;
  // The term hash map: open addressing with linear probing, each slot 0
  // (empty) or 1 + an index into terms_, grown before it is half full.
  // terms_ stays in first-seen order until Finish sorts it once.
  std::vector<uint32_t> slots_;
  std::vector<Term> terms_;
  std::string term_bytes_;  // every distinct term, back to back
  std::string term_;        // scratch for the term being posted
};

// Byte range of one term's postings within the postings member.
struct PostingsRef {
  uint32_t doc_count = 0;
  uint64_t offset = 0;
  uint32_t length = 0;
};

// Parses the term dictionary; supports binary-searched term lookup without
// touching any postings bytes.
class InvertedIndexDict {
 public:
  // `data` is copied so the dict owns its bytes (usually cached).
  static Result<InvertedIndexDict> Open(std::string data);

  // Byte range of `term`'s postings, or nullopt if absent.
  std::optional<PostingsRef> Lookup(const Slice& term) const;

  // Case-folded token lookup (MATCH semantics).
  std::optional<PostingsRef> LookupToken(const Slice& token) const;

  size_t term_count() const { return term_offsets_.size(); }

 private:
  Slice TermAt(size_t i) const;

  std::string data_;
  std::vector<uint32_t> term_offsets_;  // into data_, sorted by term
};

// Decodes one term's postings bytes into a row-id set.
Result<RowIdSet> DecodePostings(const Slice& postings, uint32_t doc_count,
                                uint32_t num_rows);

// Convenience fully-in-memory reader over (dict, postings) — used by tests
// and by callers that already hold both parts.
class InvertedIndexReader {
 public:
  static Result<InvertedIndexReader> Open(SerializedInvertedIndex serialized);

  RowIdSet LookupExact(const Slice& value, uint32_t num_rows) const;
  RowIdSet LookupToken(const Slice& token, uint32_t num_rows) const;
  // Rows matching ALL tokens of `text` (conjunctive full-text match).
  RowIdSet MatchAllTokens(const Slice& text, uint32_t num_rows) const;

  size_t term_count() const { return dict_.term_count(); }
  const InvertedIndexDict& dict() const { return dict_; }

 private:
  RowIdSet Resolve(const std::optional<PostingsRef>& ref,
                   uint32_t num_rows) const;

  InvertedIndexDict dict_;
  std::string postings_;
};

}  // namespace logstore::index

#endif  // LOGSTORE_INDEX_INVERTED_INDEX_H_
