#include "index/inverted_index.h"

#include <algorithm>

#include "common/coding.h"
#include "common/hash.h"

namespace logstore::index {

std::vector<std::string> Tokenize(const Slice& text) {
  std::vector<std::string> tokens;
  std::string current;
  for (size_t i = 0; i < text.size(); ++i) {
    if (IsTokenChar(text[i])) {
      current.push_back(ToLowerAscii(text[i]));
    } else if (!current.empty()) {
      tokens.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

void InvertedIndexWriter::Post(std::string_view term, uint32_t row) {
  if (2 * (terms_.size() + 1) > slots_.size()) Grow();
  const uint64_t hash = Hash64(term);
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  for (; slots_[i] != 0; i = (i + 1) & mask) {
    Term& known = terms_[slots_[i] - 1];
    if (known.hash == hash && TermBytes(known) == term) {
      if (known.rows.back() != row) known.rows.push_back(row);
      return;
    }
  }
  slots_[i] = static_cast<uint32_t>(terms_.size() + 1);
  terms_.push_back({hash, term_bytes_.size(), term.size(), {row}});
  term_bytes_.append(term);
}

void InvertedIndexWriter::Grow() {
  slots_.assign(std::max<size_t>(64, 2 * slots_.size()), 0);
  const size_t mask = slots_.size() - 1;
  for (size_t id = 0; id < terms_.size(); ++id) {
    size_t i = terms_[id].hash & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(id + 1);
  }
}

void InvertedIndexWriter::Add(uint32_t row, const Slice& value) {
  if (index_exact_) {
    term_.assign(1, '=');
    term_.append(value.data(), value.size());
    Post(term_, row);
  }
  if (!index_tokens_) return;
  // Each token is lowered into term_ in place; the tokens of one value
  // are never longer than the value.
  if (term_.size() < value.size()) term_.resize(value.size());
  char* const out = term_.data();
  const char* p = value.data();
  const char* const end = p + value.size();
  while (p < end) {
    if (!IsTokenChar(*p)) {
      ++p;
      continue;
    }
    size_t len = 0;
    bool has_digit = false;
    do {
      const char c = ToLowerAscii(*p++);
      has_digit |= c <= '9';  // digits sort below every lowered letter
      out[len++] = c;
    } while (p < end && IsTokenChar(*p));
    // IsIndexableToken, without searching the token again for a digit.
    if (len < 8 || !has_digit) Post(std::string_view(out, len), row);
  }
}

SerializedInvertedIndex InvertedIndexWriter::Finish() {
  std::vector<const Term*> sorted;
  sorted.reserve(terms_.size());
  for (const Term& term : terms_) sorted.push_back(&term);
  std::sort(sorted.begin(), sorted.end(), [this](const Term* a, const Term* b) {
    return TermBytes(*a) < TermBytes(*b);
  });

  SerializedInvertedIndex out;

  // Postings first: per term, delta-varint row ids; record ranges.
  std::vector<PostingsRef> refs;
  refs.reserve(sorted.size());
  for (const Term* term : sorted) {
    PostingsRef ref;
    ref.doc_count = static_cast<uint32_t>(term->rows.size());
    ref.offset = out.postings.size();
    uint32_t prev = 0;
    for (uint32_t row : term->rows) {
      PutVarint32(&out.postings, row - prev);
      prev = row;
    }
    ref.length = static_cast<uint32_t>(out.postings.size() - ref.offset);
    refs.push_back(ref);
  }

  // Dictionary: sorted terms with their postings ranges, then a fixed32
  // per-term offset directory for binary search.
  PutVarint32(&out.dict, static_cast<uint32_t>(sorted.size()));
  std::vector<uint32_t> offsets;
  offsets.reserve(sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    offsets.push_back(static_cast<uint32_t>(out.dict.size()));
    PutLengthPrefixedSlice(&out.dict, TermBytes(*sorted[i]));
    PutVarint32(&out.dict, refs[i].doc_count);
    PutVarint64(&out.dict, refs[i].offset);
    PutVarint32(&out.dict, refs[i].length);
  }
  const uint32_t dir_offset = static_cast<uint32_t>(out.dict.size());
  for (uint32_t off : offsets) PutFixed32(&out.dict, off);
  PutFixed32(&out.dict, dir_offset);

  slots_.clear();
  terms_.clear();
  term_bytes_.clear();
  return out;
}

Result<InvertedIndexDict> InvertedIndexDict::Open(std::string data) {
  InvertedIndexDict dict;
  dict.data_ = std::move(data);
  const std::string& d = dict.data_;
  if (d.size() < sizeof(uint32_t)) {
    return Status::Corruption("inverted dict too small");
  }
  const uint32_t dir_offset = DecodeFixed32(d.data() + d.size() - 4);
  Slice head(d);
  uint32_t term_count;
  if (!GetVarint32(&head, &term_count)) {
    return Status::Corruption("inverted dict: bad term count");
  }
  const uint64_t dir_size = static_cast<uint64_t>(term_count) * 4;
  if (dir_offset + dir_size + 4 != d.size()) {
    return Status::Corruption("inverted dict: directory size mismatch");
  }
  dict.term_offsets_.reserve(term_count);
  for (uint32_t i = 0; i < term_count; ++i) {
    const uint32_t off = DecodeFixed32(d.data() + dir_offset + i * 4);
    if (off >= dir_offset) {
      return Status::Corruption("inverted dict: bad term offset");
    }
    dict.term_offsets_.push_back(off);
  }
  return dict;
}

Slice InvertedIndexDict::TermAt(size_t i) const {
  Slice entry(data_.data() + term_offsets_[i],
              data_.size() - term_offsets_[i]);
  Slice term;
  GetLengthPrefixedSlice(&entry, &term);
  return term;
}

std::optional<PostingsRef> InvertedIndexDict::Lookup(const Slice& term) const {
  size_t lo = 0, hi = term_offsets_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (TermAt(mid).compare(term) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == term_offsets_.size() || TermAt(lo) != term) return std::nullopt;

  Slice entry(data_.data() + term_offsets_[lo],
              data_.size() - term_offsets_[lo]);
  Slice t;
  PostingsRef ref;
  if (!GetLengthPrefixedSlice(&entry, &t) ||
      !GetVarint32(&entry, &ref.doc_count) ||
      !GetVarint64(&entry, &ref.offset) || !GetVarint32(&entry, &ref.length)) {
    return std::nullopt;
  }
  return ref;
}

std::optional<PostingsRef> InvertedIndexDict::LookupToken(
    const Slice& token) const {
  std::string lowered(token.data(), token.size());
  for (char& c : lowered) c = ToLowerAscii(c);
  return Lookup(lowered);
}

Result<RowIdSet> DecodePostings(const Slice& postings, uint32_t doc_count,
                                uint32_t num_rows) {
  RowIdSet result(num_rows);
  Slice in = postings;
  uint32_t row = 0;
  for (uint32_t i = 0; i < doc_count; ++i) {
    uint32_t delta;
    if (!GetVarint32(&in, &delta)) {
      return Status::Corruption("postings: truncated");
    }
    row += delta;
    if (row < num_rows) result.Add(row);
  }
  return result;
}

Result<InvertedIndexReader> InvertedIndexReader::Open(
    SerializedInvertedIndex serialized) {
  auto dict = InvertedIndexDict::Open(std::move(serialized.dict));
  if (!dict.ok()) return dict.status();
  InvertedIndexReader reader;
  reader.dict_ = std::move(dict).value();
  reader.postings_ = std::move(serialized.postings);
  return reader;
}

RowIdSet InvertedIndexReader::Resolve(const std::optional<PostingsRef>& ref,
                                      uint32_t num_rows) const {
  if (!ref.has_value() || ref->offset + ref->length > postings_.size()) {
    return RowIdSet(num_rows);
  }
  auto rows = DecodePostings(
      Slice(postings_.data() + ref->offset, ref->length), ref->doc_count,
      num_rows);
  return rows.ok() ? std::move(rows).value() : RowIdSet(num_rows);
}

RowIdSet InvertedIndexReader::LookupExact(const Slice& value,
                                          uint32_t num_rows) const {
  return Resolve(dict_.Lookup(InvertedIndexWriter::ExactTerm(value)),
                 num_rows);
}

RowIdSet InvertedIndexReader::LookupToken(const Slice& token,
                                          uint32_t num_rows) const {
  return Resolve(dict_.LookupToken(token), num_rows);
}

RowIdSet InvertedIndexReader::MatchAllTokens(const Slice& text,
                                             uint32_t num_rows) const {
  const std::vector<std::string> tokens = Tokenize(text);
  if (tokens.empty()) return RowIdSet::All(num_rows);
  RowIdSet result = LookupToken(tokens[0], num_rows);
  for (size_t i = 1; i < tokens.size() && !result.Empty(); ++i) {
    result.IntersectWith(LookupToken(tokens[i], num_rows));
  }
  return result;
}

}  // namespace logstore::index
