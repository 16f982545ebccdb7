#include "query/vectorized.h"

#include <algorithm>

#include "index/inverted_index.h"

namespace logstore::query::vectorized {

namespace {

// Fills the bitmap one 64-lane word at a time. `pred(i)` must be cheap and
// branch-poor: for the int kernels it inlines to a single comparison, so the
// inner loop is a compare + shift + or per lane with no data-dependent
// branches.
template <typename Pred>
uint32_t FillBitmap(uint32_t n, uint64_t* words, Pred pred) {
  uint32_t hits = 0;
  const uint32_t nwords = (n + 63) / 64;
  for (uint32_t w = 0; w < nwords; ++w) {
    const uint32_t base = w << 6;
    const uint32_t lanes = std::min<uint32_t>(64, n - base);
    uint64_t bits = 0;
    for (uint32_t b = 0; b < lanes; ++b) {
      bits |= static_cast<uint64_t>(pred(base + b) ? 1u : 0u) << b;
    }
    words[w] = bits;  // tail bits past n stay 0
    hits += static_cast<uint32_t>(__builtin_popcountll(bits));
  }
  return hits;
}

// True iff every entry of `tokens` equals one of `value`'s tokens. A value
// token is a maximal index::IsTokenChar run compared lower-cased, exactly
// as index::Tokenize builds it, so a query token that is empty, upper-case
// or not alphanumeric never matches. `found` is scratch space of tokens.size()
// flags.
bool ContainsAllTokens(std::string_view value,
                       const std::vector<std::string>& tokens, char* found) {
  size_t missing = tokens.size();
  if (missing == 0) return true;
  std::fill(found, found + tokens.size(), 0);
  const size_t n = value.size();
  size_t i = 0;
  while (i < n) {
    while (i < n && !index::IsTokenChar(value[i])) ++i;
    const size_t start = i;
    while (i < n && index::IsTokenChar(value[i])) ++i;
    const size_t len = i - start;
    if (len == 0) break;
    for (size_t t = 0; t < tokens.size(); ++t) {
      const std::string& token = tokens[t];
      if (found[t] || token.size() != len) continue;
      size_t k = 0;
      while (k < len && index::ToLowerAscii(value[start + k]) == token[k]) {
        ++k;
      }
      if (k == len) {
        found[t] = 1;
        if (--missing == 0) return true;
      }
    }
  }
  return false;
}

}  // namespace

uint32_t FilterInt64Compare(const int64_t* values, uint32_t n, CompareOp op,
                            int64_t operand, uint64_t* words) {
  // Dispatch ONCE, outside the loop: each case body is a pure compare loop
  // the compiler can unroll and vectorize.
  switch (op) {
    case CompareOp::kEq:
      return FillBitmap(n, words,
                        [&](uint32_t i) { return values[i] == operand; });
    case CompareOp::kNe:
      return FillBitmap(n, words,
                        [&](uint32_t i) { return values[i] != operand; });
    case CompareOp::kLt:
      return FillBitmap(n, words,
                        [&](uint32_t i) { return values[i] < operand; });
    case CompareOp::kLe:
      return FillBitmap(n, words,
                        [&](uint32_t i) { return values[i] <= operand; });
    case CompareOp::kGt:
      return FillBitmap(n, words,
                        [&](uint32_t i) { return values[i] > operand; });
    case CompareOp::kGe:
      return FillBitmap(n, words,
                        [&](uint32_t i) { return values[i] >= operand; });
  }
  return FillBitmap(n, words, [](uint32_t) { return false; });
}

uint32_t FilterStringEq(const std::string_view* values, uint32_t n,
                        std::string_view operand, uint64_t* words) {
  // The size test rejects most rows without touching the character data.
  const size_t len = operand.size();
  return FillBitmap(n, words, [&](uint32_t i) {
    return values[i].size() == len && values[i] == operand;
  });
}

uint32_t FilterMatchTokens(const std::string_view* values, uint32_t n,
                           const std::vector<std::string>& tokens,
                           uint64_t* words) {
  // found[t] marks query token t as seen in the current row.
  std::vector<char> found(tokens.size());
  return FillBitmap(n, words, [&](uint32_t i) {
    return ContainsAllTokens(values[i], tokens, found.data());
  });
}

uint32_t Filter(const BoundPredicate& bp, const int64_t* ints,
                const std::string_view* strs, uint32_t n, uint64_t* words) {
  switch (bp.pred.kind) {
    case Predicate::Kind::kInt64Compare:
      return FilterInt64Compare(ints, n, bp.pred.op, bp.pred.int_value, words);
    case Predicate::Kind::kStringEq:
      return FilterStringEq(strs, n, bp.pred.str_value, words);
    case Predicate::Kind::kMatch:
      return FilterMatchTokens(strs, n, bp.match_tokens, words);
  }
  return 0;
}

}  // namespace logstore::query::vectorized
