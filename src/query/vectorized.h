#ifndef LOGSTORE_QUERY_VECTORIZED_H_
#define LOGSTORE_QUERY_VECTORIZED_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "query/bind.h"
#include "query/predicate.h"

namespace logstore::query::vectorized {

// Selection-bitmap filter kernels: each evaluates one predicate over a whole
// decoded column vector and writes a word-packed bitmap — bit j of words[j /
// 64] is set iff row j matches. All kernels share the contract:
//
//   - `words` has (n + 63) / 64 entries; every word is fully overwritten
//     and tail bits past n are cleared, so callers can AND bitmaps together
//     or fold them into a RowIdSet (IntersectBitmap) without masking.
//   - the return value is the number of selected rows (popcount).
//
// The int kernel's inner loop is branch-free — one comparison folded into a
// bit per lane, 64 lanes per word — which is the shape auto-vectorizers
// turn into SIMD compares + movemask.

uint32_t FilterInt64Compare(const int64_t* values, uint32_t n, CompareOp op,
                            int64_t operand, uint64_t* words);

uint32_t FilterStringEq(const std::string_view* values, uint32_t n,
                        std::string_view operand, uint64_t* words);

// Full-text MATCH fallback scan: a row is selected iff every query token
// (pre-tokenized ONCE by the caller, never per row) appears among the
// row value's tokens as index::Tokenize defines them: maximal
// index::IsTokenChar runs, lower-cased. The value is scanned in place — no
// token is materialized — and the scan stops once every query token is
// found. Duplicate query tokens are allowed, and an empty token list
// selects every row, as the inverted-index probe
// (LogBlockReader::InvertedMatchAllTokens) does.
uint32_t FilterMatchTokens(const std::string_view* values, uint32_t n,
                           const std::vector<std::string>& tokens,
                           uint64_t* words);

// The kernel of `bp` over n values of its column: `ints` for an int64
// comparison, `strs` otherwise. Archived and realtime rows share it.
uint32_t Filter(const BoundPredicate& bp, const int64_t* ints,
                const std::string_view* strs, uint32_t n, uint64_t* words);

}  // namespace logstore::query::vectorized

#endif  // LOGSTORE_QUERY_VECTORIZED_H_
