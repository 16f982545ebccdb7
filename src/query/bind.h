#ifndef LOGSTORE_QUERY_BIND_H_
#define LOGSTORE_QUERY_BIND_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"
#include "index/sma.h"
#include "logblock/schema.h"
#include "query/predicate.h"

namespace logstore::query {

// A predicate bound to a column ordinal. For kMatch the query text is
// tokenized ONCE here, not per row in the scan loop.
struct BoundPredicate {
  Predicate pred;
  size_t col = 0;
  std::vector<std::string> match_tokens;
};

// Whether `sma`, over values of bp's column, proves that no value it
// covers satisfies `bp` (Excludes) or that every one does (Covers). Only an
// int64 comparison other than != can be decided.
bool SmaExcludes(const BoundPredicate& bp, const index::Int64Sma& sma);
bool SmaCovers(const BoundPredicate& bp, const index::Int64Sma& sma);

// A query resolved against one schema: a LogBlock's, a row store's, or a
// deployment's (to validate it before any scan; DESIGN §12).
struct BoundQuery {
  // The finite ts bounds (as ts >= ts_min and ts <= ts_max, when the schema
  // has a ts column), then the query's predicates, in query order.
  std::vector<BoundPredicate> filter;
  // The ts column, or -1 when the schema has none.
  int ts_col = -1;
  // Output columns of a row query: the select list, or every column.
  std::vector<size_t> projection;
  // The aggregated column of sum/min/max/group-count, and its type.
  size_t agg_col = 0;
  bool agg_is_int = false;
};

// The one place a query's column names become ordinals. Returns
// InvalidArgument for an unknown predicate, select or aggregate column, a
// predicate on a column of the other type, or a sum/min/max over a string
// column.
Result<BoundQuery> Bind(const LogQuery& query, const logblock::Schema& schema);

}  // namespace logstore::query

#endif  // LOGSTORE_QUERY_BIND_H_
