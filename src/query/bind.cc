#include "query/bind.h"

#include <utility>

#include "index/inverted_index.h"

namespace logstore::query {

namespace {

// Only an int64 comparison other than != has an interval to test an SMA on.
bool HasInterval(const BoundPredicate& bp) {
  return bp.pred.kind == Predicate::Kind::kInt64Compare &&
         bp.pred.op != CompareOp::kNe;
}

}  // namespace

bool SmaExcludes(const BoundPredicate& bp, const index::Int64Sma& sma) {
  const auto [lo, hi] = bp.pred.Int64Interval();
  return HasInterval(bp) && sma.DisjointWith(lo, hi);
}

bool SmaCovers(const BoundPredicate& bp, const index::Int64Sma& sma) {
  const auto [lo, hi] = bp.pred.Int64Interval();
  return HasInterval(bp) && sma.Within(lo, hi);
}

Result<BoundQuery> Bind(const LogQuery& query, const logblock::Schema& schema) {
  BoundQuery bound;
  auto find = [&schema](const std::string& name, const char* what,
                        size_t* col) {
    const int found = schema.FindColumn(name);
    *col = static_cast<size_t>(found);
    return found >= 0 ? Status::OK()
                      : Status::InvalidArgument(std::string("unknown ") +
                                                what + "column: " + name);
  };
  auto bind = [&](Predicate pred) -> Status {
    BoundPredicate bp;
    LOGSTORE_RETURN_IF_ERROR(find(pred.column, "", &bp.col));
    const bool wants_int = pred.kind == Predicate::Kind::kInt64Compare;
    if (wants_int !=
        (schema.column(bp.col).type == logblock::ColumnType::kInt64)) {
      return Status::InvalidArgument("predicate type mismatch on " +
                                     pred.column);
    }
    if (pred.kind == Predicate::Kind::kMatch) {
      bp.match_tokens = index::Tokenize(pred.str_value);
    }
    bp.pred = std::move(pred);
    bound.filter.push_back(std::move(bp));
    return Status::OK();
  };

  bound.ts_col = schema.FindColumn("ts");
  if (bound.ts_col >= 0 && query.ts_min != INT64_MIN) {
    LOGSTORE_RETURN_IF_ERROR(
        bind(Predicate::Int64Compare("ts", CompareOp::kGe, query.ts_min)));
  }
  if (bound.ts_col >= 0 && query.ts_max != INT64_MAX) {
    LOGSTORE_RETURN_IF_ERROR(
        bind(Predicate::Int64Compare("ts", CompareOp::kLe, query.ts_max)));
  }
  for (const Predicate& pred : query.predicates) {
    LOGSTORE_RETURN_IF_ERROR(bind(pred));
  }

  for (size_t c = 0; query.select_columns.empty() && c < schema.num_columns();
       ++c) {
    bound.projection.push_back(c);
  }
  for (const std::string& name : query.select_columns) {
    size_t col = 0;
    LOGSTORE_RETURN_IF_ERROR(find(name, "select ", &col));
    bound.projection.push_back(col);
  }

  if (query.is_aggregate() && query.agg.kind != Aggregate::Kind::kCount) {
    LOGSTORE_RETURN_IF_ERROR(
        find(query.agg.column, "aggregate ", &bound.agg_col));
    bound.agg_is_int =
        schema.column(bound.agg_col).type == logblock::ColumnType::kInt64;
    if (query.agg.kind != Aggregate::Kind::kGroupCount && !bound.agg_is_int) {
      return Status::InvalidArgument("aggregate requires an int64 column: " +
                                     query.agg.column);
    }
  }
  return bound;
}

}  // namespace logstore::query
