// The reference evaluator (reference_query.h) is the oracle of every query
// matrix, so it is pinned here against answers computed by hand over a
// five-row batch: each predicate kind, MATCH edge cases, the inclusive and
// inverted ts ranges, projection, every aggregate, and the limit contract
// of ExpectMatchesReference.

#include "reference_query.h"

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "logblock/schema.h"

namespace logstore::reference {
namespace {

using logblock::Value;
using query::Aggregate;
using query::CompareOp;
using query::LogQuery;
using query::Predicate;

logblock::RowBatch Rows(uint64_t tenant,
                        const std::vector<std::vector<Value>>& rows) {
  logblock::RowBatch batch(logblock::RequestLogSchema());
  for (std::vector<Value> row : rows) {
    row.insert(row.begin(), Value::Int64(static_cast<int64_t>(tenant)));
    batch.AddRow(row);
  }
  return batch;
}

// RequestLogSchema after tenant_id: ts, ip, latency, fail, log.
std::vector<TenantRows> Data() {
  return {
      {1, Rows(1, {{Value::Int64(10), Value::String("10.0.0.1"),
                    Value::Int64(5), Value::String("false"),
                    Value::String("GET /a completed")},
                   {Value::Int64(20), Value::String("10.0.0.2"),
                    Value::Int64(300), Value::String("true"),
                    Value::String("POST /b failed: connection timeout")}})},
      {2, Rows(2, {{Value::Int64(25), Value::String("10.0.0.1"),
                    Value::Int64(7), Value::String("false"),
                    Value::String("timeout")}})},
      {1, Rows(1, {{Value::Int64(30), Value::String("10.0.0.1"),
                    Value::Int64(50), Value::String("false"),
                    Value::String("Timeout, retry ok")},
                   {Value::Int64(40), Value::String("10.0.0.3"),
                    Value::Int64(1500), Value::String("true"),
                    Value::String("connection reset")}})},
  };
}

LogQuery Tenant1() {
  LogQuery query;
  query.tenant_id = 1;
  return query;
}

// The ts values of the matching rows, in data order.
std::vector<int64_t> MatchedTs(const LogQuery& query) {
  const Answer answer = Evaluate(Data(), query);
  std::vector<int64_t> ts;
  for (const auto& row : answer.rows) ts.push_back(row[1].i);
  return ts;
}

using Ts = std::vector<int64_t>;

TEST(ReferenceQueryTest, TenantAndInclusiveTsRange) {
  const LogQuery all = Tenant1();
  EXPECT_EQ(MatchedTs(all), (Ts{10, 20, 30, 40}));
  EXPECT_EQ(Evaluate(Data(), all).columns,
            (std::vector<std::string>{"tenant_id", "ts", "ip", "latency",
                                      "fail", "log"}));

  LogQuery range = Tenant1();
  range.ts_min = 20;
  range.ts_max = 30;
  EXPECT_EQ(MatchedTs(range), (Ts{20, 30}));

  LogQuery inverted = Tenant1();
  inverted.ts_min = 30;
  inverted.ts_max = 20;
  EXPECT_EQ(MatchedTs(inverted), Ts{});

  LogQuery other = Tenant1();
  other.tenant_id = 2;
  EXPECT_EQ(MatchedTs(other), Ts{25});
}

TEST(ReferenceQueryTest, EachPredicateKind) {
  LogQuery query = Tenant1();
  query.predicates = {Predicate::Int64Compare("latency", CompareOp::kGe, 300)};
  EXPECT_EQ(MatchedTs(query), (Ts{20, 40}));
  query.predicates = {Predicate::Int64Compare("latency", CompareOp::kNe, 50)};
  EXPECT_EQ(MatchedTs(query), (Ts{10, 20, 40}));
  query.predicates = {Predicate::Int64Compare("latency", CompareOp::kLt, 50)};
  EXPECT_EQ(MatchedTs(query), Ts{10});

  query.predicates = {Predicate::StringEq("ip", "10.0.0.1")};
  EXPECT_EQ(MatchedTs(query), (Ts{10, 30}));

  // Conjunction.
  query.predicates = {Predicate::StringEq("ip", "10.0.0.1"),
                      Predicate::Int64Compare("latency", CompareOp::kGt, 5)};
  EXPECT_EQ(MatchedTs(query), Ts{30});
}

TEST(ReferenceQueryTest, MatchSemantics) {
  LogQuery query = Tenant1();
  // Tokens are lower-cased alphanumeric runs on both sides.
  query.predicates = {Predicate::Match("log", "TIMEOUT")};
  EXPECT_EQ(MatchedTs(query), (Ts{20, 30}));
  // Every query token must appear.
  query.predicates = {Predicate::Match("log", "connection timeout")};
  EXPECT_EQ(MatchedTs(query), Ts{20});
  // A token no row holds.
  query.predicates = {Predicate::Match("log", "zebra")};
  EXPECT_EQ(MatchedTs(query), Ts{});
  // No tokens at all: selects every row.
  query.predicates = {Predicate::Match("log", " ,:! ")};
  EXPECT_EQ(MatchedTs(query), (Ts{10, 20, 30, 40}));
}

TEST(ReferenceQueryTest, Projection) {
  LogQuery query = Tenant1();
  query.predicates = {Predicate::StringEq("fail", "true")};
  query.select_columns = {"latency", "ip"};
  const Answer answer = Evaluate(Data(), query);
  EXPECT_EQ(answer.columns, query.select_columns);
  const std::vector<std::vector<Value>> want = {
      {Value::Int64(300), Value::String("10.0.0.2")},
      {Value::Int64(1500), Value::String("10.0.0.3")}};
  EXPECT_EQ(answer.rows, want);
}

TEST(ReferenceQueryTest, EveryAggregate) {
  LogQuery query = Tenant1();
  query.predicates = {Predicate::StringEq("fail", "false")};  // ts 10, 30

  query.agg = Aggregate::Count();
  Answer answer = Evaluate(Data(), query);
  EXPECT_TRUE(answer.rows.empty());
  EXPECT_EQ(answer.agg.kind, Aggregate::Kind::kCount);
  EXPECT_EQ(answer.agg.rows, 2u);

  query.agg = Aggregate::Sum("latency");
  EXPECT_EQ(Evaluate(Data(), query).agg.sum, 55);
  query.agg = Aggregate::Min("latency");
  EXPECT_EQ(Evaluate(Data(), query).agg.min, 5);
  query.agg = Aggregate::Max("latency");
  EXPECT_EQ(Evaluate(Data(), query).agg.max, 50);

  // Groups are canonical: ascending by key, int keys rendered in decimal
  // and ordered as strings.
  query.predicates.clear();
  query.agg = Aggregate::GroupCount("ip");
  answer = Evaluate(Data(), query);
  ASSERT_EQ(answer.agg.groups.size(), 3u);
  EXPECT_EQ(answer.agg.groups[0].key, "10.0.0.1");
  EXPECT_EQ(answer.agg.groups[0].count, 2u);
  EXPECT_EQ(answer.agg.groups[2].key, "10.0.0.3");
  query.agg = Aggregate::GroupCount("latency");
  answer = Evaluate(Data(), query);
  ASSERT_EQ(answer.agg.groups.size(), 4u);
  EXPECT_EQ(answer.agg.groups[0].key, "1500");
  EXPECT_EQ(answer.agg.groups[1].key, "300");
  EXPECT_EQ(answer.agg.groups[2].key, "5");
  EXPECT_EQ(answer.agg.groups[3].key, "50");
  EXPECT_EQ(answer.agg.rows, 4u);

  // No match: count 0, min/max at their identities.
  query.predicates = {Predicate::Match("log", "zebra")};
  query.agg = Aggregate::Max("latency");
  answer = Evaluate(Data(), query);
  EXPECT_EQ(answer.agg.rows, 0u);
  EXPECT_EQ(answer.agg.max, INT64_MIN);
  EXPECT_EQ(answer.agg.min, INT64_MAX);
}

// A hand-built engine result holding the rows with the given ts values.
query::QueryResult ResultWithTs(const Ts& ts_values) {
  const Answer all = Evaluate(Data(), Tenant1());
  query::QueryResult result;
  result.columns = all.columns;
  for (int64_t ts : ts_values) {
    for (const auto& row : all.rows) {
      if (row[1].i == ts) result.rows.push_back(row);
    }
  }
  result.stats.exec.rows_matched = result.rows.size();
  return result;
}

TEST(ReferenceQueryTest, LimitContract) {
  LogQuery query = Tenant1();
  const Answer answer = Evaluate(Data(), query);

  // limit 0: the full multiset, in any order.
  ExpectMatchesReference(answer, query, ResultWithTs({40, 10, 30, 20}),
                         "limit 0");
  EXPECT_NONFATAL_FAILURE(
      ExpectMatchesReference(answer, query, ResultWithTs({40, 10, 30}),
                             "short"),
      "short");
  EXPECT_NONFATAL_FAILURE(
      ExpectMatchesReference(answer, query, ResultWithTs({40, 10, 30, 30}),
                             "duplicate"),
      "duplicate");

  // limit 1 and limit k: min(k, matches) rows, each a distinct match.
  query.limit = 1;
  ExpectMatchesReference(answer, query, ResultWithTs({30}), "limit 1");
  query.limit = 3;
  ExpectMatchesReference(answer, query, ResultWithTs({20, 40, 10}), "limit 3");
  query.limit = 10;
  ExpectMatchesReference(answer, query, ResultWithTs({10, 20, 30, 40}),
                         "limit 10");
  query.limit = 3;
  EXPECT_NONFATAL_FAILURE(
      ExpectMatchesReference(answer, query, ResultWithTs({20, 40}), "count"),
      "count");

  // A row the reference does not hold.
  query::QueryResult foreign = ResultWithTs({20, 40, 10});
  foreign.rows[1][3] = Value::Int64(999);
  EXPECT_NONFATAL_FAILURE(
      ExpectMatchesReference(answer, query, foreign, "foreign"), "foreign");

  // rows_matched must equal the returned row count.
  query::QueryResult overcounted = ResultWithTs({20, 40, 10});
  overcounted.stats.exec.rows_matched = 4;
  EXPECT_NONFATAL_FAILURE(
      ExpectMatchesReference(answer, query, overcounted, "overcount"),
      "overcount");
}

}  // namespace
}  // namespace logstore::reference
