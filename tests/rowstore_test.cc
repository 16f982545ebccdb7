#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "index/inverted_index.h"
#include "logblock/schema.h"
#include "rowstore/row_store.h"
#include "rowstore/wal.h"
#include "workload/loggen.h"

namespace logstore::rowstore {
namespace {

using logblock::RowBatch;
using logblock::Value;

RowBatch OneRow(uint64_t tenant, int64_t ts, const std::string& ip,
                int64_t latency, const std::string& fail,
                const std::string& log) {
  RowBatch batch(logblock::RequestLogSchema());
  batch.AddRow({Value::Int64(static_cast<int64_t>(tenant)), Value::Int64(ts),
                Value::String(ip), Value::Int64(latency), Value::String(fail),
                Value::String(log)});
  return batch;
}

TEST(WalRecordTest, EncodeDecodeRoundTrip) {
  RowBatch batch(logblock::RequestLogSchema());
  for (int i = 0; i < 20; ++i) {
    batch.AddRow({Value::Int64(3), Value::Int64(i * 100),
                  Value::String("1.2.3.4"), Value::Int64(i),
                  Value::String("false"),
                  Value::String("line " + std::to_string(i))});
  }
  const std::string payload = EncodeWalRecord(3, batch);
  auto record = DecodeWalRecord(payload, batch.schema());
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(record->tenant_id, 3u);
  ASSERT_EQ(record->rows.num_rows(), 20u);
  EXPECT_EQ(record->rows.Int64At(1, 5), 500);
  EXPECT_EQ(record->rows.StringAt(5, 19), "line 19");
}

TEST(WalRecordTest, EncodingMatchesHandAssembledRecord) {
  RowBatch batch(logblock::RequestLogSchema());
  batch.AddRow({Value::Int64(7), Value::Int64(1000), Value::String("10.0.0.1"),
                Value::Int64(-3), Value::String("false"),
                Value::String("GET /a ok")});
  const std::string long_log(130, 'x');
  batch.AddRow({Value::Int64(7), Value::Int64(1001), Value::String(""),
                Value::Int64(300), Value::String("true"),
                Value::String(long_log)});

  // varint tenant, varint row count, then each row's values in column
  // order: zig-zag varints for ints, varint length + bytes for strings.
  std::string body("\x07\x02", 2);
  body += std::string("\x0e\xd0\x0f", 3);            // tenant 7, ts 1000
  body += std::string("\x08" "10.0.0.1", 9);           // ip
  body += std::string("\x05", 1);                     // latency -3
  body += std::string("\x05" "false", 6);              // fail
  body += std::string("\x09" "GET /a ok", 10);         // log
  body += std::string("\x0e\xd2\x0f", 3);            // tenant 7, ts 1001
  body += std::string("\x00", 1);                     // ip ""
  body += std::string("\xd8\x04", 2);                 // latency 300
  body += std::string("\x04" "true", 5);               // fail
  body += std::string("\x82\x01", 2) + long_log;      // log, 130 bytes
  std::string expected;
  PutFixed32(&expected, crc32c::Mask(crc32c::Value(body.data(), body.size())));
  expected += body;

  EXPECT_EQ(EncodeWalRecord(7, batch), expected);
}

TEST(WalRecordTest, CrcDetectsCorruption) {
  const std::string payload = EncodeWalRecord(1, OneRow(1, 0, "a", 1, "f", "l"));
  for (size_t flip : {size_t{0}, size_t{5}, payload.size() - 1}) {
    std::string corrupted = payload;
    corrupted[flip] ^= 0x40;
    EXPECT_TRUE(DecodeWalRecord(corrupted, logblock::RequestLogSchema())
                    .status()
                    .IsCorruption())
        << "flip at " << flip;
  }
}

TEST(WalRecordTest, TruncationDetected) {
  const std::string payload = EncodeWalRecord(1, OneRow(1, 0, "a", 1, "f", "l"));
  EXPECT_FALSE(DecodeWalRecord(Slice(payload.data(), payload.size() - 3),
                               logblock::RequestLogSchema())
                   .ok());
  EXPECT_FALSE(DecodeWalRecord(Slice("xy"), logblock::RequestLogSchema()).ok());
}

// Wraps a hand-crafted record body with a VALID checksum, so decode gets
// past the CRC and must survive the malformed body on its own.
std::string FrameBody(const std::string& body) {
  std::string out;
  PutFixed32(&out, crc32c::Mask(crc32c::Value(body.data(), body.size())));
  out.append(body);
  return out;
}

TEST(WalRecordTest, BitFlippedCrcRejected) {
  const std::string payload = EncodeWalRecord(1, OneRow(1, 0, "a", 1, "f", "l"));
  // Flip one bit in each byte of the checksum itself (not the body).
  for (size_t byte = 0; byte < 4; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = payload;
      corrupted[byte] ^= static_cast<char>(1 << bit);
      EXPECT_TRUE(DecodeWalRecord(corrupted, logblock::RequestLogSchema())
                      .status()
                      .IsCorruption())
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(WalRecordTest, TruncatedVarintHeaderRejected) {
  // The tenant_id varint says "more bytes follow" and then the record ends.
  EXPECT_TRUE(DecodeWalRecord(FrameBody("\x80"), logblock::RequestLogSchema())
                  .status()
                  .IsCorruption());
  // Valid tenant_id, then a dangling row_count varint.
  std::string body;
  PutVarint64(&body, 7);
  body.push_back('\x80');
  EXPECT_TRUE(DecodeWalRecord(FrameBody(body), logblock::RequestLogSchema())
                  .status()
                  .IsCorruption());
  // Empty body: no header at all.
  EXPECT_TRUE(DecodeWalRecord(FrameBody(""), logblock::RequestLogSchema())
                  .status()
                  .IsCorruption());
}

TEST(WalRecordTest, RowCountOverclaimingPayloadRejected) {
  // A record claiming far more rows than its payload holds must fail with a
  // clean Corruption — never crash, over-read, or try to allocate for the
  // claimed count up front.
  for (uint32_t claimed : {2u, 1000u, 100000000u, 0xFFFFFFFFu}) {
    std::string body;
    PutVarint64(&body, 1);          // tenant
    PutVarint32(&body, claimed);    // row_count lies
    // Payload for exactly one row.
    const RowBatch one = OneRow(1, 5, "ip", 9, "false", "only-row");
    const logblock::Schema& schema = one.schema();
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      if (schema.column(c).type == logblock::ColumnType::kInt64) {
        PutVarsint64(&body, one.Int64At(c, 0));
      } else {
        PutLengthPrefixedSlice(&body, one.StringAt(c, 0));
      }
    }
    auto decoded = DecodeWalRecord(FrameBody(body), schema);
    EXPECT_TRUE(decoded.status().IsCorruption()) << "claimed " << claimed;
  }
  // A string value whose length prefix overclaims the remaining bytes must
  // not read past the end of the buffer either.
  std::string body;
  PutVarint64(&body, 1);
  PutVarint32(&body, 1);
  PutVarsint64(&body, 1);   // tenant column
  PutVarsint64(&body, 5);   // ts column
  PutVarint32(&body, 1u << 30);  // ip string claims 1GB
  body.append("short");
  EXPECT_TRUE(DecodeWalRecord(FrameBody(body), logblock::RequestLogSchema())
                  .status()
                  .IsCorruption());
}

TEST(RowStoreTest, AppendAssignsSequences) {
  RowStore store(logblock::RequestLogSchema());
  EXPECT_EQ(store.Append(1, OneRow(1, 10, "a", 1, "false", "x")), 1u);
  EXPECT_EQ(store.Append(2, OneRow(2, 20, "b", 2, "false", "y")), 2u);
  EXPECT_EQ(store.row_count(), 2u);
  EXPECT_EQ(store.last_seq(), 2u);
  EXPECT_GT(store.ApproximateBytes(), 0u);
}

TEST(RowStoreTest, ScanFiltersTenantAndTime) {
  RowStore store(logblock::RequestLogSchema());
  store.Append(1, OneRow(1, 100, "a", 1, "false", "one"));
  store.Append(1, OneRow(1, 200, "a", 1, "false", "two"));
  store.Append(2, OneRow(2, 150, "a", 1, "false", "other"));

  auto rows = store.ScanTenant(1, 0, 1000);
  EXPECT_EQ(rows.num_rows(), 2u);
  rows = store.ScanTenant(1, 150, 1000);
  ASSERT_EQ(rows.num_rows(), 1u);
  EXPECT_EQ(rows.StringAt(5, 0), "two");
  EXPECT_EQ(store.ScanTenant(3, 0, 1000).num_rows(), 0u);
}

TEST(RowStoreTest, ScanAppliesPredicates) {
  RowStore store(logblock::RequestLogSchema());
  store.Append(1, OneRow(1, 100, "10.0.0.1", 50, "false", "slow query ran"));
  store.Append(1, OneRow(1, 200, "10.0.0.2", 500, "true", "fast path"));

  auto rows = store.ScanTenant(
      1, 0, 1000, {query::Predicate::StringEq("ip", "10.0.0.2")});
  ASSERT_EQ(rows.num_rows(), 1u);
  EXPECT_EQ(rows.Int64At(3, 0), 500);

  rows = store.ScanTenant(1, 0, 1000,
                          {query::Predicate::Int64Compare(
                              "latency", query::CompareOp::kGe, 100)});
  EXPECT_EQ(rows.num_rows(), 1u);

  rows = store.ScanTenant(1, 0, 1000,
                          {query::Predicate::Match("log", "slow query")});
  ASSERT_EQ(rows.num_rows(), 1u);
  EXPECT_EQ(rows.StringAt(5, 0), "slow query ran");
}

TEST(RowStoreTest, SnapshotGroupsByTenant) {
  RowStore store(logblock::RequestLogSchema());
  store.Append(5, OneRow(5, 1, "a", 1, "false", "t5-a"));
  store.Append(9, OneRow(9, 2, "a", 1, "false", "t9-a"));
  store.Append(5, OneRow(5, 3, "a", 1, "false", "t5-b"));

  auto snapshot = store.SnapshotForBuild(100);
  EXPECT_EQ(snapshot.end_seq, 3u);
  EXPECT_EQ(snapshot.total_rows, 3u);
  ASSERT_EQ(snapshot.per_tenant.size(), 2u);
  EXPECT_EQ(snapshot.per_tenant.at(5).num_rows(), 2u);
  EXPECT_EQ(snapshot.per_tenant.at(9).num_rows(), 1u);
  EXPECT_EQ(snapshot.per_tenant.at(5).StringAt(5, 1), "t5-b");
}

TEST(RowStoreTest, SnapshotRespectsMaxRows) {
  RowStore store(logblock::RequestLogSchema());
  for (int i = 0; i < 10; ++i) {
    store.Append(1, OneRow(1, i, "a", 1, "false", "x"));
  }
  auto snapshot = store.SnapshotForBuild(4);
  EXPECT_EQ(snapshot.total_rows, 4u);
  EXPECT_EQ(snapshot.end_seq, 4u);
}

TEST(RowStoreTest, TruncateAdvancesCheckpoint) {
  RowStore store(logblock::RequestLogSchema());
  for (int i = 0; i < 6; ++i) {
    store.Append(1, OneRow(1, i, "a", 1, "false", "x"));
  }
  auto snapshot = store.SnapshotForBuild(3);
  store.TruncateUpTo(snapshot.end_seq);
  EXPECT_EQ(store.row_count(), 3u);
  EXPECT_EQ(store.archived_seq(), 3u);

  // Next snapshot picks up where the last one ended.
  auto next = store.SnapshotForBuild(100);
  EXPECT_EQ(next.total_rows, 3u);
  EXPECT_EQ(next.end_seq, 6u);

  store.TruncateUpTo(6);
  EXPECT_EQ(store.row_count(), 0u);
  EXPECT_EQ(store.ApproximateBytes(), 0u);
}

TEST(RowStoreTest, SnapshotSkipsArchivedWithoutTruncate) {
  // Archived rows may still be in memory (serving real-time queries) but
  // must not be re-archived.
  RowStore store(logblock::RequestLogSchema());
  store.Append(1, OneRow(1, 1, "a", 1, "false", "x"));
  auto first = store.SnapshotForBuild(10);
  store.TruncateUpTo(first.end_seq);
  store.Append(1, OneRow(1, 2, "a", 1, "false", "y"));
  auto second = store.SnapshotForBuild(10);
  EXPECT_EQ(second.total_rows, 1u);
  EXPECT_EQ(second.per_tenant.at(1).StringAt(5, 0), "y");
}

TEST(RowStoreTest, WalApplyPathIntegration) {
  // Simulates the Raft apply path: payload -> decode -> append.
  RowStore store(logblock::RequestLogSchema());
  const std::string payload =
      EncodeWalRecord(4, OneRow(4, 77, "ip", 9, "false", "from-wal"));
  auto record = DecodeWalRecord(payload, store.schema());
  ASSERT_TRUE(record.ok());
  store.Append(record->tenant_id, record->rows);
  auto rows = store.ScanTenant(4, 0, 100);
  ASSERT_EQ(rows.num_rows(), 1u);
  EXPECT_EQ(rows.StringAt(5, 0), "from-wal");
}

// The store as one (seq, tenant, values) row per appended row: the test's
// reference for the per-write store. Its accessors, snapshots and scans
// state what the store must return, row by row.
class RowModel {
 public:
  explicit RowModel(logblock::Schema schema) : schema_(std::move(schema)) {}

  uint64_t Append(uint64_t tenant, const RowBatch& rows) {
    for (uint32_t r = 0; r < rows.num_rows(); ++r) {
      Row row{next_seq_++, tenant, {}};
      for (size_t c = 0; c < schema_.num_columns(); ++c) {
        row.values.push_back(rows.ValueAt(c, r));
        bytes_ += RowBytes(row.values.back());
      }
      rows_.push_back(std::move(row));
    }
    return next_seq_ - 1;
  }

  uint64_t row_count() const { return rows_.size(); }
  uint64_t bytes() const { return bytes_; }
  uint64_t last_seq() const { return next_seq_ - 1; }
  uint64_t archived_seq() const { return archived_seq_; }

  RowStore::BuildSnapshot SnapshotForBuild(uint64_t max_rows) const {
    RowStore::BuildSnapshot snapshot;
    snapshot.end_seq = archived_seq_;
    for (const Row& row : rows_) {
      if (row.seq <= archived_seq_) continue;
      if (snapshot.total_rows >= max_rows) break;
      snapshot.per_tenant.try_emplace(row.tenant, schema_)
          .first->second.AddRow(row.values);
      snapshot.end_seq = row.seq;
      ++snapshot.total_rows;
    }
    return snapshot;
  }

  void TruncateUpTo(uint64_t seq) {
    while (!rows_.empty() && rows_.front().seq <= seq) {
      for (const Value& v : rows_.front().values) bytes_ -= RowBytes(v);
      rows_.pop_front();
    }
    archived_seq_ = std::max(archived_seq_, seq);
  }

  void ResetToArchived() {
    rows_.clear();
    bytes_ = 0;
    archived_seq_ = next_seq_ - 1;
  }

  RowBatch ScanTenant(uint64_t tenant, int64_t ts_min, int64_t ts_max,
                      const std::vector<query::Predicate>& predicates) const {
    RowBatch result(schema_);
    const int ts_col = schema_.FindColumn("ts");
    for (const Row& row : rows_) {
      if (row.tenant != tenant) continue;
      const int64_t ts = row.values[ts_col].i;
      if (ts < ts_min || ts > ts_max) continue;
      bool keep = true;
      for (const query::Predicate& pred : predicates) {
        keep = keep && Holds(pred, row);
      }
      if (keep) result.AddRow(row.values);
    }
    return result;
  }

 private:
  struct Row {
    uint64_t seq;
    uint64_t tenant;
    std::vector<Value> values;
  };

  static uint64_t RowBytes(const Value& v) {
    return v.type == logblock::ColumnType::kInt64 ? 8 : v.s.size() + 16;
  }

  bool Holds(const query::Predicate& pred, const Row& row) const {
    const int col = schema_.FindColumn(pred.column);
    if (col < 0) return false;
    const Value& v = row.values[col];
    switch (pred.kind) {
      case query::Predicate::Kind::kInt64Compare:
        return v.type == logblock::ColumnType::kInt64 && pred.EvalInt64(v.i);
      case query::Predicate::Kind::kStringEq:
        return v.type == logblock::ColumnType::kString &&
               v.s == pred.str_value;
      case query::Predicate::Kind::kMatch: {
        if (v.type != logblock::ColumnType::kString) return false;
        const auto have = index::Tokenize(v.s);
        for (const std::string& token : index::Tokenize(pred.str_value)) {
          if (std::find(have.begin(), have.end(), token) == have.end()) {
            return false;
          }
        }
        return true;
      }
    }
    return false;
  }

  logblock::Schema schema_;
  std::deque<Row> rows_;
  uint64_t next_seq_ = 1;
  uint64_t archived_seq_ = 0;
  uint64_t bytes_ = 0;
};

// Same schema, row count and column contents, byte for byte.
void ExpectSameBatch(const RowBatch& got, const RowBatch& want,
                     const std::string& what) {
  ASSERT_TRUE(got.schema() == want.schema()) << what;
  ASSERT_EQ(got.num_rows(), want.num_rows()) << what;
  for (size_t c = 0; c < want.schema().num_columns(); ++c) {
    if (want.schema().column(c).type == logblock::ColumnType::kInt64) {
      ASSERT_EQ(got.Int64Column(c), want.Int64Column(c))
          << what << " col " << c;
    } else {
      ASSERT_EQ(got.StringColumn(c), want.StringColumn(c))
          << what << " col " << c;
    }
  }
}

void ExpectSameSnapshot(const RowStore::BuildSnapshot& got,
                        const RowStore::BuildSnapshot& want,
                        const std::string& what) {
  ASSERT_EQ(got.end_seq, want.end_seq) << what;
  ASSERT_EQ(got.total_rows, want.total_rows) << what;
  ASSERT_EQ(got.per_tenant.size(), want.per_tenant.size()) << what;
  for (const auto& [tenant, batch] : want.per_tenant) {
    ASSERT_EQ(got.per_tenant.count(tenant), 1u) << what << " tenant " << tenant;
    ExpectSameBatch(got.per_tenant.at(tenant), batch,
                    what + " tenant " + std::to_string(tenant));
  }
}

// One of the predicate shapes a realtime read carries, chosen at random:
// int compares, string equality, MATCH, and predicates that can hold for
// no row (an unknown column, a column of the other type).
query::Predicate RandomPredicate(Random* rng) {
  switch (rng->Uniform(9)) {
    case 0:
      return query::Predicate::Int64Compare("latency", query::CompareOp::kGe,
                                            static_cast<int64_t>(
                                                rng->Uniform(2000)));
    case 1:
      return query::Predicate::Int64Compare("latency", query::CompareOp::kLt,
                                            static_cast<int64_t>(
                                                rng->Uniform(300)));
    case 2:
      return query::Predicate::StringEq("fail", rng->OneIn(2) ? "true"
                                                              : "false");
    case 3:
      return query::Predicate::StringEq(
          "ip", "192.168." + std::to_string(rng->Uniform(4)) + "." +
                    std::to_string(rng->Uniform(16) * 8));
    case 4:
      return query::Predicate::Match("log", rng->OneIn(2)
                                                ? "connection timeout"
                                                : "GET instances");
    case 5:
      return query::Predicate::Match("log", "completed");
    case 6:
      return query::Predicate::StringEq("no_such_column", "x");
    case 7:
      return query::Predicate::StringEq("latency", "5");
    default:
      return query::Predicate::Int64Compare("ip", query::CompareOp::kGe, 0);
  }
}

// A seeded mix of appends (random tenants, 1-300 rows, moved or copied),
// snapshots cut mid-entry, truncations at those cuts and elsewhere,
// snapshot installs and scans; after every step the store must answer
// exactly as the per-row model does.
TEST(RowStoreModelTest, MatchesPerRowModelStepByStep) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed);
    workload::LogGenerator gen(seed);
    RowStore store(logblock::RequestLogSchema());
    RowModel model(logblock::RequestLogSchema());
    int64_t ts = 0;
    for (int step = 0; step < 400; ++step) {
      const std::string what = "step " + std::to_string(step);
      const uint64_t dice = rng.Uniform(100);
      if (dice < 45) {
        const uint64_t tenant = 1 + rng.Uniform(5);
        const uint32_t n = 1 + static_cast<uint32_t>(rng.Uniform(300));
        RowBatch batch = gen.Generate(tenant, n, ts, ts + 5000);
        ts += 1000;
        const uint64_t want = model.Append(tenant, batch);
        const uint64_t got = rng.OneIn(2)
                                 ? store.Append(tenant, batch)
                                 : store.Append(tenant, std::move(batch));
        ASSERT_EQ(got, want) << what;
      } else if (dice < 60) {
        const uint64_t max_rows = rng.Uniform(model.row_count() + 50);
        const RowStore::BuildSnapshot want = model.SnapshotForBuild(max_rows);
        ExpectSameSnapshot(store.SnapshotForBuild(max_rows), want, what);
        if (rng.Uniform(10) < 7) {
          store.TruncateUpTo(want.end_seq);
          model.TruncateUpTo(want.end_seq);
        }
      } else if (dice < 63) {
        // Anywhere, also past the last row: rows appended later at or
        // below the checkpoint are retained and scanned, never snapshotted.
        const uint64_t seq = rng.OneIn(2)
                                 ? rng.Uniform(model.last_seq() + 1)
                                 : model.last_seq() + rng.Uniform(300);
        store.TruncateUpTo(seq);
        model.TruncateUpTo(seq);
      } else if (dice < 65) {
        store.ResetToArchived();
        model.ResetToArchived();
      } else {
        const uint64_t tenant = 1 + rng.Uniform(6);
        const int64_t lo = static_cast<int64_t>(rng.Uniform(ts + 5000));
        const int64_t hi = lo + static_cast<int64_t>(rng.Uniform(20000));
        std::vector<query::Predicate> predicates;
        for (uint64_t p = rng.Uniform(3); p > 0; --p) {
          predicates.push_back(RandomPredicate(&rng));
        }
        ExpectSameBatch(store.ScanTenant(tenant, lo, hi, predicates),
                        model.ScanTenant(tenant, lo, hi, predicates), what);
      }
      if (HasFatalFailure()) return;
      ASSERT_EQ(store.row_count(), model.row_count()) << what;
      ASSERT_EQ(store.ApproximateBytes(), model.bytes()) << what;
      ASSERT_EQ(store.last_seq(), model.last_seq()) << what;
      ASSERT_EQ(store.archived_seq(), model.archived_seq()) << what;
    }
  }
}

// One appender, two scanners and one archiver that snapshots and truncates,
// all at once. Each row's latency column holds its global append index, so
// every scan must return one tenant's rows in append order, and the
// archived rows must be every appended row exactly once.
TEST(RowStoreConcurrencyTest, AppendScanAndArchiveRace) {
  const logblock::Schema schema = logblock::RequestLogSchema();
  RowStore store(schema);
  constexpr int kBatches = 1000;
  constexpr uint64_t kTenants = 3;
  std::atomic<bool> appended{false};
  std::vector<std::vector<int64_t>> written(kTenants);

  std::thread appender([&] {
    int64_t index = 0;
    for (int b = 0; b < kBatches; ++b) {
      const uint64_t tenant = b % kTenants;
      RowBatch batch(schema);
      for (int r = 0; r < 1 + b % 40; ++r) {
        written[tenant].push_back(index);
        batch.AddRow({Value::Int64(static_cast<int64_t>(tenant)),
                      Value::Int64(index), Value::String("10.0.0.1"),
                      Value::Int64(index), Value::String("false"),
                      Value::String("row " + std::to_string(index))});
        ++index;
      }
      if (b % 2 == 0) {
        store.Append(tenant, std::move(batch));
      } else {
        store.Append(tenant, batch);
      }
    }
    appended.store(true);
  });

  std::vector<std::vector<int64_t>> archived(kTenants);
  std::thread archiver([&] {
    Random rng(17);
    while (true) {
      const bool finished = appended.load();
      const RowStore::BuildSnapshot snapshot =
          store.SnapshotForBuild(1 + rng.Uniform(120));
      for (const auto& [tenant, batch] : snapshot.per_tenant) {
        const std::vector<int64_t>& latency = batch.Int64Column(3);
        archived[tenant].insert(archived[tenant].end(), latency.begin(),
                                latency.end());
      }
      store.TruncateUpTo(snapshot.end_seq);
      if (finished && snapshot.total_rows == 0) break;
    }
  });

  std::atomic<int> bad_scans{0};
  auto scanner = [&](uint64_t first_tenant) {
    for (int i = 0; !appended.load() || i < 20; ++i) {
      const uint64_t tenant = (first_tenant + i) % kTenants;
      const RowBatch rows = store.ScanTenant(
          tenant, 0, INT64_MAX,
          {query::Predicate::Int64Compare("latency", query::CompareOp::kGe,
                                          i % 7)});
      for (uint32_t r = 0; r < rows.num_rows(); ++r) {
        const int64_t index = rows.Int64At(3, r);
        const bool in_order = r == 0 || rows.Int64At(3, r - 1) < index;
        if (rows.Int64At(0, r) != static_cast<int64_t>(tenant) || !in_order ||
            rows.StringAt(5, r) != "row " + std::to_string(index)) {
          ++bad_scans;
        }
      }
    }
  };
  std::thread scan_a(scanner, 0);
  std::thread scan_b(scanner, 1);
  appender.join();
  scan_a.join();
  scan_b.join();
  archiver.join();

  EXPECT_EQ(bad_scans.load(), 0);
  EXPECT_EQ(store.row_count(), 0u);
  EXPECT_EQ(store.ApproximateBytes(), 0u);
  EXPECT_EQ(store.archived_seq(), store.last_seq());
  for (uint64_t t = 0; t < kTenants; ++t) {
    EXPECT_EQ(archived[t], written[t]) << "tenant " << t;
  }
}

}  // namespace
}  // namespace logstore::rowstore
