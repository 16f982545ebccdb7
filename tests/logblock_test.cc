#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/random.h"
#include "logblock/format.h"
#include "logblock/logblock_map.h"
#include "logblock/logblock_reader.h"
#include "logblock/logblock_writer.h"
#include "logblock/row_batch.h"
#include "logblock/schema.h"
#include "workload/loggen.h"

namespace logstore::logblock {
namespace {

RowBatch MakeRequestLogBatch(uint32_t rows, uint64_t seed, int64_t ts_base) {
  RowBatch batch(RequestLogSchema());
  Random rng(seed);
  for (uint32_t i = 0; i < rows; ++i) {
    const bool fail = rng.OneIn(20);
    batch.AddRow({
        Value::Int64(static_cast<int64_t>(rng.Uniform(4))),    // tenant_id
        Value::Int64(ts_base + i * 1000),                      // ts
        Value::String("192.168.0." + std::to_string(rng.Uniform(32))),
        Value::Int64(static_cast<int64_t>(rng.Uniform(500))),  // latency
        Value::String(fail ? "true" : "false"),
        Value::String("GET /api/v" + std::to_string(rng.Uniform(3)) +
                      "/resource status " + (fail ? "error" : "ok")),
    });
  }
  return batch;
}

Result<std::unique_ptr<LogBlockReader>> BuildAndOpen(
    const RowBatch& batch, const LogBlockWriterOptions& options = {}) {
  auto built = BuildLogBlock(batch, /*tenant_id=*/42, options);
  if (!built.ok()) return built.status();
  return LogBlockReader::Open(
      std::make_shared<StringSource>(std::move(built->data)));
}

TEST(SchemaTest, EncodeDecodeRoundTrip) {
  Schema schema = RequestLogSchema();
  std::string buf;
  schema.EncodeTo(&buf);
  Slice in(buf);
  auto decoded = Schema::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(*decoded == schema);
  EXPECT_TRUE(in.empty());
}

TEST(SchemaTest, FindColumn) {
  Schema schema = RequestLogSchema();
  EXPECT_EQ(schema.FindColumn("ts"), 1);
  EXPECT_EQ(schema.FindColumn("log"), 5);
  EXPECT_EQ(schema.FindColumn("missing"), -1);
}

TEST(SchemaTest, IndexTypeFollowsColumnType) {
  Schema schema = RequestLogSchema();
  EXPECT_EQ(schema.column(0).index_type(), IndexType::kBkd);       // int64
  EXPECT_EQ(schema.column(2).index_type(), IndexType::kInverted);  // string
  EXPECT_EQ(schema.column(3).index_type(), IndexType::kNone);      // !indexed
}

TEST(SchemaTest, DecodeRejectsCorruption) {
  Slice empty("");
  EXPECT_FALSE(Schema::DecodeFrom(&empty).ok());
  std::string bad = "\x02garbage";
  Slice in(bad);
  EXPECT_FALSE(Schema::DecodeFrom(&in).ok());
}

TEST(RowBatchTest, ColumnMajorAccess) {
  RowBatch batch(RequestLogSchema());
  batch.AddRow({Value::Int64(7), Value::Int64(1000), Value::String("1.2.3.4"),
                Value::Int64(55), Value::String("false"),
                Value::String("hello world")});
  EXPECT_EQ(batch.num_rows(), 1u);
  EXPECT_EQ(batch.Int64At(0, 0), 7);
  EXPECT_EQ(batch.StringAt(2, 0), "1.2.3.4");
  EXPECT_EQ(batch.ValueAt(3, 0), Value::Int64(55));
  EXPECT_EQ(batch.ValueAt(5, 0), Value::String("hello world"));
  EXPECT_GT(batch.ApproximateBytes(), 0u);
}

TEST(LogBlockMetaTest, EncodeDecodeRoundTrip) {
  LogBlockMeta meta;
  meta.schema = RequestLogSchema();
  meta.row_count = 100;
  meta.codec = compress::CodecType::kLzFast;
  meta.tenant_id = 99;
  meta.min_ts = -5;
  meta.max_ts = 12345;
  meta.columns.resize(meta.schema.num_columns());
  meta.columns[0].index_type = IndexType::kBkd;
  meta.columns[0].index_size = 77;
  meta.columns[0].int_sma.Update(3);
  ColumnBlockMeta block;
  block.row_count = 100;
  block.first_row = 0;
  block.offset = 0;
  block.size = 512;
  block.int_sma.Update(3);
  meta.columns[0].blocks.push_back(block);

  std::string buf;
  meta.EncodeTo(&buf);
  Slice in(buf);
  auto decoded = LogBlockMeta::DecodeFrom(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->row_count, 100u);
  EXPECT_EQ(decoded->codec, compress::CodecType::kLzFast);
  EXPECT_EQ(decoded->tenant_id, 99u);
  EXPECT_EQ(decoded->min_ts, -5);
  EXPECT_EQ(decoded->max_ts, 12345);
  ASSERT_EQ(decoded->columns.size(), meta.schema.num_columns());
  EXPECT_EQ(decoded->columns[0].index_type, IndexType::kBkd);
  EXPECT_EQ(decoded->columns[0].index_size, 77u);
  ASSERT_EQ(decoded->columns[0].blocks.size(), 1u);
  EXPECT_EQ(decoded->columns[0].blocks[0].size, 512u);
}

TEST(LogBlockMetaTest, DecodeRejectsGarbage) {
  Slice in("not-a-meta");
  EXPECT_FALSE(LogBlockMeta::DecodeFrom(&in).ok());
}

TEST(LogBlockWriterTest, RejectsEmptyBatch) {
  RowBatch empty(RequestLogSchema());
  EXPECT_TRUE(BuildLogBlock(empty, 1).status().IsInvalidArgument());
}

TEST(LogBlockWriterTest, MetaDescribesData) {
  const RowBatch batch = MakeRequestLogBatch(1000, 5, 1'000'000);
  auto built = BuildLogBlock(batch, 42, {.rows_per_block = 128});
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  const LogBlockMeta& meta = built->meta;
  EXPECT_EQ(meta.row_count, 1000u);
  EXPECT_EQ(meta.tenant_id, 42u);
  EXPECT_EQ(meta.min_ts, 1'000'000);
  EXPECT_EQ(meta.max_ts, 1'000'000 + 999 * 1000);
  // 1000 rows / 128 per block = 8 blocks per column.
  for (const ColumnMeta& col : meta.columns) {
    EXPECT_EQ(col.blocks.size(), 8u);
  }
  // latency (3) and ts (1) are unindexed (block SMA serves them); others
  // have indexes.
  EXPECT_EQ(meta.columns[3].index_type, IndexType::kNone);
  EXPECT_EQ(meta.columns[3].index_size, 0u);
  EXPECT_EQ(meta.columns[1].index_type, IndexType::kNone);
  EXPECT_EQ(meta.columns[0].index_type, IndexType::kBkd);
  EXPECT_GT(meta.columns[0].index_size, 0u);
  EXPECT_EQ(meta.columns[2].index_type, IndexType::kInverted);
  EXPECT_GT(meta.columns[2].index_size, 0u);
}

TEST(LogBlockWriterTest, BytesArePinned) {
  // LogBlocks from seeded generator batches and from hand-made values
  // (upper case, bytes >= 0x80, tokens of 8 or more characters with and
  // without digits, empty strings), with both LZ codecs and two column
  // block sizes. The digest covers every LogBlock's bytes in build order;
  // it was computed when the index writer kept its terms in a std::map and
  // the LZ compressor zeroed fresh match tables on every call, so any
  // change to the bytes the builder writes fails here.
  std::vector<RowBatch> batches;
  workload::LogGenerator gen(2021);
  for (uint32_t rows : {1u, 7u, 325u, 4097u, 9500u}) {
    batches.push_back(gen.Generate(rows % 5, rows, 0, 3'600'000'000));
  }
  const std::vector<std::string> ips = {
      "10.0.0.1", "", "Host-ABC.Example", "\xc3\xa9t\xc3\xa9", "10.0.0.1"};
  const std::vector<std::string> fails = {"true", "FALSE", "", "\xff"};
  const std::vector<std::string> logs = {
      "GET /Api/V1/Instances HTTP/1.1",
      "",
      "Caf\xc3\xa9 na\xc3\xafve \xff\xfe r\xe9sum\xe9 \x80\x81",
      "request_id=ABCDEF0123456789 trace 0xDEADBEEF span 12345678",
      "Connection TIMEOUT after 1500ms; retrying ConnectionTimeout",
      "verylongtokenwithoutdigits ANOTHERLONGTOKEN abc12345 abcdefg1",
      "MiXeD-CaSe_tokens.and.dots \t ALLCAPS a Z 0",
      "GET /Api/V1/Instances HTTP/1.1",
  };
  RowBatch hand(RequestLogSchema());
  for (uint32_t i = 0; i < 61; ++i) {
    hand.AddRow({
        Value::Int64(i % 3),
        Value::Int64(1'000'000 + i * 7),
        Value::String(ips[(i * 3) % ips.size()]),
        Value::Int64(static_cast<int64_t>((i * 37) % 500)),
        Value::String(fails[i % fails.size()]),
        Value::String(logs[(i * 5) % logs.size()]),
    });
  }
  batches.push_back(std::move(hand));

  uint32_t digest = 0;
  for (compress::CodecType codec :
       {compress::CodecType::kLzFast, compress::CodecType::kLzRatio}) {
    for (uint32_t rows_per_block : {LogBlockWriterOptions{}.rows_per_block,
                                    uint32_t{128}}) {
      for (const RowBatch& batch : batches) {
        auto built = BuildLogBlock(
            batch, 7, {.codec = codec, .rows_per_block = rows_per_block});
        ASSERT_TRUE(built.ok()) << built.status().ToString();
        digest = crc32c::Extend(digest, built->data.data(), built->data.size());
      }
    }
  }
  EXPECT_EQ(digest, 0xb4e59d2du);
}

TEST(LogBlockReaderTest, OpenAndReadBack) {
  const RowBatch batch = MakeRequestLogBatch(500, 3, 0);
  auto reader = BuildAndOpen(batch, {.rows_per_block = 100});
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();

  EXPECT_EQ((*reader)->num_rows(), 500u);
  EXPECT_TRUE((*reader)->schema() == batch.schema());

  // Read every block of every column and compare all values.
  for (size_t c = 0; c < batch.schema().num_columns(); ++c) {
    uint32_t row = 0;
    const size_t n_blocks = (*reader)->meta().columns[c].blocks.size();
    for (size_t b = 0; b < n_blocks; ++b) {
      auto decoded = (*reader)->ReadColumnBlock(c, b);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(decoded->first_row, row);
      for (uint32_t i = 0; i < decoded->row_count(); ++i, ++row) {
        if (batch.schema().column(c).type == ColumnType::kInt64) {
          EXPECT_EQ(decoded->ints[i], batch.Int64At(c, row));
        } else {
          EXPECT_EQ(decoded->strs[i], batch.StringAt(c, row));
        }
      }
    }
    EXPECT_EQ(row, 500u);
  }
}

TEST(LogBlockReaderTest, BkdIndexAnswersRangeQueries) {
  RowBatch batch(RequestLogSchema());
  for (uint32_t i = 0; i < 300; ++i) {
    batch.AddRow({Value::Int64(i * 10),  // tenant_id carries the BKD index
                  Value::Int64(i), Value::String("10.0.0.1"),
                  Value::Int64(i % 100), Value::String("false"),
                  Value::String("msg")});
  }
  auto reader = BuildAndOpen(batch, {.rows_per_block = 50});
  ASSERT_TRUE(reader.ok());

  auto bkd = (*reader)->BkdIndex(0);
  ASSERT_TRUE(bkd.ok());
  const auto rows = (*bkd)->QueryRange(100, 149, 300).ToVector();
  EXPECT_EQ(rows, (std::vector<uint32_t>{10, 11, 12, 13, 14}));

  // Unindexed columns have no BKD index (ts relies on block SMA).
  EXPECT_TRUE((*reader)->BkdIndex(1).status().IsNotFound());
  EXPECT_TRUE((*reader)->BkdIndex(3).status().IsNotFound());
  // String column has inverted, not BKD.
  EXPECT_TRUE((*reader)->BkdIndex(2).status().IsNotFound());
}

TEST(LogBlockReaderTest, InvertedIndexAnswersExactAndTokenQueries) {
  RowBatch batch(RequestLogSchema());
  for (uint32_t i = 0; i < 100; ++i) {
    batch.AddRow({Value::Int64(7), Value::Int64(i),
                  Value::String(i % 2 == 0 ? "1.1.1.1" : "2.2.2.2"),
                  Value::Int64(0), Value::String("false"),
                  Value::String(i == 50 ? "rare timeout event" : "ok")});
  }
  auto reader = BuildAndOpen(batch);
  ASSERT_TRUE(reader.ok());

  auto ip_rows = (*reader)->InvertedLookupExact(2, "1.1.1.1");
  ASSERT_TRUE(ip_rows.ok());
  EXPECT_EQ(ip_rows->Count(), 50u);
  auto no_rows = (*reader)->InvertedLookupExact(2, "3.3.3.3");
  ASSERT_TRUE(no_rows.ok());
  EXPECT_EQ(no_rows->Count(), 0u);

  auto match = (*reader)->InvertedMatchAllTokens(5, "timeout");
  ASSERT_TRUE(match.ok());
  EXPECT_EQ(match->ToVector(), (std::vector<uint32_t>{50}));

  // The term dictionary is cached after first access.
  auto dict = (*reader)->InvertedDict(5);
  ASSERT_TRUE(dict.ok());
  auto again = (*reader)->InvertedDict(5);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().get(), dict.value().get());

  // Unindexed / wrong-kind columns: NotFound.
  EXPECT_TRUE((*reader)->InvertedDict(1).status().IsNotFound());
  EXPECT_TRUE(
      (*reader)->InvertedLookupExact(3, "x").status().IsNotFound());
}

TEST(LogBlockReaderTest, AllCodecsRoundTrip) {
  for (auto codec : {compress::CodecType::kNone, compress::CodecType::kLzFast,
                     compress::CodecType::kLzRatio}) {
    const RowBatch batch = MakeRequestLogBatch(200, 8, 0);
    auto reader = BuildAndOpen(batch, {.codec = codec, .rows_per_block = 64});
    ASSERT_TRUE(reader.ok());
    auto decoded = (*reader)->ReadColumnBlock(5, 0);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->strs[0], batch.StringAt(5, 0));
  }
}

TEST(LogBlockReaderTest, StringViewsSurviveMovingTheBlock) {
  // A string block whose decompressed values total fewer than 16 bytes:
  // held in a std::string, those bytes would sit in its inline buffer and
  // move with it, leaving the views dangling.
  RowBatch batch(RequestLogSchema());
  batch.AddRow({Value::Int64(1), Value::Int64(10), Value::String("a"),
                Value::Int64(5), Value::String("no"), Value::String("x")});
  batch.AddRow({Value::Int64(1), Value::Int64(20), Value::String("bc"),
                Value::Int64(6), Value::String("yes"), Value::String("")});
  for (auto codec : {compress::CodecType::kNone, compress::CodecType::kLzRatio}) {
    auto reader = BuildAndOpen(batch, {.codec = codec});
    ASSERT_TRUE(reader.ok());
    std::map<int, DecodedColumnBlock> blocks;
    for (int col : {2, 4, 5}) {
      auto decoded = (*reader)->ReadColumnBlock(col, 0);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      ASSERT_LT(decoded->buffer->size(), 16u);
      blocks.emplace(col, std::move(decoded).value());
    }
    for (int col : {2, 4, 5}) {
      const DecodedColumnBlock& block = blocks.at(col);
      ASSERT_EQ(block.row_count(), 2u);
      for (uint32_t r = 0; r < 2; ++r) {
        EXPECT_EQ(block.strs[r], batch.StringAt(col, r))
            << "col=" << col << " row=" << r;
      }
    }
  }
}

TEST(LogBlockReaderTest, CompressionShrinksLogData) {
  const RowBatch batch = MakeRequestLogBatch(5000, 21, 0);
  auto none = BuildLogBlock(batch, 1, {.codec = compress::CodecType::kNone});
  auto ratio = BuildLogBlock(batch, 1, {.codec = compress::CodecType::kLzRatio});
  ASSERT_TRUE(none.ok());
  ASSERT_TRUE(ratio.ok());
  EXPECT_LT(ratio->data.size(), none->data.size() / 2);
}

TEST(LogBlockReaderTest, SelfContainedSurvivesRename) {
  // §3.2: a LogBlock "can still be resolved after being renamed or moved".
  // The reader needs nothing but the bytes: no external schema or catalog.
  const RowBatch batch = MakeRequestLogBatch(50, 2, 7000);
  auto built = BuildLogBlock(batch, 42);
  ASSERT_TRUE(built.ok());
  auto reader = LogBlockReader::Open(
      std::make_shared<StringSource>(built->data));  // no name, no catalog
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->meta().tenant_id, 42u);
  EXPECT_EQ((*reader)->schema().FindColumn("ip"), 2);
}

TEST(LogBlockReaderTest, CorruptPackageRejected) {
  auto r1 = LogBlockReader::Open(std::make_shared<StringSource>(""));
  EXPECT_FALSE(r1.ok());
  auto r2 = LogBlockReader::Open(
      std::make_shared<StringSource>(std::string(100, 'x')));
  EXPECT_FALSE(r2.ok());
}

TEST(LogBlockReaderTest, ChecksumCatchesDataCorruption) {
  const RowBatch batch = MakeRequestLogBatch(200, 4, 0);
  auto built = BuildLogBlock(batch, 1, {.rows_per_block = 64});
  ASSERT_TRUE(built.ok());

  // Flip one byte inside a column data chunk: decoding that block must
  // fail with Corruption (CRC), while other blocks stay readable.
  auto clean = LogBlockReader::Open(
      std::make_shared<StringSource>(built->data));
  ASSERT_TRUE(clean.ok());
  auto range = (*clean)->ColumnBlockRange(5, 1);
  ASSERT_TRUE(range.ok());

  std::string corrupted = built->data;
  corrupted[range->offset + range->size / 2] ^= 0x01;
  auto reader =
      LogBlockReader::Open(std::make_shared<StringSource>(corrupted));
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE((*reader)->ReadColumnBlock(5, 1).status().IsCorruption());
  EXPECT_TRUE((*reader)->ReadColumnBlock(5, 0).ok());  // other block fine
}

// Fuzz-style robustness sweep: flipping any single byte of a LogBlock
// package must never crash the reader — every path either still works or
// returns an error Status.
class LogBlockCorruptionFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(LogBlockCorruptionFuzzTest, SingleByteFlipsNeverCrash) {
  const RowBatch batch = MakeRequestLogBatch(150, 6, 0);
  auto built = BuildLogBlock(batch, 1, {.rows_per_block = 50});
  ASSERT_TRUE(built.ok());

  logstore::Random rng(static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 60; ++trial) {
    std::string corrupted = built->data;
    const size_t pos = rng.Uniform(corrupted.size());
    corrupted[pos] ^= static_cast<char>(1 + rng.Uniform(255));

    auto reader =
        LogBlockReader::Open(std::make_shared<StringSource>(corrupted));
    if (!reader.ok()) continue;  // rejected at open: fine
    // Exercise every read path; statuses may be errors, but no crashes.
    for (size_t c = 0; c < (*reader)->schema().num_columns(); ++c) {
      const size_t blocks = (*reader)->meta().columns[c].blocks.size();
      for (size_t b = 0; b < blocks && b < 3; ++b) {
        (void)(*reader)->ReadColumnBlock(c, b);
      }
      (void)(*reader)->BkdIndex(c);
      (void)(*reader)->InvertedLookupExact(c, "192.168.0.1");
      (void)(*reader)->InvertedMatchAllTokens(c, "status ok");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogBlockCorruptionFuzzTest,
                         ::testing::Range(1, 6));

TEST(LogBlockMapTest, PruneByTenantAndTime) {
  LogBlockMap map;
  map.Add({.tenant_id = 0, .min_ts = 0, .max_ts = 99, .object_key = "a"});
  map.Add({.tenant_id = 0, .min_ts = 100, .max_ts = 199, .object_key = "b"});
  map.Add({.tenant_id = 1, .min_ts = 50, .max_ts = 150, .object_key = "c"});

  auto hits = map.Prune(0, 50, 120);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].object_key, "a");
  EXPECT_EQ(hits[1].object_key, "b");

  EXPECT_EQ(map.Prune(0, 200, 300).size(), 0u);
  EXPECT_EQ(map.Prune(1, 0, 60).size(), 1u);
  EXPECT_EQ(map.Prune(9, 0, 1000).size(), 0u);  // unknown tenant
}

TEST(LogBlockMapTest, ChronologicalOrderMaintained) {
  LogBlockMap map;
  map.Add({.tenant_id = 0, .min_ts = 200, .max_ts = 299, .object_key = "late"});
  map.Add({.tenant_id = 0, .min_ts = 0, .max_ts = 99, .object_key = "early"});
  auto blocks = map.TenantBlocks(0);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].object_key, "early");
  EXPECT_EQ(blocks[1].object_key, "late");
}

TEST(LogBlockMapTest, ExpirationRetiresOldBlocks) {
  LogBlockMap map;
  map.Add({.tenant_id = 0, .min_ts = 0, .max_ts = 99, .object_key = "old",
           .size_bytes = 10});
  map.Add({.tenant_id = 0, .min_ts = 100, .max_ts = 199, .object_key = "new",
           .size_bytes = 20});
  EXPECT_EQ(map.TenantBytes(0), 30u);

  auto expired = map.ExpireBefore(0, 100);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].object_key, "old");
  EXPECT_EQ(map.TenantBytes(0), 20u);
  EXPECT_EQ(map.TenantBlockCount(0), 1u);

  // Expiring everything removes the tenant.
  map.ExpireBefore(0, 1000);
  EXPECT_EQ(map.Tenants().size(), 0u);
}

TEST(LogBlockMapTest, EncodeDecodeRoundTrip) {
  LogBlockMap map;
  map.Add({.tenant_id = 3, .min_ts = -10, .max_ts = 10, .object_key = "k1",
           .size_bytes = 100, .row_count = 5});
  map.Add({.tenant_id = 7, .min_ts = 0, .max_ts = 50, .object_key = "k2",
           .size_bytes = 200, .row_count = 9});

  std::string buf;
  map.EncodeTo(&buf);
  LogBlockMap restored;
  Slice in(buf);
  ASSERT_TRUE(LogBlockMap::DecodeFrom(&in, &restored).ok());
  EXPECT_EQ(restored.TotalBlocks(), 2u);
  EXPECT_EQ(restored.TenantBytes(3), 100u);
  auto blocks = restored.TenantBlocks(7);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].object_key, "k2");
  EXPECT_EQ(blocks[0].row_count, 9u);
}

// Property sweep over block sizes: the reader must reconstruct the batch
// exactly regardless of block granularity.
class LogBlockRoundTripTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(LogBlockRoundTripTest, FullReconstruction) {
  const uint32_t rows_per_block = GetParam();
  const RowBatch batch = MakeRequestLogBatch(777, rows_per_block, 123);
  auto reader = BuildAndOpen(batch, {.rows_per_block = rows_per_block});
  ASSERT_TRUE(reader.ok());

  for (size_t c = 0; c < batch.schema().num_columns(); ++c) {
    const bool is_int = batch.schema().column(c).type == ColumnType::kInt64;
    uint32_t r = 0;
    const size_t n_blocks = (*reader)->meta().columns[c].blocks.size();
    for (size_t b = 0; b < n_blocks; ++b) {
      auto decoded = (*reader)->ReadColumnBlock(c, b);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      ASSERT_EQ(decoded->first_row, r) << "col " << c << " block " << b;
      for (uint32_t i = 0; i < decoded->row_count(); ++i, ++r) {
        const Value value =
            is_int ? Value::Int64(decoded->ints[i])
                   : Value::String(std::string(decoded->strs[i]));
        EXPECT_TRUE(value == batch.ValueAt(c, r))
            << "col " << c << " row " << r;
      }
    }
    EXPECT_EQ(r, batch.num_rows()) << "col " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, LogBlockRoundTripTest,
                         ::testing::Values(1, 7, 64, 256, 777, 10000));

}  // namespace
}  // namespace logstore::logblock
