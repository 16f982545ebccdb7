#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "logblock/format.h"
#include "logblock/logblock_map.h"
#include "logblock/logblock_reader.h"
#include "logblock/logblock_writer.h"
#include "logblock/row_batch.h"
#include "logblock/schema.h"
#include "objectstore/tar_file.h"
#include "query/block_executor.h"
#include "test_env.h"
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

Result<std::unique_ptr<LogBlockReader>> Open(std::string package) {
  return LogBlockReader::Open(
      std::make_shared<StringSource>(std::move(package)));
}

// The package with the members named in `replaced` given new bytes; every
// other member keeps its bytes and its place.
std::string WithMembers(const std::string& package,
                        const std::map<std::string, std::string>& replaced) {
  auto tar = objectstore::TarReader::Parse(package);
  EXPECT_TRUE(tar.ok()) << tar.status().ToString();
  if (!tar.ok()) return package;
  objectstore::TarWriter writer;
  for (const objectstore::TarMember& member : tar->members()) {
    const auto it = replaced.find(member.name);
    const Status added = writer.AddMember(
        member.name, it != replaced.end()
                         ? Slice(it->second)
                         : Slice(package.data() + member.offset, member.size));
    EXPECT_TRUE(added.ok()) << added.ToString();
  }
  return writer.Finish();
}

std::string WithMetaBytes(const std::string& package,
                          const std::string& meta_bytes) {
  return WithMembers(package, {{MetaMemberName(), meta_bytes}});
}

std::string WithMeta(const std::string& package, const LogBlockMeta& meta) {
  std::string bytes;
  meta.EncodeTo(&bytes);
  return WithMetaBytes(package, bytes);
}

// Encoded bytes of one value, as the writer counts them against its block
// byte target: a zigzag varint, or a varint length and the bytes.
size_t EncodedValueBytes(const RowBatch& batch, size_t col, uint32_t row) {
  if (batch.schema().column(col).type == ColumnType::kInt64) {
    return VarintLength(ZigZagEncode64(batch.Int64At(col, row)));
  }
  const size_t len = batch.StringAt(col, row).size();
  return VarintLength(len) + len;
}

constexpr size_t kBlockTargetBytes = 32 << 10;

// Each column's blocks are non-empty and cover rows 0..row_count in order.
void ExpectBlocksPartitionRows(const LogBlockMeta& meta,
                               const std::string& label) {
  for (size_t c = 0; c < meta.columns.size(); ++c) {
    uint64_t next_row = 0;
    for (const ColumnBlockMeta& block : meta.columns[c].blocks) {
      EXPECT_GT(block.row_count, 0u) << label << " col " << c;
      EXPECT_EQ(block.first_row, next_row) << label << " col " << c;
      next_row = block.first_row + uint64_t{block.row_count};
    }
    EXPECT_EQ(next_row, meta.row_count) << label << " col " << c;
  }
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
  // Every column's blocks must cover the 100 rows; one block each.
  for (ColumnMeta& col : meta.columns) {
    ColumnBlockMeta block;
    block.row_count = 100;
    block.first_row = 0;
    block.offset = 0;
    block.size = 512;
    block.int_sma.Update(3);
    col.blocks.push_back(block);
  }

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

TEST(LogBlockMetaTest, DecodeRejectsBlockCountBeyondInput) {
  // A one-column meta whose column claims 0x7fffffff blocks and ends
  // there: the count must be refused before it sizes the block vector.
  // Both bounds refuse it: the row count (20 rows hold at most 20 blocks)
  // and the bytes left (none).
  LogBlockMeta meta;
  meta.schema = Schema({{"n", ColumnType::kInt64, false}});
  meta.columns.resize(1);
  for (uint32_t row_count : {20u, 0xffffffffu}) {
    meta.row_count = row_count;
    std::string bytes;
    meta.EncodeTo(&bytes);
    ASSERT_EQ(bytes.back(), '\0');  // the column's block count, 0
    bytes.pop_back();
    PutVarint32(&bytes, 0x7fffffff);
    Slice in(bytes);
    auto decoded = LogBlockMeta::DecodeFrom(&in);
    EXPECT_TRUE(decoded.status().IsCorruption())
        << row_count << ": " << decoded.status().ToString();
  }

  // More blocks than rows cannot partition them, even when the bytes for
  // every block are there.
  meta.row_count = 2;
  meta.columns[0].blocks.resize(3);
  for (uint32_t b = 0; b < 3; ++b) {
    meta.columns[0].blocks[b].first_row = b;
    meta.columns[0].blocks[b].row_count = 1;
  }
  std::string bytes;
  meta.EncodeTo(&bytes);
  Slice in(bytes);
  auto decoded = LogBlockMeta::DecodeFrom(&in);
  EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();
}

TEST(LogBlockMetaTest, DecodeRejectsBlocksThatDoNotPartitionRows) {
  // Blocks of 4, 3 and 3 rows over a 10-row LogBlock decode; a gap, an
  // overlap, an empty block, a short or long total, or no blocks at all
  // is Corruption.
  auto decode = [](const std::vector<std::pair<uint32_t, uint32_t>>& blocks,
                   uint32_t row_count) {
    LogBlockMeta meta;
    meta.schema = Schema({{"n", ColumnType::kInt64, false}});
    meta.row_count = row_count;
    meta.columns.resize(1);
    for (const auto& [first_row, rows] : blocks) {
      ColumnBlockMeta block;
      block.first_row = first_row;
      block.row_count = rows;
      meta.columns[0].blocks.push_back(block);
    }
    std::string bytes;
    meta.EncodeTo(&bytes);
    Slice in(bytes);
    return LogBlockMeta::DecodeFrom(&in).status();
  };
  EXPECT_TRUE(decode({{0, 4}, {4, 3}, {7, 3}}, 10).ok());
  EXPECT_TRUE(decode({}, 0).ok());
  EXPECT_TRUE(decode({{1, 4}, {5, 3}, {8, 2}}, 10).IsCorruption());  // row 0
  EXPECT_TRUE(decode({{0, 4}, {5, 3}, {8, 2}}, 10).IsCorruption());  // gap
  EXPECT_TRUE(decode({{0, 4}, {3, 3}, {6, 4}}, 10).IsCorruption());  // overlap
  EXPECT_TRUE(decode({{0, 4}, {4, 0}, {4, 6}}, 10).IsCorruption());  // empty
  EXPECT_TRUE(decode({{0, 4}, {4, 3}}, 10).IsCorruption());  // short
  EXPECT_TRUE(decode({{0, 4}, {4, 3}, {7, 4}}, 10).IsCorruption());  // long
  EXPECT_TRUE(decode({}, 10).IsCorruption());
  EXPECT_TRUE(
      decode({{0, 4}, {4, 0xffffffffu}, {3, 7}}, 10).IsCorruption());  // wrap
}

// Two LogBlocks whose columns have different block boundaries: `log`
// lines of 300-1000 bytes close `log` blocks at the byte target, while the
// other columns close at rows_per_block.
std::vector<BuiltLogBlock> WideLogBlocks() {
  std::vector<BuiltLogBlock> built;
  for (uint32_t rows_per_block : {64u, 96u}) {
    RowBatch batch(RequestLogSchema());
    Random rng(rows_per_block);
    for (uint32_t i = 0; i < 150; ++i) {
      std::string log = "GET /api/v1/resource status ";
      log += rng.OneIn(10) ? "error" : "ok";
      const size_t length = 300 + rng.Uniform(700);
      while (log.size() < length) {
        log += " token" + std::to_string(rng.Uniform(5000));
      }
      batch.AddRow({Value::Int64(static_cast<int64_t>(rng.Uniform(4))),
                    Value::Int64(i * 1000),
                    Value::String("192.168.0." + std::to_string(i % 32)),
                    Value::Int64(static_cast<int64_t>(rng.Uniform(500))),
                    Value::String(rng.OneIn(20) ? "true" : "false"),
                    Value::String(log)});
    }
    auto block = BuildLogBlock(batch, 1, {.rows_per_block = rows_per_block});
    EXPECT_TRUE(block.ok()) << block.status().ToString();
    if (block.ok()) built.push_back(std::move(block).value());
  }
  return built;
}

// Hostile-input sweep over LogBlock metas: truncate, flip bits, or splice
// in a run of another LogBlock's meta. A mutated meta either decodes to
// blocks that partition the rows or fails with Corruption; a LogBlock
// carrying one either fails to open or answers every block read and a
// query over every column with a Status, never a crash. Seeds default to
// a quick smoke count; CI raises CODEC_MUTATION_SEEDS under the
// sanitizers.
TEST(LogBlockMetaTest, MutatedMetasNeverCrash) {
  const std::vector<BuiltLogBlock> built = WideLogBlocks();
  ASSERT_EQ(built.size(), 2u);
  std::vector<std::string> metas;
  for (const BuiltLogBlock& b : built) {
    // The columns' boundaries differ, so the reader must use each list.
    ASSERT_NE(b.meta.columns[5].blocks[1].first_row,
              b.meta.columns[3].blocks[1].first_row);
    std::string bytes;
    b.meta.EncodeTo(&bytes);
    metas.push_back(std::move(bytes));
  }
  query::LogQuery scan;
  scan.predicates = {
      query::Predicate::Int64Compare("latency", query::CompareOp::kGe, 100),
      query::Predicate::Match("log", "status")};
  query::LogQuery count;
  count.agg = query::Aggregate::GroupCount("ip");

  const int seeds = testenv::SeedCount("CODEC_MUTATION_SEEDS", 400);
  int opened = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    Random rng(static_cast<uint64_t>(seed));
    const size_t which = rng.Uniform(2);
    std::string bytes = metas[which];
    switch (seed % 3) {
      case 0:  // truncate
        bytes.resize(rng.Uniform(bytes.size()));
        break;
      case 1: {  // flip 1-3 bits
        const int flips = 1 + static_cast<int>(rng.Uniform(3));
        for (int i = 0; i < flips; ++i) {
          bytes[rng.Uniform(bytes.size())] ^=
              static_cast<char>(1u << rng.Uniform(8));
        }
        break;
      }
      case 2: {  // splice a run of the other meta's bytes over this one's
        const std::string& donor = metas[1 - which];
        const size_t len = 1 + rng.Uniform(32);
        const size_t from = rng.Uniform(donor.size() - len + 1);
        const size_t to = rng.Uniform(bytes.size() - len + 1);
        bytes.replace(to, len, donor, from, len);
        break;
      }
    }
    const std::string label = "seed=" + std::to_string(seed);
    Slice in(bytes);
    auto decoded = LogBlockMeta::DecodeFrom(&in);
    if (!decoded.ok()) {
      EXPECT_TRUE(decoded.status().IsCorruption())
          << label << ": " << decoded.status().ToString();
      continue;
    }
    ExpectBlocksPartitionRows(*decoded, label);

    auto reader = Open(WithMetaBytes(built[which].data, bytes));
    if (!reader.ok()) continue;
    ++opened;
    for (size_t c = 0; c < (*reader)->schema().num_columns(); ++c) {
      for (size_t b = 0; b < (*reader)->meta().columns[c].blocks.size(); ++b) {
        (void)(*reader)->ReadColumnBlock(c, b);
      }
    }
    (void)query::ExecuteOnLogBlock(reader->get(), scan);
    (void)query::ExecuteOnLogBlock(reader->get(), count);
    if (HasFailure()) return;
  }
  // Mutations of SMA bytes and offsets still open; the sweep must have
  // read through some of them.
  EXPECT_GT(opened, 0);
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

TEST(LogBlockWriterTest, BlocksCloseAtRowLimitOrByteTarget) {
  // Generator rows (about 70-byte `log` lines) with a 40 KiB `log` value
  // at row 1500 and a 20 KiB one at row 2200.
  workload::LogGenerator gen(7);
  const RowBatch generated = gen.Generate(2, 3000, 0, 3'600'000'000);
  RowBatch batch(RequestLogSchema());
  for (uint32_t r = 0; r < generated.num_rows(); ++r) {
    std::vector<Value> row;
    for (size_t c = 0; c < generated.schema().num_columns(); ++c) {
      row.push_back(generated.ValueAt(c, r));
    }
    if (r == 1500) row[5] = Value::String(std::string(40 << 10, 'x'));
    if (r == 2200) row[5] = Value::String(std::string(20 << 10, 'y'));
    batch.AddRow(row);
  }

  for (uint32_t rows_per_block : {4096u, 1000u, 300u}) {
    auto built = BuildLogBlock(batch, 1, {.rows_per_block = rows_per_block});
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const std::string label = "rows_per_block " + std::to_string(rows_per_block);
    ExpectBlocksPartitionRows(built->meta, label);
    for (size_t c = 0; c < batch.schema().num_columns(); ++c) {
      const auto& blocks = built->meta.columns[c].blocks;
      for (size_t b = 0; b < blocks.size(); ++b) {
        const ColumnBlockMeta& block = blocks[b];
        const uint32_t end = block.first_row + block.row_count;
        size_t bytes = 0;
        for (uint32_t r = block.first_row; r < end; ++r) {
          bytes += EncodedValueBytes(batch, c, r);
        }
        const std::string where = label + " col " + std::to_string(c) +
                                  " block " + std::to_string(b);
        EXPECT_LE(block.row_count, rows_per_block) << where;
        if (block.row_count >= 2) {
          EXPECT_LE(bytes, kBlockTargetBytes) << where;
        }
        // A block ends at the row limit, where the next value would pass
        // the byte target, or at the last row.
        if (end < batch.num_rows() && block.row_count < rows_per_block) {
          EXPECT_GT(bytes + EncodedValueBytes(batch, c, end),
                    kBlockTargetBytes)
              << where;
        }
      }
    }
    // The 40 KiB value has a block of its own; the 20 KiB one shares.
    const auto& log_blocks = built->meta.columns[5].blocks;
    const auto holding = [&](uint32_t row) {
      for (const ColumnBlockMeta& block : log_blocks) {
        if (row < block.first_row + block.row_count) return block;
      }
      return ColumnBlockMeta();
    };
    EXPECT_EQ(holding(1500).first_row, 1500u) << label;
    EXPECT_EQ(holding(1500).row_count, 1u) << label;
    EXPECT_GT(holding(2200).row_count, 1u) << label;

    // Every value reads back.
    auto reader = Open(built->data);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    for (size_t b = 0; b < log_blocks.size(); ++b) {
      auto decoded = (*reader)->ReadColumnBlock(5, b);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      for (uint32_t i = 0; i < decoded->row_count(); ++i) {
        ASSERT_EQ(decoded->strs[i],
                  batch.StringAt(5, log_blocks[b].first_row + i));
      }
    }
  }
}

TEST(LogBlockWriterTest, RequestLogIntColumnsKeepFullBlocks) {
  // 10,000 generator rows over 48 h, as in the benchmark archive: the int
  // columns encode to a few bytes a value and close at rows_per_block,
  // while `log` and `ip` close at the byte target, so no two string
  // columns and no string and int column share all their boundaries.
  workload::LogGenerator gen(11);
  const RowBatch batch = gen.Generate(3, 10000, 0, 48ll * 3600 * 1'000'000);
  auto built = BuildLogBlock(batch, 3);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const LogBlockMeta& meta = built->meta;
  ExpectBlocksPartitionRows(meta, "request log");
  for (size_t c : {0, 1, 3}) {
    ASSERT_EQ(meta.columns[c].blocks.size(), 3u) << "col " << c;
    EXPECT_EQ(meta.columns[c].blocks[0].row_count, 4096u) << "col " << c;
    EXPECT_EQ(meta.columns[c].blocks[1].row_count, 4096u) << "col " << c;
    EXPECT_EQ(meta.columns[c].blocks[2].row_count, 1808u) << "col " << c;
  }
  EXPECT_GT(meta.columns[2].blocks.size(), 3u);   // ip
  EXPECT_GT(meta.columns[5].blocks.size(), 15u);  // log
  EXPECT_NE(meta.columns[2].blocks.size(), meta.columns[5].blocks.size());
}

TEST(LogBlockWriterTest, BytesArePinned) {
  // LogBlocks from seeded generator batches, from hand-made values (upper
  // case, bytes >= 0x80, tokens of 8 or more characters with and without
  // digits, empty strings) and from `log` values wide enough that the byte
  // target closes their blocks under both block sizes, one of them wider
  // than the target; with both LZ codecs and two column block sizes. The
  // first digest covers every LogBlock's bytes in build order, so any
  // change to the bytes the builder writes fails here. The second covers
  // only the index members, which the column-block layout does not touch:
  // it was the same when every column block held rows_per_block rows.
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
  RowBatch wide(RequestLogSchema());
  for (uint32_t i = 0; i < 90; ++i) {
    const size_t length = i == 40 ? size_t{40} << 10 : 200 + (i * 389) % 1800;
    std::string log;
    for (size_t k = i; log.size() < length; ++k) {
      log += logs[k % logs.size()];
      log += ' ';
    }
    wide.AddRow({
        Value::Int64(i % 2),
        Value::Int64(5'000'000 + i * 11),
        Value::String(ips[i % ips.size()]),
        Value::Int64(static_cast<int64_t>((i * 53) % 700)),
        Value::String(fails[(i * 7) % fails.size()]),
        Value::String(log),
    });
  }
  batches.push_back(std::move(wide));

  uint32_t digest = 0;
  uint32_t index_digest = 0;
  for (compress::CodecType codec :
       {compress::CodecType::kLzFast, compress::CodecType::kLzRatio}) {
    for (uint32_t rows_per_block : {LogBlockWriterOptions{}.rows_per_block,
                                    uint32_t{128}}) {
      for (const RowBatch& batch : batches) {
        auto built = BuildLogBlock(
            batch, 7, {.codec = codec, .rows_per_block = rows_per_block});
        ASSERT_TRUE(built.ok()) << built.status().ToString();
        digest = crc32c::Extend(digest, built->data.data(), built->data.size());
        auto tar = objectstore::TarReader::Parse(built->data);
        ASSERT_TRUE(tar.ok());
        for (const objectstore::TarMember& member : tar->members()) {
          if (member.name.rfind("index/", 0) != 0) continue;
          index_digest = crc32c::Extend(index_digest, member.name.data(),
                                        member.name.size());
          index_digest = crc32c::Extend(
              index_digest, built->data.data() + member.offset, member.size);
        }
      }
    }
  }
  EXPECT_EQ(digest, 0xbafdb53eu);
  EXPECT_EQ(index_digest, 0x54788e19u);
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

TEST(LogBlockReaderTest, OpenRejectsBlocksThatDoNotPartitionRows) {
  // A 20-row LogBlock whose `log` block 0 claims to start at row 5. Opened,
  // a gather of rows 0-4 would index the block at a negative offset.
  const RowBatch batch = MakeRequestLogBatch(20, 9, 0);
  auto built = BuildLogBlock(batch, 1);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  LogBlockMeta meta = built->meta;
  ASSERT_EQ(meta.columns[5].blocks.size(), 1u);
  meta.columns[5].blocks[0].first_row = 5;
  auto reader = Open(WithMeta(built->data, meta));
  EXPECT_TRUE(reader.status().IsCorruption()) << reader.status().ToString();
}

TEST(LogBlockReaderTest, OpenRejectsChunkOutsideDataMember) {
  const RowBatch batch = MakeRequestLogBatch(200, 4, 0);
  auto built = BuildLogBlock(batch, 1, {.rows_per_block = 64});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_TRUE(Open(WithMeta(built->data, built->meta)).ok());

  auto clean = Open(built->data);
  ASSERT_TRUE(clean.ok());
  auto member = (*clean)->MemberRange(DataMemberName(3));
  ASSERT_TRUE(member.ok());

  LogBlockMeta meta = built->meta;
  ColumnBlockMeta& last = meta.columns[3].blocks.back();
  ASSERT_EQ(last.offset + last.size, member->size);
  ++last.size;  // one byte past the member's end
  EXPECT_TRUE(Open(WithMeta(built->data, meta)).status().IsCorruption());

  meta = built->meta;
  meta.columns[3].blocks[1].offset = ~uint64_t{0};  // offset + size wraps
  EXPECT_TRUE(Open(WithMeta(built->data, meta)).status().IsCorruption());
}

// The package with every chunk of column `col` given a validity bitset of
// `bitset_len(row_count)` all-ones bytes, and the meta's offsets and sizes
// moved to match: the chunk shape the writer used to produce.
std::string WithBitsets(const BuiltLogBlock& built, size_t col,
                        uint32_t (*bitset_len)(uint32_t)) {
  auto reader = Open(built.data);
  EXPECT_TRUE(reader.ok());
  auto member = (*reader)->MemberRange(DataMemberName(col));
  EXPECT_TRUE(member.ok());
  LogBlockMeta meta = built.meta;
  std::string data;
  for (ColumnBlockMeta& block : meta.columns[col].blocks) {
    Slice chunk(built.data.data() + member->offset + block.offset,
                block.size);
    uint32_t old_len = 0;
    EXPECT_TRUE(GetVarint32(&chunk, &old_len));
    chunk.remove_prefix(old_len);
    block.offset = data.size();
    const uint32_t len = bitset_len(block.row_count);
    PutVarint32(&data, len);
    data.append(len, '\xff');
    data.append(chunk.data(), chunk.size());
    block.size = data.size() - block.offset;
  }
  std::string meta_bytes;
  meta.EncodeTo(&meta_bytes);
  return WithMembers(built.data, {{MetaMemberName(), meta_bytes},
                                  {DataMemberName(col), data}});
}

TEST(LogBlockReaderTest, BitsetIsAbsentOrOneBitPerRow) {
  // The writer stores no bitset (length 0); a LogBlock whose chunks carry
  // the full bitset of (row_count + 7) / 8 bytes reads the same values;
  // any other length is Corruption.
  const RowBatch batch = MakeRequestLogBatch(200, 12, 0);
  auto built = BuildLogBlock(batch, 1, {.rows_per_block = 60});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto plain = Open(built->data);
  ASSERT_TRUE(plain.ok());
  for (size_t c = 0; c < built->meta.columns.size(); ++c) {
    for (size_t b = 0; b < built->meta.columns[c].blocks.size(); ++b) {
      auto range = (*plain)->ColumnBlockRange(c, b);
      ASSERT_TRUE(range.ok());
      EXPECT_EQ(built->data[range->offset], '\0');  // bitset_len 0
    }
  }

  auto full = Open(WithBitsets(*built, 5, [](uint32_t rows) {
    return (rows + 7) / 8;
  }));
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  for (size_t b = 0; b < built->meta.columns[5].blocks.size(); ++b) {
    auto want = (*plain)->ReadColumnBlock(5, b);
    auto got = (*full)->ReadColumnBlock(5, b);
    ASSERT_TRUE(want.ok() && got.ok()) << got.status().ToString();
    EXPECT_EQ(got->strs, want->strs) << "block " << b;
  }

  for (uint32_t (*len)(uint32_t) :
       {+[](uint32_t rows) { return (rows + 7) / 8 + 1; },
        +[](uint32_t rows) { return (rows + 7) / 8 - 1; },
        +[](uint32_t) { return 1u; }}) {
    auto odd = Open(WithBitsets(*built, 5, len));
    ASSERT_TRUE(odd.ok()) << odd.status().ToString();
    EXPECT_TRUE((*odd)->ReadColumnBlock(5, 0).status().IsCorruption());
  }
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
