#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "compress/codec.h"
#include "logblock/logblock_reader.h"
#include "logblock/logblock_writer.h"
#include "test_env.h"
#include "workload/loggen.h"

namespace logstore::compress {
namespace {

std::string MakeLogLikePayload(int rows, uint64_t seed) {
  // Synthetic log lines with heavy repetition, like real audit logs.
  Random rng(seed);
  std::string payload;
  for (int i = 0; i < rows; ++i) {
    payload += "2020-11-11 00:0" + std::to_string(rng.Uniform(10)) +
               ":00 GET /api/v1/instances/" + std::to_string(rng.Uniform(50)) +
               " status=200 latency=" + std::to_string(rng.Uniform(500)) +
               "ms tenant=" + std::to_string(rng.Uniform(16)) + "\n";
  }
  return payload;
}

std::string MakeRandomPayload(size_t n, uint64_t seed) {
  Random rng(seed);
  std::string payload(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    payload[i] = static_cast<char>(rng.Uniform(256));
  }
  return payload;
}

class CodecRoundTripTest : public ::testing::TestWithParam<CodecType> {};

TEST_P(CodecRoundTripTest, EmptyInput) {
  const Codec* codec = GetCodec(GetParam());
  ASSERT_NE(codec, nullptr);
  std::string compressed, restored;
  ASSERT_TRUE(codec->Compress(Slice(), &compressed).ok());
  ASSERT_TRUE(codec->Decompress(compressed, &restored).ok());
  EXPECT_TRUE(restored.empty());
}

TEST_P(CodecRoundTripTest, TinyInputs) {
  const Codec* codec = GetCodec(GetParam());
  for (size_t n = 1; n <= 8; ++n) {
    const std::string input(n, 'x');
    std::string compressed, restored;
    ASSERT_TRUE(codec->Compress(input, &compressed).ok());
    ASSERT_TRUE(codec->Decompress(compressed, &restored).ok());
    EXPECT_EQ(restored, input) << "n=" << n;
  }
}

TEST_P(CodecRoundTripTest, LogLikePayload) {
  const Codec* codec = GetCodec(GetParam());
  const std::string input = MakeLogLikePayload(2000, 42);
  std::string compressed, restored;
  ASSERT_TRUE(codec->Compress(input, &compressed).ok());
  ASSERT_TRUE(codec->Decompress(compressed, &restored).ok());
  EXPECT_EQ(restored, input);
}

TEST_P(CodecRoundTripTest, IncompressibleRandomPayload) {
  const Codec* codec = GetCodec(GetParam());
  const std::string input = MakeRandomPayload(64 * 1024, 99);
  std::string compressed, restored;
  ASSERT_TRUE(codec->Compress(input, &compressed).ok());
  ASSERT_TRUE(codec->Decompress(compressed, &restored).ok());
  EXPECT_EQ(restored, input);
}

TEST_P(CodecRoundTripTest, HighlyRepetitivePayload) {
  const Codec* codec = GetCodec(GetParam());
  std::string input;
  for (int i = 0; i < 1000; ++i) input += "abcabcabc";
  std::string compressed, restored;
  ASSERT_TRUE(codec->Compress(input, &compressed).ok());
  ASSERT_TRUE(codec->Decompress(compressed, &restored).ok());
  EXPECT_EQ(restored, input);
  if (GetParam() != CodecType::kNone) {
    EXPECT_LT(compressed.size(), input.size() / 10);
  }
}

TEST_P(CodecRoundTripTest, AppendsToExistingOutput) {
  const Codec* codec = GetCodec(GetParam());
  std::string compressed;
  ASSERT_TRUE(codec->Compress("payload-bytes", &compressed).ok());
  std::string restored = "prefix:";
  ASSERT_TRUE(codec->Decompress(compressed, &restored).ok());
  EXPECT_EQ(restored, "prefix:payload-bytes");
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecRoundTripTest,
                         ::testing::Values(CodecType::kNone, CodecType::kLzFast,
                                           CodecType::kLzRatio),
                         [](const auto& info) -> std::string {
                           switch (info.param) {
                             case CodecType::kNone: return "None";
                             case CodecType::kLzFast: return "LzFast";
                             case CodecType::kLzRatio: return "LzRatio";
                           }
                           return "Unknown";
                         });

TEST(CodecTest, RatioCodecCompressesBetterThanFast) {
  const std::string input = MakeLogLikePayload(5000, 7);
  std::string fast_out, ratio_out;
  ASSERT_TRUE(GetCodec(CodecType::kLzFast)->Compress(input, &fast_out).ok());
  ASSERT_TRUE(GetCodec(CodecType::kLzRatio)->Compress(input, &ratio_out).ok());
  // Both shrink the log payload substantially...
  EXPECT_LT(fast_out.size(), input.size() / 2);
  // ...and the ratio codec is at least as good as fast (paper picks ZSTD
  // for its superior ratio).
  EXPECT_LE(ratio_out.size(), fast_out.size());
}

TEST(CodecTest, DecompressRejectsTruncation) {
  const Codec* codec = GetCodec(CodecType::kLzRatio);
  const std::string input = MakeLogLikePayload(500, 3);
  std::string compressed;
  ASSERT_TRUE(codec->Compress(input, &compressed).ok());
  for (size_t cut : {size_t{0}, compressed.size() / 2, compressed.size() - 1}) {
    std::string restored;
    Status s = codec->Decompress(Slice(compressed.data(), cut), &restored);
    EXPECT_FALSE(s.ok()) << "cut=" << cut;
  }
}

TEST(CodecTest, DecompressRejectsGarbage) {
  const Codec* codec = GetCodec(CodecType::kLzFast);
  std::string restored;
  // A header that promises a huge size with an out-of-range match offset.
  std::string garbage = {'\xff', '\xff', '\x7f', '\x00', '\x09', '\x01'};
  EXPECT_FALSE(codec->Decompress(garbage, &restored).ok());
}

TEST(CodecTest, UnknownCodecReturnsNull) {
  EXPECT_EQ(GetCodec(static_cast<CodecType>(200)), nullptr);
}

TEST(CodecTest, OverlappingMatchRuns) {
  // "aaaa..." forces overlapping match copies (offset < length).
  const Codec* codec = GetCodec(CodecType::kLzFast);
  const std::string input(10000, 'a');
  std::string compressed, restored;
  ASSERT_TRUE(codec->Compress(input, &compressed).ok());
  EXPECT_LT(compressed.size(), 100u);
  ASSERT_TRUE(codec->Decompress(compressed, &restored).ok());
  EXPECT_EQ(restored, input);
}

TEST(CodecTest, HostileSizeHeaderIsCorruptionNotAbort) {
  // 11 bytes: a size header of 2^62, an empty literal run and the end
  // marker. Sizing the output from the header alone would ask for 4 EiB
  // and abort; the header is only trusted up to a multiple of the input.
  for (uint64_t header : {uint64_t{1} << 62, uint64_t{1} << 61,
                          uint64_t{1} << 40, uint64_t{1} << 20}) {
    std::string hostile;
    PutVarint64(&hostile, header);
    hostile.push_back('\0');  // literal length 0
    hostile.push_back('\0');  // match offset 0: end of stream
    if (header == uint64_t{1} << 62) {
      ASSERT_EQ(hostile.size(), 11u);
    }
    for (CodecType type : {CodecType::kLzFast, CodecType::kLzRatio}) {
      std::string restored;
      const Status s = GetCodec(type)->Decompress(hostile, &restored);
      EXPECT_TRUE(s.IsCorruption()) << header << ": " << s.ToString();
    }
  }
}

std::string RandomBytes(size_t n, Random* rng) {
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng->Uniform(256));
  return bytes;
}

// Decodes from a heap copy of exactly the stream's bytes, so that ASan
// reports any read past the end of the input.
Status DecompressExactCopy(const Codec* codec, const std::string& stream,
                           std::string* output) {
  std::unique_ptr<char[]> copy(new char[stream.size()]);
  std::copy(stream.begin(), stream.end(), copy.get());
  return codec->Decompress(Slice(copy.get(), stream.size()), output);
}

// Matches at offsets 1-40 with lengths 4-70 after literal runs of 0-33
// bytes: both sides of the decoder's 8- and 16-byte copy widths and of its
// 16-byte literal copy, including a short last run that ends the input.
// Each case is decoded from an exactly sized copy and appended to a
// non-empty output, so a read past the input, a byte left in the copy
// slack or a damaged prefix fails.
TEST(CodecTest, RoundTripsShortOffsetsAndCopyBoundaries) {
  Random rng(816);
  const Codec* lz = GetCodec(CodecType::kLzFast);

  // Token streams built by hand, so every literal length and match shape
  // appears exactly as listed.
  for (uint32_t offset = 1; offset <= 40; ++offset) {
    for (uint32_t lit_len = 0; lit_len <= 33; ++lit_len) {
      std::string body;
      std::string expected = RandomBytes(40, &rng);
      PutVarint32(&body, 40);
      body += expected;
      for (uint32_t len = 4; len <= 70; ++len) {
        PutVarint32(&body, offset);
        PutVarint32(&body, len - 4);
        for (uint32_t i = 0; i < len; ++i) {
          expected.push_back(expected[expected.size() - offset]);
        }
        const std::string literals = RandomBytes(lit_len, &rng);
        PutVarint32(&body, lit_len);
        body += literals;
        expected += literals;
      }
      PutVarint32(&body, 0);  // end of stream
      std::string stream;
      PutVarint64(&stream, expected.size());
      stream += body;
      std::string restored = "prefix";
      ASSERT_TRUE(DecompressExactCopy(lz, stream, &restored).ok())
          << "offset=" << offset << " literals=" << lit_len;
      ASSERT_EQ(restored, "prefix" + expected)
          << "offset=" << offset << " literals=" << lit_len;
    }
  }

  // Payloads with the same shapes through both compressors: a random
  // period, a run repeating it, then a random separator so that each run
  // ends where it was built to.
  for (uint64_t offset = 1; offset <= 40; ++offset) {
    std::string input;
    for (size_t len = 4; len <= 70; ++len) {
      const std::string period = RandomBytes(offset, &rng);
      input += period;
      for (size_t i = 0; i < len; ++i) input.push_back(period[i % offset]);
      input += RandomBytes((len + offset) % 34, &rng);
    }
    for (CodecType type : {CodecType::kLzFast, CodecType::kLzRatio}) {
      const Codec* codec = GetCodec(type);
      std::string compressed;
      ASSERT_TRUE(codec->Compress(input, &compressed).ok());
      std::string restored = "prefix";
      ASSERT_TRUE(DecompressExactCopy(codec, compressed, &restored).ok());
      ASSERT_EQ(restored, "prefix" + input)
          << codec->name() << " offset=" << offset;
    }
  }
}

// Test-only reference decoder for the LZ token format: one byte at a time,
// no up-front sizing. Output past the size header is Corruption as soon as
// it happens (the production decoder checks before every write), so a
// corrupted match length cannot make the reference allocate gigabytes.
Status ReferenceLzDecompress(const Slice& input, std::string* output) {
  Slice in = input;
  uint64_t expected_size;
  if (!GetVarint64(&in, &expected_size)) return Status::Corruption("header");
  const size_t base = output->size();
  auto produced = [&] { return output->size() - base; };
  while (true) {
    uint32_t lit_len;
    if (!GetVarint32(&in, &lit_len)) return Status::Corruption("lit len");
    if (in.size() < lit_len) return Status::Corruption("literals");
    for (uint32_t i = 0; i < lit_len; ++i) {
      if (produced() >= expected_size) return Status::Corruption("over");
      output->push_back(in[i]);
    }
    in.remove_prefix(lit_len);
    uint32_t offset;
    if (!GetVarint32(&in, &offset)) return Status::Corruption("offset");
    if (offset == 0) break;
    uint32_t extra;
    if (!GetVarint32(&in, &extra)) return Status::Corruption("match len");
    if (offset > produced()) return Status::Corruption("before start");
    for (uint64_t i = 0; i < uint64_t{extra} + 4; ++i) {
      if (produced() >= expected_size) return Status::Corruption("over");
      output->push_back((*output)[output->size() - offset]);
    }
  }
  if (produced() != expected_size) return Status::Corruption("size");
  return Status::OK();
}

// Test-only reference compressor: the LZ compressor as it was when every
// call allocated and zeroed its own match tables and compared match bytes
// one at a time. `chain_depth` 0 is kLzFast, 32 is kLzRatio. The codecs
// must emit exactly its bytes.
void ReferenceLzCompress(const Slice& input, int chain_depth,
                         std::string* output) {
  constexpr size_t kMinMatch = 4;
  constexpr size_t kMaxOffset = 1u << 16;
  constexpr size_t kHashSize = 1u << 15;
  auto read32 = [](const char* p) {
    uint32_t v;
    memcpy(&v, p, sizeof(v));
    return v;
  };
  auto hash = [&](const char* p) { return (read32(p) * 2654435761u) >> 17; };
  auto emit_literals = [&](size_t from, size_t to) {
    PutVarint32(output, static_cast<uint32_t>(to - from));
    output->append(input.data() + from, to - from);
  };
  const char* base = input.data();
  const size_t n = input.size();
  PutVarint64(output, n);
  if (n < kMinMatch + 1) {
    emit_literals(0, n);
    PutVarint32(output, 0);
    return;
  }
  std::vector<uint32_t> head(kHashSize, 0);  // position + 1; 0 = empty
  std::vector<uint32_t> prev;
  if (chain_depth > 0) prev.assign(n, 0);
  size_t pos = 0;
  size_t lit_start = 0;
  const size_t last_match_pos = n - kMinMatch;
  while (pos <= last_match_pos) {
    const uint32_t h = hash(base + pos);
    size_t best_len = 0;
    size_t best_off = 0;
    uint32_t cand = head[h];
    int probes = chain_depth > 0 ? chain_depth : 1;
    while (cand != 0 && probes-- > 0) {
      const size_t cpos = cand - 1;
      if (pos - cpos > kMaxOffset) break;
      if (read32(base + cpos) == read32(base + pos)) {
        size_t len = kMinMatch;
        while (pos + len < n && base[pos + len] == base[cpos + len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_off = pos - cpos;
        }
      }
      if (chain_depth == 0) break;
      cand = prev[cpos];
    }
    if (best_len >= kMinMatch) {
      emit_literals(lit_start, pos);
      PutVarint32(output, static_cast<uint32_t>(best_off));
      PutVarint32(output, static_cast<uint32_t>(best_len - kMinMatch));
      const size_t end = pos + best_len;
      const size_t step = chain_depth > 0 ? 1 : 2;
      for (size_t i = pos; i < end && i <= last_match_pos; i += step) {
        const uint32_t hh = hash(base + i);
        if (chain_depth > 0) prev[i] = head[hh];
        head[hh] = static_cast<uint32_t>(i + 1);
      }
      pos = end;
      lit_start = pos;
    } else {
      if (chain_depth > 0) prev[pos] = head[h];
      head[h] = static_cast<uint32_t>(pos + 1);
      ++pos;
    }
  }
  emit_literals(lit_start, n);
  PutVarint32(output, 0);
}

int ReferenceChainDepth(CodecType type) {
  return type == CodecType::kLzRatio ? 32 : 0;
}

// Inputs for the compressor checks: log-like text, random bytes, long runs,
// the uncompressed value stream of every column of generated rows, and
// inputs around the minimum match length.
std::vector<std::string> CompressorCorpus() {
  std::vector<std::string> corpus = {
      MakeLogLikePayload(1500, 42), MakeRandomPayload(40 * 1024, 99),
      std::string(9000, 'a'), "", "abcd", "abcde", "abcdabcdabcd"};
  std::string abc;
  for (int i = 0; i < 1000; ++i) abc += "abcabcabc";
  corpus.push_back(std::move(abc));
  workload::LogGenerator gen(17);
  const logblock::RowBatch rows = gen.Generate(2, 1500, 0, 3'600'000'000);
  for (size_t c = 0; c < rows.schema().num_columns(); ++c) {
    std::string values;
    for (uint32_t r = 0; r < rows.num_rows(); ++r) {
      if (rows.schema().column(c).type == logblock::ColumnType::kInt64) {
        PutVarsint64(&values, rows.Int64At(c, r));
      } else {
        PutLengthPrefixedSlice(&values, rows.StringAt(c, r));
      }
    }
    corpus.push_back(std::move(values));
  }
  return corpus;
}

// One compressor input: a prefix of a corpus entry, with the reference
// output for one codec.
struct CompressCase {
  CodecType type;
  Slice input;
  std::string want;
};

// Each corpus entry whole and cut to random lengths, for both LZ codecs,
// shuffled so that large and small inputs alternate.
std::vector<CompressCase> CompressCases(const std::vector<std::string>& corpus,
                                        int cuts_per_entry) {
  std::vector<CompressCase> cases;
  Random rng(321);
  for (const std::string& text : corpus) {
    for (int k = 0; k <= cuts_per_entry; ++k) {
      const size_t n = k == 0 ? text.size() : rng.Uniform(text.size() + 1);
      for (CodecType type : {CodecType::kLzFast, CodecType::kLzRatio}) {
        CompressCase c{type, Slice(text.data(), n), ""};
        ReferenceLzCompress(c.input, ReferenceChainDepth(type), &c.want);
        cases.push_back(std::move(c));
      }
    }
  }
  for (size_t i = cases.size(); i > 1; --i) {
    std::swap(cases[i - 1], cases[rng.Uniform(i)]);
  }
  return cases;
}

// Both codecs emit the reference's bytes, call after call on one thread,
// so match-table entries left by earlier (larger or smaller) calls never
// change a later call's output.
TEST(CodecTest, CompressMatchesReferenceCompressor) {
  const std::vector<std::string> corpus = CompressorCorpus();
  for (const CompressCase& c : CompressCases(corpus, 5)) {
    std::string got = "prefix";  // Compress appends
    ASSERT_TRUE(GetCodec(c.type)->Compress(c.input, &got).ok());
    ASSERT_EQ(got, "prefix" + c.want)
        << GetCodec(c.type)->name() << " n=" << c.input.size();
  }
}

// Several threads compress the corpus at once, each in its own order, and
// every output equals the reference's: the per-thread match tables never
// leak between threads or between calls.
TEST(CodecTest, ConcurrentCompressionMatchesReference) {
  const std::vector<std::string> corpus = CompressorCorpus();
  const std::vector<CompressCase> cases = CompressCases(corpus, 2);
  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(100 + t);
      for (size_t k = 0; k < 2 * cases.size(); ++k) {
        const CompressCase& c = cases[rng.Uniform(cases.size())];
        std::string got;
        if (!GetCodec(c.type)->Compress(c.input, &got).ok() || got != c.want) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// The compressed payloads of every column block of LogBlocks built from
// the workload generator's rows, with both LZ codecs.
std::vector<std::string> RealColumnBlockPayloads() {
  std::vector<std::string> payloads;
  workload::LogGenerator gen(5);
  const logblock::RowBatch rows = gen.Generate(3, 1500, 0, 3'600'000'000);
  for (CodecType type : {CodecType::kLzFast, CodecType::kLzRatio}) {
    auto built = logblock::BuildLogBlock(
        rows, 3, {.codec = type, .rows_per_block = 500});
    EXPECT_TRUE(built.ok());
    if (!built.ok()) continue;
    auto reader = logblock::LogBlockReader::Open(
        std::make_shared<logblock::StringSource>(built->data));
    EXPECT_TRUE(reader.ok());
    if (!reader.ok()) continue;
    const auto& columns = (*reader)->meta().columns;
    for (size_t c = 0; c < columns.size(); ++c) {
      for (size_t b = 0; b < columns[c].blocks.size(); ++b) {
        auto range = (*reader)->ColumnBlockRange(c, b);
        EXPECT_TRUE(range.ok());
        if (!range.ok()) continue;
        // Chunk layout: varint bitset length, bitset, fixed32 CRC, payload.
        Slice chunk(built->data.data() + range->offset, range->size);
        uint32_t bitset_len = 0, crc = 0;
        EXPECT_TRUE(GetVarint32(&chunk, &bitset_len));
        chunk.remove_prefix(bitset_len);
        EXPECT_TRUE(GetFixed32(&chunk, &crc));
        payloads.push_back(chunk.ToString());
      }
    }
  }
  return payloads;
}

// Writes `v` as a varint of at least `width` bytes: groups past the value's
// own are written as zero groups with the continuation bit set, a longer
// encoding GetVarint32 accepts for the same value.
void PutPaddedVarint(std::string* dst, uint64_t v, int width) {
  for (int i = 1; i < width || v >= 0x80; ++i) {
    dst->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

// Token streams whose varints take every width from 1 to 6 bytes, padded
// or not, with values of one to three 7-bit groups and now and then a
// literal length past UINT32_MAX; each stream whole, cut in each of its
// last 8 bytes (inside a varint near the end of the input) and cut at
// random points. The decoder's inline 1-3 byte reads must give the
// reference decoder's verdict and bytes in every case.
TEST(CodecTest, VarintsOfEveryWidthMatchReferenceDecoder) {
  Random rng(2021);
  const Codec* lz = GetCodec(CodecType::kLzRatio);
  auto width = [&rng](uint64_t v) {
    const int needed = v < (1u << 7) ? 1 : v < (1u << 14) ? 2 : 3;
    return std::max(needed, 1 + static_cast<int>(rng.Uniform(6)));
  };
  int decoded_ok = 0;
  for (int round = 0; round < 300; ++round) {
    std::string body;
    uint64_t produced = 0;
    const int tokens = 1 + static_cast<int>(rng.Uniform(5));
    for (int t = 0; t < tokens; ++t) {
      uint64_t lit_len = rng.Uniform(rng.OneIn(4) ? 300 : 20);
      if (produced == 0 && lit_len == 0) lit_len = 1;
      if (rng.OneIn(60)) lit_len = (uint64_t{1} << 32) + rng.Uniform(100);
      PutPaddedVarint(&body, lit_len, width(lit_len));
      if (lit_len > UINT32_MAX) break;  // both decoders must reject it
      body += RandomBytes(lit_len, &rng);
      produced += lit_len;
      if (t + 1 == tokens) {
        PutPaddedVarint(&body, 0, width(0));  // end of stream
        break;
      }
      const uint64_t offset = 1 + rng.Uniform(produced);
      const uint64_t extra =
          rng.OneIn(8) ? 16384 + rng.Uniform(4096) : rng.Uniform(200);
      PutPaddedVarint(&body, offset, width(offset));
      PutPaddedVarint(&body, extra, width(extra));
      produced += extra + 4;
    }
    std::string stream;
    PutVarint64(&stream, produced);
    stream += body;

    std::vector<size_t> cuts = {stream.size()};
    for (size_t back = 1; back <= 8 && back < stream.size(); ++back) {
      cuts.push_back(stream.size() - back);
    }
    for (int i = 0; i < 4; ++i) cuts.push_back(rng.Uniform(stream.size()));
    for (size_t cut : cuts) {
      const std::string input = stream.substr(0, cut);
      std::string got = "prefix";
      const Status status = DecompressExactCopy(lz, input, &got);
      std::string want = "prefix";
      const Status reference = ReferenceLzDecompress(input, &want);
      ASSERT_EQ(status.ok(), reference.ok())
          << "round=" << round << " cut=" << cut << "/" << stream.size()
          << ": " << status.ToString() << " vs " << reference.ToString();
      if (status.ok()) {
        ++decoded_ok;
        ASSERT_EQ(got, want) << "round=" << round << " cut=" << cut;
      }
    }
  }
  EXPECT_GT(decoded_ok, 100);
}

// Hostile-input sweep over real column blocks: truncate, flip bits, splice
// in bytes from another block, or inflate the size header. Every case must
// return a Status, and the decoder must agree with the reference: the same
// verdict, and on OK the same bytes. Seeds default to a quick smoke count;
// CI raises CODEC_MUTATION_SEEDS under the sanitizers.
TEST(CodecTest, MutatedColumnBlocksMatchReferenceDecoder) {
  const std::vector<std::string> payloads = RealColumnBlockPayloads();
  ASSERT_GE(payloads.size(), 12u);
  const int seeds = testenv::SeedCount("CODEC_MUTATION_SEEDS", 400);
  int decoded_ok = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    Random rng(static_cast<uint64_t>(seed));
    std::string bytes = payloads[rng.Uniform(payloads.size())];
    switch (seed % 4) {
      case 0:  // truncate
        bytes.resize(rng.Uniform(bytes.size() + 1));
        break;
      case 1: {  // flip 1-3 bits
        const int flips = 1 + static_cast<int>(rng.Uniform(3));
        for (int i = 0; i < flips; ++i) {
          bytes[rng.Uniform(bytes.size())] ^=
              static_cast<char>(1u << rng.Uniform(8));
        }
        break;
      }
      case 2: {  // splice a run of another block's bytes over this one's
        const std::string& donor = payloads[rng.Uniform(payloads.size())];
        const size_t len = 1 + rng.Uniform(std::min<size_t>(
                                   32, std::min(donor.size(), bytes.size())));
        const size_t from = rng.Uniform(donor.size() - len + 1);
        const size_t to = rng.Uniform(bytes.size() - len + 1);
        bytes.replace(to, len, donor, from, len);
        break;
      }
      case 3: {  // inflate the size header
        Slice in(bytes);
        uint64_t size = 0;
        ASSERT_TRUE(GetVarint64(&in, &size));
        const uint64_t inflated =
            rng.OneIn(2) ? size + 1 + rng.Uniform(1u << 20)
                         : uint64_t{1} << (32 + rng.Uniform(31));
        std::string rebuilt;
        PutVarint64(&rebuilt, inflated);
        rebuilt.append(in.data(), in.size());
        bytes = std::move(rebuilt);
        break;
      }
    }
    std::string got = "prefix";  // Decompress appends
    const Status status =
        GetCodec(CodecType::kLzRatio)->Decompress(bytes, &got);
    std::string want = "prefix";
    const Status reference = ReferenceLzDecompress(bytes, &want);
    ASSERT_EQ(status.ok(), reference.ok())
        << "seed=" << seed << ": " << status.ToString() << " vs "
        << reference.ToString();
    if (status.ok()) {
      ++decoded_ok;
      ASSERT_EQ(got, want) << "seed=" << seed;
    } else {
      EXPECT_TRUE(status.IsCorruption()) << "seed=" << seed;
    }
  }
  // Some mutations (a spliced run of identical bytes, a flipped literal
  // bit) still decode; the sweep must have compared those bytes too.
  EXPECT_GT(decoded_ok, 0);
}

}  // namespace
}  // namespace logstore::compress
