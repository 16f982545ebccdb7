#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "index/bkd_tree.h"
#include "index/inverted_index.h"
#include "index/rowid_set.h"
#include "index/sma.h"
#include "workload/loggen.h"

namespace logstore::index {
namespace {

TEST(RowIdSetTest, AddContainsRemove) {
  RowIdSet s(100);
  EXPECT_TRUE(s.Empty());
  s.Add(0);
  s.Add(63);
  s.Add(64);
  s.Add(99);
  EXPECT_TRUE(s.Contains(0));
  EXPECT_TRUE(s.Contains(63));
  EXPECT_TRUE(s.Contains(64));
  EXPECT_TRUE(s.Contains(99));
  EXPECT_FALSE(s.Contains(50));
  EXPECT_EQ(s.Count(), 4u);
  s.Remove(63);
  EXPECT_FALSE(s.Contains(63));
  EXPECT_EQ(s.Count(), 3u);
}

TEST(RowIdSetTest, AllRespectsNumRows) {
  RowIdSet s = RowIdSet::All(70);
  EXPECT_EQ(s.Count(), 70u);
  EXPECT_TRUE(s.Contains(69));
  const auto rows = s.ToVector();
  EXPECT_EQ(rows.size(), 70u);
  EXPECT_EQ(rows.front(), 0u);
  EXPECT_EQ(rows.back(), 69u);
}

TEST(RowIdSetTest, IntersectAndUnion) {
  RowIdSet a(128), b(128);
  a.Add(1);
  a.Add(5);
  a.Add(100);
  b.Add(5);
  b.Add(100);
  b.Add(127);

  RowIdSet inter = a;
  inter.IntersectWith(b);
  EXPECT_EQ(inter.ToVector(), (std::vector<uint32_t>{5, 100}));

  RowIdSet uni = a;
  uni.UnionWith(b);
  EXPECT_EQ(uni.ToVector(), (std::vector<uint32_t>{1, 5, 100, 127}));
}

TEST(RowIdSetTest, AddRange) {
  RowIdSet s(200);
  s.AddRange(60, 70);
  EXPECT_EQ(s.Count(), 10u);
  EXPECT_TRUE(s.Contains(60));
  EXPECT_TRUE(s.Contains(69));
  EXPECT_FALSE(s.Contains(70));
}

TEST(RowIdSetTest, ToVectorStopsAtMaxRows) {
  RowIdSet s(200);
  for (uint32_t row : {0u, 5u, 63u, 64u, 65u, 127u, 128u, 199u}) s.Add(row);
  const std::vector<uint32_t> all = s.ToVector();
  ASSERT_EQ(all.size(), 8u);
  for (size_t max_rows = 0; max_rows <= all.size() + 1; ++max_rows) {
    const std::vector<uint32_t> first(
        all.begin(), all.begin() + std::min(max_rows, all.size()));
    EXPECT_EQ(s.ToVector(max_rows), first) << "max_rows=" << max_rows;
  }
}

TEST(Int64SmaTest, UpdateAndSkip) {
  Int64Sma sma;
  EXPECT_TRUE(sma.DisjointWith(0, 100));  // empty: always skippable
  sma.Update(10);
  sma.Update(50);
  sma.Update(-3);
  EXPECT_EQ(sma.min, -3);
  EXPECT_EQ(sma.max, 50);
  EXPECT_EQ(sma.row_count, 3u);
  EXPECT_TRUE(sma.DisjointWith(51, 100));
  EXPECT_TRUE(sma.DisjointWith(-100, -4));
  EXPECT_FALSE(sma.DisjointWith(50, 60));
  EXPECT_FALSE(sma.DisjointWith(0, 0));
}

TEST(Int64SmaTest, MergeAndEncode) {
  Int64Sma a, b;
  a.Update(5);
  b.Update(-7);
  b.Update(100);
  a.Merge(b);
  EXPECT_EQ(a.min, -7);
  EXPECT_EQ(a.max, 100);
  EXPECT_EQ(a.row_count, 3u);

  std::string buf;
  a.EncodeTo(&buf);
  Int64Sma c;
  Slice in(buf);
  ASSERT_TRUE(c.DecodeFrom(&in));
  EXPECT_EQ(c.min, -7);
  EXPECT_EQ(c.max, 100);
  EXPECT_EQ(c.row_count, 3u);
}

TEST(StringSmaTest, UpdateExcludesEncode) {
  StringSma sma;
  EXPECT_TRUE(sma.Excludes("anything"));
  sma.Update("banana");
  sma.Update("apple");
  sma.Update("cherry");
  EXPECT_EQ(sma.min, "apple");
  EXPECT_EQ(sma.max, "cherry");
  EXPECT_TRUE(sma.Excludes("aardvark"));
  EXPECT_TRUE(sma.Excludes("zebra"));
  EXPECT_FALSE(sma.Excludes("apple"));
  EXPECT_FALSE(sma.Excludes("box"));

  std::string buf;
  sma.EncodeTo(&buf);
  StringSma restored;
  Slice in(buf);
  ASSERT_TRUE(restored.DecodeFrom(&in));
  EXPECT_EQ(restored.min, "apple");
  EXPECT_EQ(restored.max, "cherry");
  EXPECT_EQ(restored.row_count, 3u);
}

TEST(StringSmaTest, MergeEmptySides) {
  StringSma a, b;
  b.Update("m");
  a.Merge(b);  // empty.Merge(nonempty)
  EXPECT_EQ(a.min, "m");
  StringSma c;
  a.Merge(c);  // nonempty.Merge(empty)
  EXPECT_EQ(a.min, "m");
  EXPECT_EQ(a.row_count, 1u);
}

TEST(TokenizeTest, SplitsOnNonAlnumAndLowercases) {
  auto tokens = Tokenize("GET /Api/v1?id=42 HTTP");
  EXPECT_EQ(tokens,
            (std::vector<std::string>{"get", "api", "v1", "id", "42", "http"}));
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("...!!!").empty());
  // Every byte >= 0x80 separates tokens and is never lowered into one;
  // only ASCII letters change case.
  EXPECT_EQ(
      Tokenize("Caf\xc3\xa9 MiXeD\xff" "CASE v2\x80X9 \xc3\x89T\xc3\x89"),
      (std::vector<std::string>{"caf", "mixed", "case", "v2", "x9", "t"}));
  EXPECT_TRUE(Tokenize("\x80\xc3\xa9\xff").empty());
}

// The token class and its lowering are the C locale's std::isalnum and
// std::tolower, byte for byte (nothing in the program calls setlocale).
TEST(TokenizeTest, TokenCharsAreTheCLocaleAlnums) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    EXPECT_EQ(IsTokenChar(c), std::isalnum(b) != 0) << "byte " << b;
    EXPECT_EQ(static_cast<unsigned char>(ToLowerAscii(c)), std::tolower(b))
        << "byte " << b;
  }
}

TEST(InvertedIndexTest, ExactLookup) {
  InvertedIndexWriter writer;
  writer.Add(0, "192.168.0.1");
  writer.Add(1, "192.168.0.2");
  writer.Add(2, "192.168.0.1");
  auto reader = InvertedIndexReader::Open(writer.Finish());
  ASSERT_TRUE(reader.ok());

  EXPECT_EQ(reader->LookupExact("192.168.0.1", 3).ToVector(),
            (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(reader->LookupExact("192.168.0.2", 3).ToVector(),
            (std::vector<uint32_t>{1}));
  EXPECT_TRUE(reader->LookupExact("10.0.0.1", 3).Empty());
}

TEST(InvertedIndexTest, TokenLookupIsCaseInsensitive) {
  InvertedIndexWriter writer;
  writer.Add(0, "Error: connection TIMEOUT");
  writer.Add(1, "warning: slow query");
  auto reader = InvertedIndexReader::Open(writer.Finish());
  ASSERT_TRUE(reader.ok());

  EXPECT_EQ(reader->LookupToken("error", 2).ToVector(),
            (std::vector<uint32_t>{0}));
  EXPECT_EQ(reader->LookupToken("TIMEOUT", 2).ToVector(),
            (std::vector<uint32_t>{0}));
  EXPECT_EQ(reader->LookupToken("slow", 2).ToVector(),
            (std::vector<uint32_t>{1}));
}

TEST(InvertedIndexTest, MatchAllTokensIsConjunctive) {
  InvertedIndexWriter writer;
  writer.Add(0, "connection timeout on api gateway");
  writer.Add(1, "connection refused");
  writer.Add(2, "timeout waiting for lock");
  auto reader = InvertedIndexReader::Open(writer.Finish());
  ASSERT_TRUE(reader.ok());

  EXPECT_EQ(reader->MatchAllTokens("connection timeout", 3).ToVector(),
            (std::vector<uint32_t>{0}));
  EXPECT_EQ(reader->MatchAllTokens("timeout", 3).ToVector(),
            (std::vector<uint32_t>{0, 2}));
  EXPECT_TRUE(reader->MatchAllTokens("nonexistent", 3).Empty());
  // Empty match text matches everything.
  EXPECT_EQ(reader->MatchAllTokens("", 3).Count(), 3u);
}

TEST(InvertedIndexTest, DuplicateRowsCollapsed) {
  InvertedIndexWriter writer;
  writer.Add(5, "abc abc abc");  // token appears 3 times in one row
  auto reader = InvertedIndexReader::Open(writer.Finish());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->LookupToken("abc", 10).ToVector(),
            (std::vector<uint32_t>{5}));
}

TEST(InvertedIndexTest, ExactOnlyAnalyzerSkipsTokens) {
  InvertedIndexWriter writer(/*index_exact=*/true, /*index_tokens=*/false);
  writer.Add(0, "192.168.0.1");
  auto reader = InvertedIndexReader::Open(writer.Finish());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->LookupExact("192.168.0.1", 1).Count(), 1u);
  EXPECT_TRUE(reader->LookupToken("192", 1).Empty());  // tokens not built
  EXPECT_EQ(reader->term_count(), 1u);
}

TEST(InvertedIndexTest, TokensOnlyAnalyzerSkipsExact) {
  InvertedIndexWriter writer(/*index_exact=*/false, /*index_tokens=*/true);
  writer.Add(0, "connection timeout");
  auto reader = InvertedIndexReader::Open(writer.Finish());
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->LookupExact("connection timeout", 1).Empty());
  EXPECT_EQ(reader->LookupToken("timeout", 1).Count(), 1u);
  EXPECT_EQ(reader->term_count(), 2u);
}

TEST(InvertedIndexTest, ExactOnlyIsSmaller) {
  InvertedIndexWriter both(true, true);
  InvertedIndexWriter exact_only(true, false);
  for (uint32_t r = 0; r < 500; ++r) {
    const std::string ip = "10.0." + std::to_string(r % 8) + ".1";
    both.Add(r, ip);
    exact_only.Add(r, ip);
  }
  const auto both_out = both.Finish();
  const auto exact_out = exact_only.Finish();
  EXPECT_LT(exact_out.dict.size() + exact_out.postings.size(),
            both_out.dict.size() + both_out.postings.size());
}

TEST(InvertedIndexTest, EmptyIndex) {
  InvertedIndexWriter writer;
  auto reader = InvertedIndexReader::Open(writer.Finish());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->term_count(), 0u);
  EXPECT_TRUE(reader->LookupToken("x", 5).Empty());
}

TEST(InvertedIndexTest, CorruptionRejected) {
  EXPECT_FALSE(InvertedIndexDict::Open("").ok());
  EXPECT_FALSE(InvertedIndexDict::Open("garbage-bytes-here").ok());
  SerializedInvertedIndex bad;
  bad.dict = "garbage";
  EXPECT_FALSE(InvertedIndexReader::Open(std::move(bad)).ok());
}

TEST(InvertedIndexTest, DictExposesPostingsRanges) {
  InvertedIndexWriter writer;
  writer.Add(0, "alpha beta");
  writer.Add(1, "beta");
  auto serialized = writer.Finish();
  auto dict = InvertedIndexDict::Open(serialized.dict);
  ASSERT_TRUE(dict.ok());

  const auto beta = dict->LookupToken("beta");
  ASSERT_TRUE(beta.has_value());
  EXPECT_EQ(beta->doc_count, 2u);
  ASSERT_LE(beta->offset + beta->length, serialized.postings.size());
  // Decoding just that byte range yields the postings.
  auto rows = DecodePostings(
      Slice(serialized.postings.data() + beta->offset, beta->length),
      beta->doc_count, 2);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->ToVector(), (std::vector<uint32_t>{0, 1}));

  EXPECT_FALSE(dict->Lookup("missing").has_value());
}

TEST(InvertedIndexTest, LargeTermSpace) {
  InvertedIndexWriter writer;
  Random rng(11);
  std::vector<std::set<uint32_t>> expected(50);
  for (uint32_t row = 0; row < 2000; ++row) {
    const uint32_t word = static_cast<uint32_t>(rng.Uniform(50));
    writer.Add(row, "w" + std::to_string(word));
    expected[word].insert(row);
  }
  auto reader = InvertedIndexReader::Open(writer.Finish());
  ASSERT_TRUE(reader.ok());
  for (uint32_t word = 0; word < 50; ++word) {
    const auto rows = reader->LookupToken("w" + std::to_string(word), 2000);
    std::vector<uint32_t> want(expected[word].begin(), expected[word].end());
    EXPECT_EQ(rows.ToVector(), want) << "word " << word;
  }
}

// Test-only reference for InvertedIndexWriter: the writer as it was when
// it kept its terms in a std::map and tokenized each value into strings
// with the C locale's std::isalnum and std::tolower.
class ReferenceInvertedIndexWriter {
 public:
  ReferenceInvertedIndexWriter(bool index_exact, bool index_tokens)
      : index_exact_(index_exact), index_tokens_(index_tokens) {}

  void Add(uint32_t row, const Slice& value) {
    auto append_unique = [row](std::vector<uint32_t>& rows) {
      if (rows.empty() || rows.back() != row) rows.push_back(row);
    };
    if (index_exact_) append_unique(postings_["=" + value.ToString()]);
    if (!index_tokens_) return;
    std::vector<std::string> tokens;
    std::string current;
    for (size_t i = 0; i < value.size(); ++i) {
      const unsigned char c = static_cast<unsigned char>(value[i]);
      if (std::isalnum(c)) {
        current.push_back(static_cast<char>(std::tolower(c)));
      } else if (!current.empty()) {
        tokens.push_back(std::move(current));
        current.clear();
      }
    }
    if (!current.empty()) tokens.push_back(std::move(current));
    for (const std::string& token : tokens) {
      if (token.size() >= 8 &&
          token.find_first_of("0123456789") != std::string::npos) {
        continue;
      }
      append_unique(postings_[token]);
    }
  }

  SerializedInvertedIndex Finish() {
    SerializedInvertedIndex out;
    std::vector<PostingsRef> refs;
    for (const auto& [term, rows] : postings_) {
      PostingsRef ref;
      ref.doc_count = static_cast<uint32_t>(rows.size());
      ref.offset = out.postings.size();
      uint32_t prev = 0;
      for (uint32_t row : rows) {
        PutVarint32(&out.postings, row - prev);
        prev = row;
      }
      ref.length = static_cast<uint32_t>(out.postings.size() - ref.offset);
      refs.push_back(ref);
    }
    PutVarint32(&out.dict, static_cast<uint32_t>(postings_.size()));
    std::vector<uint32_t> offsets;
    size_t i = 0;
    for (const auto& [term, rows] : postings_) {
      offsets.push_back(static_cast<uint32_t>(out.dict.size()));
      PutLengthPrefixedSlice(&out.dict, term);
      PutVarint32(&out.dict, refs[i].doc_count);
      PutVarint64(&out.dict, refs[i].offset);
      PutVarint32(&out.dict, refs[i].length);
      ++i;
    }
    const uint32_t dir_offset = static_cast<uint32_t>(out.dict.size());
    for (uint32_t off : offsets) PutFixed32(&out.dict, off);
    PutFixed32(&out.dict, dir_offset);
    return out;
  }

 private:
  const bool index_exact_;
  const bool index_tokens_;
  std::map<std::string, std::vector<uint32_t>> postings_;
};

// The writer's bytes equal the reference's for every analyzer, on the
// generator's columns and on random values: mixed case, digits, bytes
// >= 0x80, separators, empty values, tokens of 8 or more characters with
// and without digits, and terms repeated within a row.
TEST(InvertedIndexTest, WriterMatchesReferenceWriter) {
  std::vector<std::vector<std::string>> columns;
  workload::LogGenerator gen(9);
  for (uint32_t rows : {1u, 325u, 4097u}) {
    const logblock::RowBatch batch = gen.Generate(rows % 3, rows, 0, 1 << 30);
    for (const char* name : {"ip", "fail", "log"}) {
      const int c = batch.schema().FindColumn(name);
      columns.push_back(batch.StringColumn(c));
    }
  }
  Random rng(2024);
  const std::string alphabet =
      "abcxyzABCXYZ0189 -._/:=\t\x80\xc3\xa9\xff";
  const std::vector<std::string> words = {
      "longtokenword", "LongTokenWord", "abc12345", "ABC12345", "req",
      "0a1b2c3d",      "Timeout",       "timeout",  "",         "x"};
  for (int round = 0; round < 40; ++round) {
    std::vector<std::string> values(1 + rng.Uniform(300));
    for (std::string& value : values) {
      const size_t pieces = rng.Uniform(8);
      for (size_t k = 0; k < pieces; ++k) {
        if (rng.OneIn(2)) {
          value += words[rng.Uniform(words.size())];
        } else {
          value.push_back(alphabet[rng.Uniform(alphabet.size())]);
        }
      }
    }
    columns.push_back(std::move(values));
  }
  for (const std::vector<std::string>& values : columns) {
    for (const auto& [exact, tokens] :
         {std::pair{true, true}, std::pair{true, false},
          std::pair{false, true}}) {
      InvertedIndexWriter writer(exact, tokens);
      ReferenceInvertedIndexWriter reference(exact, tokens);
      for (uint32_t row = 0; row < values.size(); ++row) {
        writer.Add(row, values[row]);
        reference.Add(row, values[row]);
      }
      const SerializedInvertedIndex got = writer.Finish();
      const SerializedInvertedIndex want = reference.Finish();
      ASSERT_EQ(got.dict, want.dict) << "exact=" << exact
                                     << " tokens=" << tokens;
      ASSERT_EQ(got.postings, want.postings)
          << "exact=" << exact << " tokens=" << tokens;
      // Finish leaves the writer empty and reusable.
      EXPECT_EQ(writer.term_count(), 0u);
    }
  }
}

TEST(BkdTreeTest, RangeQueryBasics) {
  BkdTreeWriter writer(4);  // small leaves exercise the directory
  // values: row i has value i*10
  for (uint32_t i = 0; i < 50; ++i) writer.Add(static_cast<int64_t>(i) * 10, i);
  auto reader = BkdTreeReader::Open(writer.Finish());
  ASSERT_TRUE(reader.ok());
  EXPECT_GT(reader->leaf_count(), 5u);

  EXPECT_EQ(reader->QueryRange(100, 130, 50).ToVector(),
            (std::vector<uint32_t>{10, 11, 12, 13}));
  EXPECT_EQ(reader->QueryEqual(250, 50).ToVector(),
            (std::vector<uint32_t>{25}));
  EXPECT_TRUE(reader->QueryRange(1000, 2000, 50).Empty());
  EXPECT_TRUE(reader->QueryRange(5, 9, 50).Empty());
  // Full range.
  EXPECT_EQ(reader->QueryRange(INT64_MIN, INT64_MAX, 50).Count(), 50u);
}

TEST(BkdTreeTest, NegativeValuesAndDuplicates) {
  BkdTreeWriter writer(8);
  writer.Add(-5, 0);
  writer.Add(-5, 1);
  writer.Add(0, 2);
  writer.Add(7, 3);
  writer.Add(-100, 4);
  auto reader = BkdTreeReader::Open(writer.Finish());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->QueryEqual(-5, 5).ToVector(),
            (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(reader->QueryRange(-100, -5, 5).ToVector(),
            (std::vector<uint32_t>{0, 1, 4}));
}

TEST(BkdTreeTest, EmptyTree) {
  BkdTreeWriter writer;
  auto reader = BkdTreeReader::Open(writer.Finish());
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->QueryRange(INT64_MIN, INT64_MAX, 10).Empty());
}

TEST(BkdTreeTest, InvertedRangeIsEmpty) {
  BkdTreeWriter writer;
  writer.Add(1, 0);
  auto reader = BkdTreeReader::Open(writer.Finish());
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->QueryRange(10, 5, 1).Empty());
}

TEST(BkdTreeTest, CorruptionRejected) {
  EXPECT_FALSE(BkdTreeReader::Open("").ok());
}

// Property sweep: random values, compare against brute force.
class BkdPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BkdPropertyTest, MatchesBruteForce) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Random rng(seed);
  const uint32_t n = 500 + static_cast<uint32_t>(rng.Uniform(1500));
  std::vector<int64_t> values(n);
  BkdTreeWriter writer(64);
  for (uint32_t i = 0; i < n; ++i) {
    values[i] = rng.UniformRange(-1000, 1000);
    writer.Add(values[i], i);
  }
  auto reader = BkdTreeReader::Open(writer.Finish());
  ASSERT_TRUE(reader.ok());

  for (int q = 0; q < 20; ++q) {
    int64_t lo = rng.UniformRange(-1200, 1200);
    int64_t hi = rng.UniformRange(-1200, 1200);
    if (lo > hi) std::swap(lo, hi);
    std::vector<uint32_t> expected;
    for (uint32_t i = 0; i < n; ++i) {
      if (values[i] >= lo && values[i] <= hi) expected.push_back(i);
    }
    EXPECT_EQ(reader->QueryRange(lo, hi, n).ToVector(), expected)
        << "seed=" << seed << " q=[" << lo << "," << hi << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BkdPropertyTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace logstore::index
