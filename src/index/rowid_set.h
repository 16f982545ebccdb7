#ifndef LOGSTORE_INDEX_ROWID_SET_H_
#define LOGSTORE_INDEX_ROWID_SET_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace logstore::index {

// A set of row positions within one LogBlock, used to combine filter results
// across columns (§5.1: "After merging the rowid set that meets the filter
// conditions, the log data can be finally loaded according to it").
//
// Backed by a word-packed bitmap sized to the block's row count.
class RowIdSet {
 public:
  RowIdSet() : num_rows_(0) {}
  explicit RowIdSet(uint32_t num_rows)
      : num_rows_(num_rows), words_((num_rows + 63) / 64, 0) {}

  // A set with every row in [0, num_rows) present.
  static RowIdSet All(uint32_t num_rows) {
    RowIdSet s(num_rows);
    for (auto& w : s.words_) w = ~0ull;
    s.ClearTail();
    return s;
  }

  uint32_t num_rows() const { return num_rows_; }

  void Add(uint32_t row) { words_[row >> 6] |= (1ull << (row & 63)); }
  void Remove(uint32_t row) { words_[row >> 6] &= ~(1ull << (row & 63)); }
  bool Contains(uint32_t row) const {
    return (words_[row >> 6] >> (row & 63)) & 1;
  }

  // Adds every row in [begin, end).
  void AddRange(uint32_t begin, uint32_t end) {
    for (uint32_t r = begin; r < end; ++r) Add(r);
  }

  // True if any row in [begin, end) is present. Word-at-a-time, so probing
  // a column block's whole row range costs O(rows/64), not O(rows).
  bool AnyInRange(uint32_t begin, uint32_t end) const {
    if (begin >= end || begin >= num_rows_) return false;
    if (end > num_rows_) end = num_rows_;
    const uint32_t first_word = begin >> 6;
    const uint32_t last_word = (end - 1) >> 6;
    const uint64_t head_mask = ~0ull << (begin & 63);
    const uint64_t tail_mask = (end & 63) == 0 ? ~0ull : (1ull << (end & 63)) - 1;
    if (first_word == last_word) {
      return (words_[first_word] & head_mask & tail_mask) != 0;
    }
    if ((words_[first_word] & head_mask) != 0) return true;
    for (uint32_t w = first_word + 1; w < last_word; ++w) {
      if (words_[w] != 0) return true;
    }
    return (words_[last_word] & tail_mask) != 0;
  }

  // Removes every row in [begin, end), word-at-a-time.
  void RemoveRange(uint32_t begin, uint32_t end) {
    if (begin >= end || begin >= num_rows_) return;
    if (end > num_rows_) end = num_rows_;
    const uint32_t first_word = begin >> 6;
    const uint32_t last_word = (end - 1) >> 6;
    const uint64_t head_mask = ~0ull << (begin & 63);
    const uint64_t tail_mask = (end & 63) == 0 ? ~0ull : (1ull << (end & 63)) - 1;
    if (first_word == last_word) {
      words_[first_word] &= ~(head_mask & tail_mask);
      return;
    }
    words_[first_word] &= ~head_mask;
    for (uint32_t w = first_word + 1; w < last_word; ++w) words_[w] = 0;
    words_[last_word] &= ~tail_mask;
  }

  // ANDs a block-local selection bitmap into this set: bit j of `block`
  // (word-packed, (count+63)/64 words, tail bits past `count` ignored)
  // covers global row first_row + j. Rows outside [first_row, first_row +
  // count) are untouched. This is how vectorized filter kernels — which
  // emit bitmaps indexed from the column block's first row — fold their
  // verdicts into the global candidate set without a per-row loop.
  void IntersectBitmap(uint32_t first_row, const uint64_t* block,
                       uint32_t count) {
    if (count == 0 || first_row >= num_rows_) return;
    uint32_t end = first_row + count;
    if (end > num_rows_) end = num_rows_;
    const uint32_t shift = first_row & 63;
    const uint32_t base = first_row >> 6;
    const uint32_t last = (end - 1) >> 6;
    const int64_t nblock = (count + 63) / 64;
    auto block_word = [&](int64_t i) -> uint64_t {
      return (i >= 0 && i < nblock) ? block[i] : 0;
    };
    for (uint32_t g = base; g <= last; ++g) {
      const int64_t i = static_cast<int64_t>(g) - base;
      // Shift the block words into global bit positions (two-word funnel).
      const uint64_t match =
          shift == 0 ? block_word(i)
                     : (block_word(i) << shift) |
                           (block_word(i - 1) >> (64 - shift));
      // Bits of word g outside [first_row, end) must survive untouched.
      uint64_t keep = 0;
      if (g == base && shift != 0) keep |= (1ull << shift) - 1;
      if (g == last && (end & 63) != 0) keep |= ~0ull << (end & 63);
      words_[g] &= match | keep;
    }
  }

  // Invokes fn(row) for every present row in [begin, end), ascending.
  template <typename Fn>
  void ForEachInRange(uint32_t begin, uint32_t end, Fn&& fn) const {
    if (begin >= end || begin >= num_rows_) return;
    if (end > num_rows_) end = num_rows_;
    const uint32_t first_word = begin >> 6;
    const uint32_t last_word = (end - 1) >> 6;
    for (uint32_t wi = first_word; wi <= last_word; ++wi) {
      uint64_t w = words_[wi];
      if (wi == first_word) w &= ~0ull << (begin & 63);
      if (wi == last_word && (end & 63) != 0) w &= (1ull << (end & 63)) - 1;
      while (w != 0) {
        const int bit = __builtin_ctzll(w);
        fn(static_cast<uint32_t>(wi * 64 + bit));
        w &= w - 1;
      }
    }
  }

  void IntersectWith(const RowIdSet& other) {
    const size_t n = words_.size() < other.words_.size() ? words_.size()
                                                         : other.words_.size();
    for (size_t i = 0; i < n; ++i) words_[i] &= other.words_[i];
    for (size_t i = n; i < words_.size(); ++i) words_[i] = 0;
  }

  void UnionWith(const RowIdSet& other) {
    const size_t n = words_.size() < other.words_.size() ? words_.size()
                                                         : other.words_.size();
    for (size_t i = 0; i < n; ++i) words_[i] |= other.words_[i];
  }

  uint32_t Count() const {
    uint32_t count = 0;
    for (uint64_t w : words_) count += __builtin_popcountll(w);
    return count;
  }

  bool Empty() const {
    for (uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  // Materializes the set, or its first `max_rows` rows, as an ascending
  // row-id list.
  std::vector<uint32_t> ToVector(size_t max_rows = SIZE_MAX) const {
    std::vector<uint32_t> rows;
    rows.reserve(std::min<size_t>(Count(), max_rows));
    for (size_t wi = 0; wi < words_.size() && rows.size() < max_rows; ++wi) {
      uint64_t w = words_[wi];
      while (w != 0 && rows.size() < max_rows) {
        const int bit = __builtin_ctzll(w);
        rows.push_back(static_cast<uint32_t>(wi * 64 + bit));
        w &= w - 1;
      }
    }
    return rows;
  }

 private:
  void ClearTail() {
    const uint32_t tail = num_rows_ & 63;
    if (tail != 0 && !words_.empty()) {
      words_.back() &= (1ull << tail) - 1;
    }
  }

  uint32_t num_rows_;
  std::vector<uint64_t> words_;
};

}  // namespace logstore::index

#endif  // LOGSTORE_INDEX_ROWID_SET_H_
