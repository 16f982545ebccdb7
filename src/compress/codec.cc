#include "compress/codec.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/coding.h"

namespace logstore::compress {

namespace {

// ---------------------------------------------------------------------------
// Shared LZ77 token format
//
//   varint64 uncompressed_size
//   repeated tokens:
//     varint32 literal_len, literal bytes,
//     varint32 match_code        (0 terminates the stream)
//     if match_code != 0:
//       match_offset = match_code, varint32 match_len_minus_min
//
// Matches copy match_len bytes from `match_offset` bytes back in the output;
// overlapping copies (offset < len) are the classic LZ run-length trick.
// ---------------------------------------------------------------------------

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 1u << 16;  // 64 KiB window

inline uint32_t Read32(const char* p) {
  uint32_t v;
  memcpy(&v, p, sizeof(v));
  return v;
}

inline uint32_t HashPos(const char* p) {
  return (Read32(p) * 2654435761u) >> 17;  // 15-bit hash table index
}

constexpr size_t kHashSize = 1u << 15;

// Length of the common prefix of `a` and `b`, comparing up to `limit` on
// `a`'s side (`b` precedes `a`, so its bytes are in range too): eight bytes
// at a time while whole words match, then byte by byte.
size_t MatchLength(const char* a, const char* b, const char* limit) {
  const char* start = a;
  while (limit - a >= 8 && memcmp(a, b, 8) == 0) {
    a += 8;
    b += 8;
  }
  while (a < limit && *a == *b) {
    ++a;
    ++b;
  }
  return a - start;
}

void EmitLiterals(const char* base, size_t lit_start, size_t lit_end,
                  std::string* out) {
  PutVarint32(out, static_cast<uint32_t>(lit_end - lit_start));
  out->append(base + lit_start, lit_end - lit_start);
}

// The match finder's tables, one set per thread and reused by every call
// on it. head[h] holds the most recent position with hash h and prev[i] the
// position before i in i's hash chain, each stored as
// `call_base + pos + 1`. Each call's call_base lies past every position an
// earlier call stored, so an entry at or below it is left over from an
// earlier call and reads as empty: no call has to zero the tables. prev[i]
// is written before any chain reads it, so prev is never cleared at all;
// head is zeroed only when the stored positions would wrap past uint32.
struct MatchTables {
  std::vector<uint32_t> head = std::vector<uint32_t>(kHashSize, 0);
  std::vector<uint32_t> prev;
  uint32_t next_base = 0;
};

MatchTables& ThreadMatchTables() {
  thread_local MatchTables tables;
  return tables;
}

// One LZ77 pass. `chain_depth` == 0 means a single hash-table probe (fast
// mode); otherwise up to `chain_depth` previous candidates are searched via
// hash chains for the longest match, the nearest winning ties (ratio mode).
void LzCompressImpl(const Slice& input, int chain_depth, std::string* output) {
  const char* base = input.data();
  const size_t n = input.size();
  PutVarint64(output, n);

  if (n < kMinMatch + 1) {
    EmitLiterals(base, 0, n, output);
    PutVarint32(output, 0);
    return;
  }

  MatchTables& tables = ThreadMatchTables();
  if (n > UINT32_MAX - tables.next_base) {
    std::fill(tables.head.begin(), tables.head.end(), 0);
    tables.next_base = 0;
  }
  const uint32_t call_base = tables.next_base;
  tables.next_base += static_cast<uint32_t>(n);
  uint32_t* const head = tables.head.data();
  if (chain_depth > 0 && tables.prev.size() < n) tables.prev.resize(n);
  uint32_t* const prev = tables.prev.data();

  const char* match_limit = base + n;
  size_t pos = 0;
  size_t lit_start = 0;
  const size_t last_match_pos = n - kMinMatch;

  while (pos <= last_match_pos) {
    const uint32_t h = HashPos(base + pos);
    size_t best_len = 0;
    size_t best_off = 0;

    uint32_t cand = head[h];
    int probes = chain_depth > 0 ? chain_depth : 1;
    while (cand > call_base && probes-- > 0) {
      const size_t cpos = cand - call_base - 1;
      if (pos - cpos > kMaxOffset) break;
      // Only a strictly longer match replaces the best one, so a candidate
      // that differs from it at byte best_len is passed over uncompared.
      if (base[cpos + best_len] == base[pos + best_len] &&
          Read32(base + cpos) == Read32(base + pos)) {
        const size_t len =
            kMinMatch +
            MatchLength(base + pos + kMinMatch, base + cpos + kMinMatch,
                        match_limit);
        if (len > best_len) {
          best_len = len;
          best_off = pos - cpos;
          if (pos + len == n) break;  // nothing can be longer
        }
      }
      if (chain_depth == 0) break;
      cand = prev[cpos];
    }

    if (best_len >= kMinMatch) {
      EmitLiterals(base, lit_start, pos, output);
      PutVarint32(output, static_cast<uint32_t>(best_off));
      PutVarint32(output, static_cast<uint32_t>(best_len - kMinMatch));

      // Index the positions covered by the match (sparsely in fast mode).
      const size_t end = pos + best_len;
      const size_t step = chain_depth > 0 ? 1 : 2;
      for (size_t i = pos; i < end && i <= last_match_pos; i += step) {
        const uint32_t hh = HashPos(base + i);
        if (chain_depth > 0) prev[i] = head[hh];
        head[hh] = call_base + static_cast<uint32_t>(i + 1);
      }
      pos = end;
      lit_start = pos;
    } else {
      if (chain_depth > 0) prev[pos] = head[h];
      head[h] = call_base + static_cast<uint32_t>(pos + 1);
      ++pos;
    }
  }

  EmitLiterals(base, lit_start, n, output);
  PutVarint32(output, 0);
}

// The output is sized from the untrusted size header only up to this
// multiple of the compressed input; past it the buffer grows geometrically,
// never beyond the header, so a hostile header on a short input cannot force
// a large allocation. The columns queries decode most compress far less: in
// the repository benchmark's seed-41 archive, no `log` block decompresses to
// more than 2.7x and no `ip` block to more than 4.4x, so they are sized once.
// Near-constant columns pass it (`tenant_id` blocks reach 455x, `fail`
// blocks 579x); queries rarely decode those, and then take the doubling path.
constexpr uint64_t kUpfrontRatio = 32;

// Writable bytes kept past the committed output, so that literal and match
// copies may write whole 16-byte chunks past the bytes they produce. A wild
// write reaches at most 16 bytes past the end of the committed output;
// the trim before returning drops whatever it left there.
constexpr size_t kSlack = 32;

// Varint32 read inline when it is 1-3 bytes long, which covers every
// offset (the window is 64 KiB) and every literal or match length under
// 2 MiB. A longer varint, or a multi-byte one within 3 bytes of `limit`,
// takes GetVarint32. So this accepts exactly the encodings GetVarint32
// accepts: a 3-byte varint is below 2^21 and always fits.
inline bool ReadVarint32(const char** ip, const char* limit, uint32_t* v) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(*ip);
  if (*ip < limit && p[0] < 0x80) {
    *v = p[0];
    *ip += 1;
    return true;
  }
  if (limit - *ip >= 3) {
    if (p[1] < 0x80) {
      *v = (p[0] & 0x7fu) | (uint32_t{p[1]} << 7);
      *ip += 2;
      return true;
    }
    if (p[2] < 0x80) {
      *v = (p[0] & 0x7fu) | ((p[1] & 0x7fu) << 7) | (uint32_t{p[2]} << 14);
      *ip += 3;
      return true;
    }
  }
  Slice in(*ip, static_cast<size_t>(limit - *ip));
  if (!GetVarint32(&in, v)) return false;
  *ip = in.data();
  return true;
}

Status LzDecompressImpl(const Slice& input, std::string* output) {
  Slice in = input;
  uint64_t expected_size;
  if (!GetVarint64(&in, &expected_size)) {
    return Status::Corruption("lz: missing size header");
  }
  const size_t out_base = output->size();
  if (expected_size > output->max_size() - out_base - kSlack) {
    return Status::Corruption("lz: size header too large");
  }
  // `capacity` output bytes are committed; the buffer holds kSlack more.
  uint64_t capacity = std::min<uint64_t>(
      expected_size, kUpfrontRatio * static_cast<uint64_t>(input.size()));
  output->resize(out_base + capacity + kSlack);
  char* out = output->data() + out_base;
  uint64_t pos = 0;  // bytes produced so far

  // Makes room for `n` more output bytes, or returns false when they would
  // pass the size header. Runs before every write.
  auto make_room = [&](uint64_t n) {
    if (n > expected_size - pos) return false;
    if (n > capacity - pos) {
      capacity = std::min(expected_size, std::max(capacity * 2, pos + n));
      output->resize(out_base + capacity + kSlack);
      out = output->data() + out_base;
    }
    return true;
  };

  const char* ip = in.data();
  const char* const limit = ip + in.size();
  while (true) {
    uint32_t lit_len;
    if (!ReadVarint32(&ip, limit, &lit_len)) {
      return Status::Corruption("lz: truncated literal length");
    }
    if (static_cast<size_t>(limit - ip) < lit_len) {
      return Status::Corruption("lz: truncated literals");
    }
    if (!make_room(lit_len)) {
      return Status::Corruption("lz: literals overrun size header");
    }
    // A short run moves as one 16-byte copy, reading past it only where the
    // input has those bytes and writing past it into the slack.
    if (lit_len <= 16 && limit - ip >= 16) {
      memcpy(out + pos, ip, 16);
    } else {
      memcpy(out + pos, ip, lit_len);
    }
    pos += lit_len;
    ip += lit_len;

    uint32_t offset;
    if (!ReadVarint32(&ip, limit, &offset)) {
      return Status::Corruption("lz: truncated match offset");
    }
    if (offset == 0) break;  // end of stream

    uint32_t extra;
    if (!ReadVarint32(&ip, limit, &extra)) {
      return Status::Corruption("lz: truncated match length");
    }
    const uint64_t match_len = uint64_t{extra} + kMinMatch;
    if (offset > pos) return Status::Corruption("lz: offset before start");
    if (!make_room(match_len)) {
      return Status::Corruption("lz: match overruns size header");
    }
    char* dst = out + pos;
    const char* src = dst - offset;
    // A chunk no wider than the offset reads only bytes before the one it
    // writes first, all already produced, so it never overlaps itself. The
    // last chunk may write up to 15 bytes past the match, into the slack.
    if (offset >= 16) {
      for (uint64_t i = 0; i < match_len; i += 16) {
        memcpy(dst + i, src + i, 16);
      }
    } else if (offset >= 8) {
      for (uint64_t i = 0; i < match_len; i += 8) memcpy(dst + i, src + i, 8);
    } else {
      // Offsets under 8 are short overlapping runs: copy byte by byte so
      // each byte can read one this match just wrote.
      for (uint64_t i = 0; i < match_len; ++i) dst[i] = src[i];
    }
    pos += match_len;
  }

  if (pos != expected_size) {
    return Status::Corruption("lz: size mismatch after decompress");
  }
  output->resize(out_base + pos);
  return Status::OK();
}

class NoCodec : public Codec {
 public:
  CodecType type() const override { return CodecType::kNone; }
  const char* name() const override { return "none"; }
  Status Compress(const Slice& input, std::string* output) const override {
    output->append(input.data(), input.size());
    return Status::OK();
  }
  Status Decompress(const Slice& input, std::string* output) const override {
    output->append(input.data(), input.size());
    return Status::OK();
  }
};

class LzFastCodec : public Codec {
 public:
  CodecType type() const override { return CodecType::kLzFast; }
  const char* name() const override { return "lz-fast"; }
  Status Compress(const Slice& input, std::string* output) const override {
    LzCompressImpl(input, /*chain_depth=*/0, output);
    return Status::OK();
  }
  Status Decompress(const Slice& input, std::string* output) const override {
    return LzDecompressImpl(input, output);
  }
};

class LzRatioCodec : public Codec {
 public:
  CodecType type() const override { return CodecType::kLzRatio; }
  const char* name() const override { return "lz-ratio"; }
  Status Compress(const Slice& input, std::string* output) const override {
    LzCompressImpl(input, /*chain_depth=*/32, output);
    return Status::OK();
  }
  Status Decompress(const Slice& input, std::string* output) const override {
    return LzDecompressImpl(input, output);
  }
};

}  // namespace

const Codec* GetCodec(CodecType type) {
  static const NoCodec* none = new NoCodec();
  static const LzFastCodec* fast = new LzFastCodec();
  static const LzRatioCodec* ratio = new LzRatioCodec();
  switch (type) {
    case CodecType::kNone: return none;
    case CodecType::kLzFast: return fast;
    case CodecType::kLzRatio: return ratio;
  }
  return nullptr;
}

bool DecodeVarsint64Batch(Slice* in, uint32_t row_count,
                          std::vector<int64_t>* out) {
  out->resize(row_count);
  int64_t* dst = out->data();
  const uint8_t* p = reinterpret_cast<const uint8_t*>(in->data());
  const uint8_t* limit = p + in->size();
  for (uint32_t i = 0; i < row_count; ++i) {
    // One-byte fast path: most deltas and small magnitudes encode in a
    // single byte, so the loop body is usually a load, a test, and a store.
    if (p < limit && (*p & 0x80) == 0) {
      dst[i] = ZigZagDecode64(*p++);
      continue;
    }
    uint64_t raw = 0;
    uint32_t shift = 0;
    while (true) {
      if (p >= limit || shift > 63) return false;
      const uint8_t byte = *p++;
      raw |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    dst[i] = ZigZagDecode64(raw);
  }
  in->remove_prefix(static_cast<size_t>(
      p - reinterpret_cast<const uint8_t*>(in->data())));
  return true;
}

bool DecodeLengthPrefixedViews(Slice* in, uint32_t row_count,
                               std::vector<std::string_view>* out) {
  out->resize(row_count);
  std::string_view* dst = out->data();
  const uint8_t* p = reinterpret_cast<const uint8_t*>(in->data());
  const uint8_t* limit = p + in->size();
  for (uint32_t i = 0; i < row_count; ++i) {
    uint32_t len;
    if (p < limit && (*p & 0x80) == 0) {
      len = *p++;
    } else {
      uint64_t raw = 0;
      uint32_t shift = 0;
      while (true) {
        if (p >= limit || shift > 31) return false;
        const uint8_t byte = *p++;
        raw |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) break;
        shift += 7;
      }
      if (raw > UINT32_MAX) return false;
      len = static_cast<uint32_t>(raw);
    }
    if (static_cast<uint64_t>(limit - p) < len) return false;
    dst[i] = std::string_view(reinterpret_cast<const char*>(p), len);
    p += len;
  }
  in->remove_prefix(static_cast<size_t>(
      p - reinterpret_cast<const uint8_t*>(in->data())));
  return true;
}

}  // namespace logstore::compress
