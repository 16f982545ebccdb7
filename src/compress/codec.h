#ifndef LOGSTORE_COMPRESS_CODEC_H_
#define LOGSTORE_COMPRESS_CODEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace logstore::compress {

// Compression codecs available for column blocks (§3.2 "Compressed").
// The paper ships Snappy, LZ4 and ZSTD and defaults to ZSTD because ratio
// is preferred over CPU for data shipped to object storage. We implement
// two from-scratch LZ77 variants on the same axis:
//   kLzFast  - greedy single-probe matcher, speed-oriented (LZ4 stand-in)
//   kLzRatio - greedy hash-chain matcher that takes the longest of up to
//              32 candidates, ratio-oriented (ZSTD stand-in; the default)
enum class CodecType : uint8_t {
  kNone = 0,
  kLzFast = 1,
  kLzRatio = 2,
};

class Codec {
 public:
  virtual ~Codec() = default;

  virtual CodecType type() const = 0;
  virtual const char* name() const = 0;

  // Appends the compressed representation of `input` to `*output`.
  virtual Status Compress(const Slice& input, std::string* output) const = 0;

  // Appends the decompressed bytes to `*output`. Fails with Corruption on
  // malformed input.
  virtual Status Decompress(const Slice& input, std::string* output) const = 0;
};

// Returns the process-wide codec instance for `type`, or nullptr for an
// unknown type. Instances are stateless and thread-safe; the LZ compressors
// keep their match tables per thread.
const Codec* GetCodec(CodecType type);

// --- Batch column decoders ---
//
// Decode a whole column block's value stream in one tight loop, writing a
// contiguous typed vector through a raw pointer instead of one
// GetVarsint64/GetLengthPrefixedSlice + push_back round trip per value.
// Both consume exactly `row_count` values from the front of `*in` (advancing
// it like the Get* primitives) and return false on truncated input.

// Zig-zag varint int64 values (the int column encoding).
bool DecodeVarsint64Batch(Slice* in, uint32_t row_count,
                          std::vector<int64_t>* out);

// Length-prefixed string values (the string column encoding), as views
// into the bytes `*in` covers: no value is copied, and the views are valid
// only while those bytes are.
bool DecodeLengthPrefixedViews(Slice* in, uint32_t row_count,
                               std::vector<std::string_view>* out);

}  // namespace logstore::compress

#endif  // LOGSTORE_COMPRESS_CODEC_H_
