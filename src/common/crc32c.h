#ifndef LOGSTORE_COMMON_CRC32C_H_
#define LOGSTORE_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace logstore::crc32c {

// Returns the CRC-32C (Castagnoli) of data[0, n-1], extending `init_crc`.
// Runs ExtendHardware when the CPU has the SSE4.2 crc32 instruction and
// ExtendPortable otherwise, chosen once per process; both give the same
// value for every input.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

// The two implementations behind Extend, exposed for tests and benches.
// ExtendPortable is slice-by-8 and runs on every CPU. ExtendHardware uses
// the crc32 instruction and may run only where HasHardware() is true.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);
uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n);
bool HasHardware();

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

// Masking makes it safe to store a CRC alongside the data it covers
// (computing the CRC of a string that contains embedded CRCs is otherwise
// prone to coincidental matches). Same scheme as LevelDB.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8ul;
}

inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - 0xa282ead8ul;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace logstore::crc32c

#endif  // LOGSTORE_COMMON_CRC32C_H_
