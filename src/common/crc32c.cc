#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace logstore::crc32c {

namespace {

// Slice-by-8 tables for the Castagnoli polynomial (reflected form
// 0x82f63b78), generated at compile time. kTables[0] is the classic
// byte-at-a-time table; kTables[k][b] is the CRC of byte b followed by k
// zero bytes, so one step folds eight input bytes with eight lookups.
constexpr uint32_t kPolynomial = 0x82f63b78u;

using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPolynomial : 0);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr Tables kTables = MakeTables();

// Little-endian load assembled from bytes: portable across byte orders and
// alignments, and compiled to one load on little-endian targets.
inline uint32_t LoadLE32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = init_crc ^ 0xffffffffu;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = crc ^ LoadLE32(p);
    const uint32_t hi = LoadLE32(p + 4);
    crc = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
          kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xff] ^ kTables[2][(hi >> 8) & 0xff] ^
          kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = kTables[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

#if defined(__x86_64__)

// The SSE4.2 crc32 instruction computes CRC-32C (the Castagnoli
// polynomial, reflected, no pre- or post-inversion) over 1, 4 or 8 bytes,
// so it yields the same values as the tables. The target attribute lets
// this one function use it without a build flag; HasHardware() decides at
// run time whether it may be called.
__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t init_crc,
                                                         const char* data,
                                                         size_t n) {
  uint64_t crc = init_crc ^ 0xffffffffu;
  for (; n >= 8; n -= 8, data += 8) {
    uint64_t word;
    memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; --n, ++data) {
    crc32 = _mm_crc32_u8(crc32, static_cast<unsigned char>(*data));
  }
  return crc32 ^ 0xffffffffu;
}

bool HasHardware() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

#else

// No crc32 instruction on this target: HasHardware() is false, and a call
// anyway gets the portable value.
uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n) {
  return ExtendPortable(init_crc, data, n);
}

bool HasHardware() { return false; }

#endif

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  // Chosen on the first call, so a CRC taken during static initialization
  // in another file still finds the choice made.
  static const auto extend = HasHardware() ? ExtendHardware : ExtendPortable;
  return extend(init_crc, data, n);
}

}  // namespace logstore::crc32c
