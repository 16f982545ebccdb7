#include "common/coding.h"

namespace logstore {

char* EncodeVarint64(char* dst, uint64_t value) {
  unsigned char* p = reinterpret_cast<unsigned char*>(dst);
  while (value >= 0x80) {
    *p++ = static_cast<unsigned char>(value) | 0x80;
    value >>= 7;
  }
  *p++ = static_cast<unsigned char>(value);
  return reinterpret_cast<char*>(p);
}

void PutVarint32(std::string* dst, uint32_t value) { PutVarint64(dst, value); }

void PutVarint64(std::string* dst, uint64_t value) {
  char buf[10];
  dst->append(buf, EncodeVarint64(buf, value) - buf);
}

void PutLengthPrefixedSlice(std::string* dst, const Slice& value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

bool GetVarint32(Slice* input, uint32_t* value) {
  uint64_t v;
  if (!GetVarint64(input, &v) || v > UINT32_MAX) return false;
  *value = static_cast<uint32_t>(v);
  return true;
}

bool GetVarint64(Slice* input, uint64_t* value) {
  uint64_t result = 0;
  const char* p = input->data();
  const char* limit = p + input->size();
  for (int shift = 0; shift <= 63 && p < limit; shift += 7) {
    uint64_t byte = static_cast<unsigned char>(*p);
    ++p;
    if (byte & 0x80) {
      result |= (byte & 0x7f) << shift;
    } else {
      result |= byte << shift;
      *value = result;
      input->remove_prefix(p - input->data());
      return true;
    }
  }
  return false;
}

bool GetVarsint64(Slice* input, int64_t* value) {
  uint64_t v;
  if (!GetVarint64(input, &v)) return false;
  *value = ZigZagDecode64(v);
  return true;
}

bool GetLengthPrefixedSlice(Slice* input, Slice* result) {
  uint64_t len;
  if (!GetVarint64(input, &len) || input->size() < len) return false;
  *result = Slice(input->data(), len);
  input->remove_prefix(len);
  return true;
}

}  // namespace logstore
