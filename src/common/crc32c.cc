#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#include <arm_acle.h>
#endif

namespace shoremt {
namespace {

// 256-entry table for the reflected Castagnoli polynomial, built once at
// static-init time (8-iteration shift per entry; ~1µs, no binary bloat).
struct Crc32cTable {
  std::array<uint32_t, 256> t;
  Crc32cTable() {
    constexpr uint32_t kPoly = 0x82F63B78u;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
  }
};
const Crc32cTable kTable;

#if defined(__x86_64__)

// Bytes up to an 8-byte boundary, then one crc32q per word, then the
// tail. Unaligned words would also work, but aligned ones never straddle
// a cache line.
__attribute__((target("sse4.2"))) uint32_t Crc32cExtendHw(
    uint32_t crc, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    c = _mm_crc32_u8(c, *p++);
    --n;
  }
  uint64_t c64 = c;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c64 = _mm_crc32_u64(c64, word);
  }
  c = static_cast<uint32_t>(c64);
  for (; n > 0; --n) c = _mm_crc32_u8(c, *p++);
  return c ^ 0xFFFFFFFFu;
}

bool CpuHasSse42() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)

uint32_t Crc32cExtendHw(uint32_t crc, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    c = __crc32cb(c, *p++);
    --n;
  }
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = __crc32cd(c, word);
  }
  for (; n > 0; --n) c = __crc32cb(c, *p++);
  return c ^ 0xFFFFFFFFu;
}

#endif

}  // namespace

namespace internal {

uint32_t Crc32cExtendTable(uint32_t crc, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c = kTable.t[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace internal

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
#if defined(__x86_64__)
  static const bool hw = CpuHasSse42();
  if (hw) return Crc32cExtendHw(crc, data, n);
#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
  return Crc32cExtendHw(crc, data, n);
#endif
  return internal::Crc32cExtendTable(crc, data, n);
}

}  // namespace shoremt
