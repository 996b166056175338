#include "util/crc32c.h"

#include <array>

namespace nova {
namespace crc32c {
namespace {

constexpr uint32_t kPoly = 0x82f63b78u;  // reflected CRC32C polynomial

// Slicing-by-8 tables: table[0] is the classic byte-at-a-time table, and
// table[k][b] is the crc of byte b followed by k zero bytes, so eight
// lookups fold one 8-byte word into the crc.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t crc = i;
    for (int k = 0; k < 8; k++) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; i++) {
    for (int k = 1; k < 8; k++) {
      t[k][i] = t[0][t[k - 1][i] & 0xff] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

const Tables& GetTables() {
  static const Tables tables = MakeTables();
  return tables;
}

// Little-endian loads assembled from bytes: endian-safe, and compilers
// fold them into single loads on little-endian targets.
inline uint32_t LoadLE32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  const Tables& t = GetTables();
  uint32_t crc = init_crc ^ 0xffffffffu;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data);
  const uint8_t* end = p + n;
  for (; end - p >= 8; p += 8) {
    uint32_t lo = LoadLE32(p) ^ crc;
    uint32_t hi = LoadLE32(p + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
          t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^ t[3][hi & 0xff] ^
          t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; p < end; p++) {
    crc = t[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace crc32c
}  // namespace nova
