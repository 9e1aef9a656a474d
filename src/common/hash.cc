#include "common/hash.h"

namespace oij {

namespace {

/// Byte-at-a-time CRC-32C table (polynomial 0x1EDC6F41, reflected
/// 0x82F63B78), built once on first use.
struct Crc32cTable {
  uint32_t entries[256];
  Crc32cTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
      }
      entries[i] = crc;
    }
  }
};

}  // namespace

uint32_t Crc32c(std::string_view data, uint32_t seed) {
  static const Crc32cTable table;
  uint32_t crc = ~seed;
  for (unsigned char c : data) {
    crc = table.entries[(crc ^ c) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace oij
