#ifndef OIJ_COMMON_HASH_H_
#define OIJ_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace oij {

/// Strong 64-bit integer mixer (splitmix64 finalizer). Used to spread join
/// keys across partitions; the avalanche property matters because Key-OIJ
/// binds hash values statically to joiners.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// CRC-32C (Castagnoli) over a byte string. Guards every WAL record and
/// the snapshot manifest so the recovery reader can distinguish a torn
/// tail from valid data (src/wal/). Pass the previous return value as
/// `seed` to checksum a logical record split across buffers.
uint32_t Crc32c(std::string_view data, uint32_t seed = 0);

/// Maps a hashed key into one of `n` contiguous hash-range partitions.
/// Partitions are *ranges* of the hash space (not modulo classes) so that a
/// partition table over ranges can be re-split without rehashing.
inline uint32_t RangePartition(uint64_t hash, uint32_t n) {
  // Multiply-shift: floor(hash / 2^64 * n), avoids modulo bias and divide.
  return static_cast<uint32_t>(
      (static_cast<unsigned __int128>(hash) * n) >> 64);
}

}  // namespace oij

#endif  // OIJ_COMMON_HASH_H_
