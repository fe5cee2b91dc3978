#ifndef BISTRO_COMMON_HASH_H_
#define BISTRO_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace bistro {

/// CRC32 (IEEE polynomial, reflected), computed eight bytes per step
/// (slicing-by-8). Frames WAL, checkpoint, codec and wire records, and
/// checks payloads end to end. Chains: Crc32(b, Crc32(a)) == Crc32(a + b).
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);
uint32_t Crc32(std::string_view s);

/// FNV-1a 64-bit hash; fast non-cryptographic hashing of names and keys.
uint64_t Fnv1a64(std::string_view s);

}  // namespace bistro

#endif  // BISTRO_COMMON_HASH_H_
