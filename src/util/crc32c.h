// CRC32C (Castagnoli) checksums, software slicing-by-8 implementation.
// Used to protect SSTable blocks, log records, and MANIFEST entries.
#ifndef NOVA_UTIL_CRC32C_H_
#define NOVA_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace nova {
namespace crc32c {

/// Return the crc32c of concat(A, data[0,n-1]) where init_crc is the
/// crc32c of some string A.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// Return the crc32c of data[0,n-1].
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

/// Masked CRCs are stored on disk so that a CRC of a string containing
/// embedded CRCs does not degenerate (LevelDB convention).
inline uint32_t Mask(uint32_t crc) {
  static const uint32_t kMaskDelta = 0xa282ead8ul;
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

inline uint32_t Unmask(uint32_t masked_crc) {
  static const uint32_t kMaskDelta = 0xa282ead8ul;
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace crc32c
}  // namespace nova

#endif  // NOVA_UTIL_CRC32C_H_
