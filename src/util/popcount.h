#ifndef CSR_UTIL_POPCOUNT_H_
#define CSR_UTIL_POPCOUNT_H_

#include <cstdint>

namespace csr {

/// Branch-free SWAR population count. std::popcount and
/// __builtin_popcountll compile to a libgcc __popcountdi2 call per word on
/// baseline x86-64 (no POPCNT), several times slower than this inline form.
inline uint64_t Popcount64(uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return (x * 0x0101010101010101ULL) >> 56;
}

}  // namespace csr

#endif  // CSR_UTIL_POPCOUNT_H_
