#ifndef COHERE_COMMON_SPLITMIX64_H_
#define COHERE_COMMON_SPLITMIX64_H_

#include <cstdint>

namespace cohere {

/// SplitMix64 finalizer: a stateless 64-bit mix, statistically strong
/// enough for probability draws and sampling decisions. Hashing
/// (seed, ordinal) per draw makes every stream replay exactly under a fixed
/// seed, and concurrent draws need no lock (fault points, trace and
/// query-log sampling, retry jitter).
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace cohere

#endif  // COHERE_COMMON_SPLITMIX64_H_
