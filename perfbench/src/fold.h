// 64-bit mixing for the benchmark's answer and outcome digests.
#ifndef PERFBENCH_FOLD_H_
#define PERFBENCH_FOLD_H_

#include <cstdint>

namespace perfbench {

/// SplitMix64 finalizer.
inline uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Order-sensitive fold of `v` into digest `h`.
inline uint64_t Fold(uint64_t h, uint64_t v) { return Mix(h ^ Mix(v)); }

}  // namespace perfbench

#endif  // PERFBENCH_FOLD_H_
