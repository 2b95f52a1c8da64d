#include "base/rng.h"

#include "base/error.h"

namespace scfi {

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& word : s_) word = splitmix(x);
  // All-zero state would be a fixed point; splitmix of any seed avoids it,
  // but keep the guarantee explicit.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng::Bound::Bound(std::uint64_t d) : d_(d) {
  check(d > 0, "Rng::Bound divisor must be positive");
  threshold_ = (0 - d) % d;
  m_ = ~0ULL / d;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  check(bound > 0, "Rng::below bound must be positive");
  // Rejection sampling to avoid modulo bias: accept r >= 2^64 mod bound.
  // That threshold is below `bound`, so any r >= bound is accepted without
  // computing it — for the small bounds of walk and fault planning that is
  // every draw but a ~bound/2^64 fraction, which saves one 64-bit division
  // per call. The accepted values, and so the sequence, are unchanged.
  for (;;) {
    const std::uint64_t r = next();
    if (r >= bound || r >= (0 - bound) % bound) return r % bound;
  }
}

std::uint64_t Rng::range(std::uint64_t lo, std::uint64_t hi) {
  check(lo <= hi, "Rng::range lo must be <= hi");
  return lo + below(hi - lo + 1);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

}  // namespace scfi
