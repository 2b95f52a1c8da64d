// Deterministic pseudo-random number generation (xoshiro256**).
//
// All randomized components of scfi (fault campaigns, stimulus generation,
// SLP search) take an explicit Rng so that every experiment is reproducible
// from its seed.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace scfi {

/// xoshiro256** by Blackman & Vigna: small, fast, high-quality, and — unlike
/// std::mt19937 — identical across standard library implementations.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5cf15cf15cf15cf1ULL);

  /// Jump-ahead (splittable) construction: an independent stream whose state
  /// is derived from hash(seed, stream) in O(1), so stream k can be opened
  /// without generating streams 0..k-1. Streaming campaign planning keys one
  /// stream per run index; results are then independent of how runs are
  /// packed into lanes, batches, or threads.
  Rng(std::uint64_t seed, std::uint64_t stream);

  /// A divisor prepared once for many draws: its rejection threshold
  /// 2^64 mod d and its reciprocal, so a draw against it costs two
  /// multiplies instead of 64-bit divisions.
  class Bound {
   public:
    /// d must be > 0.
    explicit Bound(std::uint64_t d);

    /// (0 - d) % d: below() accepts a raw draw r exactly when r >= it.
    std::uint64_t threshold() const { return threshold_; }

    /// a % d for every 64-bit a, by multiply-shift (Barrett) reduction. With
    /// m = floor((2^64 - 1) / d), 2^64 / d - m <= 1, so q = floor(a * m /
    /// 2^64) is floor(a / d) or one less (the error is below a / 2^64 < 1)
    /// and a - q * d, which cannot wrap, is a % d or a % d + d.
    std::uint64_t mod(std::uint64_t a) const {
      const auto q = static_cast<std::uint64_t>((static_cast<unsigned __int128>(a) * m_) >> 64);
      const std::uint64_t r = a - q * d_;
      return r >= d_ ? r - d_ : r;
    }

   private:
    std::uint64_t d_;
    std::uint64_t threshold_;
    std::uint64_t m_;  ///< floor((2^64 - 1) / d)
  };

  /// Next raw 64-bit value.
  std::uint64_t next() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform value in [0, bound). bound must be > 0.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform value in [0, d) for d = the bound's divisor: exactly the value
  /// below(d) returns, after exactly the same next() draws —
  /// the same rejection rule (accept r when r >= d or r >= 2^64 mod d; the
  /// threshold is below d, so that is r >= threshold()) and the same r % d
  /// — without a division. For a bound drawn against many times.
  std::uint64_t below(const Bound& bound) {
    for (;;) {
      const std::uint64_t r = next();
      if (r >= bound.threshold()) return bound.mod(r);
    }
  }

  /// Uniform value in [lo, hi] inclusive.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Bernoulli trial with probability p.
  bool chance(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Picks a uniformly random element (container must be non-empty).
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[static_cast<std::size_t>(below(v.size()))];
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace scfi
