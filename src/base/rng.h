// Deterministic pseudo-random number generation (xoshiro256**).
//
// All randomized components of scfi (fault campaigns, stimulus generation,
// SLP search) take an explicit Rng so that every experiment is reproducible
// from its seed.
#pragma once

#include <bit>
#include <cstddef>
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
  /// packed into lanes, batches, or threads. Inline: the planner opens one
  /// stream per run.
  Rng(std::uint64_t seed, std::uint64_t stream) {
    // Absorb the pair (seed, stream) into one splitmix counter — hash the
    // seed first so that nearby (seed, stream) pairs land far apart — then
    // expand into the xoshiro state exactly like the single-seed constructor.
    std::uint64_t x = seed;
    const std::uint64_t h = splitmix(x);
    x = h ^ (stream * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL);
    for (auto& word : s_) word = splitmix(x);
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
  }

  /// A divisor prepared once for many draws: its rejection threshold
  /// 2^64 mod d and its reciprocal, so a draw against it costs two
  /// multiplies instead of 64-bit divisions.
  class Bound {
   public:
    /// d must be > 0.
    explicit Bound(std::uint64_t d);

    /// (0 - d) % d: below() accepts a raw draw r exactly when r >= it.
    std::uint64_t threshold() const { return threshold_; }

    /// a % d or a % d + d for every 64-bit a, by multiply-shift (Barrett)
    /// reduction. With m = floor((2^64 - 1) / d), 2^64 / d - m <= 1, so q =
    /// floor(a * m / 2^64) is floor(a / d) or one less (the error is below
    /// a / 2^64 < 1) and a - q * d, which cannot wrap, is a % d or a % d + d.
    /// A table that holds each of its d entries twice is indexed by it
    /// directly.
    std::uint64_t reduce(std::uint64_t a) const {
      const auto q = static_cast<std::uint64_t>((static_cast<unsigned __int128>(a) * m_) >> 64);
      return a - q * d_;
    }

    /// a % d for every 64-bit a: reduce() and one conditional subtract.
    std::uint64_t mod(std::uint64_t a) const {
      const std::uint64_t r = reduce(a);
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
  friend class RngGroup;

  struct FromState {};
  Rng(FromState, const std::uint64_t (&s)[4]) : s_{s[0], s[1], s[2], s[3]} {}

  // splitmix64, used only to expand a seed into the xoshiro state.
  static std::uint64_t splitmix(std::uint64_t& x) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint64_t s_[4];
};

/// Four streams of Rng stepped together. Element i of four 32-byte GCC
/// vector-extension words holds the state of stream i, so one next()
/// advances all four streams with integer vector ops (the x5 and x9 of
/// xoshiro256** as shift-and-add: x86 has no 64-bit vector multiply below
/// AVX-512) and yields their four raw values. The contract: element i of
/// every next() is the value stream i's own Rng::next() would return at
/// that position, and stream(i) hands back stream i as an Rng positioned
/// after the group's last next(), so scalar draws (below(), below(Bound))
/// continue it exactly. The group draws raw values only; a bounded draw
/// that may reject belongs to the scalar stream.
class RngGroup {
 public:
  static constexpr std::size_t kStreams = 4;
  typedef std::uint64_t Word __attribute__((vector_size(8 * kStreams)));

  /// Stream i is Rng(seed, first + i).
  RngGroup(std::uint64_t seed, std::uint64_t first) {
    for (std::size_t i = 0; i < kStreams; ++i) {
      const Rng rng(seed, first + i);
      for (std::size_t w = 0; w < 4; ++w) s_[w][i] = rng.s_[w];
    }
  }

  /// Sets `values` to the next raw value of every stream, stream i's in
  /// element i. (An out-parameter: GCC warns that returning a vector by
  /// value depends on the -m flags, even where the call is inlined.)
  void next(Word& values) {
    const Word x = (s_[1] << 2) + s_[1];  // s1 * 5
    const Word r = (x << 7) | (x >> 57);  // rotl(s1 * 5, 7)
    values = (r << 3) + r;                // * 9
    const Word t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = (s_[3] << 45) | (s_[3] >> 19);
  }

  /// Stream i at its current position.
  Rng stream(std::size_t i) const {
    const std::uint64_t s[4] = {s_[0][i], s_[1][i], s_[2][i], s_[3][i]};
    return Rng(Rng::FromState{}, s);
  }

 private:
  Word s_[4];
};

}  // namespace scfi
