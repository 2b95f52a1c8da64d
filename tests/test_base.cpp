#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "base/error.h"
#include "base/retry.h"
#include "base/rng.h"
#include "base/strutil.h"

namespace scfi {
namespace {

TEST(Error, CheckThrowsLogicBug) {
  EXPECT_NO_THROW(check(true, "fine"));
  EXPECT_THROW(check(false, "boom"), LogicBug);
}

TEST(CancelToken, ExplicitCancelAndDeadline) {
  CancelToken token;
  EXPECT_FALSE(token.stop_requested());
  EXPECT_NO_THROW(token.check("engine"));
  token.cancel();
  EXPECT_TRUE(token.stop_requested());
  EXPECT_THROW(token.check("engine"), CancelledError);
  // CancelledError is an ScfiError (generic handlers treat it as
  // recoverable) but remains distinguishable for retry loops.
  try {
    token.check("engine");
    FAIL() << "check passed a cancelled token";
  } catch (const ScfiError& e) {
    EXPECT_NE(std::string(e.what()).find("engine"), std::string::npos);
  }

  // An already-expired deadline fires without waiting; a far-future one
  // does not fire.
  CancelToken expired;
  expired.set_deadline_after(0.0);
  EXPECT_TRUE(expired.stop_requested());
  CancelToken future;
  future.set_deadline_after(3600.0);
  EXPECT_FALSE(future.stop_requested());
  EXPECT_THROW(future.set_deadline_after(-1.0), ScfiError);
}

TEST(BackoffPolicy, ExponentialScheduleIsCapped) {
  const BackoffPolicy policy{10.0, 2.0, 1000.0};
  EXPECT_DOUBLE_EQ(policy.delay_ms(0), 0.0);  // no failures yet: no delay
  EXPECT_DOUBLE_EQ(policy.delay_ms(1), 10.0);
  EXPECT_DOUBLE_EQ(policy.delay_ms(2), 20.0);
  EXPECT_DOUBLE_EQ(policy.delay_ms(3), 40.0);
  EXPECT_DOUBLE_EQ(policy.delay_ms(8), 1000.0);   // capped at max_ms
  EXPECT_DOUBLE_EQ(policy.delay_ms(60), 1000.0);  // no overflow at high counts
  // Zero initial delay disables backoff entirely (the test configuration).
  EXPECT_DOUBLE_EQ((BackoffPolicy{0.0, 2.0, 1000.0}.delay_ms(5)), 0.0);
  // A sub-1 multiplier never grows the delay backwards.
  EXPECT_DOUBLE_EQ((BackoffPolicy{10.0, 0.5, 1000.0}.delay_ms(3)), 10.0);
}

TEST(CancelToken, ChainsToParentWithoutDisturbingOwnState) {
  // A chained token observes the parent's stop (the fleet drain signal)
  // alongside its own deadline/cancel, and unchaining restores isolation.
  CancelToken parent;
  CancelToken child;
  child.chain_to(&parent);
  EXPECT_FALSE(child.stop_requested());
  parent.cancel();
  EXPECT_TRUE(child.stop_requested());
  EXPECT_THROW(child.check("engine"), CancelledError);
  // The signal flows one way: a fired child never back-propagates.
  CancelToken parent2;
  CancelToken child2;
  child2.chain_to(&parent2);
  child2.cancel();
  EXPECT_TRUE(child2.stop_requested());
  EXPECT_FALSE(parent2.stop_requested());
  child2.chain_to(nullptr);  // unchain: own state only
  CancelToken child3;
  child3.chain_to(&parent);  // parent already fired: observed immediately
  EXPECT_TRUE(child3.stop_requested());
  child3.chain_to(nullptr);
  EXPECT_FALSE(child3.stop_requested());
}

TEST(BackoffPolicy, FullJitterIsBoundedSpreadAndDeterministic) {
  const BackoffPolicy policy{10.0, 2.0, 1000.0};
  Rng rng(7);
  // Full jitter draws uniformly from [0, delay_ms(failures)): always within
  // the undithered envelope, and actually spread (not a constant).
  std::set<double> seen;
  for (int i = 0; i < 64; ++i) {
    const double jittered = policy.jittered_delay_ms(3, rng);
    EXPECT_GE(jittered, 0.0);
    EXPECT_LT(jittered, policy.delay_ms(3));
    seen.insert(jittered);
  }
  EXPECT_GT(seen.size(), 32u);
  // Deterministic under a seeded Rng: the same stream replays the same
  // schedule (reproducible fleet runs), a different seed diverges.
  Rng replay_a(42);
  Rng replay_b(42);
  Rng other(43);
  bool diverged = false;
  for (int failures = 1; failures <= 8; ++failures) {
    const double a = policy.jittered_delay_ms(failures, replay_a);
    EXPECT_DOUBLE_EQ(a, policy.jittered_delay_ms(failures, replay_b));
    if (a != policy.jittered_delay_ms(failures, other)) diverged = true;
  }
  EXPECT_TRUE(diverged);
  // A zero-delay schedule (failures=0, or a zeroed policy) never jitters
  // upward.
  EXPECT_DOUBLE_EQ(policy.jittered_delay_ms(0, rng), 0.0);
  EXPECT_DOUBLE_EQ((BackoffPolicy{0.0, 2.0, 1000.0}.jittered_delay_ms(5, rng)), 0.0);
}

TEST(Error, RequireThrowsScfiError) {
  EXPECT_NO_THROW(require(true, "fine"));
  EXPECT_THROW(require(false, "boom"), ScfiError);
}

TEST(Error, FailedGuardsCarryTheirMessage) {
  // The message is built only on failure; literal and composed messages
  // both arrive verbatim behind the guard's prefix.
  const auto what_of = [](auto&& fn) {
    try {
      fn();
    } catch (const std::exception& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  EXPECT_NO_THROW(check(true, "fine"));
  EXPECT_NO_THROW(require(true, "fine"));
  EXPECT_EQ(what_of([] { check(false, "boom"); }), "internal check failed: boom");
  EXPECT_EQ(what_of([] { check(false, std::string("bo") + "om"); }),
            "internal check failed: boom");
  EXPECT_EQ(what_of([] { require(false, "boom"); }), "boom");
  EXPECT_EQ(what_of([] { require(false, std::string("bo") + "om"); }), "boom");
}

TEST(Error, DescribeCurrentException) {
  try {
    throw ScfiError("bad input");
  } catch (...) {
    EXPECT_EQ(describe_current_exception(), "bad input");
  }
  try {
    throw 42;
  } catch (...) {
    EXPECT_EQ(describe_current_exception(), "unknown error");
  }
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, StreamsAreDeterministicAndIndependent) {
  // Same (seed, stream) pair -> same sequence; the jump-ahead construction
  // must not depend on any other stream having been opened first.
  Rng a(42, 1000);
  Rng b(42, 1000);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());

  // Adjacent streams, and the same stream under another seed, decorrelate.
  Rng s0(42, 0);
  Rng s1(42, 1);
  Rng other_seed(43, 0);
  int same01 = 0;
  int same_seed = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t x = s0.next();
    same01 += (x == s1.next());
    same_seed += (x == other_seed.next());
  }
  EXPECT_LT(same01, 2);
  EXPECT_LT(same_seed, 2);
}

TEST(Rng, StreamZeroDiffersFromPlainSeed) {
  // The stream constructor is a different key derivation; stream 0 must not
  // silently alias the sequential constructor (that would couple the
  // streaming campaign planner to the legacy one).
  Rng plain(42);
  Rng stream0(42, 0);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (plain.next() == stream0.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngBelow, MatchesTwoDivisionReference) {
  // Rng::below skips the threshold division whenever r >= bound. Against
  // the textbook form (threshold first, then accept r >= threshold) it must
  // return the same values and consume the same draws, including on the
  // rejection path, which the bounds above 2^63 reach often.
  const auto reference_below = [](Rng& rng, std::uint64_t bound, int& rejections) {
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = rng.next();
      if (r >= threshold) return r % bound;
      ++rejections;
    }
  };
  const std::uint64_t bounds[] = {1,
                                  2,
                                  3,
                                  24,
                                  (1ULL << 32) + 1,
                                  (1ULL << 63) + 1,
                                  3ULL << 62,
                                  ~0ULL};
  int rejections = 0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    for (std::uint64_t stream = 0; stream < 24; ++stream) {
      Rng fast(seed, stream);
      Rng reference(seed, stream);
      for (int i = 0; i < 64; ++i) {
        for (const std::uint64_t bound : bounds) {
          ASSERT_EQ(fast.below(bound), reference_below(reference, bound, rejections))
              << "seed " << seed << " stream " << stream << " bound " << bound;
        }
      }
      EXPECT_EQ(fast.next(), reference.next()) << "streams out of step";
    }
  }
  EXPECT_GT(rejections, 1000);
}

TEST(RngBelow, PrecomputedBoundMatchesDivision) {
  // below(Rng::Bound(d)) must return what below(d) and the textbook
  // division form return and leave the stream where they leave it, for the
  // bounds above, every d in 1..4096 and seeded random 64-bit divisors of
  // every width, including on the rejection path. mod() must equal a % d on
  // the edge numerators 0, d - 1, d and 2^64 - 1 and on multiples of d up
  // to the largest, and their neighbours.
  std::vector<std::uint64_t> bounds = {1,
                                       2,
                                       3,
                                       24,
                                       (1ULL << 32) + 1,
                                       (1ULL << 63) + 1,
                                       3ULL << 62,
                                       ~0ULL};
  for (std::uint64_t d = 1; d <= 4096; ++d) bounds.push_back(d);
  Rng pick(2024);
  for (int i = 0; i < 512; ++i) bounds.push_back((pick.next() >> (i % 64)) | 1);
  int rejections = 0;
  for (const std::uint64_t d : bounds) {
    const Rng::Bound bound(d);
    const std::uint64_t threshold = (0 - d) % d;
    ASSERT_EQ(bound.threshold(), threshold) << "d " << d;
    const std::uint64_t top = ~0ULL / d;  // the largest multiple is top * d
    std::vector<std::uint64_t> numerators = {0, d - 1, d, ~0ULL, ~0ULL - 1};
    for (const std::uint64_t q : {std::uint64_t{2}, std::uint64_t{3}, top / 2, top - 1, top}) {
      if (q < 2 || q > top) continue;
      numerators.push_back(q * d);
      numerators.push_back(q * d - 1);
      if (q * d != ~0ULL) numerators.push_back(q * d + 1);
    }
    for (const std::uint64_t a : numerators) {
      ASSERT_EQ(bound.mod(a), a % d) << "a " << a << " d " << d;
    }
    const auto textbook_below = [&](Rng& rng) {
      for (;;) {
        const std::uint64_t r = rng.next();
        if (r >= threshold) return r % d;
        ++rejections;
      }
    };
    for (std::uint64_t stream = 0; stream < 4; ++stream) {
      Rng fast(d, stream);
      Rng divided(d, stream);
      Rng textbook(d, stream);
      for (int i = 0; i < 64; ++i) {
        const std::uint64_t want = textbook_below(textbook);
        ASSERT_EQ(divided.below(d), want) << "d " << d << " stream " << stream;
        ASSERT_EQ(fast.below(bound), want) << "d " << d << " stream " << stream;
      }
      const std::uint64_t next = textbook.next();
      ASSERT_EQ(divided.next(), next) << "d " << d << ": below(d) out of step";
      ASSERT_EQ(fast.next(), next) << "d " << d << ": below(Bound) out of step";
    }
  }
  EXPECT_GT(rejections, 1000);
}

TEST(RngGroup, StreamsMatchScalarStreams) {
  // Element i of every next() is stream i's own next(), and stream(i)
  // continues the stream exactly, for raw draws and bounded ones.
  int pairs = 0;
  for (std::uint64_t seed : {0ULL, 1ULL, 7ULL, 0x5cf15cf15cf15cf1ULL, ~0ULL}) {
    for (std::uint64_t first : {0ULL, 1ULL, 3ULL, 512ULL, 99991ULL, ~0ULL - 2}) {
      RngGroup group(seed, first);
      std::vector<Rng> scalar;
      for (std::size_t i = 0; i < RngGroup::kStreams; ++i) scalar.emplace_back(seed, first + i);
      const int steps = static_cast<int>(first % 37) + static_cast<int>(seed % 5);
      RngGroup::Word values;
      for (int t = 0; t < steps; ++t) {
        group.next(values);
        for (std::size_t i = 0; i < RngGroup::kStreams; ++i) {
          ASSERT_EQ(values[i], scalar[i].next())
              << "seed " << seed << " first " << first << " step " << t << " stream " << i;
        }
      }
      const Rng::Bound bound(24);
      for (std::size_t i = 0; i < RngGroup::kStreams; ++i) {
        Rng extracted = group.stream(i);
        EXPECT_EQ(extracted.below(bound), scalar[i].below(bound));
        for (int t = 0; t < 8; ++t) ASSERT_EQ(extracted.next(), scalar[i].next());
      }
      ++pairs;
    }
  }
  EXPECT_EQ(pairs, 30);
}

TEST(RngGroup, ExtractionLeavesTheGroupInStep) {
  // stream() copies a stream out; the group itself keeps stepping from the
  // same position.
  RngGroup group(11, 40);
  RngGroup::Word values;
  group.next(values);
  Rng copy = group.stream(2);
  group.next(values);
  EXPECT_EQ(values[2], copy.next());
  Rng reference(11, 42);
  reference.next();
  reference.next();
  EXPECT_EQ(group.stream(2).next(), reference.next());
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  bool low = false;
  bool high = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    low |= v == 5;
    high |= v == 8;
  }
  EXPECT_TRUE(low);
  EXPECT_TRUE(high);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(StrUtil, Split) {
  const auto parts = split("  a\tbb  ccc ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "bb");
  EXPECT_EQ(parts[2], "ccc");
}

TEST(StrUtil, SplitEmpty) { EXPECT_TRUE(split("   ").empty()); }

TEST(StrUtil, Trim) {
  EXPECT_EQ(trim("  x y \r\n"), "x y");
  EXPECT_EQ(trim(""), "");
}

TEST(StrUtil, StartsWith) {
  EXPECT_TRUE(starts_with("mds_x_3", "mds_"));
  EXPECT_FALSE(starts_with("md", "mds_"));
}

TEST(StrUtil, Format) { EXPECT_EQ(format("%d-%s", 7, "x"), "7-x"); }

TEST(StrUtil, BinRoundTrip) {
  EXPECT_EQ(to_bin(0b1011, 6), "001011");
  EXPECT_EQ(parse_bin("001011"), 0b1011u);
  EXPECT_THROW(parse_bin("012"), ScfiError);
}

}  // namespace
}  // namespace scfi
