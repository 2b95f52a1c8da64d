// Tests of base/parallel.h: the run_shards fan-out and the range-stealing
// WorkShare / WorkBoard primitive. The file depends on src/base only, so
// ci.sh also builds it standalone under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "base/error.h"
#include "base/parallel.h"
#include "base/retry.h"
#include "base/rng.h"

namespace scfi {
namespace {

void sleep_us(int us) { std::this_thread::sleep_for(std::chrono::microseconds(us)); }

/// Spins (bounded) until `flag` is set; false on timeout.
bool wait_for(const std::atomic<bool>& flag) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    sleep_us(100);
  }
  return true;
}

TEST(RunShards, EverySlotRunsExactlyOnce) {
  for (const int workers : {1, 2, 5}) {
    std::vector<std::atomic<int>> runs(static_cast<std::size_t>(workers));
    run_shards(workers, [&](int slot) { runs[static_cast<std::size_t>(slot)].fetch_add(1); });
    for (int w = 0; w < workers; ++w) {
      EXPECT_EQ(runs[static_cast<std::size_t>(w)].load(), 1)
          << "workers=" << workers << " slot=" << w;
    }
  }
}

TEST(RunShards, SingleWorkerRunsOnTheCallingThread) {
  std::thread::id ran_on;
  int slot_seen = -1;
  run_shards(1, [&](int slot) {
    ran_on = std::this_thread::get_id();
    slot_seen = slot;
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(slot_seen, 0);
}

TEST(RunShards, LowestSlotErrorKeepsItsTypeAfterEveryWorkerJoined) {
  // Slot 3 throws at once and slot 1 only after a delay; the slower, lower
  // slot still wins, keeps its dynamic type, and surfaces only once the
  // non-throwing slots have all finished.
  constexpr int kWorkers = 5;
  std::vector<std::atomic<bool>> finished(kWorkers);
  const auto sleep_ms = [](int ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  };
  bool caught = false;
  try {
    run_shards(kWorkers, [&](int slot) {
      if (slot == 1) {
        sleep_ms(20);
        throw CancelledError("slot 1 deadline");
      }
      if (slot == 3) throw ScfiError("slot 3 failure");
      sleep_ms(50);
      finished[static_cast<std::size_t>(slot)] = true;
    });
  } catch (const CancelledError& e) {
    caught = true;
    EXPECT_STREQ(e.what(), "slot 1 deadline");
    for (const int slot : {0, 2, 4}) {
      EXPECT_TRUE(finished[static_cast<std::size_t>(slot)].load()) << "slot " << slot;
    }
  }
  EXPECT_TRUE(caught);
}

/// Claims random-sized chunks until the claim runs dry, counting every unit.
void count_units(WorkShare::Claim& claim, std::vector<std::atomic<int>>& seen, Rng& rng) {
  for (UnitRange r = claim.next(1 + rng.below(8)); !r.empty(); r = claim.next(1 + rng.below(8))) {
    for (std::uint64_t u = r.begin; u < r.end; ++u) seen[u].fetch_add(1);
    sleep_us(20);  // leaves helpers time to steal
  }
}

TEST(WorkShare, EveryUnitRunsOnceUnderConcurrentHelpers) {
  Rng sizes(7);
  for (int helpers = 0; helpers <= 7; ++helpers) {
    for (int round = 0; round < 3; ++round) {
      const std::uint64_t units = sizes.below(400);
      const std::uint64_t grain = 1 + sizes.below(3);
      std::vector<std::atomic<int>> seen(units);
      std::atomic<int> participants{0};
      std::atomic<std::uint64_t> stream{0};
      WorkShare::run(units, grain, helpers + 1, [&](WorkShare::Claim& claim) {
        participants.fetch_add(1);
        Rng rng(11, stream.fetch_add(1));
        count_units(claim, seen, rng);
      });
      for (std::uint64_t u = 0; u < units; ++u) {
        ASSERT_EQ(seen[u].load(), 1) << "helpers=" << helpers << " units=" << units << " u=" << u;
      }
      EXPECT_GE(participants.load(), 1);
      EXPECT_LE(participants.load(), helpers + 1);
    }
  }
}

TEST(WorkShare, OwnerRunsAloneOnTheCallingThreadWhenNobodyHelps) {
  // threads = 1 and no current board: one participant, the owner, on the
  // calling thread, consuming the range front to back.
  std::vector<std::thread::id> ran_on;
  std::vector<UnitRange> claimed;
  WorkShare::run(100, 1, 1, [&](WorkShare::Claim& claim) {
    ran_on.push_back(std::this_thread::get_id());
    EXPECT_TRUE(claim.owner());
    for (UnitRange r = claim.next(7); !r.empty(); r = claim.next(7)) claimed.push_back(r);
  });
  ASSERT_EQ(ran_on.size(), 1u);
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  std::uint64_t expect = 0;
  for (const UnitRange& r : claimed) {
    EXPECT_EQ(r.begin, expect);
    expect = r.end;
  }
  EXPECT_EQ(expect, 100u);

  // A range too short to split never starts helpers, whatever `threads`.
  int participants = 0;
  WorkShare::run(2 * WorkShare::kStealBatches - 1, 1, 8, [&](WorkShare::Claim& claim) {
    ++participants;
    while (!claim.next(1).empty()) {
    }
  });
  EXPECT_EQ(participants, 1);
}

TEST(WorkShare, HelperStealsTheBackHalf) {
  // The owner holds its first unit until a helper has joined: the helper's
  // first claim is the back half of the owner's remaining range.
  std::atomic<bool> joined{false};
  std::vector<std::atomic<int>> seen(100);
  UnitRange helper_first;
  WorkShare::run(100, 1, 2, [&](WorkShare::Claim& claim) {
    if (claim.owner()) {
      UnitRange r = claim.next(1);
      EXPECT_TRUE(wait_for(joined));
      for (; !r.empty(); r = claim.next(1)) seen[r.begin].fetch_add(1);
      return;
    }
    helper_first = claim.next(1);
    joined = true;
    for (UnitRange r = helper_first; !r.empty(); r = claim.next(1)) seen[r.begin].fetch_add(1);
  });
  // Whether the owner's first claim came before or after the steal: the
  // back half of [0, 100) or of [1, 100).
  EXPECT_TRUE(helper_first.begin == 50u || helper_first.begin == 51u) << helper_first.begin;
  for (std::size_t u = 0; u < seen.size(); ++u) EXPECT_EQ(seen[u].load(), 1) << u;
}

TEST(WorkShare, FirstHelperErrorIsRethrownWithItsType) {
  // The helper fails first with a CancelledError; the owner fails later
  // with a plain ScfiError. run() rethrows the helper's error unchanged,
  // only after every participant has left, and the failure stopped the
  // owner's claims. The owner's range is far too large to drain one unit
  // at a time, so its claims end only because the helper's error reached
  // the share, and the owner throws only after that. (kGiveUp only turns a
  // share that never stops into a failure instead of an hours-long loop.)
  constexpr std::uint64_t kUnits = 1ULL << 40;
  constexpr std::uint64_t kGiveUp = 1ULL << 28;
  std::atomic<bool> owner_left{false};
  std::uint64_t owner_units = 0;
  bool caught = false;
  try {
    WorkShare::run(kUnits, 1, 2, [&](WorkShare::Claim& claim) {
      if (!claim.owner()) throw CancelledError("helper deadline");
      for (UnitRange r = claim.next(1); !r.empty() && owner_units < kGiveUp; r = claim.next(1)) {
        ++owner_units;
      }
      owner_left = true;
      throw ScfiError("owner failure");
    });
  } catch (const CancelledError& e) {
    caught = true;
    EXPECT_STREQ(e.what(), "helper deadline");
    EXPECT_TRUE(owner_left.load());
  }
  EXPECT_TRUE(caught);
  EXPECT_LT(owner_units, kGiveUp);
}

TEST(WorkShare, BoardHelpersServeConcurrentOwners) {
  // The sweep's shape: three owner threads publish a series of runs on one
  // board while four threads help whichever run has the largest stealable
  // range, until every owner is done.
  constexpr int kOwners = 3;
  constexpr int kHelpers = 4;
  constexpr int kRuns = 6;
  WorkBoard board;
  int owners_done = 0;
  std::atomic<int> bad{0};
  run_shards(kOwners + kHelpers, [&](int slot) {
    if (slot >= kOwners) {
      board.help_until([&] { return owners_done == kOwners; });
      return;
    }
    const WorkBoard::Scope scope(board);
    Rng sizes(23, static_cast<std::uint64_t>(slot));
    for (int run = 0; run < kRuns; ++run) {
      const std::uint64_t units = sizes.below(300);
      std::vector<std::atomic<int>> seen(units);
      std::atomic<std::uint64_t> stream{0};
      WorkShare::run(units, 1, 1, [&](WorkShare::Claim& claim) {
        Rng rng(29, stream.fetch_add(1));
        count_units(claim, seen, rng);
      });
      for (std::uint64_t u = 0; u < units; ++u) {
        if (seen[u].load() != 1) bad.fetch_add(1);
      }
    }
    board.post([&] { ++owners_done; });
  });
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(WorkBoard::current(), nullptr);
}

TEST(WorkShare, ScopeRestoresThePreviousBoard) {
  WorkBoard outer;
  WorkBoard inner;
  EXPECT_EQ(WorkBoard::current(), nullptr);
  {
    const WorkBoard::Scope a(outer);
    EXPECT_EQ(WorkBoard::current(), &outer);
    {
      const WorkBoard::Scope b(inner);
      EXPECT_EQ(WorkBoard::current(), &inner);
    }
    EXPECT_EQ(WorkBoard::current(), &outer);
  }
  EXPECT_EQ(WorkBoard::current(), nullptr);
}

}  // namespace
}  // namespace scfi
