// The thread fan-out and the work-sharing primitive shared by every engine
// (SYNFI runs, campaign batches, the sweep's variant-group pool).
//
// run_shards(workers, fn) calls fn(slot) exactly once for every slot in
// [0, workers); it is the only place threads are created.
//
// WorkShare::run(units, grain, threads, body) shares a unit range [0, units)
// between its owner and any helpers: every participant holds a splittable
// range [next, end) and consumes it from the front; a participant whose
// range runs dry — or a helper joining from a WorkBoard — steals the back
// half of the largest open range, but only when that half is worth at least
// kStealBatches batches of `grain` units. Every unit runs exactly once, on
// whichever participant claimed it, so callers whose per-unit results merge
// as sums (or ORs) get the single-threaded answer for any split.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace scfi {

/// Runs `fn(slot)` for every slot in [0, workers): inline on the calling
/// thread when workers <= 1, otherwise one thread per slot. Every worker is
/// joined before anything is rethrown, and the lowest failing slot's
/// exception is rethrown unchanged — its dynamic type survives, so a
/// CancelledError from a fired deadline stays a CancelledError.
template <typename Fn>
void run_shards(int workers, Fn&& fn) {
  if (workers <= 1) {
    fn(0);
    return;
  }
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(workers));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  try {
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&fn, &errors, w] {
        try {
          fn(w);
        } catch (...) {
          errors[static_cast<std::size_t>(w)] = std::current_exception();
        }
      });
    }
  } catch (...) {
    // Thread creation failed: the started workers still own references
    // into this frame.
    for (std::thread& th : pool) th.join();
    throw;
  }
  for (std::thread& th : pool) th.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// Half-open unit range [begin, end).
struct UnitRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  bool empty() const { return begin >= end; }
  std::uint64_t size() const { return empty() ? 0 : end - begin; }
};

class WorkBoard;

/// One unit range shared by an owner and its helpers (see the file header).
/// All share state is guarded by its board's lock.
class WorkShare {
 public:
  /// A stolen half must hold at least this many batches of `grain` units,
  /// so a split always pays for a participant's set-up.
  static constexpr std::uint64_t kStealBatches = 4;

  /// One participant's handle on the share: its own open range.
  class Claim {
   public:
    /// Up to `n` (>= 1) units from the front of this participant's range.
    /// A dry range is refilled by stealing within the share; an empty result
    /// means this participant is done (or a participant failed).
    UnitRange next(std::uint64_t n);
    /// True on the run's owner: the participant that started out holding
    /// the whole range.
    bool owner() const { return owner_; }

   private:
    friend class WorkShare;
    friend class WorkBoard;
    Claim(WorkShare& share, bool owner) : share_(share), owner_(owner) {}
    WorkShare& share_;
    bool owner_;
    UnitRange open_;
  };

  /// A participant: called once per participant, concurrently, with its own
  /// Claim; it must call claim.next() until that returns an empty range.
  using Body = std::function<void(Claim&)>;

  /// Runs `body` as the owner of [0, units) and returns once every unit is
  /// done and every helper has left. Helpers come from the calling thread's
  /// current WorkBoard when it has one (the board's threads are the budget;
  /// the owner runs on the calling thread); otherwise the owner and
  /// `threads` - 1 helpers run as run_shards slots, and with threads <= 1
  /// the owner runs alone on the calling thread. `grain` is the caller's
  /// units per batch. The first participant exception is rethrown unchanged
  /// after every helper has left; a failure also stops the other
  /// participants at their next claim.
  static void run(std::uint64_t units, std::uint64_t grain, int threads, const Body& body);

 private:
  friend class WorkBoard;
  WorkShare(WorkBoard& board, std::uint64_t grain, const Body& body)
      : board_(board),
        body_(body),
        min_steal_(kStealBatches * std::max<std::uint64_t>(grain, 1)) {}

  /// The participant whose range's back half is worth stealing — the
  /// largest — or nullptr. Caller holds the board lock.
  Claim* victim() const;
  /// Moves the victim's back half into `thief`; false without a victim.
  /// Caller holds the board lock.
  bool steal_into(Claim& thief);
  /// Runs the body on a registered claim, records its error, unregisters.
  void participate(Claim& claim);
  /// Owner side: publishes, participates, waits for the helpers, rethrows.
  void own(Claim& claim);

  WorkBoard& board_;
  const Body& body_;
  const std::uint64_t min_steal_;
  std::vector<Claim*> claims_;  ///< registered participants
  std::exception_ptr error_;
};

/// Where running WorkShares are published so that idle threads can help.
/// A thread makes a board its current one with a Scope; WorkShare::run on
/// that thread then publishes there, and help_until() on the board's other
/// threads joins the open share with the largest stealable range.
class WorkBoard {
 public:
  /// The calling thread's current board, or nullptr.
  static WorkBoard* current() { return current_; }

  /// Makes `board` the calling thread's current board for its lifetime.
  class Scope {
   public:
    explicit Scope(WorkBoard& board) : previous_(current_) { current_ = &board; }
    ~Scope() { current_ = previous_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    WorkBoard* previous_;
  };

  /// Helps published shares until `stop()` holds, sleeping while nothing is
  /// worth stealing. `stop` runs under the board lock, before every join.
  template <typename Stop>
  void help_until(Stop stop) {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop()) {
      WorkShare* best = nullptr;
      std::uint64_t best_half = 0;
      for (WorkShare* share : shares_) {
        const WorkShare::Claim* victim = share->victim();
        if (victim != nullptr && victim->open_.size() / 2 > best_half) {
          best = share;
          best_half = victim->open_.size() / 2;
        }
      }
      if (best == nullptr) {
        wake_.wait(lock);
        continue;
      }
      // Registered under this lock, so the owner waits for this helper.
      WorkShare::Claim claim(*best, false);
      best->steal_into(claim);
      best->claims_.push_back(&claim);
      lock.unlock();
      best->participate(claim);
      lock.lock();
    }
  }

  /// Runs `update` under the board lock and wakes every waiting thread, so
  /// that a help_until() predicate reading the updated state cannot miss it.
  template <typename Fn>
  void post(Fn update) {
    const std::lock_guard<std::mutex> lock(mu_);
    update();
    wake_.notify_all();
  }

 private:
  friend class WorkShare;
  static inline thread_local WorkBoard* current_ = nullptr;
  std::mutex mu_;
  /// Signalled on every publish, post and participant exit.
  std::condition_variable wake_;
  std::vector<WorkShare*> shares_;
};

inline UnitRange WorkShare::Claim::next(std::uint64_t n) {
  const std::lock_guard<std::mutex> lock(share_.board_.mu_);
  if (share_.error_ || (open_.empty() && !share_.steal_into(*this))) return {};
  const UnitRange range{open_.begin, open_.begin + std::min(std::max<std::uint64_t>(n, 1),
                                                            open_.size())};
  open_.begin = range.end;
  return range;
}

inline WorkShare::Claim* WorkShare::victim() const {
  Claim* largest = nullptr;
  for (Claim* claim : claims_) {
    if (largest == nullptr || claim->open_.size() > largest->open_.size()) largest = claim;
  }
  const bool worth = largest != nullptr && largest->open_.size() / 2 >= min_steal_;
  return error_ == nullptr && worth ? largest : nullptr;
}

inline bool WorkShare::steal_into(Claim& thief) {
  Claim* from = victim();
  if (from == nullptr) return false;
  const std::uint64_t half = from->open_.size() / 2;
  from->open_.end -= half;
  thief.open_ = {from->open_.end, from->open_.end + half};
  return true;
}

inline void WorkShare::participate(Claim& claim) {
  std::exception_ptr error;
  try {
    body_(claim);
  } catch (...) {
    error = std::current_exception();
  }
  // Notified under the lock: once the owner sees the last claim leave it
  // may destroy the share, so nothing here may touch it after the unlock.
  const std::lock_guard<std::mutex> lock(board_.mu_);
  if (error && !error_) error_ = error;
  claims_.erase(std::find(claims_.begin(), claims_.end(), &claim));
  board_.wake_.notify_all();
}

inline void WorkShare::own(Claim& claim) {
  board_.post([&] {
    claims_.push_back(&claim);
    board_.shares_.push_back(this);
  });
  participate(claim);
  std::unique_lock<std::mutex> lock(board_.mu_);
  board_.shares_.erase(std::find(board_.shares_.begin(), board_.shares_.end(), this));
  board_.wake_.wait(lock, [&] { return claims_.empty(); });
  if (error_) std::rethrow_exception(error_);
}

inline void WorkShare::run(std::uint64_t units, std::uint64_t grain, int threads,
                           const Body& body) {
  WorkBoard* current = WorkBoard::current();
  WorkBoard local;
  WorkShare share(current != nullptr ? *current : local, grain, body);
  Claim claim(share, true);
  claim.open_ = {0, units};
  // Only ranges of at least two steal-sized halves can ever be split.
  const std::uint64_t useful = std::max<std::uint64_t>(units / share.min_steal_, 1);
  const int workers = static_cast<int>(std::min<std::uint64_t>(std::max(threads, 1), useful));
  if (current != nullptr || workers <= 1) {
    share.own(claim);
    return;
  }
  bool done = false;
  run_shards(workers, [&](int slot) {
    if (slot > 0) {
      local.help_until([&] { return done; });
      return;
    }
    // Release the helpers however the owner leaves.
    struct Release {
      WorkBoard& board;
      bool& done;
      ~Release() {
        board.post([this] { done = true; });
      }
    } release{local, done};
    share.own(claim);
  });
}

}  // namespace scfi
