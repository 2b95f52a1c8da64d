#include "sat/solver.h"

#include <algorithm>
#include <climits>
#include <cmath>

#include "base/error.h"

namespace scfi::sat {
namespace {

/// Luby restart sequence (1,1,2,1,1,2,4,...).
std::uint64_t luby(std::uint64_t i) {
  std::uint64_t k = 1;
  while ((1ULL << k) - 1 < i + 1) ++k;
  while ((1ULL << k) - 1 != i + 1) {
    i -= (1ULL << (k - 1)) - 1;
    k = 1;
    while ((1ULL << k) - 1 < i + 1) ++k;
  }
  return 1ULL << (k - 1);
}

}  // namespace

int Solver::new_var() {
  assign_.push_back(kUndef);
  phase_.push_back(kFalse);
  level_.push_back(0);
  reason_.push_back(-1);
  seen_.push_back(0);
  activity_.push_back(0.0);
  heap_pos_.push_back(-1);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_insert(num_vars() - 1);
  return num_vars();
}

void Solver::add_clause(const std::vector<Lit>& lits) {
  std::vector<int> clause;
  clause.reserve(lits.size());
  for (Lit lit : lits) {
    check(lit != 0 && std::abs(lit) <= num_vars(), "Solver::add_clause: literal out of range");
    clause.push_back(ilit(lit));
  }
  std::sort(clause.begin(), clause.end());
  clause.erase(std::unique(clause.begin(), clause.end()), clause.end());
  // Tautology?
  for (std::size_t i = 0; i + 1 < clause.size(); ++i) {
    if (clause[i] == neg(clause[i + 1])) return;
  }
  if (clause.empty()) {
    trivially_unsat_ = true;
    return;
  }
  if (clause.size() == 1) {
    // Defer unit enqueueing to solve() (top level).
    pending_units_.push_back(clause[0]);
    return;
  }
  store_clause(clause);
  replay_level0_ = true;
}

int Solver::store_clause(const std::vector<int>& lits) {
  check(arena_.size() + lits.size() + 1 <= static_cast<std::size_t>(INT_MAX),
        "Solver: clause arena exceeds int offsets");
  const int ref = static_cast<int>(arena_.size());
  arena_.push_back(static_cast<int>(lits.size()));
  arena_.insert(arena_.end(), lits.begin(), lits.end());
  ++arena_clauses_;
  watches_[static_cast<std::size_t>(lits[0])].push_back(ref);
  watches_[static_cast<std::size_t>(lits[1])].push_back(ref);
  return ref;
}

void Solver::enqueue(int l, int reason) {
  assign_[static_cast<std::size_t>(var(l))] =
      static_cast<std::int8_t>((l & 1) != 0 ? kFalse : kTrue);
  level_[static_cast<std::size_t>(var(l))] = static_cast<int>(trail_lim_.size());
  reason_[static_cast<std::size_t>(var(l))] = reason;
  trail_.push_back(l);
}

int Solver::propagate() {
  while (qhead_ < trail_.size()) {
    const int l = trail_[qhead_++];
    ++propagations_;
    const int falsified = neg(l);
    std::vector<int>& watch_list = watches_[static_cast<std::size_t>(falsified)];
    std::size_t keep = 0;
    for (std::size_t wi = 0; wi < watch_list.size(); ++wi) {
      const int ci = watch_list[wi];
      // The arena does not grow while propagating, so the pointer is stable.
      int* const clause = arena_.data() + ci + 1;
      const int size = clause[-1];
      // Normalize: watched literals are clause[0], clause[1].
      if (clause[0] == falsified) std::swap(clause[0], clause[1]);
      if (lit_value(clause[0]) == kTrue) {
        watch_list[keep++] = ci;
        continue;
      }
      bool moved = false;
      for (int k = 2; k < size; ++k) {
        if (lit_value(clause[k]) != kFalse) {
          std::swap(clause[1], clause[k]);
          watches_[static_cast<std::size_t>(clause[1])].push_back(ci);
          moved = true;
          break;
        }
      }
      if (moved) continue;  // watch migrated; drop from this list
      // Unit or conflict.
      watch_list[keep++] = ci;
      if (lit_value(clause[0]) == kFalse) {
        // Conflict: keep remaining watches, then report.
        for (std::size_t k = wi + 1; k < watch_list.size(); ++k) {
          watch_list[keep++] = watch_list[k];
        }
        watch_list.resize(keep);
        qhead_ = trail_.size();
        return ci;
      }
      enqueue(clause[0], ci);
    }
    watch_list.resize(keep);
  }
  return -1;
}

void Solver::bump(int v) {
  activity_[static_cast<std::size_t>(v)] += var_inc_;
  if (activity_[static_cast<std::size_t>(v)] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
    // Scaling can round distinct activities together; re-key the ties.
    heap_rebuild();
  } else if (heap_pos_[static_cast<std::size_t>(v)] >= 0) {
    heap_sift_up(static_cast<std::size_t>(heap_pos_[static_cast<std::size_t>(v)]));
  }
}

void Solver::decay() { var_inc_ /= 0.95; }

void Solver::analyze(int conflict, std::vector<int>& learned, int& backtrack_level) {
  learned.clear();
  learned.push_back(0);  // placeholder for the asserting literal
  int counter = 0;
  int l = -1;
  int ci = conflict;
  std::size_t trail_pos = trail_.size();
  const int current_level = static_cast<int>(trail_lim_.size());

  for (;;) {
    const int* const clause = arena_.data() + ci + 1;
    const int size = clause[-1];
    for (int i = 0; i < size; ++i) {
      const int q = clause[i];
      if (l != -1 && q == l) continue;
      const int v = var(q);
      if (seen_[static_cast<std::size_t>(v)] != 0 || level_[static_cast<std::size_t>(v)] == 0) {
        continue;
      }
      seen_[static_cast<std::size_t>(v)] = 1;
      bump(v);
      if (level_[static_cast<std::size_t>(v)] >= current_level) {
        ++counter;
      } else {
        learned.push_back(q);
      }
    }
    // Next literal on the trail that participates.
    do {
      --trail_pos;
      l = trail_[trail_pos];
    } while (seen_[static_cast<std::size_t>(var(l))] == 0);
    seen_[static_cast<std::size_t>(var(l))] = 0;
    --counter;
    if (counter == 0) break;
    ci = reason_[static_cast<std::size_t>(var(l))];
    check(ci >= 0, "Solver::analyze: missing reason");
  }
  learned[0] = neg(l);
  // Every current-level mark was cleared on the trail walk; the rest are
  // exactly the lower-level literals of the learned clause.
  for (std::size_t i = 1; i < learned.size(); ++i) {
    seen_[static_cast<std::size_t>(var(learned[i]))] = 0;
  }

  backtrack_level = 0;
  if (learned.size() > 1) {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learned.size(); ++i) {
      if (level_[static_cast<std::size_t>(var(learned[i]))] >
          level_[static_cast<std::size_t>(var(learned[max_i]))]) {
        max_i = i;
      }
    }
    std::swap(learned[1], learned[max_i]);
    backtrack_level = level_[static_cast<std::size_t>(var(learned[1]))];
  }
}

void Solver::backtrack(int target) {
  while (static_cast<int>(trail_lim_.size()) > target) {
    const int boundary = trail_lim_.back();
    trail_lim_.pop_back();
    while (static_cast<int>(trail_.size()) > boundary) {
      const int l = trail_.back();
      trail_.pop_back();
      const int v = var(l);
      phase_[static_cast<std::size_t>(v)] = assign_[static_cast<std::size_t>(v)];
      assign_[static_cast<std::size_t>(v)] = kUndef;
      reason_[static_cast<std::size_t>(v)] = -1;
      if (heap_pos_[static_cast<std::size_t>(v)] == -1) {
        heap_pos_[static_cast<std::size_t>(v)] = kPending;
        heap_pending_.push_back(v);
      }
    }
    qhead_ = trail_.size();
  }
}

void Solver::heap_insert(int v) {
  heap_pos_[static_cast<std::size_t>(v)] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  heap_sift_up(heap_.size() - 1);
}

void Solver::heap_sift_up(std::size_t i) {
  const int v = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!heap_before(v, heap_[parent])) break;
    heap_[i] = heap_[parent];
    heap_pos_[static_cast<std::size_t>(heap_[i])] = static_cast<int>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[static_cast<std::size_t>(v)] = static_cast<int>(i);
}

void Solver::heap_sift_down(std::size_t i) {
  const int v = heap_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= heap_.size()) break;
    if (child + 1 < heap_.size() && heap_before(heap_[child + 1], heap_[child])) ++child;
    if (!heap_before(heap_[child], v)) break;
    heap_[i] = heap_[child];
    heap_pos_[static_cast<std::size_t>(heap_[i])] = static_cast<int>(i);
    i = child;
  }
  heap_[i] = v;
  heap_pos_[static_cast<std::size_t>(v)] = static_cast<int>(i);
}

int Solver::heap_pop() {
  const int top = heap_.front();
  heap_pos_[static_cast<std::size_t>(top)] = -1;
  const int last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    heap_sift_down(0);
  }
  return top;
}

void Solver::heap_rebuild() {
  for (std::size_t i = heap_.size() / 2; i-- > 0;) heap_sift_down(i);
}

int Solver::pick_branch() {
  // Every unassigned variable is in the heap or pending; assigned ones leave
  // the heap lazily. A pending variable that propagation assigned again
  // since the backtrack stays out: it returns to the list when it is next
  // unassigned.
  for (const int v : heap_pending_) {
    heap_pos_[static_cast<std::size_t>(v)] = -1;
    if (assign_[static_cast<std::size_t>(v)] == kUndef) heap_insert(v);
  }
  heap_pending_.clear();
  while (!heap_.empty()) {
    const int v = heap_pop();
    if (assign_[static_cast<std::size_t>(v)] == kUndef) {
      return 2 * v + (phase_[static_cast<std::size_t>(v)] == kTrue ? 0 : 1);
    }
  }
  return -1;
}

Result Solver::solve(const std::vector<Lit>& assumptions) {
  ++solves_;
  if (trivially_unsat_) return Result::kUnsat;
  backtrack(0);
  // The level-0 trail is at fixpoint whenever a call returns (a level-0
  // conflict poisons the solver instead). A clause stored since then may be
  // watched by literals already false at level 0, so replay the trail from
  // its start; otherwise propagation resumes at the queued units.
  if (replay_level0_) {
    qhead_ = 0;
    replay_level0_ = false;
  }
  for (const int unit : pending_units_) {
    const std::int8_t v = lit_value(unit);
    if (v == kFalse) {
      trivially_unsat_ = true;
      return Result::kUnsat;
    }
    if (v == kUndef) enqueue(unit, -1);
  }
  pending_units_.clear();
  if (propagate() >= 0) {
    // Conflict with no decisions or assumptions on the trail: the clause
    // database itself is contradictory, for this and every future call.
    trivially_unsat_ = true;
    return Result::kUnsat;
  }

  std::uint64_t restart_round = 0;
  std::uint64_t conflict_budget = 128 * luby(restart_round);
  std::uint64_t conflicts_here = 0;
  std::vector<int> learned;

  for (;;) {
    const int conflict = propagate();
    if (conflict >= 0) {
      ++conflicts_;
      ++conflicts_here;
      if (trail_lim_.empty()) {
        // Level-0 conflict (below every assumption): globally UNSAT.
        trivially_unsat_ = true;
        return Result::kUnsat;
      }
      int back_level = 0;
      analyze(conflict, learned, back_level);
      // Backtracking below the assumption levels is fine: the re-assertion
      // loop below replays them and reports kUnsat when the learned clause
      // contradicts one.
      backtrack(std::max(back_level, 0));
      // A learned unit is asserted at level 0 below and stays on the trail.
      ++learned_clauses_;
      const int reason = learned.size() >= 2 ? store_clause(learned) : -1;
      if (lit_value(learned[0]) == kUndef) {
        enqueue(learned[0], reason);
      } else if (lit_value(learned[0]) == kFalse) {
        if (trail_lim_.empty()) trivially_unsat_ = true;
        return Result::kUnsat;
      }
      decay();
      if (conflicts_here >= conflict_budget) {
        conflicts_here = 0;
        conflict_budget = 128 * luby(++restart_round);
        backtrack(static_cast<int>(assumptions.size()));
      }
      continue;
    }
    // Re-assert pending assumptions as decision levels.
    if (trail_lim_.size() < assumptions.size()) {
      const Lit a = assumptions[trail_lim_.size()];
      const int l = ilit(a);
      const std::int8_t v = lit_value(l);
      if (v == kFalse) return Result::kUnsat;
      trail_lim_.push_back(static_cast<int>(trail_.size()));
      if (v == kUndef) enqueue(l, -1);
      continue;
    }
    const int branch = pick_branch();
    if (branch < 0) return Result::kSat;
    ++decisions_;
    trail_lim_.push_back(static_cast<int>(trail_.size()));
    enqueue(branch, -1);
  }
}

bool Solver::value(Lit lit) const {
  const std::int8_t v = lit_value(ilit(lit));
  check(v != kUndef, "Solver::value: variable unassigned");
  return v == kTrue;
}

Solver::WarmStart Solver::export_warm_start() const {
  WarmStart warm;
  warm.activity = activity_;
  warm.phase = phase_;
  warm.var_inc = var_inc_;
  return warm;
}

void Solver::import_warm_start(const WarmStart& warm) {
  const std::size_t n = std::min(activity_.size(), warm.activity.size());
  std::copy_n(warm.activity.begin(), n, activity_.begin());
  std::copy_n(warm.phase.begin(), std::min(phase_.size(), warm.phase.size()), phase_.begin());
  if (warm.var_inc > 0) var_inc_ = warm.var_inc;
  heap_rebuild();
}

}  // namespace scfi::sat
