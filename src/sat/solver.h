// A compact CDCL SAT solver (watched literals, first-UIP clause learning,
// VSIDS-style activities, Luby restarts, phase saving).
//
// Used by the SYNFI-style formal fault analysis (src/synfi) to decide
// per-fault exploitability queries on netlist miters. The solver is complete
// and deterministic, and supports incremental use: solve(assumptions) may be
// called any number of times on a growing clause database, with learned
// clauses (which are always assumption-independent) carried across calls.
//
// Data structures:
//  - Branching order: a binary max-heap of variables keyed on activity, ties
//    broken by the lower variable index. Assigned variables are popped
//    lazily when they reach the top. Variables that backtracking unassigns
//    wait in a pending list and enter the heap at the next decision, unless
//    propagation has assigned them again by then: an assumption sweep
//    re-derives most of the same assignments on every query, and those
//    never touch the heap. The heap is rebuilt after the 1e-100 activity
//    rescale and after import_warm_start(). The next decision is therefore
//    always the unassigned variable a linear scan for the highest activity
//    would find first.
//  - Clause storage: one flat arena of ints, each clause stored as
//    [size, lit0, lit1, ...]. A clause reference is the int offset of its
//    size word; lit0 and lit1 are the watched literals. Unit clauses never
//    enter the arena: they sit on the level-0 trail.
//  - Level 0: the level-0 trail survives every call and is at propagation
//    fixpoint whenever solve() returns. solve() replays it from position 0
//    only when add_clause() stored a clause since the last call (its watches
//    may already be false at level 0); otherwise it resumes where it left.
//
// Adding clauses between solves: add_clause() may be called at any time,
// including right after a kSat answer while the model is still on the trail.
// Units are queued and enqueued at level 0 by the next solve(); other
// clauses go to the arena at once and are brought to fixpoint by that
// call's level-0 replay. Learned clauses are implied by the clause database
// alone, so they stay valid as it grows.
#pragma once

#include <cstdint>
#include <vector>

namespace scfi::sat {

/// External literal representation: +v / -v with v >= 1.
using Lit = int;

enum class Result { kSat, kUnsat };

class Solver {
 public:
  Solver() = default;

  /// Allocates a fresh variable, returning its index (>= 1).
  int new_var();
  int num_vars() const { return static_cast<int>(activity_.size()); }

  /// Adds a clause (empty clause makes the instance trivially UNSAT).
  void add_clause(const std::vector<Lit>& lits);
  void add_unit(Lit a) { add_clause({a}); }
  void add_binary(Lit a, Lit b) { add_clause({a, b}); }
  void add_ternary(Lit a, Lit b, Lit c) { add_clause({a, b, c}); }

  /// Decides satisfiability under the given assumptions.
  Result solve(const std::vector<Lit>& assumptions = {});

  /// Model value of a literal after kSat.
  bool value(Lit lit) const;

  /// solve() calls made, trivially UNSAT ones included.
  std::uint64_t solves() const { return solves_; }
  /// Search statistics, summed over every solve() call.
  std::uint64_t conflicts() const { return conflicts_; }
  std::uint64_t decisions() const { return decisions_; }
  /// Literals dequeued by unit propagation.
  std::uint64_t propagations() const { return propagations_; }
  /// Clauses learned from conflicts, units included.
  std::uint64_t learned_clauses() const { return learned_clauses_; }
  /// Literals stored in the clause arena (original and learned clauses of
  /// two or more literals; size words not counted).
  std::uint64_t arena_literals() const { return arena_.size() - arena_clauses_; }

  /// Branching-heuristic snapshot: VSIDS activities and saved phases. Purely
  /// heuristic state — importing one into another solver can only change the
  /// search order, never a SAT/UNSAT verdict — so sweeps over structurally
  /// similar instances (e.g. the per-shard SYNFI miters of one variant) can
  /// seed fresh solvers from an already-trained one.
  struct WarmStart {
    std::vector<double> activity;
    std::vector<std::int8_t> phase;
    double var_inc = 1.0;
    bool empty() const { return activity.empty(); }
  };
  WarmStart export_warm_start() const;
  /// Copies the snapshot onto the first min(num_vars, |snapshot|) variables;
  /// extra variables on either side are left untouched.
  void import_warm_start(const WarmStart& warm);

 private:
  // Internal literal encoding: var v (0-based) -> 2v (positive), 2v+1
  // (negated).
  static int ilit(Lit lit) {
    const int v = lit > 0 ? lit : -lit;
    return 2 * (v - 1) + (lit < 0 ? 1 : 0);
  }
  static int neg(int l) { return l ^ 1; }
  static int var(int l) { return l >> 1; }

  enum : std::int8_t { kUndef = -1, kFalse = 0, kTrue = 1 };

  std::int8_t lit_value(int l) const {
    const std::int8_t a = assign_[static_cast<std::size_t>(var(l))];
    if (a == kUndef) return kUndef;
    if ((l & 1) == 0) return a;
    return a == kTrue ? static_cast<std::int8_t>(kFalse) : static_cast<std::int8_t>(kTrue);
  }

  /// Appends a clause of >= 2 literals to the arena and watches its first
  /// two; returns its reference.
  int store_clause(const std::vector<int>& lits);
  void enqueue(int l, int reason);
  int propagate();  ///< returns the conflicting clause reference or -1
  void analyze(int conflict, std::vector<int>& learned, int& backtrack_level);
  void backtrack(int level);
  int pick_branch();
  void bump(int v);
  void decay();

  // Order heap: heap_ holds variables; heap_pos_[v] is v's slot, kPending
  // while v waits in heap_pending_ (at most once), or -1. Every unassigned
  // variable is in one of the two.
  static constexpr int kPending = -2;
  bool heap_before(int a, int b) const {
    const double aa = activity_[static_cast<std::size_t>(a)];
    const double ab = activity_[static_cast<std::size_t>(b)];
    return aa > ab || (aa == ab && a < b);
  }
  void heap_insert(int v);
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);
  int heap_pop();
  void heap_rebuild();

  bool trivially_unsat_ = false;
  bool replay_level0_ = false;   // a clause was stored since the last solve()

  std::vector<int> arena_;                      // [size, lits...] per clause
  std::uint64_t arena_clauses_ = 0;
  std::vector<int> pending_units_;              // added units not yet enqueued
  std::vector<std::vector<int>> watches_;       // internal lit -> clause refs
  std::vector<std::int8_t> assign_;             // per var
  std::vector<std::int8_t> phase_;              // saved phases
  std::vector<int> level_;                      // per var
  std::vector<int> reason_;                     // per var: clause ref or -1
  std::vector<char> seen_;                      // per var, analyze() scratch
  std::vector<int> trail_;
  std::vector<int> trail_lim_;
  std::size_t qhead_ = 0;
  std::vector<double> activity_;
  std::vector<int> heap_;
  std::vector<int> heap_pos_;
  std::vector<int> heap_pending_;               // unassigned since the last pick
  double var_inc_ = 1.0;
  std::uint64_t solves_ = 0;
  std::uint64_t conflicts_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint64_t propagations_ = 0;
  std::uint64_t learned_clauses_ = 0;
};

}  // namespace scfi::sat
