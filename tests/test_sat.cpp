#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "base/rng.h"
#include "fsm/compile.h"
#include "ot/zoo.h"
#include "rtlil/design.h"
#include "sat/cnf.h"
#include "sat/miter.h"
#include "sat/solver.h"
#include "sim/netlist_sim.h"
#include "test_helpers.h"

namespace scfi::sat {
namespace {

TEST(Solver, TrivialSat) {
  Solver s;
  const int a = s.new_var();
  s.add_unit(a);
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.value(a));
}

TEST(Solver, TrivialUnsat) {
  Solver s;
  const int a = s.new_var();
  s.add_unit(a);
  s.add_unit(-a);
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(Solver, EmptyClauseUnsat) {
  Solver s;
  s.add_clause({});
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(Solver, PropagationChain) {
  Solver s;
  std::vector<int> v;
  for (int i = 0; i < 10; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < 10; ++i) s.add_binary(-v[static_cast<std::size_t>(i)],
                                                v[static_cast<std::size_t>(i + 1)]);
  s.add_unit(v[0]);
  EXPECT_EQ(s.solve(), Result::kSat);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(s.value(v[static_cast<std::size_t>(i)]));
}

TEST(Solver, PigeonHole3in2Unsat) {
  // 3 pigeons, 2 holes: classic small UNSAT instance exercising learning.
  Solver s;
  int p[3][2];
  for (auto& row : p) {
    for (int& x : row) x = s.new_var();
  }
  for (auto& row : p) s.add_binary(row[0], row[1]);
  for (int h = 0; h < 2; ++h) {
    for (int i = 0; i < 3; ++i) {
      for (int j = i + 1; j < 3; ++j) s.add_binary(-p[i][h], -p[j][h]);
    }
  }
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(Solver, AssumptionsRestrictModels) {
  Solver s;
  const int a = s.new_var();
  const int b = s.new_var();
  s.add_binary(a, b);
  EXPECT_EQ(s.solve({-a}), Result::kSat);
  EXPECT_TRUE(s.value(b));
  EXPECT_EQ(s.solve({-a, -b}), Result::kUnsat);
  EXPECT_EQ(s.solve(), Result::kSat);  // solvable again without assumptions
}

TEST(Solver, RandomXorChainsAgreeWithParity) {
  // x1 ^ x2 ^ ... ^ xk = c encoded via Tseitin chains; satisfiable iff
  // always (free variables), then check the model parity.
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    Solver s;
    const int k = 3 + static_cast<int>(rng.below(6));
    std::vector<int> x;
    for (int i = 0; i < k; ++i) x.push_back(s.new_var());
    int acc = x[0];
    for (int i = 1; i < k; ++i) {
      const int y = s.new_var();
      s.add_ternary(-y, acc, x[static_cast<std::size_t>(i)]);
      s.add_ternary(-y, -acc, -x[static_cast<std::size_t>(i)]);
      s.add_ternary(y, -acc, x[static_cast<std::size_t>(i)]);
      s.add_ternary(y, acc, -x[static_cast<std::size_t>(i)]);
      acc = y;
    }
    const bool target = rng.chance(0.5);
    s.add_unit(target ? acc : -acc);
    ASSERT_EQ(s.solve(), Result::kSat);
    bool parity = false;
    for (int i = 0; i < k; ++i) parity ^= s.value(x[static_cast<std::size_t>(i)]);
    EXPECT_EQ(parity, target);
  }
}

TEST(Miter, EqualsConstBothPolarities) {
  Solver s;
  std::vector<int> v{s.new_var(), s.new_var(), s.new_var()};
  const Lit eq = equals_const(s, v, 0b101);
  s.add_unit(eq);
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.value(v[0]));
  EXPECT_FALSE(s.value(v[1]));
  EXPECT_TRUE(s.value(v[2]));
  Solver s2;
  std::vector<int> w{s2.new_var(), s2.new_var()};
  const Lit eq2 = equals_const(s2, w, 0b11);
  s2.add_unit(-eq2);
  s2.add_unit(w[0]);
  s2.add_unit(w[1]);
  EXPECT_EQ(s2.solve(), Result::kUnsat);
}

TEST(Miter, MemberOf) {
  Solver s;
  std::vector<int> v{s.new_var(), s.new_var(), s.new_var()};
  const Lit member = member_of(s, v, {0b001, 0b110});
  s.add_unit(member);
  s.add_unit(v[0]);  // forces 0b001
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_FALSE(s.value(v[1]));
  EXPECT_FALSE(s.value(v[2]));
}

TEST(Miter, ExactlyOne) {
  Solver s;
  std::vector<Lit> sel{s.new_var(), s.new_var(), s.new_var()};
  exactly_one(s, sel);
  s.add_unit(sel[1]);
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_FALSE(s.value(sel[0]));
  EXPECT_FALSE(s.value(sel[2]));
}

TEST(Miter, ExactlyOneSequentialEncoding) {
  // Above the pairwise threshold the sequential (Sinz) encoding is used;
  // the semantics must be unchanged: any single selector is a model, any
  // pair is not, and all-off is not.
  constexpr int kN = 80;
  Solver s;
  std::vector<Lit> sel;
  for (int i = 0; i < kN; ++i) sel.push_back(s.new_var());
  exactly_one(s, sel);
  for (const int pick : {0, 1, 37, kN - 2, kN - 1}) {
    ASSERT_EQ(s.solve({sel[static_cast<std::size_t>(pick)]}), Result::kSat) << pick;
    for (int i = 0; i < kN; ++i) {
      EXPECT_EQ(s.value(sel[static_cast<std::size_t>(i)]), i == pick);
    }
  }
  EXPECT_EQ(s.solve({sel[3], sel[61]}), Result::kUnsat);
  EXPECT_EQ(s.solve({sel[0], sel[1]}), Result::kUnsat);
  std::vector<Lit> all_off;
  for (int i = 0; i < kN; ++i) all_off.push_back(-sel[static_cast<std::size_t>(i)]);
  EXPECT_EQ(s.solve(all_off), Result::kUnsat);
}

TEST(Solver, GlobalUnsatPersistsAcrossIncrementalCalls) {
  // Regression: a level-0 conflict discovered by propagation must poison
  // every later solve() call. The broken behavior left the level-0 trail
  // inconsistent and returned bogus kSat on reuse.
  Solver s;
  const int a = s.new_var();
  const int b = s.new_var();
  s.add_unit(a);
  s.add_binary(-a, b);
  s.add_binary(-a, -b);
  EXPECT_EQ(s.solve(), Result::kUnsat);
  EXPECT_EQ(s.solve(), Result::kUnsat);
  EXPECT_EQ(s.solve({a}), Result::kUnsat);
  EXPECT_EQ(s.solve({-a}), Result::kUnsat);
}

TEST(Solver, LearnedClausesStayValidAcrossAssumptionSweeps) {
  // Pigeonhole per assumption branch: repeated UNSAT-under-assumption
  // queries must not corrupt the shared clause database — the formula stays
  // satisfiable whenever the selector assumption is released.
  Solver s;
  const int sel = s.new_var();
  int p[3][2];
  for (auto& row : p) {
    for (int& x : row) x = s.new_var();
  }
  // sel -> pigeonhole constraints (UNSAT when sel true).
  for (auto& row : p) s.add_ternary(-sel, row[0], row[1]);
  for (int h = 0; h < 2; ++h) {
    for (int i = 0; i < 3; ++i) {
      for (int j = i + 1; j < 3; ++j) s.add_ternary(-sel, -p[i][h], -p[j][h]);
    }
  }
  for (int round = 0; round < 4; ++round) {
    EXPECT_EQ(s.solve({sel}), Result::kUnsat) << round;
    EXPECT_EQ(s.solve({-sel}), Result::kSat) << round;
    EXPECT_EQ(s.solve(), Result::kSat) << round;
  }
}

TEST(Cnf, AgreesWithSimulatorOnFsm) {
  // Differential test: for random inputs/state, the CNF next-state function
  // must equal the simulator's.
  rtlil::Design d;
  const fsm::Fsm f = test::paper_fsm();
  const fsm::CompiledFsm c = fsm::compile_unprotected(f, d);
  sim::Simulator simulator(*c.module);
  Rng rng(19);
  for (int trial = 0; trial < 40; ++trial) {
    Solver solver;
    CnfCopy copy(solver, *c.module, {});
    std::vector<Lit> assumptions;
    std::vector<bool> in_bits;
    for (const std::string& name : f.inputs) {
      const bool v = rng.chance(0.5);
      in_bits.push_back(v);
      const int var = copy.wire_vars(name)[0];
      assumptions.push_back(v ? var : -var);
      simulator.set_input(name, v ? 1 : 0);
    }
    const std::uint64_t state = rng.below(4);
    const std::vector<int> svars = copy.wire_vars(c.state_wire);
    for (std::size_t i = 0; i < svars.size(); ++i) {
      assumptions.push_back(((state >> i) & 1) ? svars[i] : -svars[i]);
    }
    simulator.set_register(c.state_wire, state);
    simulator.step();
    const std::uint64_t expect = simulator.get(c.state_wire);
    ASSERT_EQ(solver.solve(assumptions), Result::kSat);
    const std::vector<int> next = copy.ff_next_vars(c.state_wire);
    std::uint64_t got = 0;
    for (std::size_t i = 0; i < next.size(); ++i) {
      if (solver.value(next[i])) got |= 1ULL << i;
    }
    EXPECT_EQ(got, expect);
  }
}

TEST(Cnf, FaultFlipChangesReaderView) {
  rtlil::Design d;
  rtlil::Module* m = d.add_module("m");
  rtlil::Wire* a = m->add_input("a", 1);
  rtlil::Wire* y = m->add_output("y", 1);
  const rtlil::SigSpec mid = m->make_buf(rtlil::SigSpec(a), "mid");
  m->drive(rtlil::SigSpec(y), m->make_buf(mid, "out"));
  Solver s;
  CnfCopy faulty(s, *m, {}, CnfFault{mid.bit(0), CnfFaultKind::kFlip});
  const int av = faulty.wire_vars("a")[0];
  const int yv = faulty.wire_vars("y")[0];
  s.add_unit(av);
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_FALSE(s.value(yv));  // flip inverted the path
}

TEST(Cnf, SelectorGatedFaultsTogglePerAssumption) {
  // Two gated flips on a two-stage buffer chain: the selected fault (and
  // only it) must invert the output; with both selectors off the copy is
  // fault-free.
  rtlil::Design d;
  rtlil::Module* m = d.add_module("m");
  rtlil::Wire* a = m->add_input("a", 1);
  rtlil::Wire* y = m->add_output("y", 1);
  const rtlil::SigSpec mid1 = m->make_buf(rtlil::SigSpec(a), "mid1");
  const rtlil::SigSpec mid2 = m->make_buf(mid1, "mid2");
  m->drive(rtlil::SigSpec(y), m->make_buf(mid2, "out"));
  Solver s;
  const Lit sel1 = s.new_var();
  const Lit sel2 = s.new_var();
  const std::vector<CnfFault> faults{
      CnfFault{mid1.bit(0), CnfFaultKind::kFlip, sel1},
      CnfFault{mid2.bit(0), CnfFaultKind::kStuckAt1, sel2},
  };
  CnfCopy faulty(s, *m, {}, faults);
  const int av = faulty.wire_vars("a")[0];
  const int yv = faulty.wire_vars("y")[0];

  ASSERT_EQ(s.solve({av, -sel1, -sel2}), Result::kSat);
  EXPECT_TRUE(s.value(yv));  // pass-through with every selector off
  ASSERT_EQ(s.solve({av, sel1, -sel2}), Result::kSat);
  EXPECT_FALSE(s.value(yv));  // single flip inverts the path
  ASSERT_EQ(s.solve({-av, -sel1, sel2}), Result::kSat);
  EXPECT_TRUE(s.value(yv));  // stuck-at-1 overrides the low input
  ASSERT_EQ(s.solve({av, sel1, sel2}), Result::kSat);
  EXPECT_TRUE(s.value(yv));  // both faults compose: flip then stuck-at-1
}

// ---------------------------------------------------------------------------
// Search-trajectory pins. The solver's data structures (branching order,
// clause storage, level-0 propagation) may change only if the search they
// drive does not: every decision and conflict stays where it was. These
// counts were captured on commit cf01f1a, before the order heap, the flat
// clause arena and the incremental level-0 propagation replaced the linear
// branching scan, the per-clause vectors and the per-call trail replay.

struct SweepCounts {
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  int sat = 0;
  int queries = 0;
  std::uint64_t model_hash = 0;  ///< FNV-1a over every kSat model, in order
};

void hash_model(const Solver& s, SweepCounts& counts) {
  if (counts.model_hash == 0) counts.model_hash = 0xcbf29ce484222325ULL;
  for (int v = 1; v <= s.num_vars(); ++v) {
    counts.model_hash = (counts.model_hash ^ (s.value(v) ? 1U : 0U)) * 0x100000001b3ULL;
  }
}

void push_code(std::vector<Lit>& lits, const std::vector<int>& vars, std::uint64_t code) {
  for (std::size_t i = 0; i < vars.size(); ++i) {
    lits.push_back(((code >> i) & 1) != 0 ? vars[i] : -vars[i]);
  }
}

/// A selector-gated single-fault miter over one zoo module, built the way
/// Cnf.SelectorGatedFaultsTogglePerAssumption builds its faulty copy: a
/// golden and a faulty copy share the state and symbol inputs, every
/// combinationally driven net of the faulty copy carries a selector-gated
/// flip (the whole-logic region), exactly one selector is on, the faulty
/// next state must differ from the golden one and still be a valid state
/// code, and the alert must stay low. The sweep asks one query per
/// (selector, state code, symbol code).
SweepCounts sweep_zoo_miter() {
  rtlil::Design d;
  const fsm::CompiledFsm c = ot::build_ot_variant(ot::ot_entry("adc_ctrl_fsm"), d,
                                                  ot::Variant::kScfi, 2, "adc");
  const rtlil::Module& m = *c.module;
  Solver s;
  std::unordered_map<rtlil::SigBit, int> bound;
  std::vector<int> xvars;
  std::vector<int> svars;
  const rtlil::Wire* symbol = m.wire(c.symbol_input_wire);
  const rtlil::Wire* state = m.wire(c.state_wire);
  for (int i = 0; i < symbol->width(); ++i) {
    xvars.push_back(s.new_var());
    bound.emplace(rtlil::SigBit(symbol, i), xvars.back());
  }
  for (int i = 0; i < state->width(); ++i) {
    svars.push_back(s.new_var());
    bound.emplace(rtlil::SigBit(state, i), svars.back());
  }
  const CnfCopy golden(s, m, bound);
  std::vector<CnfFault> faults;
  std::vector<Lit> selectors;
  const auto driver = test::drivers(m);
  for (const rtlil::Wire* w : m.wires()) {
    for (int i = 0; i < w->width(); ++i) {
      if (!test::comb_driven(driver, rtlil::SigBit(w, i))) continue;
      selectors.push_back(s.new_var());
      faults.push_back(CnfFault{rtlil::SigBit(w, i), CnfFaultKind::kFlip, selectors.back()});
    }
  }
  const CnfCopy faulty(s, m, bound, faults);
  exactly_one(s, selectors);
  const std::vector<int> fn = faulty.ff_next_vars(c.state_wire);
  s.add_unit(-faulty.wire_vars(c.alert_wire)[0]);
  s.add_unit(differ(s, golden.ff_next_vars(c.state_wire), fn));
  s.add_unit(member_of(s, fn, c.state_codes));

  SweepCounts counts;
  std::vector<Lit> assumptions;
  // Every eighth site keeps the sweep short; the skipped selectors stay in
  // the CNF, so the solver still branches over the whole miter.
  for (std::size_t i = 0; i < selectors.size(); i += 8) {
    const Lit sel = selectors[i];
    for (const std::uint64_t from : c.state_codes) {
      for (const auto& [name, code] : c.symbol_codes) {
        assumptions.assign({sel});
        push_code(assumptions, svars, from);
        push_code(assumptions, xvars, code);
        ++counts.queries;
        if (s.solve(assumptions) == Result::kSat) {
          ++counts.sat;
          hash_model(s, counts);
        }
      }
    }
  }
  counts.conflicts = s.conflicts();
  counts.decisions = s.decisions();
  return counts;
}

/// A seeded random 3-SAT instance just below the phase transition, swept
/// with random three-literal assumption sets.
SweepCounts sweep_random_3sat() {
  constexpr int kVars = 130;
  constexpr int kClauses = 540;
  Rng rng(2024);
  Solver s;
  for (int v = 0; v < kVars; ++v) s.new_var();
  auto random_lit = [&] {
    const int v = 1 + static_cast<int>(rng.below(kVars));
    return rng.chance(0.5) ? v : -v;
  };
  for (int i = 0; i < kClauses; ++i) s.add_ternary(random_lit(), random_lit(), random_lit());
  SweepCounts counts;
  for (int q = 0; q < 300; ++q) {
    ++counts.queries;
    if (s.solve({random_lit(), random_lit(), random_lit()}) == Result::kSat) {
      ++counts.sat;
      hash_model(s, counts);
    }
  }
  counts.conflicts = s.conflicts();
  counts.decisions = s.decisions();
  return counts;
}

TEST(SolverGolden, ZooSelectorMiterSweepKeepsItsSearch) {
  const SweepCounts counts = sweep_zoo_miter();
  EXPECT_EQ(counts.queries, 10556);
  EXPECT_EQ(counts.sat, 177);
  EXPECT_EQ(counts.conflicts, 336U);
  EXPECT_EQ(counts.decisions, 22972U);
  // The hash reads every variable, so CnfCopy's variable numbering and gate
  // polarity move it even when the search (the counts above) does not.
  EXPECT_EQ(counts.model_hash, 674781740021710269ULL);
}

TEST(SolverGolden, Random3SatAssumptionSweepKeepsItsSearch) {
  const SweepCounts counts = sweep_random_3sat();
  EXPECT_EQ(counts.queries, 300);
  EXPECT_EQ(counts.sat, 86);
  // Enough conflicts that the activities pass 1e100 and get rescaled.
  EXPECT_EQ(counts.conflicts, 5957U);
  EXPECT_EQ(counts.decisions, 7640U);
  EXPECT_EQ(counts.model_hash, 10024990829034640942ULL);
}

// ---------------------------------------------------------------------------
// Differential property: random small CNFs, grown clause by clause between
// solve(assumptions) calls, against brute-force enumeration. Adding clauses
// after a call exercises the level-0 replay and the queued-unit path;
// duplicate literals, tautologies, units, contradictory assumptions and the
// odd empty clause ride along.

TEST(SolverProperty, IncrementalVerdictsMatchBruteForce) {
  Rng rng(77);
  for (int instance = 0; instance < 600; ++instance) {
    const int n = 1 + static_cast<int>(rng.below(14));
    Solver s;
    for (int v = 0; v < n; ++v) s.new_var();
    // models[a] == 1 while assignment a (bit v-1 = value of v) satisfies
    // every clause added so far.
    std::vector<char> models(std::size_t{1} << n, 1);
    std::vector<std::vector<Lit>> clauses;
    auto random_lit = [&] {
      const int v = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
      return rng.chance(0.5) ? v : -v;
    };
    auto satisfies = [](std::uint64_t a, Lit lit) {
      const bool value = ((a >> (std::abs(lit) - 1)) & 1) != 0;
      return lit > 0 ? value : !value;
    };
    const int ops = 20 + static_cast<int>(rng.below(120));
    for (int op = 0; op < ops; ++op) {
      if (rng.chance(0.6)) {
        std::vector<Lit> clause;
        int len = rng.chance(0.7) ? 3 : 2 + static_cast<int>(rng.below(4));
        if (rng.chance(0.06)) len = rng.chance(0.1) ? 0 : 1;
        for (int i = 0; i < len; ++i) clause.push_back(random_lit());
        s.add_clause(clause);
        for (std::uint64_t a = 0; a < models.size(); ++a) {
          bool sat = false;
          for (const Lit lit : clause) sat = sat || satisfies(a, lit);
          if (!sat) models[a] = 0;
        }
        clauses.push_back(clause);
        continue;
      }
      std::vector<Lit> assumptions;
      const int len = static_cast<int>(rng.below(6));
      for (int i = 0; i < len; ++i) assumptions.push_back(random_lit());
      bool expect_sat = false;
      for (std::uint64_t a = 0; a < models.size() && !expect_sat; ++a) {
        if (models[a] == 0) continue;
        expect_sat = std::all_of(assumptions.begin(), assumptions.end(),
                                 [&](Lit lit) { return satisfies(a, lit); });
      }
      const Result got = s.solve(assumptions);
      ASSERT_EQ(got == Result::kSat, expect_sat) << "instance " << instance << " op " << op;
      if (got != Result::kSat) continue;
      for (const Lit lit : assumptions) {
        ASSERT_TRUE(s.value(lit)) << "instance " << instance << " op " << op;
      }
      for (const std::vector<Lit>& clause : clauses) {
        ASSERT_TRUE(std::any_of(clause.begin(), clause.end(), [&](Lit lit) { return s.value(lit); }))
            << "instance " << instance << " op " << op;
      }
    }
  }
}

TEST(SolverProperty, CountersTrackTheSearch) {
  Solver s;
  int p[4][3];
  for (auto& row : p) {
    for (int& x : row) x = s.new_var();
  }
  for (auto& row : p) s.add_ternary(row[0], row[1], row[2]);
  for (int h = 0; h < 3; ++h) {
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) s.add_binary(-p[i][h], -p[j][h]);
    }
  }
  // 4 ternary + 18 binary clauses.
  EXPECT_EQ(s.arena_literals(), 4U * 3U + 18U * 2U);
  EXPECT_EQ(s.propagations(), 0U);
  EXPECT_EQ(s.solves(), 0U);
  EXPECT_EQ(s.solve(), Result::kUnsat);
  EXPECT_EQ(s.solves(), 1U);
  EXPECT_GT(s.conflicts(), 0U);
  EXPECT_GT(s.propagations(), s.decisions());
  // Every analyzed conflict learns one clause; the final one is at level 0.
  EXPECT_EQ(s.learned_clauses() + 1, s.conflicts());
  EXPECT_GE(s.arena_literals(), 4U * 3U + 18U * 2U);
  // A poisoned solver still counts the calls it answers at once.
  EXPECT_EQ(s.solve(), Result::kUnsat);
  EXPECT_EQ(s.solves(), 2U);
}

// The branching order is observable through a model: under (-a v -b) with
// both saved phases true, whichever of a, b is decided first comes out true.
TEST(SolverProperty, WarmStartReordersTheNextDecisions) {
  Solver s;
  const int a = s.new_var();
  const int b = s.new_var();
  s.add_binary(-a, -b);
  Solver::WarmStart warm;
  warm.activity = {1.0, 2.0};
  warm.phase = {1, 1};
  s.import_warm_start(warm);
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_FALSE(s.value(a));
  EXPECT_TRUE(s.value(b));
}

TEST(SolverProperty, RescaleTiesBranchOnTheLowerIndex) {
  // Two activities one ulp apart that the 1e-100 rescale rounds together:
  // before it b leads, after it the tie goes to the lower index, a. The
  // free filler variables shape the heap so that b sits above a when the
  // rescale lands; without a rebuild, b would be decided first.
  double y = 1.5;
  while (std::nextafter(y, 2.0) * 1e-100 != y * 1e-100) y = std::nextafter(y, 2.0);
  Solver s;
  const int a = s.new_var();
  const int b = s.new_var();
  const int c = s.new_var();
  const int e = s.new_var();
  for (int i = 0; i < 7; ++i) s.new_var();
  s.add_binary(-a, -b);
  // Deciding c (the most active) conflicts at once; bumping it past 1e100
  // triggers the rescale.
  s.add_binary(-c, e);
  s.add_binary(-c, -e);
  Solver::WarmStart warm;
  warm.activity = {y, std::nextafter(y, 2.0), 1e99, 0.0, y / 2, 1e98, 0.0, 0.0, y / 2, 1e98, 2 * y};
  warm.phase.assign(warm.activity.size(), 1);
  warm.var_inc = 1e100;
  s.import_warm_start(warm);
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_EQ(s.conflicts(), 1U);
  EXPECT_FALSE(s.value(c));
  EXPECT_TRUE(s.value(a));
  EXPECT_FALSE(s.value(b));
}

}  // namespace
}  // namespace scfi::sat
