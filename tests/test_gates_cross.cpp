// Cross-engine differential tests: for every gate type and every word-level
// cell type, the simulator, the CNF encoder and the reference truth table
// must agree on all input combinations.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "rtlil/design.h"
#include "sat/cnf.h"
#include "sim/netlist_sim.h"

namespace scfi {
namespace {

using rtlil::CellType;
using rtlil::Design;
using rtlil::Module;
using rtlil::SigSpec;

struct GateCase {
  CellType type;
  int arity;
  std::function<bool(bool, bool, bool)> model;
};

const GateCase kGateCases[] = {
    {CellType::kGateInv, 1, [](bool a, bool, bool) { return !a; }},
    {CellType::kGateBuf, 1, [](bool a, bool, bool) { return a; }},
    {CellType::kGateAnd2, 2, [](bool a, bool b, bool) { return a && b; }},
    {CellType::kGateNand2, 2, [](bool a, bool b, bool) { return !(a && b); }},
    {CellType::kGateOr2, 2, [](bool a, bool b, bool) { return a || b; }},
    {CellType::kGateNor2, 2, [](bool a, bool b, bool) { return !(a || b); }},
    {CellType::kGateXor2, 2, [](bool a, bool b, bool) { return a != b; }},
    {CellType::kGateXnor2, 2, [](bool a, bool b, bool) { return a == b; }},
    {CellType::kGateMux2, 3, [](bool a, bool b, bool s) { return s ? b : a; }},
    {CellType::kGateAoi21, 3, [](bool a, bool b, bool c) { return !((a && b) || c); }},
    {CellType::kGateOai21, 3, [](bool a, bool b, bool c) { return !((a || b) && c); }},
};

class GateCross : public ::testing::TestWithParam<int> {};

TEST_P(GateCross, SimMatchesTruthTable) {
  const GateCase& gc = kGateCases[GetParam()];
  Design d;
  Module* m = d.add_module("m");
  rtlil::Wire* a = m->add_input("a", 1);
  rtlil::Wire* b = m->add_input("b", 1);
  rtlil::Wire* c = m->add_input("c", 1);
  rtlil::Wire* y = m->add_output("y", 1);
  rtlil::Cell* cell = m->add_cell("g", gc.type);
  cell->set_port("A", SigSpec(a));
  if (gc.arity >= 2) cell->set_port("B", SigSpec(b));
  if (gc.arity >= 3) {
    cell->set_port(gc.type == CellType::kGateMux2 ? "S" : "C", SigSpec(c));
  }
  cell->set_port("Y", SigSpec(y));
  sim::Simulator s(*m);
  for (int combo = 0; combo < 8; ++combo) {
    const bool va = combo & 1;
    const bool vb = (combo >> 1) & 1;
    const bool vc = (combo >> 2) & 1;
    s.set_input("a", va);
    s.set_input("b", vb);
    s.set_input("c", vc);
    s.eval();
    EXPECT_EQ(s.get("y") != 0, gc.model(va, vb, vc))
        << rtlil::cell_type_name(gc.type) << " combo " << combo;
  }
}

TEST_P(GateCross, CnfMatchesTruthTable) {
  const GateCase& gc = kGateCases[GetParam()];
  Design d;
  Module* m = d.add_module("m");
  rtlil::Wire* a = m->add_input("a", 1);
  rtlil::Wire* b = m->add_input("b", 1);
  rtlil::Wire* c = m->add_input("c", 1);
  rtlil::Wire* y = m->add_output("y", 1);
  rtlil::Cell* cell = m->add_cell("g", gc.type);
  cell->set_port("A", SigSpec(a));
  if (gc.arity >= 2) cell->set_port("B", SigSpec(b));
  if (gc.arity >= 3) {
    cell->set_port(gc.type == CellType::kGateMux2 ? "S" : "C", SigSpec(c));
  }
  cell->set_port("Y", SigSpec(y));
  // Unused inputs have no CNF variable; bind only the ports the gate reads.
  sat::Solver solver;
  std::unordered_map<rtlil::SigBit, int> bound;
  const int va = solver.new_var();
  const int vb = solver.new_var();
  const int vc = solver.new_var();
  bound.emplace(rtlil::SigBit(a, 0), va);
  if (gc.arity >= 2) bound.emplace(rtlil::SigBit(b, 0), vb);
  if (gc.arity >= 3) bound.emplace(rtlil::SigBit(c, 0), vc);
  sat::CnfCopy copy(solver, *m, bound);
  const int vy = copy.wire_vars("y")[0];
  for (int combo = 0; combo < 8; ++combo) {
    std::vector<sat::Lit> assumptions{(combo & 1) ? va : -va, ((combo >> 1) & 1) ? vb : -vb,
                                      ((combo >> 2) & 1) ? vc : -vc};
    ASSERT_EQ(solver.solve(assumptions), sat::Result::kSat);
    EXPECT_EQ(solver.value(vy), gc.model(combo & 1, (combo >> 1) & 1, (combo >> 2) & 1))
        << rtlil::cell_type_name(gc.type) << " combo " << combo;
  }
}

INSTANTIATE_TEST_SUITE_P(AllGates, GateCross,
                         ::testing::Range(0, static_cast<int>(std::size(kGateCases))));

struct WordCase {
  CellType type;
  int width;
  /// Y as a function of A, B and the 1-bit S (mux select).
  std::function<std::uint64_t(std::uint64_t, std::uint64_t, std::uint64_t)> model;
};

const WordCase kWordCases[] = {
    {CellType::kNot, 5, [](std::uint64_t a, std::uint64_t, std::uint64_t) { return ~a & 0x1f; }},
    {CellType::kAnd, 5, [](std::uint64_t a, std::uint64_t b, std::uint64_t) { return a & b; }},
    {CellType::kOr, 5, [](std::uint64_t a, std::uint64_t b, std::uint64_t) { return a | b; }},
    {CellType::kXor, 5, [](std::uint64_t a, std::uint64_t b, std::uint64_t) { return a ^ b; }},
    {CellType::kXnor, 5,
     [](std::uint64_t a, std::uint64_t b, std::uint64_t) { return ~(a ^ b) & 0x1f; }},
    {CellType::kEq, 5,
     [](std::uint64_t a, std::uint64_t b, std::uint64_t) {
       return static_cast<std::uint64_t>(a == b);
     }},
    {CellType::kReduceAnd, 5,
     [](std::uint64_t a, std::uint64_t, std::uint64_t) {
       return static_cast<std::uint64_t>(a == 0x1f);
     }},
    {CellType::kReduceOr, 5,
     [](std::uint64_t a, std::uint64_t, std::uint64_t) {
       return static_cast<std::uint64_t>(a != 0);
     }},
    {CellType::kReduceXor, 5,
     [](std::uint64_t a, std::uint64_t, std::uint64_t) {
       return static_cast<std::uint64_t>(std::popcount(a) & 1);
     }},
    {CellType::kBuf, 5, [](std::uint64_t a, std::uint64_t, std::uint64_t) { return a; }},
    {CellType::kMux, 5,
     [](std::uint64_t a, std::uint64_t b, std::uint64_t s) { return s != 0 ? b : a; }},
};

bool reads_b(CellType type) {
  return type != CellType::kNot && type != CellType::kBuf && type != CellType::kReduceAnd &&
         type != CellType::kReduceOr && type != CellType::kReduceXor;
}

/// One `wc.type` cell reading a, b (wc.width bits) and s (1 bit, mux only)
/// and driving y.
Module* word_module(Design& d, const WordCase& wc) {
  Module* m = d.add_module("m");
  rtlil::Wire* a = m->add_input("a", wc.width);
  rtlil::Wire* b = m->add_input("b", wc.width);
  rtlil::Wire* s = m->add_input("s", 1);
  const bool one_bit_out = wc.type == CellType::kEq || wc.type == CellType::kReduceAnd ||
                           wc.type == CellType::kReduceOr || wc.type == CellType::kReduceXor;
  rtlil::Wire* y = m->add_output("y", one_bit_out ? 1 : wc.width);
  rtlil::Cell* cell = m->add_cell("g", wc.type);
  cell->set_port("A", SigSpec(a));
  if (reads_b(wc.type)) cell->set_port("B", SigSpec(b));
  if (wc.type == CellType::kMux) cell->set_port("S", SigSpec(s));
  cell->set_port("Y", SigSpec(y));
  return m;
}

/// Calls `f(a, b, s)` for every input combination the cell reads.
void for_each_word_input(const WordCase& wc,
                         const std::function<void(std::uint64_t, std::uint64_t, std::uint64_t)>& f) {
  const std::uint64_t values = 1ULL << wc.width;
  for (std::uint64_t va = 0; va < values; ++va) {
    for (std::uint64_t vb = 0; vb < (reads_b(wc.type) ? values : 1); ++vb) {
      for (std::uint64_t vs = 0; vs < (wc.type == CellType::kMux ? 2u : 1u); ++vs) f(va, vb, vs);
    }
  }
}

class WordCross : public ::testing::TestWithParam<int> {};

TEST_P(WordCross, SimExhaustive) {
  const WordCase& wc = kWordCases[GetParam()];
  Design d;
  sim::Simulator s(*word_module(d, wc));
  for_each_word_input(wc, [&](std::uint64_t va, std::uint64_t vb, std::uint64_t vs) {
    s.set_input("a", va);
    s.set_input("b", vb);
    s.set_input("s", vs);
    s.eval();
    EXPECT_EQ(s.get("y"), wc.model(va, vb, vs))
        << rtlil::cell_type_name(wc.type) << " a=" << va << " b=" << vb << " s=" << vs;
  });
}

TEST_P(WordCross, CnfExhaustive) {
  const WordCase& wc = kWordCases[GetParam()];
  Design d;
  const Module* m = word_module(d, wc);
  sat::Solver solver;
  std::unordered_map<rtlil::SigBit, int> bound;
  for (const char* name : {"a", "b", "s"}) {
    const rtlil::Wire* w = m->wire(name);
    for (int i = 0; i < w->width(); ++i) bound.emplace(rtlil::SigBit(w, i), solver.new_var());
  }
  const sat::CnfCopy copy(solver, *m, bound);
  const std::vector<int> vy = copy.wire_vars("y");
  const auto assume = [&](std::vector<sat::Lit>& lits, const char* name, std::uint64_t v) {
    const rtlil::Wire* w = m->wire(name);
    for (int i = 0; i < w->width(); ++i) {
      const int var = bound.at(rtlil::SigBit(w, i));
      lits.push_back(((v >> i) & 1) != 0 ? var : -var);
    }
  };
  for_each_word_input(wc, [&](std::uint64_t va, std::uint64_t vb, std::uint64_t vs) {
    std::vector<sat::Lit> assumptions;
    assume(assumptions, "a", va);
    assume(assumptions, "b", vb);
    assume(assumptions, "s", vs);
    ASSERT_EQ(solver.solve(assumptions), sat::Result::kSat);
    std::uint64_t y = 0;
    for (std::size_t i = 0; i < vy.size(); ++i) {
      if (solver.value(vy[i])) y |= 1ULL << i;
    }
    EXPECT_EQ(y, wc.model(va, vb, vs))
        << rtlil::cell_type_name(wc.type) << " a=" << va << " b=" << vb << " s=" << vs;
  });
}

INSTANTIATE_TEST_SUITE_P(AllWordOps, WordCross,
                         ::testing::Range(0, static_cast<int>(std::size(kWordCases))));

}  // namespace
}  // namespace scfi
