#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "base/error.h"
#include "base/rng.h"
#include "fsm/compile.h"
#include "fsm/dot.h"
#include "fsm/kiss2.h"
#include "rtlil/design.h"
#include "test_helpers.h"

namespace scfi::fsm {
namespace {

TEST(Fsm, PaperFigure2Checks) {
  const Fsm f = test::paper_fsm();
  EXPECT_NO_THROW(f.check());
  EXPECT_EQ(f.num_states(), 4);
  EXPECT_EQ(f.transitions.size(), 5u);
}

TEST(Fsm, SymbolsIncludeIdle) {
  const Fsm f = test::paper_fsm();
  const auto symbols = f.symbols();
  EXPECT_NE(std::find(symbols.begin(), symbols.end(), f.idle_symbol()), symbols.end());
  // 4 distinct guards ("1---" appears twice) + idle.
  EXPECT_EQ(symbols.size(), 5u);
}

TEST(Fsm, CfgEdgesAddImplicitIdles) {
  const Fsm f = test::paper_fsm();
  const auto edges = f.cfg_edges();
  // 5 explicit + 4 implicit idle self-loops.
  EXPECT_EQ(edges.size(), 9u);
  int implicit = 0;
  for (const CfgEdge& e : edges) {
    if (e.transition_index < 0) {
      ++implicit;
      EXPECT_EQ(e.from, e.to);
      EXPECT_EQ(e.symbol, f.idle_symbol());
    }
  }
  EXPECT_EQ(implicit, 4);
}

TEST(Fsm, SynfiFsmHasFourteenEdges) {
  EXPECT_EQ(test::synfi_fsm().cfg_edges().size(), 14u);
}

TEST(Fsm, GuardMatching) {
  EXPECT_TRUE(Fsm::guard_matches("1-0", {true, true, false}));
  EXPECT_FALSE(Fsm::guard_matches("1-0", {false, true, false}));
  EXPECT_TRUE(Fsm::guard_matches("---", {true, false, true}));
}

TEST(Fsm, StepRawPriority) {
  Fsm f;
  f.inputs = {"a", "b"};
  f.add_transition("S", "1-", "T1");
  f.add_transition("S", "-1", "T2");
  const auto [to1, t1] = f.step_raw(0, {true, true});
  EXPECT_EQ(f.states[static_cast<std::size_t>(to1)], "T1");
  EXPECT_EQ(t1, 0);
  const auto [to2, t2] = f.step_raw(0, {false, true});
  EXPECT_EQ(f.states[static_cast<std::size_t>(to2)], "T2");
  EXPECT_EQ(t2, 1);
  const auto [to3, t3] = f.step_raw(0, {false, false});
  EXPECT_EQ(to3, 0);
  EXPECT_EQ(t3, -1);
}

TEST(Fsm, ConcreteInputRespectsPriority) {
  Fsm f;
  f.inputs = {"a", "b"};
  f.add_transition("S", "1-", "T1");
  f.add_transition("S", "-1", "T2");
  const auto bits = f.concrete_input_for(1);
  ASSERT_TRUE(bits.has_value());
  EXPECT_FALSE((*bits)[0]);  // must dodge the higher-priority "1-"
  EXPECT_TRUE((*bits)[1]);
}

TEST(Fsm, ShadowedTransitionRejected) {
  Fsm f;
  f.inputs = {"a"};
  f.add_transition("S", "-", "T");
  f.add_transition("S", "1", "U");  // unreachable: "-" wins always
  EXPECT_THROW(f.check(), ScfiError);
}

TEST(Fsm, DuplicateGuardRejected) {
  Fsm f;
  f.inputs = {"a"};
  f.add_transition("S", "1", "T");
  EXPECT_NO_THROW(f.check());
  f.add_transition("S", "1", "U");
  EXPECT_THROW(f.check(), ScfiError);
}

TEST(Fsm, UnreachableStateRejected) {
  Fsm f;
  f.inputs = {"a"};
  f.add_transition("S", "1", "T");
  f.add_state("ORPHan");
  EXPECT_THROW(f.check(), ScfiError);
}

TEST(Fsm, IdleInputExists) {
  const Fsm f = test::paper_fsm();
  const auto idle = f.concrete_input_for_idle(0);
  ASSERT_TRUE(idle.has_value());
  EXPECT_EQ(f.step_raw(0, *idle).second, -1);
}

TEST(Fsm, SeventeenInputTransitionIsNotShadowed) {
  // Every input with bit 16 = 1 takes transition 1.
  const Fsm f = parse_kiss2(R"(
.i 17
.o 1
.s 2
.r a
----------------0 a b 1
----------------- a a 0
----------------- b a 0
.e
)");
  EXPECT_NO_THROW(f.check());
  std::vector<bool> expected(17, false);
  expected[16] = true;
  EXPECT_EQ(f.concrete_input_for(1), expected);
}

TEST(Fsm, SeventeenInputIdleEdge) {
  // State a's only guard leaves every input with bit 16 = 1 to the idle edge.
  Fsm f;
  for (int i = 0; i < 17; ++i) f.inputs.push_back("x" + std::to_string(i));
  f.add_transition("a", std::string(16, '-') + "0", "b");
  f.add_transition("b", std::string(17, '-'), "a");
  EXPECT_NO_THROW(f.check());
  std::vector<bool> expected(17, false);
  expected[16] = true;
  EXPECT_EQ(f.concrete_input_for_idle(0), expected);
  EXPECT_EQ(f.concrete_input_for_idle(1), std::nullopt);
  const std::vector<CfgEdge> edges = f.cfg_edges();
  EXPECT_EQ(std::count_if(edges.begin(), edges.end(),
                          [](const CfgEdge& e) { return e.transition_index < 0; }),
            1);
}

/// The first input of `cube` that matches none of `guards`, counting its
/// free positions up as the bits of an integer (lowest position in bit 0).
std::optional<std::vector<bool>> brute_force_witness(const std::string& cube,
                                                     const std::vector<std::string>& guards) {
  std::vector<std::size_t> free;
  std::vector<bool> base(cube.size(), false);
  for (std::size_t i = 0; i < cube.size(); ++i) {
    if (cube[i] == '-') {
      free.push_back(i);
    } else {
      base[i] = cube[i] == '1';
    }
  }
  for (std::uint64_t c = 0; c < (1ULL << free.size()); ++c) {
    std::vector<bool> cand = base;
    for (std::size_t i = 0; i < free.size(); ++i) cand[free[i]] = ((c >> i) & 1) != 0;
    if (std::none_of(guards.begin(), guards.end(),
                     [&](const std::string& g) { return Fsm::guard_matches(g, cand); })) {
      return cand;
    }
  }
  return std::nullopt;
}

TEST(Fsm, WitnessesMatchBruteForce) {
  int shadowed = 0;
  int found = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(0xF5A, seed);
    const std::size_t n = 1 + rng.below(12);
    const double dash = 0.3 + 0.6 * rng.uniform();
    Fsm f;
    for (std::size_t i = 0; i < n; ++i) f.inputs.push_back("x" + std::to_string(i));
    const std::uint64_t states = 1 + rng.below(3);
    const std::uint64_t count = 1 + rng.below(12);
    for (std::uint64_t t = 0; t < count; ++t) {
      std::string guard(n, '-');
      for (char& c : guard) {
        if (!rng.chance(dash)) c = rng.chance(0.5) ? '1' : '0';
      }
      f.add_transition("s" + std::to_string(rng.below(states)), guard,
                       "s" + std::to_string(rng.below(states)));
    }
    for (int s = 0; s < f.num_states(); ++s) {
      std::vector<std::string> earlier;
      for (const int t : f.transitions_from(s)) {
        const std::string& guard = f.transitions[static_cast<std::size_t>(t)].guard;
        const auto witness = f.concrete_input_for(t);
        EXPECT_EQ(witness, brute_force_witness(guard, earlier)) << "seed " << seed << " t " << t;
        (witness.has_value() ? found : shadowed) += 1;
        earlier.push_back(guard);
      }
      EXPECT_EQ(f.concrete_input_for_idle(s), brute_force_witness(std::string(n, '-'), earlier))
          << "seed " << seed << " state " << s;
    }
  }
  // Both outcomes are exercised.
  EXPECT_GT(shadowed, 0);
  EXPECT_GT(found, 0);
}

TEST(Kiss2, RoundTrip) {
  const Fsm f = test::paper_fsm();
  const std::string text = write_kiss2(f);
  const Fsm g = parse_kiss2(text, f.name);
  EXPECT_EQ(g.num_states(), f.num_states());
  EXPECT_EQ(g.transitions.size(), f.transitions.size());
  EXPECT_EQ(g.states[static_cast<std::size_t>(g.reset_state)],
            f.states[static_cast<std::size_t>(f.reset_state)]);
  for (std::size_t i = 0; i < f.transitions.size(); ++i) {
    EXPECT_EQ(g.transitions[i].guard, f.transitions[i].guard);
  }
}

TEST(Kiss2, ParsesClassicFormat) {
  const std::string text = R"(
.i 2
.o 1
.s 2
.p 3
.r st0
10 st0 st1 1
01 st1 st0 0
11 st1 st1 1
.e
)";
  const Fsm f = parse_kiss2(text);
  EXPECT_EQ(f.num_inputs(), 2);
  EXPECT_EQ(f.num_states(), 2);
  EXPECT_EQ(f.transitions.size(), 3u);
}

TEST(Kiss2, RejectsMalformed) {
  EXPECT_THROW(parse_kiss2(".i 2\n.o 1\n1 st0 st1 1\n"), ScfiError);   // width
  EXPECT_THROW(parse_kiss2("10 st0 st1 1\n"), ScfiError);              // no .i/.o
}

TEST(Kiss2, EndDirectiveStopsParsing) {
  // Trailing junk after .e (common in concatenated benchmark dumps) must
  // not be parsed as transitions — including well-formed ones that would
  // silently grow the machine.
  const std::string text =
      ".i 1\n.o 1\n.r A\n0 A A 0\n1 A B 1\n- B A 0\n.e\n"
      "this is not kiss2 at all\n"
      "1 B C 1\n";
  const Fsm f = parse_kiss2(text);
  EXPECT_EQ(f.num_states(), 2);
  EXPECT_EQ(f.transitions.size(), 3u);
  // .end is the long-form synonym.
  const Fsm g = parse_kiss2(".i 1\n.o 1\n0 A A 0\n1 A B 1\n- B A 0\n.end\ngarbage\n");
  EXPECT_EQ(g.transitions.size(), 3u);
  // Everything after .e ignored also means a file that redeclares .i there
  // parses cleanly.
  EXPECT_EQ(parse_kiss2(".i 1\n.o 1\n0 A A 0\n1 A B 1\n- B A 0\n.e\n.i 7\n").num_inputs(), 1);
}

TEST(Kiss2, ParsesCrlfInput) {
  const std::string text =
      ".i 2\r\n.o 1\r\n.s 2\r\n.p 3\r\n.r st0\r\n"
      "10 st0 st1 1\r\n01 st1 st0 0\r\n11 st1 st1 1\r\n.e\r\n";
  const Fsm f = parse_kiss2(text);
  EXPECT_EQ(f.num_inputs(), 2);
  EXPECT_EQ(f.num_states(), 2);
  EXPECT_EQ(f.states[0], "st0");  // no trailing '\r' baked into names
}

TEST(Kiss2, MalformedCountsRaiseScfiError) {
  // std::stoi used to escape as std::invalid_argument/std::out_of_range;
  // every malformed count must surface as ScfiError naming the line.
  const char* bad_counts[] = {
      ".i abc\n.o 1\n1 A B 1\n.e\n",          // non-numeric
      ".i 99999999999999999999\n.o 1\n",      // overflow
      ".i -2\n.o 1\n",                        // negative
      ".i 2x\n.o 1\n",                        // trailing junk (stoi took 2)
      ".i\n.o 1\n",                           // missing operand
  };
  for (const char* text : bad_counts) {
    try {
      parse_kiss2(text);
      FAIL() << "expected ScfiError for: " << text;
    } catch (const ScfiError& e) {
      EXPECT_NE(std::string(e.what()).find("kiss2"), std::string::npos) << text;
    } catch (const std::exception& e) {
      FAIL() << "non-ScfiError escaped (" << e.what() << ") for: " << text;
    }
  }
}

TEST(Kiss2, RejectsRedeclarations) {
  // Contradictory .i/.o redeclarations are rejected outright; an exact
  // duplicate before any transition is tolerated (seen in the wild).
  EXPECT_THROW(parse_kiss2(".i 2\n.i 3\n.o 1\n10 A B 1\n.e\n"), ScfiError);
  EXPECT_THROW(parse_kiss2(".i 2\n.o 1\n.o 2\n10 A B 1\n.e\n"), ScfiError);
  EXPECT_EQ(parse_kiss2(".i 2\n.i 2\n.o 1\n10 A B 1\n01 B A 0\n.e\n").num_inputs(), 2);
  // Any redeclaration after transitions have started is rejected — the
  // widths are already baked into the generated port names.
  EXPECT_THROW(parse_kiss2(".i 2\n.o 1\n10 A B 1\n.i 2\n01 B A 0\n.e\n"), ScfiError);
  EXPECT_THROW(parse_kiss2(".i 2\n.o 1\n10 A B 1\n.o 3\n01 B A 0\n.e\n"), ScfiError);
}

TEST(Kiss2, MissingResetStateRejected) {
  EXPECT_THROW(parse_kiss2(".i 1\n.o 1\n.r nowhere\n0 A A 0\n1 A A 1\n.e\n"), ScfiError);
  // Without .r the first-seen state is the reset state.
  const Fsm f = parse_kiss2(".i 1\n.o 1\n0 B B 0\n1 B A 1\n- A B 0\n.e\n");
  EXPECT_EQ(f.states[static_cast<std::size_t>(f.reset_state)], "B");
}

TEST(Dot, ContainsStatesAndEdges) {
  const std::string dot = to_dot(test::paper_fsm());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"S0\" -> \"S1\""), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

TEST(Compile, UnprotectedFollowsSpec) {
  rtlil::Design d;
  const Fsm f = test::paper_fsm();
  const CompiledFsm c = compile_unprotected(f, d);
  EXPECT_EQ(c.state_width, 2);
  EXPECT_EQ(c.state_codes.size(), 4u);
  EXPECT_TRUE(c.alert_wire.empty());
  EXPECT_EQ(c.decode_state(2), 2);
  EXPECT_EQ(c.decode_state(9), -1);
}

TEST(Compile, CustomEncoding) {
  rtlil::Design d;
  const Fsm f = test::toggle_fsm();
  CompileOptions options;
  options.state_codes = {0b0101, 0b1010};
  options.state_width = 4;
  const CompiledFsm c = compile_unprotected(f, d, options);
  EXPECT_EQ(c.state_width, 4);
  EXPECT_EQ(c.decode_state(0b1010), 1);
}

}  // namespace
}  // namespace scfi::fsm
