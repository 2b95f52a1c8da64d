// FSM extraction from netlists: candidate detection edge cases, encoding
// classification, the acceptance gate — every zoo FSM, emitted through the
// Verilog writer and read back, must be recovered transition-equivalent to
// the original (checked by an exhaustive product-state bisimulation of the
// original and the extracted-then-recompiled machines) — and the SCFI pass
// built on the same recovery, over every zoo module with its datapath.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <queue>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "backends/verilog.h"
#include "base/error.h"
#include "base/rng.h"
#include "core/pass.h"
#include "frontends/verilog_parse.h"
#include "fsm/compile.h"
#include "fsm/extract.h"
#include "fsm/kiss2.h"
#include "fsm_extract_oracle.h"
#include "ot/zoo.h"
#include "rtlil/design.h"
#include "sim/netlist_sim.h"
#include "test_helpers.h"

namespace scfi::fsm {
namespace {

using rtlil::Const;
using rtlil::SigBit;
using rtlil::SigSpec;
using rtlil::Wire;

/// q <= sel ? ~q : q — a 1-bit self-feeding toggle register named `q_name`,
/// with its value exported on output `out_name`.
void add_toggle(rtlil::Module& m, const std::string& q_name, const std::string& sel_name,
                const std::string& out_name) {
  Wire* sel = m.add_input(sel_name, 1);
  Wire* q = m.add_wire(q_name, 1);
  const SigSpec next = m.make_mux(SigSpec(sel), SigSpec(q), m.make_not(SigSpec(q)));
  rtlil::Cell* ff = m.add_cell(m.uniquify(q_name + "_ff"), rtlil::CellType::kDff);
  ff->set_port("D", next);
  ff->set_port("Q", SigSpec(q));
  ff->set_reset_value(Const(std::vector<bool>{false}));
  Wire* out = m.add_output(out_name, 1);
  m.drive(SigSpec(out), SigSpec(q));
}

TEST(FsmExtract, PipelineWithoutFeedbackHasNoFsm) {
  rtlil::Design design;
  rtlil::Module& m = *design.add_module("pipe");
  Wire* d = m.add_input("d", 4);
  const SigSpec q1 = m.make_dff(SigSpec(d), Const(std::vector<bool>(4, false)), "q1");
  const SigSpec q2 = m.make_dff(q1, Const(std::vector<bool>(4, false)), "q2");
  Wire* y = m.add_output("y", 4);
  m.drive(SigSpec(y), q2);
  rtlil::validate_module(m);

  EXPECT_TRUE(extract_fsms(m).empty());  // empty, not an error
}

TEST(FsmExtract, ToggleRegisterIsRecoveredAsTwoStateBinaryFsm) {
  rtlil::Design design;
  rtlil::Module& m = *design.add_module("toggler");
  add_toggle(m, "q", "t", "o");
  rtlil::validate_module(m);

  const std::vector<ExtractedFsm> machines = extract_fsms(m);
  ASSERT_EQ(machines.size(), 1u);
  const ExtractedFsm& fsm = machines.at(0);
  EXPECT_EQ(fsm.state_wire, "q");
  EXPECT_EQ(fsm.encoding, StateEncoding::kBinary);
  EXPECT_EQ(fsm.fsm.num_states(), 2);
  EXPECT_EQ(fsm.state_codes, (std::vector<std::uint64_t>{0, 1}));
  ASSERT_EQ(fsm.fsm.inputs.size(), 1u);
  EXPECT_EQ(fsm.fsm.inputs.at(0), "t");
  ASSERT_EQ(fsm.fsm.outputs.size(), 1u);
  EXPECT_EQ(fsm.fsm.outputs.at(0), "o");
}

TEST(FsmExtract, MultipleCandidateRegistersAreAllReported) {
  rtlil::Design design;
  rtlil::Module& m = *design.add_module("two_togglers");
  add_toggle(m, "qa", "ta", "oa");
  add_toggle(m, "qb", "tb", "ob");
  rtlil::validate_module(m);

  const std::vector<ExtractedFsm> machines = extract_fsms(m);
  ASSERT_EQ(machines.size(), 2u);
  EXPECT_EQ(machines.at(0).state_wire, "qa");
  EXPECT_EQ(machines.at(1).state_wire, "qb");
  // Each machine only sees its own cone-relevant input.
  EXPECT_EQ(machines.at(0).fsm.inputs, (std::vector<std::string>{"ta"}));
  EXPECT_EQ(machines.at(1).fsm.inputs, (std::vector<std::string>{"tb"}));
}

TEST(FsmExtract, OneHotRingCounterIsClassifiedOneHot) {
  rtlil::Design design;
  rtlil::Module& m = *design.add_module("ring");
  Wire* s = m.add_wire("s", 3);
  SigSpec next;  // rotate left: next = {s[1], s[0], s[2]} (LSB first)
  next.append(SigBit(s, 2));
  next.append(SigBit(s, 0));
  next.append(SigBit(s, 1));
  rtlil::Cell* ff = m.add_cell("ring_ff", rtlil::CellType::kDff);
  ff->set_port("D", next);
  ff->set_port("Q", SigSpec(s));
  ff->set_reset_value(Const(std::vector<bool>{true, false, false}));
  Wire* y = m.add_output("y", 3);
  m.drive(SigSpec(y), SigSpec(s));
  rtlil::validate_module(m);

  const std::vector<ExtractedFsm> machines = extract_fsms(m);
  ASSERT_EQ(machines.size(), 1u);
  const ExtractedFsm& fsm = machines.at(0);
  EXPECT_EQ(fsm.encoding, StateEncoding::kOneHot);
  EXPECT_EQ(fsm.fsm.num_states(), 3);
  EXPECT_EQ(fsm.state_codes, (std::vector<std::uint64_t>{1, 2, 4}));
  EXPECT_TRUE(fsm.fsm.inputs.empty());
}

TEST(FsmExtract, ConeRelevantInputBoundIsEnforced) {
  rtlil::Design design;
  rtlil::Module& m = *design.add_module("wide");
  Wire* x = m.add_input("x", 4);
  Wire* q = m.add_wire("q", 1);
  SigSpec all = SigSpec(x);
  all.append(SigBit(q, 0));
  const SigSpec next = m.make_reduce_xor(all);
  rtlil::Cell* ff = m.add_cell("q_ff", rtlil::CellType::kDff);
  ff->set_port("D", next);
  ff->set_port("Q", SigSpec(q));
  ff->set_reset_value(Const(std::vector<bool>{false}));
  Wire* y = m.add_output("y", 1);
  m.drive(SigSpec(y), SigSpec(q));
  rtlil::validate_module(m);

  // All 4 bits of x are cone-relevant: a bound of 3 must refuse loudly, the
  // exact bound must succeed.
  ExtractOptions tight;
  tight.max_inputs = 3;
  EXPECT_THROW(extract_fsms(m, tight), ScfiError);
  ExtractOptions exact;
  exact.max_inputs = 4;
  EXPECT_EQ(extract_fsms(m, exact).size(), 1u);
}

/// The one machine extract_fsms recovers from `f` compiled unprotected.
Fsm recovered(const Fsm& f) {
  rtlil::Design d;
  const CompiledFsm c = compile_unprotected(f, d);
  std::vector<ExtractedFsm> machines = extract_fsms(*c.module);
  check(machines.size() == 1 && machines[0].state_wire == c.state_wire,
        "recovered: expected the compiled state register alone");
  return std::move(machines[0].fsm);
}

TEST(FsmExtract, RecoversToggle) {
  const Fsm f = test::toggle_fsm();
  const Fsm g = recovered(f);
  EXPECT_EQ(g.num_states(), 2);
  // Behavioural equivalence over a walk.
  int sf = f.reset_state;
  int sg = g.reset_state;
  for (int t = 0; t < 20; ++t) {
    const std::vector<bool> in{t % 3 != 0};
    sf = f.step_raw(sf, in).first;
    sg = g.step_raw(sg, test::inputs_by_name(f, g, in)).first;
    // States correspond via their codes: compiled code == index for binary.
    EXPECT_EQ(g.states[static_cast<std::size_t>(sg)], "s" + std::to_string(sf));
  }
}

TEST(FsmExtract, RecoversPaperFsmBehaviour) {
  const Fsm f = test::paper_fsm();
  const Fsm g = recovered(f);
  EXPECT_EQ(g.num_states(), f.num_states());
  Rng rng(5);
  int sf = f.reset_state;
  int sg = g.reset_state;
  for (int t = 0; t < 500; ++t) {
    std::vector<bool> in;
    for (int i = 0; i < f.num_inputs(); ++i) in.push_back(rng.chance(0.5));
    sf = f.step_raw(sf, in).first;
    sg = g.step_raw(sg, test::inputs_by_name(f, g, in)).first;
    EXPECT_EQ(g.states[static_cast<std::size_t>(sg)], "s" + std::to_string(sf));
  }
}

/// The ScfiError message `fn` throws, or "" when it does not throw.
template <typename Fn>
std::string error_of(Fn fn) {
  try {
    fn();
  } catch (const ScfiError& e) {
    return e.what();
  }
  return "";
}

TEST(FsmExtract, NamedRegisterIsRecoveredOverEveryPortBit) {
  // q <= q ^ x with a 2-bit input x and a 2-bit output y = q, plus an input
  // u and an output z = u that no state cone reaches: discovery finds q by
  // itself and keeps only the port bits its cones reach.
  rtlil::Design design;
  rtlil::Module& m = *design.add_module("xorreg");
  Wire* x = m.add_input("x", 2);
  Wire* u = m.add_input("u", 1);
  Wire* q = m.add_wire("q", 2);
  rtlil::Cell* ff = m.add_cell("q_ff", rtlil::CellType::kDff);
  ff->set_port("D", m.make_xor(SigSpec(q), SigSpec(x)));
  ff->set_port("Q", SigSpec(q));
  ff->set_reset_value(Const(std::vector<bool>{false, false}));
  m.drive(SigSpec(m.add_output("y", 2)), SigSpec(q));
  m.drive(SigSpec(m.add_output("z", 1)), SigSpec(u));
  rtlil::validate_module(m);

  const std::vector<ExtractedFsm> found = extract_fsms(m);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].state_wire, "q");
  EXPECT_EQ(found[0].fsm.inputs, (std::vector<std::string>{"x[0]", "x[1]"}));
  EXPECT_EQ(found[0].fsm.outputs, (std::vector<std::string>{"y[0]", "y[1]"}));
  EXPECT_EQ(found[0].state_codes, (std::vector<std::uint64_t>{0, 1, 2, 3}));

  // Every (state, input) step matches the netlist: next = q ^ x, and the
  // outputs are the current code.
  const Fsm& g = found[0].fsm;
  for (int s = 0; s < g.num_states(); ++s) {
    const std::uint64_t code = found[0].state_codes[static_cast<std::size_t>(s)];
    for (unsigned combo = 0; combo < 4; ++combo) {
      const std::vector<bool> in{(combo & 1) != 0, (combo & 2) != 0};
      const auto [next, taken] = g.step_raw(s, in);
      EXPECT_EQ(found[0].state_codes[static_cast<std::size_t>(next)], code ^ combo);
      std::string expected_out = "00";
      expected_out[0] = (code & 1) ? '1' : '0';
      expected_out[1] = (code & 2) ? '1' : '0';
      const std::string out =
          taken < 0 ? "00" : g.transitions[static_cast<std::size_t>(taken)].output;
      EXPECT_EQ(out, expected_out) << "state " << code << " combo " << combo;
    }
  }
}

TEST(FsmExtract, NamedWireMustBeASelfContainedRegister) {
  // follow_q <= src_q, src_q <= src_q ^ t: follow_q's next state depends on
  // another register, so recovering it alone would be wrong; discovery
  // reports src_q only.
  rtlil::Design design;
  rtlil::Module& m = *design.add_module("follower");
  add_toggle(m, "src_q", "t", "o");
  Wire* follow = m.add_wire("follow_q", 1);
  rtlil::Cell* ff = m.add_cell("follow_ff", rtlil::CellType::kDff);
  ff->set_port("D", SigSpec(m.wire("src_q")));
  ff->set_port("Q", SigSpec(follow));
  ff->set_reset_value(Const(std::vector<bool>{false}));
  rtlil::validate_module(m);

  const std::vector<ExtractedFsm> found = extract_fsms(m);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].state_wire, "src_q");
  EXPECT_EQ(found[0].fsm.num_states(), 2);
}

// --- zoo equivalence (the acceptance gate) ----------------------------------

/// Exhaustive product-state bisimulation: drives both compiled machines
/// through every reachable (state_a, state_b) pair under every combination
/// of the extracted machine's inputs and requires identical Mealy outputs.
/// Inputs/outputs are matched by name (the extracted machine's are a subset
/// of the original's; the rest are held at 0, matching extraction).
/// `dropped_outputs` exist only in the original — extraction skipped them
/// because their cones hold no state, so they must be state-independent:
/// their value may depend on the input combo but never on the state pair.
void expect_bisimilar(const rtlil::Module& mod_a, const std::string& state_a,
                      const rtlil::Module& mod_b, const std::string& state_b,
                      const std::vector<std::string>& inputs,
                      const std::vector<std::string>& outputs,
                      const std::vector<std::string>& dropped_outputs, int expected_states) {
  sim::Simulator sim_a(mod_a);
  sim::Simulator sim_b(mod_b);
  std::vector<sim::Simulator::WireHandle> in_a, in_b;
  for (const std::string& name : inputs) {
    in_a.push_back(sim_a.input_handle(name));
    in_b.push_back(sim_b.input_handle(name));
  }
  const sim::Simulator::WireHandle st_a = sim_a.probe(state_a);
  const sim::Simulator::WireHandle st_b = sim_b.probe(state_b);
  const int n = static_cast<int>(inputs.size());
  ASSERT_LE(n, 12) << "input space too large for the exhaustive check";

  sim_a.reset();  // zeroes non-extracted inputs of the original for good
  sim_b.reset();
  using Pair = std::pair<std::uint64_t, std::uint64_t>;
  const Pair start{sim_a.get(st_a), sim_b.get(st_b)};
  std::map<std::string, std::map<std::uint64_t, std::uint64_t>> dropped_by_combo;
  std::set<Pair> seen{start};
  std::queue<Pair> queue;
  queue.push(start);
  while (!queue.empty()) {
    const Pair pair = queue.front();
    queue.pop();
    for (std::uint64_t combo = 0; combo < (1ULL << n); ++combo) {
      for (int i = 0; i < n; ++i) {
        sim_a.set_input(in_a[static_cast<std::size_t>(i)], (combo >> i) & 1);
        sim_b.set_input(in_b[static_cast<std::size_t>(i)], (combo >> i) & 1);
      }
      sim_a.set_register(st_a, pair.first);
      sim_b.set_register(st_b, pair.second);
      sim_a.eval();
      sim_b.eval();
      for (const std::string& name : outputs) {
        ASSERT_EQ(sim_a.get(name), sim_b.get(name))
            << "output " << name << " diverges in product state (" << pair.first << ", "
            << pair.second << ") under input combo " << combo;
      }
      for (const std::string& name : dropped_outputs) {
        const std::uint64_t value = sim_a.get(name);
        const auto [it, fresh] = dropped_by_combo[name].emplace(combo, value);
        ASSERT_EQ(it->second, value)
            << "dropped output " << name << " depends on the state (product state ("
            << pair.first << ", " << pair.second << "), combo " << combo
            << ") — extraction should have captured it";
      }
      sim_a.step();
      sim_b.step();
      const Pair next{sim_a.get(st_a), sim_b.get(st_b)};
      if (seen.insert(next).second) queue.push(next);
    }
  }
  // Equivalent deterministic machines with every state reachable pair up
  // one-to-one: the product reaches exactly as many pairs as states.
  EXPECT_EQ(static_cast<int>(seen.size()), expected_states);
}

/// Compiles `fsm`, writes it as Verilog, reads it back, extracts the FSM
/// from the reparsed netlist, recompiles the extraction, and bisimulates it
/// against the original compiled module.
void expect_extraction_equivalent(const Fsm& original) {
  rtlil::Design design_a;
  const CompiledFsm compiled = compile_unprotected(original, design_a);

  std::ostringstream verilog;
  backends::write_verilog(*compiled.module, verilog);
  rtlil::Design design_b;
  std::vector<rtlil::Module*> mods =
      frontends::read_verilog(verilog.str(), design_b, original.name + ".v");
  ASSERT_EQ(mods.size(), 1u);

  const std::vector<ExtractedFsm> machines = extract_fsms(*mods.at(0));
  ASSERT_EQ(machines.size(), 1u) << original.name;
  const ExtractedFsm& extracted = machines.at(0);
  EXPECT_EQ(extracted.state_wire, compiled.state_wire);
  EXPECT_EQ(extracted.encoding, StateEncoding::kBinary);
  EXPECT_EQ(extracted.fsm.num_states(), original.num_states());
  // Extraction keeps the original 1-bit port names but only the
  // cone-relevant subset: an input that reaches no state or captured-output
  // cone, or an output whose cone holds no state, is rightly dropped.
  const auto is_ordered_subset = [](const std::vector<std::string>& sub,
                                    const std::vector<std::string>& full) {
    std::size_t j = 0;
    for (const std::string& name : sub) {
      while (j < full.size() && full[j] != name) ++j;
      if (j++ >= full.size()) return false;
    }
    return true;
  };
  ASSERT_TRUE(is_ordered_subset(extracted.fsm.inputs, original.inputs)) << original.name;
  ASSERT_TRUE(is_ordered_subset(extracted.fsm.outputs, original.outputs)) << original.name;
  std::vector<std::string> dropped_outputs;
  for (const std::string& name : original.outputs) {
    if (std::find(extracted.fsm.outputs.begin(), extracted.fsm.outputs.end(), name) ==
        extracted.fsm.outputs.end()) {
      dropped_outputs.push_back(name);
    }
  }

  rtlil::Design design_c;
  const CompiledFsm recompiled = compile_unprotected(extracted.fsm, design_c);
  expect_bisimilar(*compiled.module, compiled.state_wire, *recompiled.module,
                   recompiled.state_wire, extracted.fsm.inputs, extracted.fsm.outputs,
                   dropped_outputs, original.num_states());
}

TEST(FsmExtract, PaperFsmSurvivesWriterAndExtraction) {
  expect_extraction_equivalent(test::paper_fsm());
}

TEST(FsmExtract, SynfiFsmSurvivesWriterAndExtraction) {
  expect_extraction_equivalent(test::synfi_fsm());
}

TEST(FsmExtract, ZooFsmsSurviveWriterAndExtraction) {
  for (const ot::OtEntry& entry : ot::ot_zoo()) {
    SCOPED_TRACE(entry.name);
    expect_extraction_equivalent(entry.fsm);
  }
}

// --- the SCFI pass over the zoo with its datapath ---------------------------

TEST(Pass, HardensEveryZooVariantWithDatapath) {
  for (const ot::OtEntry& entry : ot::ot_zoo()) {
    SCOPED_TRACE(entry.name);
    rtlil::Design design;
    const CompiledFsm source =
        ot::build_ot_variant(entry, design, ot::Variant::kUnprotected, 2, entry.name);
    core::ScfiConfig config;
    config.protection_level = 2;
    const std::vector<core::PassResult> results = core::run_scfi_pass(design, entry.name, config);
    ASSERT_EQ(results.size(), 1u);
    const Fsm& extracted = results[0].extracted;
    const CompiledFsm& hard = results[0].hardened;
    EXPECT_EQ(hard.module->name(), entry.name + "_scfi");

    // The recovered machine, recompiled, is the source module's machine;
    // the source FSM outputs it dropped must not depend on the state.
    std::vector<std::string> dropped_outputs;
    for (const std::string& name : entry.fsm.outputs) {
      if (std::find(extracted.outputs.begin(), extracted.outputs.end(), name) ==
          extracted.outputs.end()) {
        dropped_outputs.push_back(name);
      }
    }
    rtlil::Design recompiled_design;
    const CompiledFsm recompiled = compile_unprotected(extracted, recompiled_design);
    expect_bisimilar(*source.module, source.state_wire, *recompiled.module,
                     recompiled.state_wire, extracted.inputs, extracted.outputs,
                     dropped_outputs, entry.fsm.num_states());

    // The hardened module follows a fault-free CFG walk with the alert low.
    sim::Simulator s(*hard.module);
    const std::vector<CfgEdge> edges = extracted.cfg_edges();
    Rng rng(7);
    int golden = extracted.reset_state;
    for (int t = 0; t < 64; ++t) {
      std::vector<const CfgEdge*> leaving;
      for (const CfgEdge& e : edges) {
        if (e.from == golden) leaving.push_back(&e);
      }
      const CfgEdge& e = *leaving[static_cast<std::size_t>(rng.below(leaving.size()))];
      s.set_input(hard.symbol_input_wire, hard.symbol_codes.at(e.symbol));
      s.eval();
      ASSERT_EQ(s.get(hard.alert_wire), 0u) << "step " << t;
      s.step();
      golden = e.to;
      ASSERT_EQ(s.get(hard.state_wire), hard.state_codes[static_cast<std::size_t>(golden)]);
    }
  }
}

TEST(Pass, NamesOneHardenedModulePerMachine) {
  rtlil::Design design;
  rtlil::Module& m = *design.add_module("two_togglers");
  add_toggle(m, "qa", "ta", "oa");
  add_toggle(m, "qb", "tb", "ob");
  rtlil::Module& comb = *design.add_module("comb");
  comb.drive(SigSpec(comb.add_output("y", 1)), comb.make_not(SigSpec(comb.add_input("a", 1))));

  const std::vector<core::PassResult> results = core::run_scfi_pass(design, "two_togglers");
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].hardened.module->name(), "two_togglers_qa_scfi");
  EXPECT_EQ(results[1].hardened.module->name(), "two_togglers_qb_scfi");
  EXPECT_EQ(results[0].extracted.inputs, (std::vector<std::string>{"ta"}));
  EXPECT_TRUE(core::run_scfi_pass(design, "comb").empty());
}

// --- the scalar reference (recover at lane width) ---------------------------

/// `got` and the reference `want` are the same machine byte for byte.
void expect_same_machine(const ExtractedFsm& got, const ExtractedFsm& want) {
  EXPECT_EQ(got.state_wire, want.state_wire);
  EXPECT_EQ(got.state_codes, want.state_codes);
  EXPECT_EQ(got.encoding, want.encoding);
  EXPECT_EQ(write_kiss2(got.fsm), write_kiss2(want.fsm));
}

/// Every machine extract_fsms finds in `m` against the scalar reference over
/// the same port bits; returns them.
std::vector<ExtractedFsm> expect_discovery_matches_reference(const rtlil::Module& m,
                                                             const ExtractOptions& options = {}) {
  std::vector<ExtractedFsm> machines = extract_fsms(m, options);
  for (const ExtractedFsm& x : machines) {
    SCOPED_TRACE(m.name() + "." + x.state_wire);
    expect_same_machine(
        x, test::scalar_recover(m, x.state_wire, x.fsm.inputs, x.fsm.outputs, options));
  }
  return machines;
}

/// A seeded machine over `n` inputs and two outputs: `states` states on a
/// ring (state s leaves for s + 1 on input s mod n), a guard on every input,
/// and a few more random guards. Redrawn until Fsm::check accepts it.
Fsm random_machine(std::uint64_t seed, int n, int states) {
  Rng rng(seed);
  const auto state = [](std::uint64_t s) { return "S" + std::to_string(s); };
  const auto bit = [&] { return rng.chance(0.5) ? '1' : '0'; };
  const auto output = [&] { return std::string{bit(), bit()}; };
  const auto guard_on = [&](int input) {
    std::string guard(static_cast<std::size_t>(n), '-');
    guard[static_cast<std::size_t>(input)] = bit();
    for (std::uint64_t extra = rng.below(3); extra > 0; --extra) {
      guard[static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(n)))] = bit();
    }
    return guard;
  };
  const auto s_count = static_cast<std::uint64_t>(states);
  for (;;) {
    Fsm f;
    f.name = "rand" + std::to_string(seed);
    for (int i = 0; i < n; ++i) f.inputs.push_back("i" + std::to_string(i));
    f.outputs = {"o0", "o1"};
    for (std::uint64_t s = 0; s < s_count; ++s) {
      std::string ring(static_cast<std::size_t>(n), '-');
      ring[s % static_cast<std::uint64_t>(n)] = '1';
      f.add_transition(state(s), ring, state((s + 1) % s_count), output());
    }
    for (int i = 0; i < n; ++i) {
      f.add_transition(state(rng.below(s_count)), guard_on(i), state(rng.below(s_count)),
                       output());
    }
    for (std::uint64_t extra = rng.below(4); extra > 0; --extra) {
      f.add_transition(state(rng.below(s_count)),
                       guard_on(static_cast<int>(rng.below(static_cast<std::uint64_t>(n)))),
                       state(rng.below(s_count)), output());
    }
    try {
      f.check();
      return f;
    } catch (const ScfiError&) {
      // A shadowed or duplicate guard: draw again.
    }
  }
}

TEST(FsmExtractOracle, GeneratedNetlistsMatchScalarReference) {
  // n < 6 leaves part of the one lane word unused, n = 6 fills it, and
  // n > 6 takes several words per state.
  for (int n = 1; n <= 10; ++n) {
    for (int seed = 1; seed <= 3; ++seed) {
      const Fsm machine =
          random_machine(static_cast<std::uint64_t>(seed * 100 + n), n, 2 + (seed + n) % 5);
      SCOPED_TRACE(machine.name + " n=" + std::to_string(n));
      rtlil::Design design;
      const CompiledFsm compiled = compile_unprotected(machine, design);
      const std::vector<ExtractedFsm> found = expect_discovery_matches_reference(*compiled.module);
      ASSERT_EQ(found.size(), 1u);
      EXPECT_EQ(found[0].fsm.num_inputs(), n);
      EXPECT_EQ(found[0].fsm.num_states(), machine.num_states());
      // The same machine through the Verilog writer and reader (word-level
      // cells instead of the compiler's netlist).
      std::ostringstream verilog;
      backends::write_verilog(*compiled.module, verilog);
      rtlil::Design reread;
      const std::vector<rtlil::Module*> mods =
          frontends::read_verilog(verilog.str(), reread, machine.name + ".v");
      ASSERT_EQ(mods.size(), 1u);
      EXPECT_EQ(expect_discovery_matches_reference(*mods[0]).size(), 1u);
    }
  }
}

TEST(FsmExtractOracle, FourteenInputsAtTheBoundMatchScalarReference) {
  const Fsm machine = random_machine(14, 14, 3);
  rtlil::Design design;
  const CompiledFsm compiled = compile_unprotected(machine, design);
  ExtractOptions options;
  ASSERT_EQ(options.max_inputs, 14);
  const std::vector<ExtractedFsm> found =
      expect_discovery_matches_reference(*compiled.module, options);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].fsm.num_inputs(), 14);
  options.max_inputs = 13;
  const std::string over = error_of([&] { extract_fsms(*compiled.module, options); });
  EXPECT_EQ(over, error_of([&] {
              test::scalar_recover(*compiled.module, compiled.state_wire, found[0].fsm.inputs,
                                   found[0].fsm.outputs, options);
            }));
  EXPECT_NE(over.find("14 input bits exceed the exhaustive bound of 13"), std::string::npos)
      << over;
}

TEST(FsmExtractOracle, CorpusVerilogMatchesScalarReference) {
  namespace fs = std::filesystem;
  fs::path root = "bench/corpus-verilog";
  if (!fs::exists(root)) root = "../bench/corpus-verilog";
  ASSERT_TRUE(fs::exists(root)) << "bench/corpus-verilog not found";
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::recursive_directory_iterator(root)) {
    if (entry.path().extension() == ".v") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  std::size_t machines = 0;
  for (const fs::path& file : files) {
    SCOPED_TRACE(file.string());
    rtlil::Design design;
    for (const rtlil::Module* m : frontends::read_verilog_file(file.string(), design)) {
      machines += expect_discovery_matches_reference(*m).size();
    }
  }
  EXPECT_GE(machines, files.size());
}

TEST(FsmExtract, SelfFeedingRegisterThatReadsAnotherIsNoCandidate) {
  // q <= q ^ r feeds itself but also reads the free-running r <= ~r, so
  // only r is self-contained; o = q is no output of r's machine.
  rtlil::Design design;
  rtlil::Module& m = *design.add_module("mixed");
  Wire* q = m.add_wire("q", 1);
  Wire* r = m.add_wire("r", 1);
  rtlil::Cell* rq = m.add_cell("r_ff", rtlil::CellType::kDff);
  rq->set_port("D", m.make_not(SigSpec(r)));
  rq->set_port("Q", SigSpec(r));
  rq->set_reset_value(Const(std::vector<bool>{false}));
  rtlil::Cell* qq = m.add_cell("q_ff", rtlil::CellType::kDff);
  qq->set_port("D", m.make_xor(SigSpec(q), SigSpec(r)));
  qq->set_port("Q", SigSpec(q));
  qq->set_reset_value(Const(std::vector<bool>{false}));
  m.drive(SigSpec(m.add_output("o", 1)), SigSpec(q));
  rtlil::validate_module(m);

  const std::vector<ExtractedFsm> found = expect_discovery_matches_reference(m);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].state_wire, "r");
  EXPECT_TRUE(found[0].fsm.outputs.empty());
  EXPECT_EQ(found[0].state_codes, (std::vector<std::uint64_t>{0, 1}));
}

TEST(FsmExtractOracle, RunawayCounterThrowsTheSameText) {
  // A 9-bit ripple counter with enable: 512 reachable codes, past the
  // default bound of 256 states.
  rtlil::Design design;
  rtlil::Module& m = *design.add_module("runaway");
  Wire* en = m.add_input("en", 1);
  Wire* q = m.add_wire("q", 9);
  SigSpec carry(en);
  SigSpec next;
  for (int i = 0; i < 9; ++i) {
    const SigSpec bit(SigBit(q, i));
    next.append(m.make_xor(bit, carry));
    carry = m.make_and(bit, carry);
  }
  rtlil::Cell* ff = m.add_cell("q_ff", rtlil::CellType::kDff);
  ff->set_port("D", next);
  ff->set_port("Q", SigSpec(q));
  ff->set_reset_value(Const(std::vector<bool>(9, false)));
  m.drive(SigSpec(m.add_output("y", 9)), SigSpec(q));
  rtlil::validate_module(m);

  const std::string text = error_of([&] { extract_fsms(m); });
  EXPECT_EQ(text,
            "fsm extract: runaway.q: more than 256 reachable states (runaway register, not an "
            "FSM?)");
  std::vector<std::string> outputs;
  for (int i = 0; i < 9; ++i) outputs.push_back("y[" + std::to_string(i) + "]");
  EXPECT_EQ(error_of([&] { test::scalar_recover(m, "q", {"en"}, outputs); }), text);
  // Under a bound it fits, both recover the same 512-state counter.
  ExtractOptions roomy;
  roomy.max_states = 512;
  const std::vector<ExtractedFsm> found = expect_discovery_matches_reference(m, roomy);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].fsm.num_states(), 512);
}

}  // namespace
}  // namespace scfi::fsm
