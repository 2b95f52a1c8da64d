// Property-based tests over randomly generated FSMs: all three compiled
// variants must agree with the symbolic golden model on random control-flow
// walks; KISS2 and extraction round-trips must preserve behaviour; and the
// SCFI invariants (no silent corruption, terminal ERROR, per-edge modifier
// correctness) must hold for every sampled machine and protection level.
#include <gtest/gtest.h>

#include "base/error.h"
#include "base/rng.h"
#include "core/harden.h"
#include "fsm/compile.h"
#include "fsm/extract.h"
#include "fsm/kiss2.h"
#include "redundancy/redundancy.h"
#include "rtlil/design.h"
#include "sim/campaign.h"
#include "sim/netlist_sim.h"
#include "synth/lower.h"
#include "synth/opt.h"
#include "test_helpers.h"

namespace scfi {
namespace {

/// Generates a random connected FSM with `states` states over `inputs`
/// control bits. Guards are random cubes; determinism comes from the
/// priority order, and check() validates satisfiability.
fsm::Fsm random_fsm(Rng& rng, int states, int inputs, int outputs) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    fsm::Fsm f;
    f.name = "rand";
    for (int i = 0; i < inputs; ++i) f.inputs.push_back("x" + std::to_string(i));
    for (int i = 0; i < outputs; ++i) f.outputs.push_back("y" + std::to_string(i));
    for (int s = 0; s < states; ++s) f.add_state("S" + std::to_string(s));
    const auto random_guard = [&]() {
      std::string g(static_cast<std::size_t>(inputs), '-');
      const int fixed = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(inputs)));
      for (int i = 0; i < fixed; ++i) {
        g[static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(inputs)))] =
            rng.chance(0.5) ? '1' : '0';
      }
      return g;
    };
    const auto random_output = [&]() {
      std::string o(static_cast<std::size_t>(outputs), '0');
      for (auto& ch : o) ch = rng.chance(0.3) ? '1' : '0';
      return o;
    };
    // Spanning chain guarantees reachability; extra random edges add shape.
    for (int s = 1; s < states; ++s) {
      f.add_transition("S" + std::to_string(static_cast<int>(rng.below(
                                static_cast<std::uint64_t>(s)))),
                       random_guard(), "S" + std::to_string(s), random_output());
    }
    const int extra = static_cast<int>(rng.below(static_cast<std::uint64_t>(states)));
    for (int e = 0; e < extra; ++e) {
      f.add_transition(
          "S" + std::to_string(static_cast<int>(rng.below(static_cast<std::uint64_t>(states)))),
          random_guard(),
          "S" + std::to_string(static_cast<int>(rng.below(static_cast<std::uint64_t>(states)))),
          random_output());
    }
    try {
      f.check();
      return f;
    } catch (const ScfiError&) {
      continue;  // duplicate guard / shadowed transition: resample
    }
  }
  throw ScfiError("random_fsm: generation failed");
}

/// Drives all three variants along the same random symbol walk and checks
/// every decoded state against the golden model.
void check_variants_follow_golden(const fsm::Fsm& f, std::uint64_t seed, int n) {
  rtlil::Design d;
  const fsm::CompiledFsm plain = fsm::compile_unprotected(f, d, {.module_name = "plain"});
  redundancy::RedundancyConfig rc;
  rc.protection_level = n;
  rc.module_suffix = "";
  fsm::Fsm fr = f;
  fr.name = "red";
  const fsm::CompiledFsm red = redundancy::build_redundant(fr, d, rc);
  core::ScfiConfig sc;
  sc.protection_level = n;
  sc.module_suffix = "";
  fsm::Fsm fh = f;
  fh.name = "scfi";
  const fsm::CompiledFsm hard = core::scfi_harden(fh, d, sc);

  sim::Simulator sp(*plain.module);
  sim::Simulator sr(*red.module);
  sim::Simulator sh(*hard.module);
  Rng rng(seed);
  const auto edges = f.cfg_edges();
  int golden = f.reset_state;
  for (int t = 0; t < 40; ++t) {
    std::vector<fsm::CfgEdge> options;
    for (const fsm::CfgEdge& e : edges) {
      if (e.from == golden) options.push_back(e);
    }
    const fsm::CfgEdge& e = options[static_cast<std::size_t>(rng.below(options.size()))];
    // Raw bits for the unprotected variant.
    std::optional<std::vector<bool>> bits;
    if (e.transition_index >= 0) {
      bits = f.concrete_input_for(e.transition_index);
    } else {
      bits = f.concrete_input_for_idle(e.from);
    }
    ASSERT_TRUE(bits.has_value());
    for (std::size_t i = 0; i < bits->size(); ++i) {
      sp.set_input(f.inputs[i], (*bits)[i] ? 1 : 0);
    }
    sr.set_input(red.symbol_input_wire, red.symbol_codes.at(e.symbol));
    sh.set_input(hard.symbol_input_wire, hard.symbol_codes.at(e.symbol));
    // Alerts are sampled pre-edge, while the driven symbol matches the
    // current state (the environment contract of encoded-control FSMs).
    sr.eval();
    sh.eval();
    ASSERT_EQ(sr.get(red.alert_wire), 0u) << "red alert, cycle " << t;
    ASSERT_EQ(sh.get(hard.alert_wire), 0u) << "scfi alert, cycle " << t;
    sp.step();
    sr.step();
    sh.step();
    golden = e.to;
    ASSERT_EQ(plain.decode_state(sp.get(plain.state_wire)), golden) << "plain, cycle " << t;
    ASSERT_EQ(red.decode_state(sr.get(red.state_wire)), golden) << "red, cycle " << t;
    ASSERT_EQ(hard.decode_state(sh.get(hard.state_wire)), golden) << "scfi, cycle " << t;
  }
}

class RandomFsm : public ::testing::TestWithParam<int> {};

TEST_P(RandomFsm, AllVariantsFollowGolden) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  const fsm::Fsm f = random_fsm(rng, 3 + GetParam() % 7, 2 + GetParam() % 4, 2);
  check_variants_follow_golden(f, 1000 + static_cast<std::uint64_t>(GetParam()),
                               2 + GetParam() % 3);
}

TEST_P(RandomFsm, Kiss2RoundTripPreservesBehaviour) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  const fsm::Fsm f = random_fsm(rng, 3 + GetParam() % 6, 2 + GetParam() % 3, 1);
  const fsm::Fsm g = fsm::parse_kiss2(fsm::write_kiss2(f), f.name);
  ASSERT_EQ(g.num_states(), f.num_states());
  Rng walk(GetParam());
  int sf = f.reset_state;
  int sg = g.reset_state;
  for (int t = 0; t < 200; ++t) {
    std::vector<bool> in;
    for (int i = 0; i < f.num_inputs(); ++i) in.push_back(walk.chance(0.5));
    sf = f.step_raw(sf, in).first;
    sg = g.step_raw(sg, in).first;
    ASSERT_EQ(f.states[static_cast<std::size_t>(sf)], g.states[static_cast<std::size_t>(sg)]);
  }
}

TEST_P(RandomFsm, ExtractionRecoversBehaviour) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337);
  const fsm::Fsm f = random_fsm(rng, 3 + GetParam() % 5, 2 + GetParam() % 3, 1);
  rtlil::Design d;
  const fsm::CompiledFsm c = fsm::compile_unprotected(f, d);
  const std::vector<fsm::ExtractedFsm> machines = fsm::extract_fsms(*c.module);
  ASSERT_EQ(machines.size(), 1u);
  const fsm::Fsm& g = machines[0].fsm;
  Rng walk(GetParam() + 5);
  int sf = f.reset_state;
  int sg = g.reset_state;
  for (int t = 0; t < 200; ++t) {
    std::vector<bool> in;
    for (int i = 0; i < f.num_inputs(); ++i) in.push_back(walk.chance(0.5));
    sf = f.step_raw(sf, in).first;
    sg = g.step_raw(sg, test::inputs_by_name(f, g, in)).first;
    // Extracted states are named after the register code = the state index.
    ASSERT_EQ(g.states[static_cast<std::size_t>(sg)], "s" + std::to_string(sf));
  }
}

TEST_P(RandomFsm, ScfiNeverSilentlyCorrupts) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 271828);
  const fsm::Fsm f = random_fsm(rng, 4 + GetParam() % 5, 2 + GetParam() % 3, 1);
  rtlil::Design d;
  core::ScfiConfig config;
  config.protection_level = 2 + GetParam() % 3;
  const fsm::CompiledFsm hard = core::scfi_harden(f, d, config);
  sim::CampaignConfig campaign;
  campaign.runs = 60;
  campaign.cycles = 10;
  campaign.fault.k = 1 + GetParam() % 3;
  campaign.seed = static_cast<std::uint64_t>(GetParam());
  const sim::CampaignResult r = sim::run_campaign(f, hard, campaign);
  // A non-codeword can never persist unnoticed: the alert is combinational
  // on the register contents.
  EXPECT_EQ(r.silent_invalid, 0);
}

TEST_P(RandomFsm, HardenedSurvivesLoweringAndOpt) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 65537);
  const fsm::Fsm f = random_fsm(rng, 3 + GetParam() % 4, 2 + GetParam() % 2, 1);
  rtlil::Design d;
  core::ScfiConfig config;
  config.protection_level = 2;
  const fsm::CompiledFsm hard = core::scfi_harden(f, d, config);
  synth::lower_to_gates(*hard.module);
  synth::optimize(*hard.module);
  sim::Simulator s(*hard.module);
  Rng walk(GetParam() + 17);
  const auto edges = f.cfg_edges();
  int golden = f.reset_state;
  for (int t = 0; t < 30; ++t) {
    std::vector<fsm::CfgEdge> options;
    for (const fsm::CfgEdge& e : edges) {
      if (e.from == golden) options.push_back(e);
    }
    const fsm::CfgEdge& e = options[static_cast<std::size_t>(walk.below(options.size()))];
    s.set_input(hard.symbol_input_wire, hard.symbol_codes.at(e.symbol));
    s.step();
    golden = e.to;
    ASSERT_EQ(s.get(hard.state_wire), hard.state_codes[static_cast<std::size_t>(golden)]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFsm, ::testing::Range(0, 12));

}  // namespace
}  // namespace scfi
