// Observability pruning of the Monte-Carlo campaign executor: a run whose
// faults are all dead — a stuck-at or flip outside the fan-in cone of the
// state register and the alert, or a skip on a net that is not the Q of a
// flip-flop in that cone — is not simulated but counted from its walk's
// fault-free outcome. Every CampaignResult must equal a scalar,
// run-by-run reference executor that replays each run's plan (re-derived
// here from Rng(seed, run)) through the public sim::Simulator with no
// pruning, at lanes 64/512 x threads 1/3, and the executor must simulate
// exactly the runs with a live fault. The same reference checks the lane
// pool's schedule: runs that start mid-walk (every state-target run), lanes
// refilled after a run retires (1 and 37 lanes), and the settle count when
// every run is decided in its first step.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "base/rng.h"
#include "core/harden.h"
#include "fsm/kiss2.h"
#include "kiss2_corpus.h"
#include "ot/zoo.h"
#include "redundancy/redundancy.h"
#include "rtlil/design.h"
#include "rtlil/validate.h"
#include "sim/campaign.h"
#include "sim/fault.h"
#include "sim/netlist_sim.h"

namespace scfi::sim {
namespace {

using fsm::CfgEdge;
using fsm::CompiledFsm;
using fsm::Fsm;

/// The FSM with its three compiled variants (unprotected, redundancy, SCFI).
struct Subject {
  Fsm fsm;
  rtlil::Design design;
  std::vector<std::pair<std::string, CompiledFsm>> variants;
};

std::unique_ptr<Subject> make_subject(const std::string& name) {
  auto s = std::make_unique<Subject>();
  if (name.starts_with("kiss2:")) {
    const std::string bench = name.substr(6);
    const auto it = std::find_if(std::begin(test::kKiss2Corpus), std::end(test::kKiss2Corpus),
                                 [&](const test::Kiss2Bench& b) { return b.name == bench; });
    s->fsm = fsm::parse_kiss2(std::string(it->text), bench);
    s->variants.emplace_back("unprotected", fsm::compile_unprotected(s->fsm, s->design));
    redundancy::RedundancyConfig red;
    red.protection_level = 2;
    s->variants.emplace_back("redundancy", redundancy::build_redundant(s->fsm, s->design, red));
    core::ScfiConfig scfi;
    scfi.protection_level = 2;
    s->variants.emplace_back("scfi", core::scfi_harden(s->fsm, s->design, scfi));
    return s;
  }
  const ot::OtEntry entry = ot::ot_entry(name);
  s->fsm = entry.fsm;
  for (const auto& [label, variant] :
       {std::pair{"unprotected", ot::Variant::kUnprotected},
        std::pair{"redundancy", ot::Variant::kRedundancy}, std::pair{"scfi", ot::Variant::kScfi}}) {
    s->variants.emplace_back(label, ot::build_ot_variant(entry, s->design, variant, 2,
                                                         name + "_obs_" + label));
  }
  return s;
}

/// The reference's outcome of every run, and how many runs had a fault
/// that can reach the state register or the alert.
struct Reference {
  CampaignResult result;
  int live_runs = 0;
};

/// Scalar reference: plans run r from Rng(seed, r) exactly as the campaign
/// documents (walk first, then per fault a distinct site by partial
/// Fisher-Yates, a cycle, and a kind when the spec has several), then
/// simulates it alone — drive, inject, eval, alert, latch, classify — and
/// after the last edge settles once more for the final alert check.
Reference reference(const Fsm& f, const CompiledFsm& c, const CampaignConfig& config) {
  const std::vector<FaultSite> sites =
      filter_sites(enumerate_fault_sites(*c.module, c.state_wire), config.fault.target);
  const std::vector<CfgEdge> cfg = f.cfg_edges();
  std::vector<std::vector<std::size_t>> edges_from(static_cast<std::size_t>(f.num_states()));
  for (std::size_t e = 0; e < cfg.size(); ++e) {
    edges_from[static_cast<std::size_t>(cfg[e].from)].push_back(e);
  }

  Simulator sim(*c.module);
  const Simulator::WireHandle state = sim.probe(c.state_wire);
  Simulator::WireHandle alert;
  if (!c.alert_wire.empty()) alert = sim.probe(c.alert_wire);
  Simulator::WireHandle symbol;
  std::vector<Simulator::WireHandle> raw;
  if (c.symbol_width > 0) {
    symbol = sim.input_handle(c.symbol_input_wire);
  } else {
    for (const std::string& name : f.inputs) raw.push_back(sim.input_handle(name));
  }
  const auto drive = [&](const CfgEdge& e) {
    if (c.symbol_width > 0) {
      sim.set_input(symbol, c.symbol_codes.at(e.symbol));
      return;
    }
    const std::vector<bool> bits = e.transition_index >= 0
                                       ? *f.concrete_input_for(e.transition_index)
                                       : *f.concrete_input_for_idle(e.from);
    for (std::size_t i = 0; i < raw.size(); ++i) sim.set_input(raw[i], bits[i] ? 1 : 0);
  };
  const auto alert_high = [&] { return alert.valid() && sim.get(alert) != 0; };

  std::vector<std::int32_t> roots;
  for (std::int32_t i = 0; i < state.width; ++i) roots.push_back(state.base + i);
  for (std::int32_t i = 0; i < alert.width; ++i) roots.push_back(alert.base + i);
  const rtlil::FlatNetlist flat = rtlil::flatten(*c.module);
  const std::vector<char> cone = rtlil::fanin_cone(flat, roots);
  // A skip stalls the flip-flop whose Q it hits: it is live only on the Q of
  // a flip-flop in the cone.
  std::vector<char> cone_q(cone.size(), 0);
  for (const rtlil::FlatFf& ff : flat.ffs) {
    cone_q[static_cast<std::size_t>(ff.q)] = cone[static_cast<std::size_t>(ff.q)];
  }

  Reference ref;
  ref.result.runs = config.runs;
  const auto n = static_cast<std::uint64_t>(sites.size());
  for (int run = 0; run < config.runs; ++run) {
    Rng rng(config.seed, static_cast<std::uint64_t>(run));
    std::vector<int> golden{f.reset_state};
    std::vector<std::size_t> walk;
    for (int t = 0; t < config.cycles; ++t) {
      const std::vector<std::size_t>& options =
          edges_from[static_cast<std::size_t>(golden.back())];
      walk.push_back(options[rng.below(options.size())]);
      golden.push_back(cfg[walk.back()].to);
    }
    std::vector<std::size_t> pool(sites.size());
    std::iota(pool.begin(), pool.end(), 0);
    struct Fault {
      std::size_t site;
      int cycle;
      FaultKind kind;
    };
    std::vector<Fault> faults;
    bool live = false;
    for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(config.fault.k); ++i) {
      std::size_t site = 0;
      if (i < n) {
        std::swap(pool[i], pool[i + rng.below(n - i)]);
        site = pool[i];
      } else {
        site = rng.below(n);
      }
      const int cycle = static_cast<int>(rng.below(static_cast<std::uint64_t>(config.cycles)));
      const FaultKind kind = config.fault.kinds.size() > 1
                                 ? config.fault.kinds[rng.below(config.fault.kinds.size())]
                                 : config.fault.kinds.front();
      faults.push_back(Fault{site, cycle, kind});
      const auto net = static_cast<std::size_t>(sim.net_index(sites[site].bit));
      live = live || (kind == FaultKind::kSkipCycle ? cone_q[net] : cone[net]) != 0;
    }
    ref.live_runs += live ? 1 : 0;

    sim.reset();
    bool detected = false;
    bool invalid = false;
    bool deviated = false;
    bool not_lag = false;
    for (int t = 0; t < config.cycles && !detected; ++t) {
      drive(cfg[walk[static_cast<std::size_t>(t)]]);
      for (const Fault& fault : faults) {
        if (fault.cycle == t) sim.inject(sites[fault.site].bit, fault.kind);
      }
      sim.eval();
      if (alert_high()) {
        detected = true;
        break;
      }
      sim.latch();
      const std::uint64_t reg = sim.get(state);
      if (c.has_error_state && reg == c.error_code) {
        detected = true;
        break;
      }
      const auto code = [&](int s) { return c.state_codes[static_cast<std::size_t>(s)]; };
      if (std::find(c.state_codes.begin(), c.state_codes.end(), reg) == c.state_codes.end()) {
        invalid = true;
        not_lag = true;
      } else if (reg != code(golden[static_cast<std::size_t>(t) + 1])) {
        deviated = true;
        if (reg != code(golden[static_cast<std::size_t>(t)])) not_lag = true;
      }
    }
    if (!detected) {
      sim.eval();
      detected = alert_high();
    }
    CampaignResult& r = ref.result;
    if (detected) {
      ++r.detected;
    } else if (invalid) {
      ++r.silent_invalid;
    } else if (deviated) {
      ++(not_lag ? r.hijacked : r.lagged);
    } else {
      ++r.masked;
    }
  }
  return ref;
}

const char* target_name(FaultTarget target) {
  switch (target) {
    case FaultTarget::kAny: return "any";
    case FaultTarget::kControlInputs: return "inputs";
    case FaultTarget::kStateRegister: return "state";
    case FaultTarget::kLogic: return "logic";
  }
  return "?";
}

/// Checks `config` on `c` against the reference at every `lane_widths` x
/// threads {1, 3} shape.
void expect_matches_reference(const Fsm& f, const CompiledFsm& c, const CampaignConfig& config,
                              const std::string& where,
                              const std::vector<int>& lane_widths = {64, 512}) {
  const Reference ref = reference(f, c, config);
  for (const int lanes : lane_widths) {
    for (const int threads : {1, 3}) {
      CampaignConfig shaped = config;
      shaped.lanes = lanes;
      shaped.threads = threads;
      const CampaignResult r = run_campaign(f, c, shaped);
      const std::string shape =
          where + " lanes=" + std::to_string(lanes) + " threads=" + std::to_string(threads);
      EXPECT_EQ(r.runs, ref.result.runs) << shape;
      EXPECT_EQ(r.masked, ref.result.masked) << shape;
      EXPECT_EQ(r.detected, ref.result.detected) << shape;
      EXPECT_EQ(r.hijacked, ref.result.hijacked) << shape;
      EXPECT_EQ(r.lagged, ref.result.lagged) << shape;
      EXPECT_EQ(r.silent_invalid, ref.result.silent_invalid) << shape;
      EXPECT_EQ(r.simulated, ref.live_runs) << shape;
    }
  }
}

const std::vector<FaultKind> kStuckAndSkip = {FaultKind::kStuckAt0, FaultKind::kStuckAt1,
                                              FaultKind::kSkipCycle};

class CampaignObservability : public testing::TestWithParam<std::string> {};

TEST_P(CampaignObservability, MatchesScalarReference) {
  const std::unique_ptr<Subject> s = make_subject(GetParam());
  for (const auto& [label, c] : s->variants) {
    for (const FaultTarget target :
         {FaultTarget::kAny, FaultTarget::kControlInputs, FaultTarget::kLogic}) {
      for (const bool stuck_and_skip : {false, true}) {
        for (const int k : {1, 2}) {
          CampaignConfig config;
          config.runs = 700;
          config.cycles = 10;
          config.seed = 18;
          config.fault.k = k;
          config.fault.target = target;
          config.fault.kinds = stuck_and_skip ? std::vector<FaultKind>{FaultKind::kStuckAt0,
                                                                       FaultKind::kStuckAt1,
                                                                       FaultKind::kSkipCycle}
                                              : std::vector<FaultKind>{FaultKind::kTransientFlip};
          expect_matches_reference(s->fsm, c, config,
                                   GetParam() + " " + label + " target=" + target_name(target) +
                                       (stuck_and_skip ? " stuck/skip" : " flip") +
                                       " k=" + std::to_string(k));
        }
      }
    }
  }
}

TEST_P(CampaignObservability, StateTargetMatchesScalarReference) {
  // Every state-register site is live, so every run is simulated, and the
  // executor starts each one at its earliest fault cycle from the
  // fault-free register valuation of that cycle's golden state.
  const std::unique_ptr<Subject> s = make_subject(GetParam());
  for (const auto& [label, c] : s->variants) {
    for (const bool stuck_and_skip : {false, true}) {
      for (const int k : {1, 2}) {
        CampaignConfig config;
        config.runs = 700;
        config.cycles = 10;
        config.seed = 5;
        config.fault.k = k;
        config.fault.target = FaultTarget::kStateRegister;
        config.fault.kinds =
            stuck_and_skip ? kStuckAndSkip : std::vector<FaultKind>{FaultKind::kTransientFlip};
        expect_matches_reference(s->fsm, c, config,
                                 GetParam() + " " + label + " target=state" +
                                     (stuck_and_skip ? " stuck/skip" : " flip") +
                                     " k=" + std::to_string(k));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ZooAndCorpus, CampaignObservability,
                         testing::Values("adc_ctrl_fsm", "aes_control", "i2c_fsm",
                                         "ibex_controller", "ibex_lsu", "otbn_controller",
                                         "pwrmgr_fsm", "kiss2:lion"),
                         [](const testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), ':', '_');
                           return name;
                         });

TEST(CampaignObservabilityEdges, FaultFreeRunsAreNeverSimulated) {
  // k = 0: every run is fault-free, so none needs the simulator; each is
  // counted from its last edge's post-edge alert.
  const std::unique_ptr<Subject> s = make_subject("pwrmgr_fsm");
  for (const auto& [label, c] : s->variants) {
    CampaignConfig config;
    config.runs = 300;
    config.cycles = 6;
    config.fault.k = 0;
    expect_matches_reference(s->fsm, c, config, "pwrmgr_fsm " + label + " k=0");
    EXPECT_EQ(run_campaign(s->fsm, c, config).simulated, 0) << label;
  }
}

TEST(CampaignObservabilityEdges, SkipOnlyAndStateTargetsSimulateEveryRun) {
  // Every state-register bit is the Q of a flip-flop in the cone, so neither
  // a skip nor a flip on it can be pruned.
  const std::unique_ptr<Subject> s = make_subject("otbn_controller");
  const CompiledFsm& c = s->variants.back().second;
  CampaignConfig skips;
  skips.runs = 300;
  skips.cycles = 8;
  skips.fault.target = FaultTarget::kStateRegister;
  skips.fault.kinds = {FaultKind::kSkipCycle};
  EXPECT_EQ(run_campaign(s->fsm, c, skips).simulated, skips.runs);
  CampaignConfig state = skips;
  state.fault.kinds = {FaultKind::kTransientFlip};
  EXPECT_EQ(run_campaign(s->fsm, c, state).simulated, state.runs);
}

TEST(CampaignObservabilityEdges, SkipsOffConeRegistersAreNotSimulated) {
  // A skip on a net that is not the Q of a cone flip-flop is a no-op, so a
  // skip-only logic-target run is simulated only when one of its skips hits
  // such a Q (on every variant, most logic sites are op outputs), and the
  // unpruned reference agrees on every count.
  const std::unique_ptr<Subject> s = make_subject("otbn_controller");
  for (const auto& [label, c] : s->variants) {
    CampaignConfig config;
    config.runs = 300;
    config.cycles = 8;
    config.fault.k = 2;
    config.fault.target = FaultTarget::kLogic;
    config.fault.kinds = {FaultKind::kSkipCycle};
    const Reference ref = reference(s->fsm, c, config);
    EXPECT_LT(ref.live_runs, config.runs) << label;
    expect_matches_reference(s->fsm, c, config, "otbn_controller " + label + " logic skip k=2");
  }
}

TEST(CampaignObservabilityEdges, RegisterOutsideTheStateDisablesPruning) {
  // A toggle flip-flop gates the alert, so the alert cone holds a register
  // that is not a function of the FSM state: a fault-free run's outcome is
  // no longer fixed by its last edge, and the campaign must simulate every
  // run. A gate no root reads keeps dead sites in the module.
  const Fsm f = fsm::parse_kiss2(std::string(test::kKiss2Corpus[0].text), "lion");
  rtlil::Design design;
  CompiledFsm c = fsm::compile_unprotected(f, design);
  rtlil::Module& m = *c.module;
  const rtlil::SigSpec toggle(m.add_wire("toggle_q", 1));
  rtlil::Cell* ff = m.add_cell(m.uniquify("toggle_ff"), rtlil::CellType::kDff);
  ff->set_port("D", m.make_not(toggle));
  ff->set_port("Q", toggle);
  ff->set_reset_value(rtlil::Const::from_uint(0, 1));
  rtlil::Wire* alert = m.add_output("toggle_alert", 1);
  m.drive(rtlil::SigSpec(alert),
          m.make_and(toggle, m.make_reduce_or(rtlil::SigSpec(m.wire(c.state_wire)))));
  c.alert_wire = alert->name();
  rtlil::SigSpec inputs;
  for (const std::string& name : f.inputs) inputs.append(rtlil::SigSpec(m.wire(name)));
  m.drive(rtlil::SigSpec(m.add_output("unread", 1)), m.make_reduce_xor(inputs));
  rtlil::validate_module(m);

  CampaignConfig config;
  config.runs = 400;
  config.cycles = 8;
  config.fault.target = FaultTarget::kLogic;
  const CampaignResult r = run_campaign(f, c, config);
  EXPECT_EQ(r.simulated, config.runs);
  EXPECT_GT(r.detected, 0);
  const Reference ref = reference(f, c, config);
  EXPECT_LT(ref.live_runs, config.runs);
  EXPECT_EQ(r, ref.result);
}

TEST(CampaignObservabilityPool, RefilledLanesMatchScalarReference) {
  // At 1 and 37 lanes nearly every run inherits a lane from an earlier run
  // of the same participant, often one that retired early on an alert. A
  // stuck fault left on the refilled lane, or a register left at the old
  // run's value, changes the new run's outcome.
  const std::unique_ptr<Subject> s = make_subject("otbn_controller");
  for (const auto& [label, c] : s->variants) {
    for (const FaultTarget target : {FaultTarget::kAny, FaultTarget::kStateRegister}) {
      CampaignConfig config;
      config.runs = 500;
      config.cycles = 12;
      config.seed = 37;
      config.fault.k = 2;
      config.fault.target = target;
      config.fault.kinds = kStuckAndSkip;
      expect_matches_reference(s->fsm, c, config,
                               "otbn_controller " + label + " target=" + target_name(target),
                               {1, 37});
    }
  }
}

TEST(CampaignObservabilityPool, DecidedRunsFreeTheirLanes) {
  // A state-register flip on the SCFI variant raises the alert in the step
  // that injects it, so every run retires in its first step and the next
  // run takes its lane: the executor settles about once per `lanes` runs,
  // plus at most one walk and its final check for the last runs. A batch
  // that held its lanes through the whole walk would settle cycles + 1
  // times per `lanes` runs.
  const std::unique_ptr<Subject> s = make_subject("aes_control");
  const CompiledFsm& c = s->variants.back().second;
  CampaignConfig config;
  config.runs = 3000;
  config.cycles = 24;
  config.lanes = 64;
  config.fault.k = 1;
  config.fault.target = FaultTarget::kStateRegister;
  const CampaignResult r = run_campaign(s->fsm, c, config);
  EXPECT_EQ(r.simulated, config.runs);
  EXPECT_EQ(r.detected, config.runs);
  const std::int64_t batches = (r.simulated + config.lanes - 1) / config.lanes;
  EXPECT_LE(r.evals, batches + config.cycles + 1);
  EXPECT_EQ(r, reference(s->fsm, c, config).result);
}

TEST(CampaignObservabilityGroups, GroupTailsAndMultiKindFaultsMatchScalarReference) {
  // The planner steps runs in groups of RunPlanner::kGroup and plans a
  // unit's last lanes mod kGroup runs alone. At 5 lanes every unit is all
  // tail; at 100 lanes each unit ends in a 4-run tail. Three faults of
  // three kinds draw a site, a cycle and a kind each from the stream a
  // grouped walk left behind.
  for (const std::string name : {"i2c_fsm", "kiss2:lion"}) {
    const std::unique_ptr<Subject> s = make_subject(name);
    for (const auto& [label, c] : s->variants) {
      for (const FaultTarget target : {FaultTarget::kAny, FaultTarget::kStateRegister}) {
        CampaignConfig config;
        config.runs = 613;
        config.cycles = 11;
        config.seed = 32;
        config.fault.k = 3;
        config.fault.target = target;
        config.fault.kinds = {FaultKind::kTransientFlip, FaultKind::kStuckAt0,
                              FaultKind::kSkipCycle};
        expect_matches_reference(s->fsm, c, config,
                                 name + " " + label + " target=" + target_name(target) + " k=3",
                                 {5, 100});
      }
    }
  }
}

}  // namespace
}  // namespace scfi::sim
