// Observability pruning of the exhaustive SYNFI back-end: a run simulates
// only the combinations of sites in the alert/state cone and counts the
// injections that add dead sites by weight. Every report must equal a
// brute-force C(S, k) x E enumeration that drives the public sim::Simulator
// directly (no pruning, no weights) — every counter and the
// `exploitable_sites` order — at several lanes/threads shapes, and the zoo's
// whole-logic k = 2 reports must equal the committed perfbench references.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "base/strutil.h"
#include "core/harden.h"
#include "fsm/kiss2.h"
#include "kiss2_corpus.h"
#include "ot/zoo.h"
#include "rtlil/design.h"
#include "sim/netlist_sim.h"
#include "sweep/result_store.h"
#include "sweep/sweep.h"
#include "synfi/synfi.h"
#include "test_helpers.h"

namespace scfi::synfi {
namespace {

using fsm::CompiledFsm;
using fsm::Fsm;
using rtlil::SigBit;

/// A hardened variant with the FSM it was compiled from.
struct Subject {
  Fsm fsm;
  rtlil::Design design;
  CompiledFsm variant;
};

const Subject& zoo_subject(const std::string& name) {
  static std::map<std::string, std::unique_ptr<Subject>> cache;
  std::unique_ptr<Subject>& s = cache[name];
  if (s == nullptr) {
    s = std::make_unique<Subject>();
    const ot::OtEntry entry = ot::ot_entry(name);
    s->fsm = entry.fsm;
    s->variant = ot::build_ot_variant(entry, s->design, ot::Variant::kScfi, 2, name + "_obs");
  }
  return *s;
}

const Subject& corpus_subject(const std::string& name) {
  static std::map<std::string, std::unique_ptr<Subject>> cache;
  std::unique_ptr<Subject>& s = cache[name];
  if (s == nullptr) {
    const auto it = std::find_if(std::begin(test::kKiss2Corpus), std::end(test::kKiss2Corpus),
                                 [&](const test::Kiss2Bench& b) { return b.name == name; });
    s = std::make_unique<Subject>();
    s->fsm = fsm::parse_kiss2(std::string(it->text), name);
    core::ScfiConfig config;
    config.protection_level = 2;
    s->variant = core::scfi_harden(s->fsm, s->design, config);
  }
  return *s;
}

/// The fault region of `config`, by the rule SynfiConfig documents: state
/// register bits for kStateRegister; otherwise every prefix-matching
/// combinationally driven bit, plus the prefix-matching input bits for
/// kControlInputs or kAny with include_inputs.
std::vector<SigBit> region_sites(const CompiledFsm& c, const SynfiConfig& config) {
  const rtlil::Module& module = *c.module;
  std::vector<SigBit> sites;
  if (config.target == sim::FaultTarget::kStateRegister) {
    const rtlil::Wire* w = module.wire(c.state_wire);
    for (int i = 0; i < w->width(); ++i) sites.emplace_back(w, i);
    return sites;
  }
  const auto driver = test::drivers(module);
  for (const rtlil::Wire* w : module.wires()) {
    if (!starts_with(w->name(), config.wire_prefix)) continue;
    for (int i = 0; i < w->width(); ++i) {
      if (w->is_input()) {
        if (config.target == sim::FaultTarget::kControlInputs ||
            (config.target == sim::FaultTarget::kAny && config.include_inputs)) {
          sites.emplace_back(w, i);
        }
        continue;
      }
      if (config.target == sim::FaultTarget::kControlInputs) continue;
      if (test::comb_driven(driver, SigBit(w, i))) sites.emplace_back(w, i);
    }
  }
  return sites;
}

/// Brute force: every k-combination of the region, one lane per edge, all
/// k faults injected; eval -> alert_pre -> latch -> eval -> alert_post, then
/// the back-end's classification lane by lane.
SynfiReport brute_force(const Subject& s, const SynfiConfig& config) {
  const CompiledFsm& c = s.variant;
  const std::vector<SigBit> sites = region_sites(c, config);
  SynfiReport report;
  report.faults_k = config.faults_k;
  report.sites = static_cast<std::int64_t>(sites.size());
  const auto k = static_cast<std::size_t>(config.faults_k);
  if (k > sites.size()) return report;

  sim::Simulator simulator(*c.module);
  const sim::Simulator::WireHandle symbol = simulator.input_handle(c.symbol_input_wire);
  const sim::Simulator::WireHandle state = simulator.probe(c.state_wire);
  sim::Simulator::WireHandle alert;
  if (!c.alert_wire.empty()) alert = simulator.probe(c.alert_wire);
  const std::vector<fsm::CfgEdge> edges = s.fsm.cfg_edges();
  std::vector<char> hit(sites.size(), 0);
  std::vector<std::size_t> combo(k);
  std::iota(combo.begin(), combo.end(), 0);
  for (bool more = true; more;) {
    for (std::size_t first = 0; first < edges.size(); first += sim::kWordLanes) {
      const int lanes =
          static_cast<int>(std::min<std::size_t>(sim::kWordLanes, edges.size() - first));
      simulator.clear_all_faults();
      for (int bit = 0; bit < state.width; ++bit) {
        std::uint64_t word = 0;
        for (int lane = 0; lane < lanes; ++lane) {
          const fsm::CfgEdge& e = edges[first + static_cast<std::size_t>(lane)];
          word |= ((c.state_codes[static_cast<std::size_t>(e.from)] >> bit) & 1) << lane;
        }
        simulator.set_register_word(state, bit, word);
      }
      for (int lane = 0; lane < lanes; ++lane) {
        const fsm::CfgEdge& e = edges[first + static_cast<std::size_t>(lane)];
        simulator.set_input_lane(symbol, lane, c.symbol_codes.at(e.symbol));
      }
      for (const std::size_t site : combo) {
        simulator.inject(sites[site], config.kind, sim::LaneMask::first_n(lanes));
      }
      simulator.eval();
      std::vector<bool> alert_pre(static_cast<std::size_t>(lanes));
      for (int lane = 0; lane < lanes && alert.valid(); ++lane) {
        alert_pre[static_cast<std::size_t>(lane)] = simulator.get_lane(alert, lane) != 0;
      }
      simulator.latch();
      simulator.eval();
      for (int lane = 0; lane < lanes; ++lane) {
        const fsm::CfgEdge& e = edges[first + static_cast<std::size_t>(lane)];
        const bool post = alert.valid() && simulator.get_lane(alert, lane) != 0;
        const std::uint64_t got = simulator.get_lane(state, lane);
        ++report.injections;
        if (got == c.state_codes[static_cast<std::size_t>(e.to)] &&
            !alert_pre[static_cast<std::size_t>(lane)]) {
          ++report.masked;
        } else if (alert_pre[static_cast<std::size_t>(lane)] || post ||
                   (c.has_error_state && got == c.error_code)) {
          ++report.detected;
        } else {
          ++report.exploitable;
          if (got == c.state_codes[static_cast<std::size_t>(e.from)]) ++report.stalls;
          for (const std::size_t site : combo) hit[site] = 1;
        }
      }
    }
    // Lexicographic successor.
    more = false;
    for (std::size_t i = k; i-- > 0;) {
      if (combo[i] < sites.size() - k + i) {
        ++combo[i];
        for (std::size_t j = i + 1; j < k; ++j) combo[j] = combo[j - 1] + 1;
        more = true;
        break;
      }
    }
  }
  for (std::size_t i = 0; i < sites.size(); ++i) {
    if (hit[i]) {
      report.exploitable_sites.push_back(sites[i].wire->name() + "[" +
                                         std::to_string(sites[i].offset) + "]");
    }
  }
  return report;
}

void expect_reports_equal(const SynfiReport& want, const SynfiReport& got,
                          const std::string& label) {
  EXPECT_EQ(want.sites, got.sites) << label;
  EXPECT_EQ(want.injections, got.injections) << label;
  EXPECT_EQ(want.exploitable, got.exploitable) << label;
  EXPECT_EQ(want.detected, got.detected) << label;
  EXPECT_EQ(want.masked, got.masked) << label;
  EXPECT_EQ(want.stalls, got.stalls) << label;
  EXPECT_EQ(want.exploitable_sites, got.exploitable_sites) << label;
  EXPECT_TRUE(want == got) << label;
}

/// Runs `config` through one Analyzer at threads 1/3 x lanes 64/512 and
/// compares each report with the brute force. Returns the observable site
/// count of the region so callers can pin the shape they meant to cover.
std::size_t expect_matches_brute_force(const Subject& s, const SynfiConfig& config,
                                       const std::string& label) {
  const SynfiReport want = brute_force(s, config);
  EXPECT_GT(want.injections, 0) << label;
  Analyzer analyzer(s.fsm, s.variant);
  std::size_t observable = 0;
  for (const int threads : {1, 3}) {
    for (const int lanes : {64, 512}) {
      SynfiConfig shaped = config;
      shaped.threads = threads;
      shaped.lanes = lanes;
      expect_reports_equal(want, analyzer.run(shaped),
                           label + " threads=" + std::to_string(threads) +
                               " lanes=" + std::to_string(lanes));
      observable = analyzer.last_observable_sites();
    }
  }
  return observable;
}

SynfiConfig region(const std::string& prefix, int k,
                   sim::FaultKind kind = sim::FaultKind::kTransientFlip) {
  SynfiConfig config;
  config.wire_prefix = prefix;
  config.faults_k = k;
  config.kind = kind;
  return config;
}

TEST(SynfiObservability, WholeLogicPwrmgrMatchesBruteForce) {
  // D >= k: every layer down to the fault-free batch contributes.
  const Subject& s = zoo_subject("pwrmgr_fsm");
  for (const int k : {1, 2}) {
    for (const auto kind : {sim::FaultKind::kTransientFlip, sim::FaultKind::kStuckAt0,
                            sim::FaultKind::kStuckAt1}) {
      const SynfiConfig config = region("", k, kind);
      const std::string label = "k=" + std::to_string(k) + " kind=" +
                                std::to_string(static_cast<int>(kind));
      const std::size_t live = expect_matches_brute_force(s, config, label);
      EXPECT_GE(region_sites(s.variant, config).size(), live + 2) << label;
    }
  }
}

TEST(SynfiObservability, Kiss2MachineAtK3MatchesBruteForce) {
  // Four layers, m = 3, 2, 1 and 0, each with its own weight C(D, 3 - m).
  const Subject& s = corpus_subject("mc");
  const SynfiConfig config = region("mds_", 3);
  const std::size_t live = expect_matches_brute_force(s, config, "mc mds_ k=3");
  EXPECT_GE(region_sites(s.variant, config).size(), live + 3);
}

TEST(SynfiObservability, FullyObservableRegionMatchesBruteForce) {
  // D = 0: the plain enumeration, one layer.
  const Subject& s = zoo_subject("pwrmgr_fsm");
  const SynfiConfig config = region("econd_", 2);
  EXPECT_EQ(expect_matches_brute_force(s, config, "econd_ k=2"),
            region_sites(s.variant, config).size());
}

TEST(SynfiObservability, FewerDeadSitesThanFaultsMatchesBruteForce) {
  // 0 < D < k: the layers stop at m = k - D, above the fault-free batch.
  const Subject& s = zoo_subject("pwrmgr_fsm");
  for (const int k : {2, 3}) {
    const SynfiConfig config = region("n", k);
    const std::size_t live =
        expect_matches_brute_force(s, config, "prefix n k=" + std::to_string(k));
    const std::size_t dead = region_sites(s.variant, config).size() - live;
    EXPECT_GT(dead, 0u);
    EXPECT_LT(dead, static_cast<std::size_t>(k));
  }
}

TEST(SynfiObservability, AllDeadRegionMatchesBruteForce) {
  // L = 0: only the fault-free batch, counted C(S, k) times.
  const Subject& s = zoo_subject("adc_ctrl_fsm");
  EXPECT_EQ(expect_matches_brute_force(s, region("dbg_", 2), "dbg_ k=2"), 0u);
}

TEST(SynfiObservability, IncludeInputsMatchesBruteForce) {
  const Subject& s = zoo_subject("pwrmgr_fsm");
  for (const int k : {1, 2}) {
    SynfiConfig config = region("", k);
    config.include_inputs = true;
    expect_matches_brute_force(s, config, "inputs k=" + std::to_string(k));
  }
}

TEST(SynfiObservability, StateTargetMatchesBruteForce) {
  const Subject& s = zoo_subject("pwrmgr_fsm");
  for (const auto kind : {sim::FaultKind::kTransientFlip, sim::FaultKind::kStuckAt1}) {
    SynfiConfig config = region("", 2, kind);
    config.target = sim::FaultTarget::kStateRegister;
    expect_matches_brute_force(s, config, "state kind=" + std::to_string(static_cast<int>(kind)));
  }
}

TEST(SynfiObservability, SkipCycleIsLiveOnlyOnConeRegisters) {
  // A skipped edge stalls the flip-flop whose Q it hits and is a no-op on
  // any other net. Every state-register site is such a Q in the cone, so
  // all of them are live; a logic region holds only combinationally driven
  // bits, so none of its sites is, and only the fault-free batch runs.
  const Subject& s = zoo_subject("pwrmgr_fsm");
  SynfiConfig state = region("", 2, sim::FaultKind::kSkipCycle);
  state.target = sim::FaultTarget::kStateRegister;
  EXPECT_EQ(expect_matches_brute_force(s, state, "skip state k=2"),
            region_sites(s.variant, state).size());
  for (const int k : {1, 2}) {
    const std::string label = "skip logic k=" + std::to_string(k);
    EXPECT_EQ(
        expect_matches_brute_force(s, region("", k, sim::FaultKind::kSkipCycle), label), 0u);
  }
}

TEST(SynfiObservability, SimulatedInjectionsCountOnlyLiveLayers) {
  // Whole-logic otbn_controller at k = 2: layers m = 2 and 1 are
  // simulated, the fault-free batch is not counted.
  const Subject& otbn = zoo_subject("otbn_controller");
  Analyzer analyzer(otbn.fsm, otbn.variant);
  SynfiConfig whole = region("", 2);
  whole.lanes = 512;
  const SynfiReport report = analyzer.run(whole);
  const std::uint64_t live = analyzer.last_observable_sites();
  const std::uint64_t edges = otbn.fsm.cfg_edges().size();
  ASSERT_EQ(edges, 15u);
  EXPECT_EQ(report.sites, 1185);
  EXPECT_EQ(report.injections, 10522800);  // C(1185, 2) x 15
  EXPECT_LT(live, 1185u);
  EXPECT_EQ(analyzer.last_simulated_injections(), (live * (live - 1) / 2 + live) * edges);
  EXPECT_LT(analyzer.last_simulated_injections(), 10522800u / 100);

  // D = 0: exactly what the report counts.
  const Subject& pwrmgr = zoo_subject("pwrmgr_fsm");
  Analyzer small(pwrmgr.fsm, pwrmgr.variant);
  const SynfiReport full = small.run(region("econd_", 2));
  EXPECT_EQ(small.last_observable_sites(), static_cast<std::size_t>(full.sites));
  EXPECT_EQ(small.last_simulated_injections(), static_cast<std::uint64_t>(full.injections));

  // The SAT back-end simulates nothing.
  SynfiConfig sat = region("econd_", 1);
  sat.backend = Backend::kSat;
  small.run(sat);
  EXPECT_EQ(small.last_simulated_injections(), 0u);
  EXPECT_EQ(small.last_observable_sites(), 0u);
}

TEST(SynfiObservability, ZooWholeLogicK2MatchesPerfbenchReference) {
  // The committed reference store of the k = 2 whole-logic zoo sweep, read
  // from the repository root or the build directory.
  const std::string rel = "perfbench/reference/synfi_k2_logic.jsonl";
  sweep::ResultStore reference = sweep::ResultStore::load(rel);
  if (reference.size() == 0) reference = sweep::ResultStore::load("../" + rel);
  ASSERT_EQ(reference.size(), 7u) << rel << " not found";

  const std::vector<sweep::SweepJob> jobs = sweep::expand_jobs("*", {2}, {region("", 2)});
  ASSERT_EQ(jobs.size(), 7u);
  sweep::SweepConfig config;
  config.jobs = 2;
  config.threads = 3;
  sweep::ResultStore store;
  EXPECT_EQ(sweep::SweepOrchestrator(config).run(jobs, store).executed, 7);
  for (const sweep::SweepJob& job : jobs) {
    const sweep::SweepResult* want = reference.find(job.key());
    const sweep::SweepResult* got = store.find(job.key());
    ASSERT_NE(want, nullptr) << job.key();
    ASSERT_NE(got, nullptr) << job.key();
    expect_reports_equal(want->report, got->report, job.key());
    EXPECT_EQ(want->protection_degree, got->protection_degree) << job.key();
  }
}

}  // namespace
}  // namespace scfi::synfi
