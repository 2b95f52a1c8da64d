// The k-fault threat-model layer: the Sinz cardinality counter the SAT
// back-end builds its exactly-k miters from, the k-fault SYNFI sweep
// against brute-force multi-injection simulation, the paper's distance
// claim (an encoding with minimum distance d tolerates every k < d and
// breaks first at k = d), the clock-glitch fault kind, auto lane
// selection, and the schema-v6 store plumbing that records it all.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "base/error.h"
#include "core/harden.h"
#include "fsm/kiss2.h"
#include "ot/zoo.h"
#include "rtlil/design.h"
#include "sat/miter.h"
#include "sat/solver.h"
#include "sim/campaign.h"
#include "sim/netlist_sim.h"
#include "sweep/result_store.h"
#include "synfi/synfi.h"
#include "synfi_oracle.h"
#include "test_helpers.h"

namespace scfi {
namespace {

using fsm::CompiledFsm;
using fsm::Fsm;

// ---------------------------------------------------------------------------
// CardinalityCounter: the bidirectional Sinz sequential counter.

/// Auxiliary variables the ragged counter matrix materializes: one s_{i,j}
/// per j in [0, min(k_max, n-1)] and i in [j, n).
int expected_counter_vars(int n, int k_max) {
  int vars = 0;
  for (int j = 0; j <= std::min(k_max, n - 1); ++j) vars += n - j;
  return vars;
}

TEST(CardinalityCounter, PinnedCnfShape) {
  // n = 5, k_max = 2: rows j = 0..2 of lengths 5, 4, 3 -> 12 aux vars.
  sat::Solver solver;
  std::vector<sat::Lit> sels;
  for (int i = 0; i < 5; ++i) sels.push_back(solver.new_var());
  const int base = solver.num_vars();
  const sat::CardinalityCounter counter(solver, sels, 2);
  EXPECT_EQ(solver.num_vars() - base, 12);
  EXPECT_EQ(expected_counter_vars(5, 2), 12);
  EXPECT_EQ(counter.k_max(), 2);
  EXPECT_EQ(counter.num_inputs(), 5);
  // Thresholds above the encoded rows (and below 1) are caller bugs.
  EXPECT_NO_THROW(counter.at_least(1));
  EXPECT_NO_THROW(counter.at_least(3));  // one row above k_max is kept
  EXPECT_THROW(counter.at_least(0), LogicBug);
  EXPECT_THROW(counter.at_least(4), LogicBug);
  EXPECT_THROW(counter.assume_exactly(3), LogicBug);

  // k_max >= n - 1 encodes every row once — never more.
  sat::Solver full;
  std::vector<sat::Lit> all;
  for (int i = 0; i < 4; ++i) all.push_back(full.new_var());
  const int full_base = full.num_vars();
  const sat::CardinalityCounter saturated(full, all, 7);
  EXPECT_EQ(full.num_vars() - full_base, expected_counter_vars(4, 7));
  EXPECT_EQ(expected_counter_vars(4, 7), 4 + 3 + 2 + 1);
}

/// Forces the assignment `bits` of `sels` as assumptions and reports
/// whether the solver accepts it under the extra assumption set.
bool assignment_sat(sat::Solver& solver, const std::vector<sat::Lit>& sels,
                    unsigned bits, const std::vector<sat::Lit>& extra) {
  std::vector<sat::Lit> assumptions;
  for (std::size_t i = 0; i < sels.size(); ++i) {
    assumptions.push_back((bits >> i) & 1 ? sels[i] : -sels[i]);
  }
  assumptions.insert(assumptions.end(), extra.begin(), extra.end());
  return solver.solve(assumptions) == sat::Result::kSat;
}

TEST(CardinalityCounter, ExhaustiveModelCountMatchesNaive) {
  // Every assignment of up to 12 selector variables, checked against the
  // popcount ground truth for every threshold: the counter must accept
  // exactly the assignments the naive count accepts — the bidirectional
  // encoding may neither over- nor under-constrain in either direction.
  for (const int n : {3, 6, 12}) {
    sat::Solver solver;
    std::vector<sat::Lit> sels;
    for (int i = 0; i < n; ++i) sels.push_back(solver.new_var());
    const int k_max = std::min(n, 5);
    const sat::CardinalityCounter counter(solver, sels, k_max);
    for (unsigned bits = 0; bits < (1u << n); ++bits) {
      const int pop = __builtin_popcount(bits);
      for (int k = 0; k <= k_max; ++k) {
        EXPECT_EQ(assignment_sat(solver, sels, bits, counter.assume_exactly(k)),
                  pop == k)
            << "n=" << n << " bits=" << bits << " exactly " << k;
        EXPECT_EQ(assignment_sat(solver, sels, bits, counter.assume_at_most(k)),
                  pop <= k)
            << "n=" << n << " bits=" << bits << " at most " << k;
      }
      // The at_least literals are usable directly as assumptions too.
      for (int c = 1; c <= std::min(k_max + 1, n); ++c) {
        EXPECT_EQ(assignment_sat(solver, sels, bits, {counter.at_least(c)}), pop >= c)
            << "n=" << n << " bits=" << bits << " at least " << c;
        EXPECT_EQ(assignment_sat(solver, sels, bits, {-counter.at_least(c)}), pop < c)
            << "n=" << n << " bits=" << bits << " fewer than " << c;
      }
    }
  }
}

TEST(CardinalityCounter, ModelCountsWithFreeSelectors) {
  // With nothing forced, the number of models of exactly-k must be C(n, k):
  // enumerate by blocking clauses.
  sat::Solver solver;
  std::vector<sat::Lit> sels;
  const int n = 6;
  for (int i = 0; i < n; ++i) sels.push_back(solver.new_var());
  const sat::CardinalityCounter counter(solver, sels, n);
  const int binomial[7] = {1, 6, 15, 20, 15, 6, 1};
  for (int k = 0; k <= n; ++k) {
    sat::Solver fresh;
    std::vector<sat::Lit> fs;
    for (int i = 0; i < n; ++i) fs.push_back(fresh.new_var());
    const sat::CardinalityCounter fc(fresh, fs, n);
    const std::vector<sat::Lit> exactly = fc.assume_exactly(k);
    int models = 0;
    while (fresh.solve(exactly) == sat::Result::kSat) {
      ++models;
      ASSERT_LE(models, binomial[k]) << "k=" << k;
      std::vector<sat::Lit> blocking;
      for (const sat::Lit s : fs) blocking.push_back(fresh.value(s) ? -s : s);
      fresh.add_clause(blocking);
    }
    EXPECT_EQ(models, binomial[k]) << "k=" << k;
  }
}

// ---------------------------------------------------------------------------
// k-fault SYNFI: brute-force combination sweep vs the cardinality miter.

/// The handshake corpus machine hardened at `level` — small enough that a
/// whole-region k = 2 sweep (C(75, 2) x 8 edges) takes milliseconds.
CompiledFsm handshake_variant(rtlil::Design& design, int level) {
  std::FILE* f = std::fopen("bench/corpus/handshake.kiss2", "rb");
  if (f == nullptr) {
    // ctest may run from the build directory.
    f = std::fopen("../bench/corpus/handshake.kiss2", "rb");
  }
  EXPECT_NE(f, nullptr) << "bench/corpus/handshake.kiss2 not found";
  std::string text;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
  std::fclose(f);
  const Fsm fsm = fsm::parse_kiss2(text, "handshake");
  core::ScfiConfig config;
  config.protection_level = level;
  return core::scfi_harden(fsm, design, config);
}

Fsm handshake_fsm() {
  rtlil::Design scratch;
  std::FILE* f = std::fopen("bench/corpus/handshake.kiss2", "rb");
  if (f == nullptr) f = std::fopen("../bench/corpus/handshake.kiss2", "rb");
  EXPECT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
  std::fclose(f);
  return fsm::parse_kiss2(text, "handshake");
}

TEST(KFaultSynfi, SimCombinationsAgreeWithSatParticipation) {
  // The exhaustive back-end enumerates C(sites, 2) x edges double
  // injections; the SAT back-end asks, per (site, edge), whether some
  // exactly-2 fault set including the site is exploitable. The *site sets*
  // they surface must be identical: a site participates in an exploitable
  // pair iff some pair containing it simulates as exploitable.
  rtlil::Design d;
  const Fsm f = handshake_fsm();
  const CompiledFsm c = handshake_variant(d, 2);
  synfi::SynfiConfig sim_config;
  sim_config.wire_prefix = "";
  sim_config.faults_k = 2;
  const synfi::SynfiReport sim_report = synfi::analyze(f, c, sim_config);

  synfi::SynfiConfig sat_config = sim_config;
  sat_config.backend = synfi::Backend::kSat;
  const synfi::SynfiReport sat_report = synfi::analyze(f, c, sat_config);

  EXPECT_EQ(sim_report.sites, sat_report.sites);
  EXPECT_GT(sim_report.exploitable, 0);
  EXPECT_GT(sat_report.exploitable, 0);
  const std::set<std::string> sim_sites(sim_report.exploitable_sites.begin(),
                                        sim_report.exploitable_sites.end());
  const std::set<std::string> sat_sites(sat_report.exploitable_sites.begin(),
                                        sat_report.exploitable_sites.end());
  EXPECT_EQ(sim_sites, sat_sites);

  // The rebuild-per-query SAT path answers the same participation queries.
  EXPECT_TRUE(test::sat_rebuild_oracle(f, c, sat_config) == sat_report);
}

TEST(KFaultSynfi, KLargerThanSitesIsEmptySweep) {
  // Asking for more concurrent faults than the region has sites is a
  // well-defined empty sweep, not an error: C(n, k) = 0 for k > n.
  rtlil::Design d;
  const Fsm f = test::toggle_fsm();
  core::ScfiConfig hc;
  hc.protection_level = 2;
  const CompiledFsm c = core::scfi_harden(f, d, hc);
  synfi::SynfiConfig config;
  config.target = sim::FaultTarget::kStateRegister;
  config.faults_k = 1000;
  const synfi::SynfiReport r = synfi::analyze(f, c, config);
  EXPECT_GT(r.sites, 0);
  EXPECT_EQ(r.injections, 0);
  EXPECT_EQ(r.exploitable, 0);
}

TEST(KFaultSynfi, ReportInvariantAcrossLanesAndThreads) {
  // The k-fault combination stream shards by combination rank; like the
  // k = 1 sweep, every lanes/threads combination must produce the
  // bit-identical report.
  rtlil::Design d;
  const Fsm f = handshake_fsm();
  const CompiledFsm c = handshake_variant(d, 2);
  synfi::SynfiConfig base;
  base.wire_prefix = "";
  base.faults_k = 2;
  const synfi::SynfiReport reference = synfi::analyze(f, c, base);
  for (const int lanes : {1, 64, 128}) {
    for (const int threads : {1, 3}) {
      synfi::SynfiConfig config = base;
      config.lanes = lanes;
      config.threads = threads;
      EXPECT_TRUE(synfi::analyze(f, c, config) == reference)
          << "lanes=" << lanes << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// The distance claim (paper R1/R2): no exploitable set below d, break at d.

TEST(KFaultSynfi, DistanceClaimLevel2) {
  rtlil::Design d;
  const Fsm f = handshake_fsm();
  const CompiledFsm c = handshake_variant(d, 2);
  synfi::Analyzer analyzer(f, c);
  // Default mds_ region: the claim is about the encoded state vector; the
  // whole-module region also covers the unencoded selector network, whose
  // residual single points of failure (§7) are measured separately below.
  synfi::SynfiConfig config;
  config.faults_k = 1;
  EXPECT_EQ(analyzer.run(config).exploitable, 0) << "single fault beat distance 2";
  config.faults_k = 2;
  const synfi::SynfiReport broken = analyzer.run(config);
  EXPECT_GT(broken.exploitable, 0) << "distance 2 must break at k = 2";
  EXPECT_EQ(synfi::measured_protection_degree(analyzer, config, broken), 2);
  // Probing past d still reports the smallest exploitable k; a report of
  // another k is rejected rather than read as the faults_k answer.
  config.faults_k = 3;
  EXPECT_EQ(synfi::measured_protection_degree(analyzer, config, analyzer.run(config)), 2);
  EXPECT_THROW(synfi::measured_protection_degree(analyzer, config, broken), ScfiError);
}

TEST(KFaultSynfi, DistanceClaimLevel3) {
  rtlil::Design d;
  const Fsm f = handshake_fsm();
  const CompiledFsm c = handshake_variant(d, 3);
  synfi::Analyzer analyzer(f, c);
  synfi::SynfiConfig config;  // default mds_ region, as in DistanceClaimLevel2
  for (int k = 1; k < 3; ++k) {
    config.faults_k = k;
    EXPECT_EQ(analyzer.run(config).exploitable, 0) << k << " faults beat distance 3";
  }
  config.faults_k = 3;
  const synfi::SynfiReport broken = analyzer.run(config);
  EXPECT_GT(broken.exploitable, 0) << "distance 3 must break at k = 3";
  EXPECT_EQ(synfi::measured_protection_degree(analyzer, config, broken), 3);
}

TEST(KFaultSynfi, DistanceClaimZooMdsRegion) {
  // The §6.4 experiment region on a real zoo module: the level-2 diffusion
  // layer of pwrmgr_fsm tolerates every single fault and breaks first at
  // two concurrent faults.
  const ot::OtEntry entry = ot::ot_entry("pwrmgr_fsm");
  rtlil::Design d;
  const CompiledFsm c =
      ot::build_ot_variant(entry, d, ot::Variant::kScfi, 2, "pwrmgr_kfault");
  synfi::Analyzer analyzer(entry.fsm, c);
  synfi::SynfiConfig config;  // default mds_ region
  config.faults_k = 1;
  EXPECT_EQ(analyzer.run(config).exploitable, 0);
  config.faults_k = 2;
  const synfi::SynfiReport broken = analyzer.run(config);
  EXPECT_GT(broken.exploitable, 0);
  EXPECT_EQ(broken.faults_k, 2);
  EXPECT_EQ(synfi::measured_protection_degree(analyzer, config, broken), 2);
}

// ---------------------------------------------------------------------------
// Campaigns: FaultSpec semantics and the clock-glitch kind.

TEST(KFaultCampaign, MultiFaultRunsClassifyEveryRun) {
  rtlil::Design d;
  const Fsm f = test::synfi_fsm();
  core::ScfiConfig hc;
  hc.protection_level = 2;
  const CompiledFsm c = core::scfi_harden(f, d, hc);
  sim::CampaignConfig config;
  config.runs = 400;
  config.cycles = 10;
  config.fault.k = 3;
  config.seed = 11;
  const sim::CampaignResult r = sim::run_campaign(f, c, config);
  EXPECT_EQ(r.runs, 400);
  EXPECT_EQ(r.masked + r.effective(), r.runs);
  // Three concurrent faults must not be gentler than one.
  sim::CampaignConfig single = config;
  single.fault.k = 1;
  const sim::CampaignResult one = sim::run_campaign(f, c, single);
  EXPECT_GE(r.effective(), one.effective());
}

TEST(KFaultCampaign, MultiKindSpecDrawsEveryKind) {
  // A {flip, skip} spec must actually schedule both kinds: its result
  // diverges from both pure-flip and pure-skip campaigns with the same
  // seed (the extra kind draw perturbs the plan stream by design — only
  // single-kind specs promise bit-identity with the historical planner).
  rtlil::Design d;
  const Fsm f = test::synfi_fsm();
  core::ScfiConfig hc;
  hc.protection_level = 2;
  const CompiledFsm c = core::scfi_harden(f, d, hc);
  sim::CampaignConfig mixed;
  mixed.runs = 600;
  mixed.cycles = 12;
  mixed.seed = 23;
  mixed.fault.kinds = {sim::FaultKind::kTransientFlip, sim::FaultKind::kSkipCycle};
  const sim::CampaignResult both = sim::run_campaign(f, c, mixed);
  EXPECT_EQ(both.runs, 600);

  sim::CampaignConfig flips = mixed;
  flips.fault.kinds = {sim::FaultKind::kTransientFlip};
  sim::CampaignConfig skips = mixed;
  skips.fault.kinds = {sim::FaultKind::kSkipCycle};
  const sim::CampaignResult flip_only = sim::run_campaign(f, c, flips);
  const sim::CampaignResult skip_only = sim::run_campaign(f, c, skips);
  EXPECT_FALSE(both == flip_only);
  EXPECT_FALSE(both == skip_only);
}

TEST(KFaultCampaign, SingleFaultInvariantAcrossLanesThreadsPlanners) {
  // The k = 1 acceptance bar: one FaultSpec result, bit-identical for
  // every lanes/threads combination.
  rtlil::Design d;
  const Fsm f = test::synfi_fsm();
  core::ScfiConfig hc;
  hc.protection_level = 2;
  const CompiledFsm c = core::scfi_harden(f, d, hc);
  sim::CampaignConfig base;
  base.runs = 500;
  base.cycles = 12;
  base.seed = 9;
  const sim::CampaignResult reference = sim::run_campaign(f, c, base);
  for (const int lanes : {1, 64, 128}) {
    for (const int threads : {1, 3}) {
      sim::CampaignConfig config = base;
      config.lanes = lanes;
      config.threads = threads;
      EXPECT_TRUE(sim::run_campaign(f, c, config) == reference)
          << "lanes=" << lanes << " threads=" << threads;
    }
  }
}

TEST(Simulator, SkipCycleStallsTheRegisterForOneEdge) {
  using rtlil::Const;
  using rtlil::SigSpec;
  rtlil::Design d;
  rtlil::Module* m = d.add_module("skip");
  rtlil::Wire* a = m->add_input("a", 1);
  rtlil::Wire* q = m->add_output("q", 1);
  const SigSpec reg = m->make_dff(SigSpec(a), Const::from_uint(0, 1));
  m->drive(SigSpec(q), reg);
  sim::Simulator s(*m);
  s.set_input("a", 1);
  s.step();
  EXPECT_EQ(s.get("q"), 1u);
  // Glitch the clock of the FF driving q: the next edge is skipped (the
  // register keeps 1 instead of latching 0), then the FF re-arms.
  s.set_input("a", 0);
  s.inject(reg.bit(0), sim::FaultKind::kSkipCycle);
  EXPECT_EQ(s.pending_skip_ffs(), 1);
  s.step();
  EXPECT_EQ(s.get("q"), 1u);  // held across the skipped edge
  EXPECT_EQ(s.pending_skip_ffs(), 0);
  s.step();
  EXPECT_EQ(s.get("q"), 0u);  // normal latching resumed
}

TEST(Simulator, SkipCycleOnNonRegisterNetIsNoOp) {
  using rtlil::SigSpec;
  rtlil::Design d;
  rtlil::Module* m = d.add_module("skip_noop");
  rtlil::Wire* a = m->add_input("a", 1);
  rtlil::Wire* y = m->add_output("y", 1);
  const SigSpec n = m->make_not(SigSpec(a), "inv");
  m->drive(SigSpec(y), n);
  sim::Simulator s(*m);
  s.set_input("a", 0);
  s.inject(n.bit(0), sim::FaultKind::kSkipCycle);  // a glitch starves a
  EXPECT_EQ(s.pending_skip_ffs(), 0);              // register, not a wire
  s.eval();
  EXPECT_EQ(s.get("y"), 1u);
}

TEST(KFaultSynfi, SatBackendRejectsSkipCycle) {
  rtlil::Design d;
  const Fsm f = test::toggle_fsm();
  core::ScfiConfig hc;
  hc.protection_level = 2;
  const CompiledFsm c = core::scfi_harden(f, d, hc);
  synfi::SynfiConfig config;
  config.backend = synfi::Backend::kSat;
  config.kind = sim::FaultKind::kSkipCycle;
  EXPECT_THROW(synfi::analyze(f, c, config), ScfiError);
  // The exhaustive back-end simulates it fine.
  config.backend = synfi::Backend::kExhaustiveSim;
  config.wire_prefix = "";
  const synfi::SynfiReport r = synfi::analyze(f, c, config);
  EXPECT_GT(r.injections, 0);
}

// ---------------------------------------------------------------------------
// auto_lanes and the store-side threat-model plumbing.

TEST(AutoLanes, BoundedAndMonotonic) {
  // Small modules peak at 128-256 lanes (BENCH_sim.json synfi_best_lanes);
  // every result is a supported lane-block width.
  rtlil::Design d;
  const Fsm tiny = test::toggle_fsm();
  core::ScfiConfig hc;
  hc.protection_level = 2;
  const CompiledFsm small = core::scfi_harden(tiny, d, hc);
  const int small_lanes = synfi::auto_lanes(*small.module);
  EXPECT_EQ(small_lanes, 256) << "a toggle FSM fits the full 256-lane budget";
  for (const auto& name : {"pwrmgr_fsm", "aes_control"}) {
    const ot::OtEntry entry = ot::ot_entry(name);
    rtlil::Design zd;
    const CompiledFsm c = ot::build_ot_variant(entry, zd, ot::Variant::kScfi, 2,
                                               std::string(name) + "_auto_lanes");
    const int lanes = synfi::auto_lanes(*c.module);
    EXPECT_TRUE(lanes == 64 || lanes == 128 || lanes == 256) << name;
    EXPECT_LE(lanes, small_lanes) << name << ": bigger module, narrower block";
  }
}

TEST(ResultStoreKFault, FaultKindSetNamesRoundTrip) {
  using sweep::fault_kinds_name;
  using sweep::fault_kinds_of;
  EXPECT_EQ(fault_kinds_name({sim::FaultKind::kTransientFlip}), "flip");
  EXPECT_EQ(fault_kinds_name({sim::FaultKind::kTransientFlip, sim::FaultKind::kSkipCycle}),
            "flip+skip");
  const std::vector<sim::FaultKind> parsed = fault_kinds_of("flip+skip");
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_TRUE(parsed[0] == sim::FaultKind::kTransientFlip);
  EXPECT_TRUE(parsed[1] == sim::FaultKind::kSkipCycle);
  EXPECT_EQ(fault_kinds_name(fault_kinds_of("stuck0+stuck1")), "stuck0+stuck1");
  EXPECT_THROW(fault_kinds_name({}), ScfiError);
  EXPECT_THROW(fault_kinds_of(""), ScfiError);
  EXPECT_THROW(fault_kinds_of("flip+"), ScfiError);
  EXPECT_THROW(fault_kinds_of("flip+warp"), ScfiError);
}

TEST(ResultStoreKFault, ThreatModelEntersTheKeyOnlyWhenWidened) {
  // Pre-v6 keys must stay byte-identical: the |t=/|k= segments appear only
  // when the job departs from the single-fault any-target sweep.
  sweep::SweepJob job;
  job.module = "pwrmgr_fsm";
  EXPECT_EQ(job.key(), "pwrmgr_fsm|scfi|n2|r=mds_|sim|flip");
  job.synfi.faults_k = 2;
  EXPECT_EQ(job.key(), "pwrmgr_fsm|scfi|n2|r=mds_|sim|flip|k=2");
  job.synfi.target = sim::FaultTarget::kStateRegister;
  EXPECT_EQ(job.key(), "pwrmgr_fsm|scfi|n2|r=mds_|sim|flip|t=state|k=2");
  job.synfi.faults_k = 1;
  EXPECT_EQ(job.key(), "pwrmgr_fsm|scfi|n2|r=mds_|sim|flip|t=state");

  sweep::SweepJob campaign;
  campaign.type = sweep::JobType::kCampaign;
  campaign.module = "pwrmgr_fsm";
  campaign.campaign.runs = 100;
  campaign.campaign.cycles = 8;
  campaign.campaign.fault.k = 2;
  campaign.campaign.fault.kinds = {sim::FaultKind::kTransientFlip,
                                   sim::FaultKind::kSkipCycle};
  EXPECT_EQ(campaign.key(), "pwrmgr_fsm|scfi|n2|mc|flip+skip|t=any|runs=100|c=8|f=2|s=1");
}

}  // namespace
}  // namespace scfi
