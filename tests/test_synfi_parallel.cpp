// Equivalence of the batched/incremental SYNFI engines with the scalar seed
// path: for every lanes/threads combination (including lanes=1/threads=1,
// which literally replays the one-(site,edge)-job-per-pass flow) the
// SynfiReport must be bit-identical — every counter and the exact
// `exploitable_sites` order. Covers the KISS2 corpus, the OT zoo, and the
// assumption-based SAT backend against the per-query miter-rebuild oracle
// (synfi_oracle.h). SynfiEdgeMajor pins the edge-major incremental SAT
// engine against that per-(site, edge) oracle at k = 1, 2, 3 and 5, on
// regions with and without sites outside the state/alert cone, and its
// solve-call budget. SynfiParallelSegments checks the exhaustive engine's
// segments (a combination's run of lanes, injected once) on an 81-edge
// machine, whose combinations span batches, and on a 12-edge one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "base/error.h"
#include "base/retry.h"
#include "core/harden.h"
#include "fsm/kiss2.h"
#include "kiss2_corpus.h"
#include "ot/zoo.h"
#include "rtlil/design.h"
#include "sim/lane_classifier.h"
#include "synfi/exploit_miter.h"
#include "synfi/synfi.h"
#include "synfi_oracle.h"
#include "test_helpers.h"

namespace scfi::synfi {
namespace {

using fsm::CompiledFsm;
using fsm::Fsm;

struct LanesThreads {
  int lanes;
  int threads;
};

// Scalar reference first; batched, threaded, and ragged (non-power-of-two)
// shapes after it, then every multi-word lane-block width (lane_words in
// {2, 4, 8} -> 128/256/512 lanes) at 1 and 4 threads plus a ragged wide
// shape, so the SoA block layout is pinned against the scalar path too.
const std::vector<LanesThreads>& combos() {
  static const std::vector<LanesThreads> kCombos = {
      {1, 1},   {64, 1},  {64, 4},  {7, 3},   {1, 4},   {33, 2},
      {128, 1}, {128, 4}, {256, 1}, {256, 4}, {512, 1}, {512, 4},
      {100, 3},
  };
  return kCombos;
}

CompiledFsm harden(const Fsm& f, rtlil::Design& d, int n) {
  core::ScfiConfig config;
  config.protection_level = n;
  return core::scfi_harden(f, d, config);
}

SynfiReport analyze_with(const Fsm& f, const CompiledFsm& c, SynfiConfig config, int lanes,
                         int threads) {
  config.lanes = lanes;
  config.threads = threads;
  return analyze(f, c, config);
}

void expect_reports_equal(const SynfiReport& ref, const SynfiReport& got,
                          const std::string& label) {
  EXPECT_EQ(ref.sites, got.sites) << label;
  EXPECT_EQ(ref.injections, got.injections) << label;
  EXPECT_EQ(ref.exploitable, got.exploitable) << label;
  EXPECT_EQ(ref.detected, got.detected) << label;
  EXPECT_EQ(ref.masked, got.masked) << label;
  EXPECT_EQ(ref.stalls, got.stalls) << label;
  EXPECT_EQ(ref.exploitable_sites, got.exploitable_sites) << label;
  EXPECT_TRUE(ref == got) << label;
}

void check_lane_thread_invariance(const Fsm& f, const CompiledFsm& c, const SynfiConfig& base,
                                  const std::string& label) {
  const SynfiReport ref = analyze_with(f, c, base, /*lanes=*/1, /*threads=*/1);
  EXPECT_EQ(ref.masked + ref.detected + ref.exploitable, ref.injections) << label;
  for (const LanesThreads& lt : combos()) {
    const SynfiReport got = analyze_with(f, c, base, lt.lanes, lt.threads);
    expect_reports_equal(ref, got,
                         label + " lanes=" + std::to_string(lt.lanes) +
                             " threads=" + std::to_string(lt.threads));
  }
}

class CorpusParallel : public ::testing::TestWithParam<int> {
 protected:
  Fsm load() const {
    const test::Kiss2Bench& bench = test::kKiss2Corpus[static_cast<std::size_t>(GetParam())];
    return fsm::parse_kiss2(std::string(bench.text), std::string(bench.name));
  }
};

TEST_P(CorpusParallel, ExhaustiveWholeLogicInvariant) {
  const Fsm f = load();
  rtlil::Design d;
  const CompiledFsm c = harden(f, d, 2);
  SynfiConfig config;
  config.wire_prefix = "";  // every combinational net, including non-MDS logic
  check_lane_thread_invariance(f, c, config, f.name + " whole-logic");
}

TEST_P(CorpusParallel, ExhaustiveStuckAtInvariant) {
  const Fsm f = load();
  rtlil::Design d;
  const CompiledFsm c = harden(f, d, 2);
  SynfiConfig config;
  config.wire_prefix = "";
  config.kind = sim::FaultKind::kStuckAt1;
  check_lane_thread_invariance(f, c, config, f.name + " stuck-at-1");
}

TEST_P(CorpusParallel, SatIncrementalMatchesRebuild) {
  const Fsm f = load();
  rtlil::Design d;
  const CompiledFsm c = harden(f, d, 2);
  SynfiConfig config;
  config.backend = Backend::kSat;

  const SynfiReport rebuild = test::sat_rebuild_oracle(f, c, config);
  const SynfiReport incremental = analyze_with(f, c, config, 1, 1);
  expect_reports_equal(rebuild, incremental, f.name + " sat incremental-vs-rebuild");
  for (const LanesThreads& lt : combos()) {
    const SynfiReport got = analyze_with(f, c, config, lt.lanes, lt.threads);
    expect_reports_equal(rebuild, got,
                         f.name + " sat threads=" + std::to_string(lt.threads));
  }

  // And the SAT verdicts agree with the exhaustive simulation on the same
  // region (the fine-grained detected/masked split differs by design).
  SynfiConfig sim_config;
  const SynfiReport sim_report = analyze(f, c, sim_config);
  EXPECT_EQ(sim_report.injections, rebuild.injections);
  EXPECT_EQ(sim_report.exploitable, rebuild.exploitable);
  EXPECT_EQ(sim_report.exploitable_sites, rebuild.exploitable_sites);
}

INSTANTIATE_TEST_SUITE_P(Kiss2, CorpusParallel,
                         ::testing::Range(0, static_cast<int>(test::kKiss2Corpus.size())),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(
                               test::kKiss2Corpus[static_cast<std::size_t>(info.param)].name);
                         });

class ZooParallel : public ::testing::TestWithParam<const char*> {};

TEST_P(ZooParallel, ExhaustiveMdsRegionInvariant) {
  const ot::OtEntry entry = ot::ot_entry(GetParam());
  rtlil::Design d;
  const CompiledFsm c =
      ot::build_ot_variant(entry, d, ot::Variant::kScfi, 2, entry.name + "_synfi");
  SynfiConfig config;  // default "mds_" region
  check_lane_thread_invariance(entry.fsm, c, config, entry.name + " mds");
}

TEST_P(ZooParallel, ExhaustiveWholeModuleInvariant) {
  // Whole-module sweep: fault sites include the datapath cone, whose
  // carried-over register state must not leak into the per-job outcomes.
  const ot::OtEntry entry = ot::ot_entry(GetParam());
  rtlil::Design d;
  const CompiledFsm c =
      ot::build_ot_variant(entry, d, ot::Variant::kScfi, 2, entry.name + "_synfi_w");
  SynfiConfig config;
  config.wire_prefix = "";
  check_lane_thread_invariance(entry.fsm, c, config, entry.name + " whole-module");
}

INSTANTIATE_TEST_SUITE_P(OtZoo, ZooParallel,
                         ::testing::Values("pwrmgr_fsm", "aes_control"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

TEST(SynfiParallel, ZooSatIncrementalMatchesRebuild) {
  const ot::OtEntry entry = ot::ot_entry("pwrmgr_fsm");
  rtlil::Design d;
  const CompiledFsm c =
      ot::build_ot_variant(entry, d, ot::Variant::kScfi, 2, "pwrmgr_synfi_sat");
  SynfiConfig config;
  config.backend = Backend::kSat;
  const SynfiReport rebuild = test::sat_rebuild_oracle(entry.fsm, c, config);
  for (const int threads : {1, 3}) {
    const SynfiReport got = analyze_with(entry.fsm, c, config, 1, threads);
    expect_reports_equal(rebuild, got, "pwrmgr sat threads=" + std::to_string(threads));
  }
}

TEST(SynfiParallel, Sec64ExperimentPinnedAcrossEngines) {
  // The §6.4 experiment analog (bench_sec64_synfi): the whole-logic
  // transient sweep of the hardened 14-transition FSM. The counters are
  // pinned to the values the scalar seed path produces, so any engine or
  // hardening change that shifts them is caught here first.
  rtlil::Design d;
  const Fsm f = test::synfi_fsm();
  const CompiledFsm c = harden(f, d, 2);
  SynfiConfig config;
  config.wire_prefix = "";
  for (const LanesThreads& lt : combos()) {
    const SynfiReport r = analyze_with(f, c, config, lt.lanes, lt.threads);
    EXPECT_EQ(r.sites, 130);
    EXPECT_EQ(r.injections, 1820);
    EXPECT_EQ(r.exploitable, 36);
    EXPECT_EQ(r.stalls, 7);
    EXPECT_EQ(r.masked + r.detected + r.exploitable, r.injections);
  }
  // The MDS diffusion region itself stays fully protected — checked at the
  // widest lane block so the 8-word path is pinned here too.
  SynfiConfig mds;
  const SynfiReport r = analyze_with(f, c, mds, sim::kMaxLanes, 2);
  EXPECT_EQ(r.injections, 1050);
  EXPECT_EQ(r.exploitable, 0);
}

TEST(SynfiParallel, FreeSymbolIncrementalMatchesRebuild) {
  rtlil::Design d;
  const Fsm f = test::toggle_fsm();
  const CompiledFsm c = harden(f, d, 2);
  SynfiConfig config;
  config.backend = Backend::kSat;
  config.free_symbol = true;
  const SynfiReport rebuild = test::sat_rebuild_oracle(f, c, config);
  const SynfiReport incremental = analyze_with(f, c, config, 1, 2);
  expect_reports_equal(rebuild, incremental, "free-symbol sat");
}

TEST(SynfiParallel, InvalidKnobsThrow) {
  rtlil::Design d;
  const Fsm f = test::toggle_fsm();
  const CompiledFsm c = harden(f, d, 2);
  SynfiConfig config;
  config.lanes = 0;
  EXPECT_THROW(analyze(f, c, config), ScfiError);
  config.lanes = sim::kMaxLanes + 1;
  EXPECT_THROW(analyze(f, c, config), ScfiError);
  // 65 used to be the first invalid width; multi-word lane blocks made it
  // legal (rounded up to a 2-word block).
  config.lanes = 65;
  EXPECT_NO_THROW(analyze(f, c, config));
  config.lanes = 64;
  config.threads = 0;
  EXPECT_THROW(analyze(f, c, config), ScfiError);
}

// --- edge-major SAT --------------------------------------------------------

/// One oracle case: the FSM of a zoo module (mds_ region, k = 1) or a KISS2
/// corpus machine, with its region prefix and fault count. Zoo FSMs are
/// hardened at level 1 without their datapath: single MDS-layer faults do
/// break level-1 edges, so the model enumeration runs on every module (at
/// level 2 each edge closes on its first, UNSAT query), and the rebuild
/// oracle, which re-encodes the whole module for every (site, edge), stays
/// affordable.
struct EdgeMajorCase {
  std::string module;
  bool zoo;
  std::string prefix;
  int faults_k;
  /// How the region splits into D dead and L live sites (outside and inside
  /// the state/alert cone), for the cases that pin the dead-site path.
  enum class Shape {
    kAny,
    kDeadHit,  ///< D >= 1 and a dead site is exploitable
    kFewDead,  ///< 0 < D < k - 1
    kFewLive,  ///< 0 < L < k
    kNoLive,   ///< L = 0
    kNoDead,   ///< D = 0 and a single fault breaks an edge
  } shape = Shape::kAny;
};

void PrintTo(const EdgeMajorCase& c, std::ostream* os) {
  *os << c.module << " prefix '" << c.prefix << "' k=" << c.faults_k;
}

/// k > 1 cases for the live/dead split of the SAT back-end, which gives
/// selectors only to live sites: whole logic at k = 2 and 3 (D >= 50; every
/// dead site is exploitable once some live (k - 1)-set breaks an edge), MDS
/// words with D = 3 at k = 5 (the live sets need m >= 2), with L = 2 at
/// k = 3 and wholly outside the cone, and the 4-site mode logic at k = 3,
/// where single faults break edges but no dead site can fill a k-set.
std::vector<EdgeMajorCase> dead_site_cases() {
  using Shape = EdgeMajorCase::Shape;
  return {
      {"lion", false, "", 2, Shape::kDeadHit},   {"lion", false, "", 3, Shape::kDeadHit},
      {"mc", false, "", 2, Shape::kDeadHit},     {"mc", false, "", 3, Shape::kDeadHit},
      {"lion", false, "mds_x_50", 5, Shape::kFewDead},
      {"lion", false, "mds_x_60", 3, Shape::kFewLive},
      {"lion", false, "mds_x_70", 2, Shape::kNoLive},
      {"lion", false, "mo", 3, Shape::kNoDead},
  };
}

std::vector<EdgeMajorCase> edge_major_cases() {
  std::vector<EdgeMajorCase> cases;
  for (const ot::OtEntry& entry : ot::ot_zoo()) {
    cases.push_back({entry.name, true, "mds_", 1});
  }
  for (const test::Kiss2Bench& bench : test::kKiss2Corpus) {
    cases.push_back({std::string(bench.name), false, "", 1});
    cases.push_back({std::string(bench.name), false, "mds_", 2});
  }
  for (const EdgeMajorCase& c : dead_site_cases()) cases.push_back(c);
  return cases;
}

Fsm kiss2_fsm(const std::string& name) {
  const auto bench =
      std::find_if(test::kKiss2Corpus.begin(), test::kKiss2Corpus.end(),
                   [&](const test::Kiss2Bench& b) { return b.name == name; });
  return fsm::parse_kiss2(std::string(bench->text), std::string(bench->name));
}

class SynfiEdgeMajor : public ::testing::TestWithParam<EdgeMajorCase> {};

TEST_P(SynfiEdgeMajor, MatchesRebuild) {
  const EdgeMajorCase& param = GetParam();
  Fsm f;
  if (param.zoo) {
    f = ot::ot_entry(param.module).fsm;
  } else {
    const auto bench = std::find_if(
        test::kKiss2Corpus.begin(), test::kKiss2Corpus.end(),
        [&](const test::Kiss2Bench& b) { return b.name == param.module; });
    f = fsm::parse_kiss2(std::string(bench->text), std::string(bench->name));
  }
  rtlil::Design d;
  const CompiledFsm c = harden(f, d, param.zoo ? 1 : 2);
  SynfiConfig config;
  config.backend = Backend::kSat;
  config.wire_prefix = param.prefix;
  config.faults_k = param.faults_k;
  const std::string label = param.module + " k=" + std::to_string(param.faults_k);

  // The rebuild oracle pays a fresh miter per (site, edge); its edges are
  // shared between three threads only to keep the suite short.
  SynfiConfig oracle = config;
  oracle.threads = 3;
  const SynfiReport rebuild = test::sat_rebuild_oracle(f, c, oracle);
  for (const int threads : {1, 3}) {
    expect_reports_equal(rebuild, analyze_with(f, c, config, 1, threads),
                         label + " threads=" + std::to_string(threads));
  }

  SynfiConfig sim_config = config;
  sim_config.backend = Backend::kExhaustiveSim;
  EXPECT_EQ(analyze(f, c, sim_config).exploitable_sites, rebuild.exploitable_sites) << label;
}

INSTANTIATE_TEST_SUITE_P(ZooAndCorpus, SynfiEdgeMajor, ::testing::ValuesIn(edge_major_cases()),
                         [](const ::testing::TestParamInfo<EdgeMajorCase>& info) {
                           const EdgeMajorCase& c = info.param;
                           const std::string region = c.prefix.empty()  ? "logic"
                                                      : c.prefix == "mds_" ? "mds"
                                                                           : c.prefix;
                           return c.module + "_" + region + "_k" + std::to_string(c.faults_k);
                         });

TEST(SynfiEdgeMajor, DeadSiteCasesHaveTheirShape) {
  // The dead-site cases above only pin the dead-site path if their regions
  // split as intended; the split is read from the cone here, independently
  // of the Analyzer.
  using Shape = EdgeMajorCase::Shape;
  for (const EdgeMajorCase& param : dead_site_cases()) {
    const Fsm f = kiss2_fsm(param.module);
    rtlil::Design d;
    const CompiledFsm c = harden(f, d, 2);
    const std::string label = param.module + " '" + param.prefix + "' k=" +
                              std::to_string(param.faults_k);
    const sim::VariantNetlist net(c);
    std::vector<std::string> dead;
    std::size_t live = 0;
    for (const rtlil::SigBit& site :
         region_sites(net, param.prefix, false, sim::FaultTarget::kAny)) {
      if (net.cone[static_cast<std::size_t>(net.full->net_of(site))] != 0) {
        ++live;
      } else {
        dead.push_back(site_name(site));
      }
    }
    const auto k = static_cast<std::size_t>(param.faults_k);
    ASSERT_GE(live + dead.size(), k) << label;

    Analyzer analyzer(f, c);
    SynfiConfig config;
    config.backend = Backend::kSat;
    config.wire_prefix = param.prefix;
    config.faults_k = param.faults_k;
    const SynfiReport r = analyzer.run(config);
    const auto dead_hit = [&] {
      return std::any_of(dead.begin(), dead.end(), [&](const std::string& name) {
        return std::count(r.exploitable_sites.begin(), r.exploitable_sites.end(), name) > 0;
      });
    };
    switch (param.shape) {
      case Shape::kDeadHit:
        EXPECT_GE(dead.size(), 1u) << label;
        EXPECT_TRUE(dead_hit()) << label;
        break;
      case Shape::kFewDead:
        EXPECT_GT(dead.size(), 0u) << label;
        EXPECT_LT(dead.size() + 1, k) << label;
        break;
      case Shape::kFewLive:
        EXPECT_GT(live, 0u) << label;
        EXPECT_LT(live, k) << label;
        break;
      case Shape::kNoDead: {
        EXPECT_TRUE(dead.empty()) << label;
        SynfiConfig single = config;
        single.faults_k = 1;
        EXPECT_GT(analyzer.run(single).exploitable, 0) << label;
        break;
      }
      case Shape::kNoLive:
        // Nothing is asked: every injection is detected without a solve.
        EXPECT_EQ(live, 0u) << label;
        EXPECT_EQ(r.exploitable, 0) << label;
        EXPECT_EQ(r.detected, r.injections) << label;
        EXPECT_GT(r.injections, 0) << label;
        EXPECT_EQ(analyzer.last_sat_solves(), 0u) << label;
        break;
      case Shape::kAny:
        break;
    }
  }
}

TEST(SynfiEdgeMajor, SolveCountIsEdgesPlusTwoPerHit) {
  // k = 1: every edge ends with one UNSAT call, and every exploitable
  // (site, edge) costs one SAT call that finds it plus its stall query.
  const ot::OtEntry entry = ot::ot_entry("pwrmgr_fsm");
  rtlil::Design d;
  const CompiledFsm c =
      ot::build_ot_variant(entry, d, ot::Variant::kScfi, 2, "pwrmgr_solve_count");
  Analyzer analyzer(entry.fsm, c);
  SynfiConfig config;
  config.backend = Backend::kSat;
  config.wire_prefix = "";
  const auto edges = static_cast<std::uint64_t>(entry.fsm.cfg_edges().size());
  for (const int threads : {1, 3}) {
    config.threads = threads;
    const SynfiReport r = analyzer.run(config);
    EXPECT_GT(r.exploitable, 0);
    EXPECT_EQ(analyzer.last_sat_solves(), edges + 2 * static_cast<std::uint64_t>(r.exploitable))
        << "threads=" << threads;
  }
  config.backend = Backend::kExhaustiveSim;
  analyzer.run(config);
  EXPECT_EQ(analyzer.last_sat_solves(), 0u);
}

TEST(SynfiEdgeMajor, FiredCancelTokenStopsBeforeTheFirstSolve) {
  rtlil::Design d;
  const Fsm f = test::synfi_fsm();
  const CompiledFsm c = harden(f, d, 2);
  Analyzer analyzer(f, c);
  SynfiConfig config;
  config.backend = Backend::kSat;
  config.wire_prefix = "";
  CancelToken token;
  token.cancel();
  config.cancel = &token;
  for (const int threads : {1, 3}) {
    config.threads = threads;
    EXPECT_THROW(analyzer.run(config), CancelledError) << "threads=" << threads;
    EXPECT_EQ(analyzer.last_sat_solves(), 0u) << "threads=" << threads;
  }
  // The cached context the cancelled runs left behind still answers every
  // query.
  config.cancel = nullptr;
  const SynfiReport reused = analyzer.run(config);
  EXPECT_TRUE(reused == analyze(f, c, config));
  EXPECT_GT(reused.exploitable, 0);
}

// --- exhaustive segments ---------------------------------------------------

TEST(SynfiParallel, LaneMaskRangeCoversWordBoundaries) {
  static_assert(sim::LaneMask::range(3, 3) == sim::LaneMask{});
  static_assert(sim::LaneMask::range(0, 64) == sim::LaneMask{~0ULL});
  static_assert(sim::LaneMask::range(62, 66).w[0] == 3ULL << 62);
  static_assert(sim::LaneMask::range(62, 66).w[1] == 3ULL);
  const std::vector<int> bounds = {0, 1, 37, 63, 64, 65, 100, 127, 128, 129, 255, 256, 448, 511,
                                   sim::kMaxLanes};
  for (const int begin : bounds) {
    for (const int end : bounds) {
      const sim::LaneMask m = sim::LaneMask::range(begin, end);
      for (int lane = 0; lane < sim::kMaxLanes; ++lane) {
        ASSERT_EQ(m.test(lane), begin <= lane && lane < end)
            << "range(" << begin << ", " << end << ") lane " << lane;
      }
    }
    EXPECT_TRUE(sim::LaneMask::first_n(begin) == sim::LaneMask::range(0, begin)) << begin;
  }
}

/// 9 states x 8 fully decoded 3-bit guards, plus each state's idle
/// self-loop: 81 CFG edges, so one combination's jobs are more than a lane
/// word holds and, at fewer lanes than edges, every combination spans
/// batches.
Fsm wide_fsm() {
  Fsm f;
  f.name = "wide81";
  f.inputs = {"a", "b", "c"};
  f.outputs = {"o"};
  for (int s = 0; s < 9; ++s) {
    for (int g = 0; g < 8; ++g) {
      const std::string guard = {(g & 4) != 0 ? '1' : '0', (g & 2) != 0 ? '1' : '0',
                                 (g & 1) != 0 ? '1' : '0'};
      f.add_transition("S" + std::to_string(s), guard, "S" + std::to_string((s + g + 1) % 9),
                       (g & 1) != 0 ? "1" : "0");
    }
  }
  f.reset_state = 0;
  return f;
}

/// One segment case: a module and the fault kind swept over its two
/// regions at k = 1, 2, 3.
struct SegmentCase {
  std::string module;
  sim::FaultKind kind;
  std::string kind_name;
};

void PrintTo(const SegmentCase& c, std::ostream* os) { *os << c.module << " " << c.kind_name; }

class SynfiParallelSegments : public ::testing::TestWithParam<SegmentCase> {};

TEST_P(SynfiParallelSegments, EveryLaneSplitMatchesOneLanePerPass) {
  // Two regions per module: the state register, where skip-cycle faults
  // act, and a diffusion-word prefix with sites outside the state/alert
  // cone, where only some sites are credited. At lanes = 1 every segment is
  // a single lane: the reference.
  const SegmentCase& param = GetParam();
  const bool wide = param.module == "wide81";
  const Fsm f = wide ? wide_fsm() : kiss2_fsm(param.module);
  const std::size_t edges = f.cfg_edges().size();
  if (wide) {
    ASSERT_GT(edges, 64u);
  } else {
    ASSERT_LT(edges, 64u);
  }
  rtlil::Design d;
  const CompiledFsm c = harden(f, d, 2);
  Analyzer analyzer(f, c);
  const std::string prefix = wide ? "mds_x_20" : "mds_x_6";
  for (const std::string& region : {std::string("state"), prefix}) {
    SynfiConfig config;
    config.kind = param.kind;
    if (region == "state") {
      config.target = sim::FaultTarget::kStateRegister;
    } else {
      config.wire_prefix = region;
    }
    for (int k = 1; k <= 3; ++k) {
      config.faults_k = k;
      const std::string label =
          param.module + " " + region + " " + param.kind_name + " k=" + std::to_string(k);
      config.lanes = 1;
      config.threads = 1;
      const SynfiReport ref = analyzer.run(config);
      EXPECT_GT(ref.injections, 0) << label;
      EXPECT_EQ(ref.masked + ref.detected + ref.exploitable, ref.injections) << label;
      for (const int lanes : {1, 37, 64, 100, 512}) {
        for (const int threads : {1, 3}) {
          config.lanes = lanes;
          config.threads = threads;
          expect_reports_equal(ref, analyzer.run(config),
                               label + " lanes=" + std::to_string(lanes) +
                                   " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

std::vector<SegmentCase> segment_cases() {
  std::vector<SegmentCase> cases;
  const std::vector<std::pair<sim::FaultKind, std::string>> kinds = {
      {sim::FaultKind::kTransientFlip, "flip"},
      {sim::FaultKind::kStuckAt0, "stuck0"},
      {sim::FaultKind::kStuckAt1, "stuck1"},
      {sim::FaultKind::kSkipCycle, "skip"},
  };
  for (const char* module : {"wide81", "lion"}) {
    for (const auto& [kind, name] : kinds) cases.push_back({module, kind, name});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(WideAndNarrow, SynfiParallelSegments,
                         ::testing::ValuesIn(segment_cases()),
                         [](const ::testing::TestParamInfo<SegmentCase>& info) {
                           return info.param.module + "_" + info.param.kind_name;
                         });

}  // namespace
}  // namespace scfi::synfi
