// The Analyzer reuse contract: re-querying ONE synfi::Analyzer across
// regions, fault kinds, and configs must be bit-identical to a fresh
// synfi::analyze() call per query — cached simulators, cached incremental
// SAT shards, and warm-started solvers may only change speed, never a
// verdict. Covered on two OT zoo modules and a KISS2 corpus entry.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/error.h"
#include "core/harden.h"
#include "fsm/kiss2.h"
#include "kiss2_corpus.h"
#include "ot/zoo.h"
#include "rtlil/design.h"
#include "sat/solver.h"
#include "synfi/synfi.h"
#include "synfi_oracle.h"
#include "test_helpers.h"

namespace scfi::synfi {
namespace {

using fsm::CompiledFsm;
using fsm::Fsm;

/// Region/fault-kind/backend combos exercised through one Analyzer. More
/// than three, covering both backends, both symbol modes, and every fault
/// kind.
std::vector<SynfiConfig> reuse_configs() {
  std::vector<SynfiConfig> configs;
  {
    SynfiConfig c;  // default: mds_ region, transient flip, sim backend
    configs.push_back(c);
  }
  {
    SynfiConfig c;
    c.kind = sim::FaultKind::kStuckAt0;
    configs.push_back(c);
  }
  {
    SynfiConfig c;
    c.wire_prefix = "";
    configs.push_back(c);
  }
  {
    SynfiConfig c;
    c.wire_prefix = "";
    c.kind = sim::FaultKind::kStuckAt1;
    c.threads = 3;
    configs.push_back(c);
  }
  {
    SynfiConfig c;
    c.backend = Backend::kSat;
    configs.push_back(c);
  }
  {
    SynfiConfig c;
    c.backend = Backend::kSat;
    c.kind = sim::FaultKind::kStuckAt1;
    c.threads = 2;
    configs.push_back(c);
  }
  return configs;
}

void expect_analyzer_matches_fresh(const Fsm& fsm, const CompiledFsm& variant,
                                   const std::string& label) {
  Analyzer analyzer(fsm, variant);
  const std::vector<SynfiConfig> configs = reuse_configs();
  // Interleave: run every config twice through the same Analyzer so later
  // queries hit fully warmed caches, and compare each against a fresh
  // one-shot analyze().
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const SynfiReport reused = analyzer.run(configs[i]);
      const SynfiReport fresh = analyze(fsm, variant, configs[i]);
      EXPECT_TRUE(reused == fresh)
          << label << " config " << i << " round " << round
          << ": Analyzer reuse diverged from fresh analyze()";
    }
  }
  // Caches actually formed: sim contexts for the sim-backend configs and
  // SAT shards for the incremental SAT configs.
  EXPECT_GE(analyzer.cached_simulators(), 1u) << label;
  EXPECT_GE(analyzer.cached_sat_shards(), 1u) << label;
}

TEST(SynfiAnalyzer, ZooPwrmgrReuseMatchesFresh) {
  const ot::OtEntry entry = ot::ot_entry("pwrmgr_fsm");
  rtlil::Design d;
  const CompiledFsm c =
      ot::build_ot_variant(entry, d, ot::Variant::kScfi, 2, "pwrmgr_analyzer");
  expect_analyzer_matches_fresh(entry.fsm, c, "pwrmgr_fsm");
}

TEST(SynfiAnalyzer, ZooAesControlReuseMatchesFresh) {
  const ot::OtEntry entry = ot::ot_entry("aes_control");
  rtlil::Design d;
  const CompiledFsm c =
      ot::build_ot_variant(entry, d, ot::Variant::kScfi, 2, "aes_analyzer");
  expect_analyzer_matches_fresh(entry.fsm, c, "aes_control");
}

TEST(SynfiAnalyzer, Kiss2CorpusReuseMatchesFresh) {
  const test::Kiss2Bench& bench = test::kKiss2Corpus[0];
  const Fsm f = fsm::parse_kiss2(std::string(bench.text), std::string(bench.name));
  rtlil::Design d;
  core::ScfiConfig config;
  config.protection_level = 2;
  const CompiledFsm c = core::scfi_harden(f, d, config);
  expect_analyzer_matches_fresh(f, c, std::string(bench.name));
}

TEST(SynfiAnalyzer, RepeatedIdenticalRunsAreStable) {
  rtlil::Design d;
  const Fsm f = test::synfi_fsm();
  core::ScfiConfig config;
  config.protection_level = 2;
  const CompiledFsm c = core::scfi_harden(f, d, config);
  Analyzer analyzer(f, c);
  SynfiConfig whole;
  whole.wire_prefix = "";
  const SynfiReport first = analyzer.run(whole);
  // The §6.4-analog counters, through the Analyzer path.
  EXPECT_EQ(first.sites, 130);
  EXPECT_EQ(first.injections, 1820);
  EXPECT_EQ(first.exploitable, 36);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(analyzer.run(whole) == first) << "repeat " << i;
}

TEST(SynfiAnalyzer, SatReuseAcrossThreadCountsMatchesRebuild) {
  rtlil::Design d;
  const Fsm f = test::synfi_fsm();
  core::ScfiConfig config;
  config.protection_level = 2;
  const CompiledFsm c = core::scfi_harden(f, d, config);

  SynfiConfig sat;
  sat.backend = Backend::kSat;
  const SynfiReport rebuild = test::sat_rebuild_oracle(f, c, sat);

  Analyzer analyzer(f, c);
  for (const int threads : {1, 2, 1, 3}) {
    sat.threads = threads;
    EXPECT_TRUE(analyzer.run(sat) == rebuild) << "threads=" << threads;
    // Every context covers the whole region: the owner's is cached, helper
    // contexts are dropped at the end of the run, so one (region, kind, k)
    // key holds exactly one solver for any thread count.
    EXPECT_EQ(analyzer.cached_sat_shards(), 1u) << "threads=" << threads;
  }
}

TEST(SynfiAnalyzer, InvalidKnobsThrowOnRun) {
  rtlil::Design d;
  const Fsm f = test::toggle_fsm();
  core::ScfiConfig hc;
  hc.protection_level = 2;
  const CompiledFsm c = core::scfi_harden(f, d, hc);
  Analyzer analyzer(f, c);
  SynfiConfig config;
  config.lanes = 0;
  EXPECT_THROW(analyzer.run(config), ScfiError);
  config.lanes = 64;
  config.wire_prefix = "no_such_prefix_";
  EXPECT_THROW(analyzer.run(config), ScfiError);
  // The analyzer stays usable after a failed run.
  SynfiConfig ok;
  EXPECT_GT(analyzer.run(ok).injections, 0);
}

TEST(SynfiAnalyzer, SolverWarmStartPreservesVerdicts) {
  // Heuristic state transplanted between solvers must not change any
  // verdict: same clauses, warm-started from the trained twin, same result.
  const auto build = [](sat::Solver& solver) {
    const int a = solver.new_var();
    const int b = solver.new_var();
    const int ca = solver.new_var();
    solver.add_clause({a, b});
    solver.add_clause({-a, ca});
    solver.add_clause({-b, ca});
    return std::vector<int>{a, b, ca};
  };
  sat::Solver trained;
  const auto tv = build(trained);
  EXPECT_EQ(trained.solve({tv[0]}), sat::Result::kSat);
  EXPECT_EQ(trained.solve({tv[0], -tv[2]}), sat::Result::kUnsat);

  sat::Solver fresh;
  const auto fv = build(fresh);
  fresh.import_warm_start(trained.export_warm_start());
  EXPECT_EQ(fresh.solve({fv[0]}), sat::Result::kSat);
  EXPECT_EQ(fresh.solve({fv[0], -fv[2]}), sat::Result::kUnsat);
  EXPECT_EQ(fresh.solve({-fv[0], -fv[1]}), sat::Result::kUnsat);
}

}  // namespace
}  // namespace scfi::synfi
