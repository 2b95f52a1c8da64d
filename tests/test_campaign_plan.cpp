// The campaign planner against a scalar, run-by-run reference: run r's walk
// and faults re-derived here from Rng(seed, r) with Rng::below(d), exactly
// as the campaign documents (walk first, then per fault a distinct site by
// partial Fisher-Yates, a cycle, and a kind when the spec has several). The
// planner steps runs in groups of RunPlanner::kGroup and plans a unit's
// tail and any grouped run that drew below its replan threshold alone;
// every path must give the reference's plan bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "base/error.h"
#include "base/rng.h"
#include "fsm/kiss2.h"
#include "kiss2_corpus.h"
#include "ot/zoo.h"
#include "sim/campaign_plan.h"

namespace scfi::sim {
namespace {

/// Checks runs [base, base + n) of `plans` (rows 0..n) against the scalar
/// reference; `num_sites` is the planner's site population.
void expect_reference_plans(const fsm::Fsm& f, const CampaignConfig& config,
                            std::size_t num_sites, std::int64_t base, int n,
                            const RunPlans& plans, const std::string& where) {
  const std::vector<fsm::CfgEdge> cfg = f.cfg_edges();
  std::vector<std::vector<std::int32_t>> edges_from(static_cast<std::size_t>(f.num_states()));
  for (std::size_t e = 0; e < cfg.size(); ++e) {
    edges_from[static_cast<std::size_t>(cfg[e].from)].push_back(static_cast<std::int32_t>(e));
  }
  const auto sites = static_cast<std::uint64_t>(num_sites);
  for (int i = 0; i < n; ++i) {
    const auto run = static_cast<std::uint64_t>(base + i);
    Rng rng(config.seed, run);
    int state = f.reset_state;
    const std::int32_t* walk = plans.walk(static_cast<std::size_t>(i));
    for (int t = 0; t < config.cycles; ++t) {
      const std::vector<std::int32_t>& options = edges_from[static_cast<std::size_t>(state)];
      const std::int32_t e = options[rng.below(options.size())];
      ASSERT_EQ(walk[t], e) << where << " run " << run << " cycle " << t;
      state = cfg[static_cast<std::size_t>(e)].to;
    }
    std::vector<std::int32_t> pool(num_sites);
    std::iota(pool.begin(), pool.end(), 0);
    const PlannedFault* faults = plans.faults_of(static_cast<std::size_t>(i));
    for (std::uint64_t f = 0; f < static_cast<std::uint64_t>(config.fault.k); ++f) {
      std::int32_t site = 0;
      if (f < sites) {
        std::swap(pool[f], pool[f + rng.below(sites - f)]);
        site = pool[f];
      } else {
        site = static_cast<std::int32_t>(rng.below(sites));
      }
      const auto cycle =
          static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(config.cycles)));
      const auto kind = config.fault.kinds.size() > 1
                            ? static_cast<std::int32_t>(rng.below(config.fault.kinds.size()))
                            : 0;
      ASSERT_EQ(faults[f].site, site) << where << " run " << run << " fault " << f;
      ASSERT_EQ(faults[f].cycle, cycle) << where << " run " << run << " fault " << f;
      ASSERT_EQ(faults[f].kind, kind) << where << " run " << run << " fault " << f;
    }
  }
}

std::vector<fsm::Fsm> subjects() {
  std::vector<fsm::Fsm> fsms;
  for (const ot::OtEntry& entry : ot::ot_zoo()) fsms.push_back(entry.fsm);
  for (const test::Kiss2Bench& bench : test::kKiss2Corpus) {
    fsms.push_back(fsm::parse_kiss2(std::string(bench.text), std::string(bench.name)));
  }
  return fsms;
}

CampaignConfig multi_kind_config() {
  CampaignConfig config;
  config.cycles = 13;
  config.seed = 32;
  config.fault.k = 3;
  config.fault.kinds = {FaultKind::kTransientFlip, FaultKind::kStuckAt0, FaultKind::kSkipCycle};
  return config;
}

TEST(CampaignPlanner, GroupedAndTailRunsMatchScalarReference) {
  // Unit sizes that are whole groups, all tail (n < kGroup) and groups with
  // a tail, at a base that is not a multiple of the group; single-kind
  // flips, multi-kind k = 3, k = 0, and more faults than sites.
  for (const fsm::Fsm& f : subjects()) {
    const std::vector<fsm::CfgEdge> cfg = f.cfg_edges();
    const WalkTables walk(f, cfg);
    CampaignConfig flips;
    flips.cycles = 24;
    flips.seed = 1;
    CampaignConfig none = flips;
    none.fault.k = 0;
    CampaignConfig crowded = multi_kind_config();
    crowded.fault.k = 5;
    for (const auto& [config, sites] : {std::pair{flips, std::size_t{40}},
                                        std::pair{multi_kind_config(), std::size_t{17}},
                                        std::pair{none, std::size_t{3}},
                                        std::pair{crowded, std::size_t{2}}}) {
      RunPlanner planner(walk, f.reset_state, sites, config);
      for (const auto& [base, n] : {std::pair<std::int64_t, int>{0, 64},
                                    std::pair<std::int64_t, int>{64, 5},
                                    std::pair<std::int64_t, int>{1001, 100},
                                    std::pair<std::int64_t, int>{7, 1}}) {
        RunPlans plans(config, static_cast<std::size_t>(n));
        planner.plan_runs(base, n, plans);
        expect_reference_plans(f, config, sites, base, n, plans,
                               f.name + " k=" + std::to_string(config.fault.k) +
                                   " base=" + std::to_string(base));
      }
      EXPECT_EQ(planner.replanned_runs(), 0) << f.name;
    }
  }
}

TEST(CampaignPlanner, ForcedReplansMatchScalarReference) {
  // A replan threshold far above any out-degree's rejection threshold sends
  // grouped runs to the one-run path as a real rejection would. At
  // 2^64 / (4 * cycles) about a quarter of the runs draw below it, at 2^62
  // a quarter of the draws do and so nearly every run; either way each
  // replanned run, its group's other runs and the runs after it keep the
  // reference plan.
  const CampaignConfig config = multi_kind_config();
  const std::uint64_t quarter_of_runs = ~0ULL / (4 * static_cast<std::uint64_t>(config.cycles));
  for (const fsm::Fsm& f : subjects()) {
    const std::vector<fsm::CfgEdge> cfg = f.cfg_edges();
    const WalkTables walk(f, cfg);
    for (const std::uint64_t threshold :
         {quarter_of_runs, std::uint64_t{1} << 62, std::uint64_t{1} << 63}) {
      RunPlanner planner(walk, f.reset_state, 29, config);
      planner.set_replan_below(threshold);
      const int n = 400;
      RunPlans plans(config, n);
      planner.plan_runs(3, n, plans);
      expect_reference_plans(f, config, 29, 3, n, plans,
                             f.name + " threshold=" + std::to_string(threshold));
      const std::int64_t grouped = n / static_cast<int>(RunPlanner::kGroup) *
                                   static_cast<int>(RunPlanner::kGroup);
      if (threshold == quarter_of_runs) {
        // 1 - (1 - 1/(4 cycles))^cycles is about 0.22.
        EXPECT_GT(planner.replanned_runs(), grouped / 8) << f.name;
        EXPECT_LT(planner.replanned_runs(), grouped / 2) << f.name;
      } else {
        EXPECT_GT(planner.replanned_runs(), grouped * 9 / 10) << f.name;
      }
    }
  }
}

TEST(CampaignPlanner, ReplanThresholdOutsideItsRangeIsALogicBug) {
  // Below the largest out-degree threshold a rejected draw would go
  // unnoticed; above 2^63 the kernel's borrow test is not a comparison.
  int undercut = 0;
  for (const fsm::Fsm& f : subjects()) {
    const std::vector<fsm::CfgEdge> cfg = f.cfg_edges();
    const WalkTables walk(f, cfg);
    std::uint64_t largest = 0;
    for (std::size_t s = 0; s + 1 < walk.offset.size(); ++s) {
      const auto degree = static_cast<std::uint64_t>(walk.offset[s + 1] - walk.offset[s]);
      largest = std::max(largest, Rng::Bound(degree).threshold());
    }
    RunPlanner planner(walk, f.reset_state, 10, CampaignConfig{});
    if (largest > 0) {  // 0 when every out-degree is a power of two
      EXPECT_THROW(planner.set_replan_below(largest - 1), LogicBug) << f.name;
      ++undercut;
    }
    EXPECT_NO_THROW(planner.set_replan_below(largest)) << f.name;
    EXPECT_NO_THROW(planner.set_replan_below(std::uint64_t{1} << 63)) << f.name;
    EXPECT_THROW(planner.set_replan_below((std::uint64_t{1} << 63) + 1), LogicBug) << f.name;
  }
  EXPECT_GT(undercut, 0);
}

}  // namespace
}  // namespace scfi::sim
