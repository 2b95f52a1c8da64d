// Absolute Monte-Carlo campaign counts pinned for two zoo modules in all
// three variants. The lanes x threads x planner suites only check that the
// executor agrees with itself; these values catch an executor change that
// shifts every width the same way. They were recorded with the executor
// that settled three times per cycle (eval, then step's eval + latch +
// eval), before the one-settle-per-edge cycle loop.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ot/zoo.h"
#include "rtlil/design.h"
#include "sim/campaign.h"
#include "sim/fault.h"

namespace scfi {
namespace {

struct GoldenCampaign {
  const char* module;
  ot::Variant variant;
  bool stuck_and_skip;  ///< kinds {stuck0, stuck1, skip}; otherwise {flip}
  int k;
  /// masked, detected, hijacked, lagged, silent_invalid
  int counts[5];
};

// 2000 runs x 24 cycles, seed 1, protection level 2, default lanes.
constexpr GoldenCampaign kGolden[] = {
  {"aes_control", ot::Variant::kScfi, false, 1, {856, 1143, 1, 0, 0}},
  {"aes_control", ot::Variant::kScfi, false, 2, {725, 1273, 2, 0, 0}},
  {"aes_control", ot::Variant::kScfi, true, 1, {924, 1076, 0, 0, 0}},
  {"aes_control", ot::Variant::kScfi, true, 2, {829, 1168, 3, 0, 0}},
  {"aes_control", ot::Variant::kUnprotected, false, 1, {1880, 0, 109, 3, 8}},
  {"aes_control", ot::Variant::kUnprotected, false, 2, {1772, 0, 197, 8, 23}},
  {"aes_control", ot::Variant::kUnprotected, true, 1, {1901, 0, 91, 3, 5}},
  {"aes_control", ot::Variant::kUnprotected, true, 2, {1797, 0, 183, 9, 11}},
  {"aes_control", ot::Variant::kRedundancy, false, 1, {1813, 170, 13, 4, 0}},
  {"aes_control", ot::Variant::kRedundancy, false, 2, {1646, 332, 18, 4, 0}},
  {"aes_control", ot::Variant::kRedundancy, true, 1, {1828, 161, 10, 1, 0}},
  {"aes_control", ot::Variant::kRedundancy, true, 2, {1680, 301, 18, 1, 0}},
  {"otbn_controller", ot::Variant::kScfi, false, 1, {1865, 128, 7, 0, 0}},
  {"otbn_controller", ot::Variant::kScfi, false, 2, {1768, 216, 16, 0, 0}},
  {"otbn_controller", ot::Variant::kScfi, true, 1, {1925, 72, 3, 0, 0}},
  {"otbn_controller", ot::Variant::kScfi, true, 2, {1883, 111, 6, 0, 0}},
  {"otbn_controller", ot::Variant::kUnprotected, false, 1, {1984, 0, 12, 0, 4}},
  {"otbn_controller", ot::Variant::kUnprotected, false, 2, {1957, 0, 33, 0, 10}},
  {"otbn_controller", ot::Variant::kUnprotected, true, 1, {1990, 0, 7, 1, 2}},
  {"otbn_controller", ot::Variant::kUnprotected, true, 2, {1977, 0, 17, 1, 5}},
  {"otbn_controller", ot::Variant::kRedundancy, false, 1, {1941, 58, 0, 1, 0}},
  {"otbn_controller", ot::Variant::kRedundancy, false, 2, {1889, 108, 2, 1, 0}},
  {"otbn_controller", ot::Variant::kRedundancy, true, 1, {1961, 38, 1, 0, 0}},
  {"otbn_controller", ot::Variant::kRedundancy, true, 2, {1932, 66, 2, 0, 0}},
};

const char* variant_name(ot::Variant variant) {
  switch (variant) {
    case ot::Variant::kScfi: return "scfi";
    case ot::Variant::kUnprotected: return "unprotected";
    case ot::Variant::kRedundancy: return "redundancy";
  }
  return "?";
}

void expect_golden(const char* module, int lanes, int threads) {
  const ot::OtEntry entry = ot::ot_entry(module);
  for (const ot::Variant variant :
       {ot::Variant::kScfi, ot::Variant::kUnprotected, ot::Variant::kRedundancy}) {
    rtlil::Design d;
    const fsm::CompiledFsm c = ot::build_ot_variant(entry, d, variant, 2, entry.name + "_golden");
    for (const GoldenCampaign& g : kGolden) {
      if (std::string(g.module) != module || g.variant != variant) continue;
      sim::CampaignConfig config;
      config.runs = 2000;
      config.cycles = 24;
      config.seed = 1;
      config.lanes = lanes;
      config.threads = threads;
      config.fault.k = g.k;
      config.fault.kinds = g.stuck_and_skip
                               ? std::vector<sim::FaultKind>{sim::FaultKind::kStuckAt0,
                                                             sim::FaultKind::kStuckAt1,
                                                             sim::FaultKind::kSkipCycle}
                               : std::vector<sim::FaultKind>{sim::FaultKind::kTransientFlip};
      const sim::CampaignResult r = sim::run_campaign(entry.fsm, c, config);
      const std::string where = std::string(module) + " " + variant_name(variant) +
                                (g.stuck_and_skip ? " stuck/skip" : " flip") +
                                " k=" + std::to_string(g.k) + " lanes=" + std::to_string(lanes);
      EXPECT_EQ(r.runs, 2000) << where;
      EXPECT_EQ(r.masked, g.counts[0]) << where;
      EXPECT_EQ(r.detected, g.counts[1]) << where;
      EXPECT_EQ(r.hijacked, g.counts[2]) << where;
      EXPECT_EQ(r.lagged, g.counts[3]) << where;
      EXPECT_EQ(r.silent_invalid, g.counts[4]) << where;
    }
  }
}

TEST(CampaignGolden, AesControlMatchesRecordedCounts) {
  expect_golden("aes_control", sim::kNumLanes, 1);
}

TEST(CampaignGolden, OtbnControllerMatchesRecordedCounts) {
  expect_golden("otbn_controller", sim::kNumLanes, 1);
}

TEST(CampaignGolden, WideLanesAndThreadsMatchRecordedCounts) {
  // The same pins through the multi-word lane block and shared batches.
  expect_golden("aes_control", 512, 3);
  expect_golden("otbn_controller", 192, 2);
}

}  // namespace
}  // namespace scfi
