// Campaign-at-scale benchmark: one large campaign at two packings.
//
// Runs one large Monte-Carlo campaign on the SCFI-hardened bench controller
// twice with the streaming jump-ahead planner (O(lanes) planning memory):
// once at the requested --lanes/--threads (default: the widest lane block,
// one thread) and once at 64 lanes on one thread. It reports wall-clock
// throughput and peak RSS for both. A campaign's result is a pure function
// of its seed, so the two packings must produce bit-identical results
// (exit 1 otherwise), which makes this an end-to-end differential check at
// sizes the unit tests do not reach (a 10^8-run campaign finishes here in
// constant memory).
//
// Usage: bench_campaign_scale [--runs N] [--cycles N] [--faults N]
//                             [--lanes K] [--threads K] [--seed N]
//                             [--quick] [--json]
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/harden.h"
#include "fsm/fsm.h"
#include "rtlil/design.h"
#include "sim/campaign.h"

namespace {

scfi::fsm::Fsm bench_fsm() {
  scfi::fsm::Fsm f;
  f.name = "bench";
  f.inputs = {"a", "b", "c"};
  f.outputs = {"o"};
  f.add_transition("IDLE", "1--", "CFG", "0");
  f.add_transition("CFG", "-1-", "ARM", "0");
  f.add_transition("CFG", "-0-", "IDLE", "0");
  f.add_transition("ARM", "--1", "FIRE", "1");
  f.add_transition("FIRE", "0--", "ARM", "0");
  f.add_transition("FIRE", "1--", "IDLE", "0");
  return f;
}

long peak_rss_kb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

struct Timing {
  double seconds = 0.0;
  double runs_per_second = 0.0;
  long peak_rss_kb = 0;
};

Timing timed_campaign(const scfi::fsm::Fsm& fsm, const scfi::fsm::CompiledFsm& variant,
                      const scfi::sim::CampaignConfig& config,
                      scfi::sim::CampaignResult& result) {
  const auto t0 = std::chrono::steady_clock::now();
  result = scfi::sim::run_campaign(fsm, variant, config);
  Timing timing;
  timing.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  timing.runs_per_second =
      timing.seconds > 0.0 ? static_cast<double>(config.runs) / timing.seconds : 0.0;
  timing.peak_rss_kb = peak_rss_kb();
  return timing;
}

}  // namespace

int main(int argc, char** argv) {
  long long runs = 2'000'000;
  int cycles = 6;
  int faults = 1;
  int lanes = scfi::sim::kMaxLanes;
  int threads = 1;
  unsigned long long seed = 1;
  bool json = false;
  bool quick = false;
  bool runs_set = false;
  bool cycles_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--runs" && has_value) {
      runs = std::atoll(argv[++i]);
      runs_set = true;
    } else if (arg == "--cycles" && has_value) {
      cycles = std::atoi(argv[++i]);
      cycles_set = true;
    } else if (arg == "--faults" && has_value) {
      faults = std::atoi(argv[++i]);
    } else if (arg == "--lanes" && has_value) {
      lanes = std::atoi(argv[++i]);
    } else if (arg == "--threads" && has_value) {
      threads = std::atoi(argv[++i]);
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json") {
      json = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_campaign_scale [--runs N] [--cycles N] [--faults N] "
                   "[--lanes K] [--threads K] [--seed N] [--quick] [--json]\n");
      return 2;
    }
  }
  // --quick shrinks only the knobs not set explicitly, whatever the flag
  // order, so it composes with --runs/--cycles instead of discarding them.
  if (quick) {
    if (!runs_set) runs = 200'000;
    if (!cycles_set) cycles = 4;
  }
  if (runs < 1 || runs > 2'000'000'000LL || cycles < 1 || faults < 1) {
    std::fprintf(stderr, "bench_campaign_scale: bad --runs/--cycles/--faults\n");
    return 2;
  }

  scfi::rtlil::Design design;
  const scfi::fsm::Fsm fsm = bench_fsm();
  scfi::core::ScfiConfig harden_config;
  harden_config.protection_level = 3;
  const scfi::fsm::CompiledFsm variant = scfi::core::scfi_harden(fsm, design, harden_config);

  scfi::sim::CampaignConfig config;
  config.runs = static_cast<int>(runs);
  config.cycles = cycles;
  config.fault.k = faults;
  config.seed = seed;
  config.lanes = lanes;
  config.threads = threads;
  scfi::sim::CampaignResult streaming_result;
  const Timing streaming = timed_campaign(fsm, variant, config, streaming_result);

  // Second packing: 64 lanes (one lane word) on one thread.
  scfi::sim::CampaignConfig second_config = config;
  second_config.lanes = scfi::sim::kWordLanes;
  second_config.threads = 1;
  scfi::sim::CampaignResult second_result;
  const Timing second = timed_campaign(fsm, variant, second_config, second_result);
  const bool agree = second_result == streaming_result;

  if (json) {
    // bench_to_json.sh refuses to record a run whose engines_agree is false.
    std::printf("{\"bench\":\"campaign_scale\",\"runs\":%lld,\"cycles\":%d,\"faults\":%d,"
                "\"lanes\":%d,\"threads\":%d,",
                runs, cycles, faults, lanes, threads);
    std::printf("\"streaming\":{\"seconds\":%.3f,\"runs_per_second\":%.1f,"
                "\"peak_rss_kb\":%ld}",
                streaming.seconds, streaming.runs_per_second, streaming.peak_rss_kb);
    std::printf(",\"second_packing\":{\"lanes\":%d,\"threads\":%d,\"seconds\":%.3f,"
                "\"runs_per_second\":%.1f,\"peak_rss_kb\":%ld},\"engines_agree\":%s}\n",
                second_config.lanes, second_config.threads, second.seconds,
                second.runs_per_second, second.peak_rss_kb, agree ? "true" : "false");
  } else {
    std::printf("campaign scale: %lld runs x %d cycles, %d fault(s)\n", runs, cycles, faults);
    std::printf("  lanes=%-3d threads=%-2d %8.3fs  %12.1f runs/s  peak RSS %ld KiB\n", lanes,
                threads, streaming.seconds, streaming.runs_per_second, streaming.peak_rss_kb);
    std::printf("  lanes=%-3d threads=%-2d %8.3fs  %12.1f runs/s  peak RSS %ld KiB\n",
                second_config.lanes, second_config.threads, second.seconds,
                second.runs_per_second, second.peak_rss_kb);
    std::printf("  packings agree: %s\n", agree ? "yes" : "NO");
    std::printf("  hijack %.4f%%, detection %.2f%%, effective %d/%d\n",
                100.0 * streaming_result.hijack_rate(),
                100.0 * streaming_result.detection_rate(), streaming_result.effective(),
                streaming_result.runs);
    std::printf("  counts: masked=%d detected=%d hijacked=%d lagged=%d silent_invalid=%d\n",
                streaming_result.masked, streaming_result.detected, streaming_result.hijacked,
                streaming_result.lagged, streaming_result.silent_invalid);
  }
  return agree ? 0 : 1;
}
