// Reproduces the formal analysis of §6.4: a SYNFI-style exhaustive fault
// injection into the MDS diffusion logic of an SCFI-hardened FSM with 14
// state transitions at protection level 2. The paper injects 7644 single
// bit-flips into the (gate-level) MDS multiplication and finds 32 (0.42%)
// that hijack a transition. We report the same experiment on both the
// word-level netlist and the technology-mapped netlist, plus the SAT
// back-end as a cross-check.
//
// The second half benchmarks the analysis engines themselves:
//   * exhaustive simulation, scalar (lanes=1) vs 64 batched injection jobs
//     per simulator pass (and the `threads` knob on top),
//   * the SAT back-end, the selector-gated solver answering its edge-major
//     queries via assumptions, at k = 1 and 2 and on pwrmgr_fsm's whole
//     logic at k = 2, where half the sites lie outside the state/alert cone
//     (its verdicts are cross-checked against the exhaustive back-end; the
//     bit-exact check against the per-(site, edge) rebuild oracle lives in
//     the tests), and
//   * Analyzer reuse: a many-region/fault-kind sweep over one otbn_controller
//     variant through one synfi::Analyzer vs a fresh analyze() per query
//     (the fixed simulator-build cost amortized vs paid per call), and
//   * the whole-logic k = 2 exhaustive sweep of that variant, whose
//     reported injections far outnumber the simulated ones: only the
//     combinations of observable sites are simulated.
//
// Flags: --quick  (one timing iteration; CI smoke mode)
//        --json   (machine-readable metrics only, for scripts/bench_to_json.sh)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/harden.h"
#include "ot/zoo.h"
#include "rtlil/design.h"
#include "sim/netlist_sim.h"
#include "synfi/synfi.h"
#include "synth/lower.h"
#include "synth/opt.h"

namespace {

scfi::fsm::Fsm synfi_fsm() {
  scfi::fsm::Fsm f;
  f.name = "synfi14";
  f.inputs = {"a", "b", "c"};
  f.outputs = {"o"};
  f.add_transition("IDLE", "1--", "CFG", "0");
  f.add_transition("CFG", "-1-", "ARM", "0");
  f.add_transition("CFG", "-00", "IDLE", "0");
  f.add_transition("ARM", "--1", "FIRE", "1");
  f.add_transition("ARM", "1-0", "CFG", "0");
  f.add_transition("FIRE", "1--", "COOL", "0");
  f.add_transition("FIRE", "01-", "ARM", "0");
  f.add_transition("COOL", "-1-", "IDLE", "0");
  f.add_transition("COOL", "-01", "ARM", "0");
  return f;
}

void report(const char* label, const scfi::synfi::SynfiReport& r) {
  std::printf("%-34s sites=%5lld injections=%6lld exploitable=%4lld (%.2f%%) "
              "detected=%6lld masked=%5lld stalls=%lld\n",
              label, static_cast<long long>(r.sites), static_cast<long long>(r.injections),
              static_cast<long long>(r.exploitable), r.exploitable_pct(),
              static_cast<long long>(r.detected), static_cast<long long>(r.masked),
              static_cast<long long>(r.stalls));
}

/// Runs `iters` full sweeps on one reusable Analyzer and returns injections
/// per second — for the SAT back-end (site, edge) verdicts, not solve()
/// calls: the engine's steady-state throughput, with the per-variant fixed
/// cost paid once up front.
double time_sweeps(const scfi::fsm::Fsm& f, const scfi::fsm::CompiledFsm& c,
                   const scfi::synfi::SynfiConfig& config, int iters,
                   scfi::synfi::SynfiReport* out = nullptr) {
  using clock = std::chrono::steady_clock;
  scfi::synfi::Analyzer analyzer(f, c);
  std::int64_t injections = 0;
  const auto t0 = clock::now();
  for (int i = 0; i < iters; ++i) {
    const scfi::synfi::SynfiReport r = analyzer.run(config);
    injections += r.injections;
    if (out != nullptr) *out = r;
  }
  const double seconds = std::chrono::duration<double>(clock::now() - t0).count();
  return seconds > 0 ? static_cast<double>(injections) / seconds : 0.0;
}

/// The Analyzer-reuse experiment: `configs` queries over one variant, once
/// through a fresh analyze() per query (fixed cost per call) and once
/// through a single Analyzer (fixed cost amortized). Returns seconds per
/// full config sweep; the two report vectors must match bit for bit.
struct ReuseTiming {
  double per_call_seconds = 0.0;
  double analyzer_seconds = 0.0;
  bool reports_agree = true;
  std::int64_t injections = 0;
};

ReuseTiming time_reuse(const scfi::fsm::Fsm& f, const scfi::fsm::CompiledFsm& c,
                       const std::vector<scfi::synfi::SynfiConfig>& configs, int iters) {
  using clock = std::chrono::steady_clock;
  ReuseTiming timing;
  std::vector<scfi::synfi::SynfiReport> per_call;
  const auto t0 = clock::now();
  for (int i = 0; i < iters; ++i) {
    per_call.clear();
    for (const auto& config : configs) per_call.push_back(scfi::synfi::analyze(f, c, config));
  }
  timing.per_call_seconds =
      std::chrono::duration<double>(clock::now() - t0).count() / iters;

  std::vector<scfi::synfi::SynfiReport> reused;
  const auto t1 = clock::now();
  for (int i = 0; i < iters; ++i) {
    scfi::synfi::Analyzer analyzer(f, c);
    reused.clear();
    for (const auto& config : configs) reused.push_back(analyzer.run(config));
  }
  timing.analyzer_seconds =
      std::chrono::duration<double>(clock::now() - t1).count() / iters;

  timing.reports_agree = per_call == reused;
  for (const auto& r : per_call) timing.injections += r.injections;
  return timing;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }

  const scfi::fsm::Fsm f = synfi_fsm();
  scfi::core::ScfiConfig config;
  config.protection_level = 2;

  if (!json) {
    std::printf("Formal security analysis (paper §6.4): exhaustive single bit-flips into\n");
    std::printf("the MDS diffusion logic of a 14-transition FSM hardened at N=2.\n");
    std::printf("Paper reference: 7644 injections, 32 exploitable (0.42%%).\n\n");

    {
      scfi::rtlil::Design d;
      const scfi::fsm::CompiledFsm c = scfi::core::scfi_harden(f, d, config);
      scfi::synfi::SynfiConfig synfi_config;
      report("word-level MDS region (sim)", scfi::synfi::analyze(f, c, synfi_config));
      synfi_config.backend = scfi::synfi::Backend::kSat;
      report("word-level MDS region (SAT)", scfi::synfi::analyze(f, c, synfi_config));
    }
    {
      // Gate level without optimization: every XOR2 of the diffusion network
      // stays a distinct fault site, matching the paper's per-gate injection.
      scfi::rtlil::Design d;
      const scfi::fsm::CompiledFsm c = scfi::core::scfi_harden(f, d, config);
      scfi::synth::lower_to_gates(*c.module);
      scfi::synfi::SynfiConfig synfi_config;
      report("gate-level MDS region (sim)", scfi::synfi::analyze(f, c, synfi_config));
    }
    {
      // Whole next-state logic with transient flips: exposes the small
      // pattern-match/modifier-select residual the paper documents in §7.
      scfi::rtlil::Design d;
      const scfi::fsm::CompiledFsm c = scfi::core::scfi_harden(f, d, config);
      scfi::synfi::SynfiConfig synfi_config;
      synfi_config.wire_prefix = "";
      report("whole logic, transient (sim)", scfi::synfi::analyze(f, c, synfi_config));
    }
    {
      // Whole next-state logic, stuck-at faults, as an extended experiment.
      scfi::rtlil::Design d;
      const scfi::fsm::CompiledFsm c = scfi::core::scfi_harden(f, d, config);
      scfi::synfi::SynfiConfig synfi_config;
      synfi_config.wire_prefix = "";
      synfi_config.kind = scfi::sim::FaultKind::kStuckAt1;
      report("whole logic, stuck-at-1 (sim)", scfi::synfi::analyze(f, c, synfi_config));
    }
    std::printf("\nAnalysis-engine throughput:\n");
  }

  // --- engine benchmarks ----------------------------------------------------

  // Exhaustive engine on an OpenTitan-zoo-scale sweep (the workload the
  // batching targets: thousands of (site, edge) jobs over one variant).
  const scfi::ot::OtEntry ot_entry = scfi::ot::ot_entry("i2c_fsm");
  scfi::rtlil::Design ot_design;
  const scfi::fsm::CompiledFsm ot_variant = scfi::ot::build_ot_variant(
      ot_entry, ot_design, scfi::ot::Variant::kScfi, 2, "i2c_fsm_bench");
  const int hw_threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int sim_iters = quick ? 1 : 10;
  const int sat_iters = quick ? 1 : 3;

  scfi::synfi::SynfiConfig sweep;
  scfi::synfi::SynfiReport scalar_report;
  scfi::synfi::SynfiReport batched_report;
  sweep.lanes = 1;
  sweep.threads = 1;
  const double sim_scalar =
      time_sweeps(ot_entry.fsm, ot_variant, sweep, sim_iters, &scalar_report);
  sweep.lanes = 64;
  const double sim_batched =
      time_sweeps(ot_entry.fsm, ot_variant, sweep, sim_iters, &batched_report);
  sweep.threads = hw_threads;
  scfi::synfi::SynfiReport threaded_report;
  const double sim_threaded =
      time_sweeps(ot_entry.fsm, ot_variant, sweep, sim_iters, &threaded_report);
  // The full 8-word lane block: 512 injection jobs per simulator pass.
  sweep.lanes = scfi::sim::kMaxLanes;
  sweep.threads = 1;
  scfi::synfi::SynfiReport wide_report;
  const double sim_wide =
      time_sweeps(ot_entry.fsm, ot_variant, sweep, sim_iters, &wide_report);
  sweep.threads = hw_threads;
  scfi::synfi::SynfiReport wide_threaded_report;
  const double sim_wide_threaded =
      time_sweeps(ot_entry.fsm, ot_variant, sweep, sim_iters, &wide_threaded_report);

  // The SAT and exhaustive back-ends count different units by design
  // ((site, edge) participation verdicts vs combinations x edges), so they
  // are cross-checked on verdicts: exploitable or not, and the same
  // exploitable site set.
  const auto sorted_sites = [](std::vector<std::string> sites) {
    std::sort(sites.begin(), sites.end());
    return sites;
  };
  const auto verdicts_agree = [&](const scfi::synfi::SynfiReport& sim,
                                  const scfi::synfi::SynfiReport& sat) {
    return (sim.exploitable > 0) == (sat.exploitable > 0) &&
           sorted_sites(sim.exploitable_sites) == sorted_sites(sat.exploitable_sites);
  };

  // SAT engine on the §6.4 module at k = 1.
  scfi::rtlil::Design d;
  const scfi::fsm::CompiledFsm c = scfi::core::scfi_harden(f, d, config);
  scfi::synfi::SynfiConfig sat_sweep;
  const scfi::synfi::SynfiReport sat_sim_report = scfi::synfi::analyze(f, c, sat_sweep);
  sat_sweep.backend = scfi::synfi::Backend::kSat;
  scfi::synfi::SynfiReport sat_report;
  const double sat_incremental = time_sweeps(f, c, sat_sweep, sat_iters, &sat_report);
  const bool sat_agree = verdicts_agree(sat_sim_report, sat_report);

  // k-fault threat model on the same §6.4 module at k = 2: the exhaustive
  // combination sweep vs the incremental SAT participation verdicts.
  scfi::synfi::SynfiConfig kfault_sweep;
  kfault_sweep.faults_k = 2;
  scfi::synfi::SynfiReport kfault_sim_report;
  const double kfault_sim = time_sweeps(f, c, kfault_sweep, sat_iters, &kfault_sim_report);
  kfault_sweep.backend = scfi::synfi::Backend::kSat;
  scfi::synfi::SynfiReport kfault_sat_report;
  const double kfault_sat = time_sweeps(f, c, kfault_sweep, sat_iters, &kfault_sat_report);
  const bool kfault_agree = verdicts_agree(kfault_sim_report, kfault_sat_report);

  // Whole-logic k = 2 SAT on a zoo module: about half of pwrmgr_fsm's sites
  // lie outside the state/alert cone, so this times the sliced miter and
  // the dead-site queries, cross-checked against the exhaustive back-end.
  const scfi::ot::OtEntry pwrmgr_entry = scfi::ot::ot_entry("pwrmgr_fsm");
  scfi::rtlil::Design pwrmgr_design;
  const scfi::fsm::CompiledFsm pwrmgr_variant = scfi::ot::build_ot_variant(
      pwrmgr_entry, pwrmgr_design, scfi::ot::Variant::kScfi, 2, "pwrmgr_sat_bench");
  scfi::synfi::SynfiConfig sat_logic;
  sat_logic.wire_prefix = "";
  sat_logic.faults_k = 2;
  const scfi::synfi::SynfiReport sat_logic_sim_report =
      scfi::synfi::analyze(pwrmgr_entry.fsm, pwrmgr_variant, sat_logic);
  sat_logic.backend = scfi::synfi::Backend::kSat;
  scfi::synfi::SynfiReport sat_logic_report;
  const double sat_logic_rate =
      time_sweeps(pwrmgr_entry.fsm, pwrmgr_variant, sat_logic, sat_iters, &sat_logic_report);
  const bool sat_logic_agree = verdicts_agree(sat_logic_sim_report, sat_logic_report);

  // Analyzer reuse on the biggest zoo module: a many-region / fault-kind
  // sweep where the per-call simulator build dominates the small region
  // queries (the workload SweepOrchestrator runs per variant).
  const scfi::ot::OtEntry otbn_entry = scfi::ot::ot_entry("otbn_controller");
  scfi::rtlil::Design otbn_design;
  const scfi::fsm::CompiledFsm otbn_variant = scfi::ot::build_ot_variant(
      otbn_entry, otbn_design, scfi::ot::Variant::kScfi, 2, "otbn_reuse_bench");
  std::vector<scfi::synfi::SynfiConfig> reuse_configs;
  for (const char* region : {"mds_", "mod", "match"}) {
    for (const auto kind : {scfi::sim::FaultKind::kTransientFlip,
                            scfi::sim::FaultKind::kStuckAt0, scfi::sim::FaultKind::kStuckAt1}) {
      scfi::synfi::SynfiConfig config;
      config.wire_prefix = region;
      config.kind = kind;
      reuse_configs.push_back(config);
    }
  }
  const ReuseTiming reuse =
      time_reuse(otbn_entry.fsm, otbn_variant, reuse_configs, quick ? 1 : 5);
  const double reuse_speedup =
      reuse.analyzer_seconds > 0 ? reuse.per_call_seconds / reuse.analyzer_seconds : 0.0;

  // Whole-logic k = 2 on the same variant: C(1185, 2) x 15 reported
  // injections, of which only the observable layers are simulated.
  scfi::synfi::SynfiConfig logic_k2;
  logic_k2.wire_prefix = "";
  logic_k2.faults_k = 2;
  logic_k2.lanes = scfi::sim::kMaxLanes;
  logic_k2.threads = hw_threads;
  scfi::synfi::Analyzer logic_analyzer(otbn_entry.fsm, otbn_variant);
  scfi::synfi::SynfiReport logic_report;
  const auto logic_t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < sim_iters; ++i) logic_report = logic_analyzer.run(logic_k2);
  const double logic_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - logic_t0).count() /
      sim_iters;
  const auto logic_simulated =
      static_cast<long long>(logic_analyzer.last_simulated_injections());
  const double logic_rate =
      logic_seconds > 0 ? static_cast<double>(logic_report.injections) / logic_seconds : 0.0;

  const bool engines_agree = scalar_report == batched_report &&
                             scalar_report == threaded_report &&
                             scalar_report == wide_report &&
                             scalar_report == wide_threaded_report &&
                             sat_agree && kfault_agree && sat_logic_agree &&
                             reuse.reports_agree;
  const double batch_speedup = sim_scalar > 0 ? sim_batched / sim_scalar : 0.0;
  const double wide_speedup = sim_batched > 0 ? sim_wide / sim_batched : 0.0;

  if (json) {
    std::printf("{\n");
    std::printf("  \"bench\": \"synfi\",\n");
    std::printf("  \"unit\": \"injections_per_second\",\n");
    std::printf("  \"exhaustive_module\": \"i2c_fsm_scfi_n2\",\n");
    std::printf("  \"exhaustive_region\": \"mds_\",\n");
    std::printf("  \"exhaustive_injections_per_sweep\": %lld,\n",
                static_cast<long long>(scalar_report.injections));
    std::printf("  \"engines_agree\": %s,\n", engines_agree ? "true" : "false");
    std::printf("  \"exhaustive_scalar\": %.1f,\n", sim_scalar);
    std::printf("  \"exhaustive_batched64\": %.1f,\n", sim_batched);
    std::printf("  \"exhaustive_batched64_threads\": %.1f,\n", sim_threaded);
    std::printf("  \"exhaustive_batched512\": %.1f,\n", sim_wide);
    std::printf("  \"exhaustive_batched512_threads\": %.1f,\n", sim_wide_threaded);
    std::printf("  \"exhaustive_batch_speedup\": %.2f,\n", batch_speedup);
    std::printf("  \"exhaustive_wide_batch_speedup\": %.2f,\n", wide_speedup);
    std::printf("  \"sat_module\": \"synfi14_n2\",\n");
    std::printf("  \"sat_queries_per_sweep\": %lld,\n",
                static_cast<long long>(sat_report.injections));
    std::printf("  \"sat_incremental\": %.1f,\n", sat_incremental);
    std::printf("  \"kfault_module\": \"synfi14_n2\",\n");
    std::printf("  \"kfault_k\": 2,\n");
    std::printf("  \"kfault_combinations_per_sweep\": %lld,\n",
                static_cast<long long>(kfault_sim_report.injections));
    std::printf("  \"kfault_sim\": %.1f,\n", kfault_sim);
    std::printf("  \"kfault_sat_incremental\": %.1f,\n", kfault_sat);
    std::printf("  \"sat_logic_k2_module\": \"pwrmgr_fsm_scfi_n2\",\n");
    std::printf("  \"sat_logic_k2_queries_per_sweep\": %lld,\n",
                static_cast<long long>(sat_logic_report.injections));
    std::printf("  \"sat_logic_k2_incremental\": %.1f,\n", sat_logic_rate);
    std::printf("  \"analyzer_reuse_module\": \"otbn_controller_scfi_n2\",\n");
    std::printf("  \"analyzer_reuse_configs\": %zu,\n", reuse_configs.size());
    std::printf("  \"analyzer_reuse_injections\": %lld,\n",
                static_cast<long long>(reuse.injections));
    std::printf("  \"analyzer_per_call_seconds\": %.4f,\n", reuse.per_call_seconds);
    std::printf("  \"analyzer_reused_seconds\": %.4f,\n", reuse.analyzer_seconds);
    std::printf("  \"analyzer_reuse_speedup\": %.2f,\n", reuse_speedup);
    std::printf("  \"logic_k2_module\": \"otbn_controller_scfi_n2\",\n");
    std::printf("  \"logic_k2_sites\": %lld,\n", static_cast<long long>(logic_report.sites));
    std::printf("  \"logic_k2_observable_sites\": %zu,\n",
                logic_analyzer.last_observable_sites());
    std::printf("  \"logic_k2_injections_per_sweep\": %lld,\n",
                static_cast<long long>(logic_report.injections));
    std::printf("  \"logic_k2_simulated_per_sweep\": %lld,\n", logic_simulated);
    std::printf("  \"logic_k2_exhaustive\": %.1f,\n", logic_rate);
    std::printf("  \"threads\": %d\n", hw_threads);
    std::printf("}\n");
  } else {
    std::printf("  exhaustive, i2c_fsm MDS region (%lld injections/sweep):\n",
                static_cast<long long>(scalar_report.injections));
    std::printf("    scalar  (lanes=1)               %12.0f inj/s\n", sim_scalar);
    std::printf("    batched (lanes=64)              %12.0f inj/s  (%.1fx)\n", sim_batched,
                batch_speedup);
    std::printf("    batched + %2d threads            %12.0f inj/s\n", hw_threads,
                sim_threaded);
    std::printf("    wide    (lanes=512)             %12.0f inj/s  (%.1fx over lanes=64)\n",
                sim_wide, wide_speedup);
    std::printf("    wide    + %2d threads            %12.0f inj/s\n", hw_threads,
                sim_wide_threaded);
    std::printf("  SAT, synfi14 MDS region (%lld queries/sweep):\n",
                static_cast<long long>(sat_report.injections));
    std::printf("    incremental (assumptions)       %12.0f q/s\n", sat_incremental);
    std::printf("  k-fault (k=2), synfi14 MDS region:\n");
    std::printf("    exhaustive combinations         %12.0f inj/s\n", kfault_sim);
    std::printf("    SAT participation queries       %12.0f q/s\n", kfault_sat);
    std::printf("  k-fault (k=2), pwrmgr_fsm whole logic (%lld queries/sweep):\n",
                static_cast<long long>(sat_logic_report.injections));
    std::printf("    SAT participation queries       %12.0f q/s\n", sat_logic_rate);
    std::printf("  Analyzer reuse, otbn_controller (%zu region/kind queries, %lld injections):\n",
                reuse_configs.size(), static_cast<long long>(reuse.injections));
    std::printf("    fresh analyze() per query       %12.4f s/sweep\n", reuse.per_call_seconds);
    std::printf("    one Analyzer, re-queried        %12.4f s/sweep  (%.1fx)\n",
                reuse.analyzer_seconds, reuse_speedup);
    std::printf("  whole logic k=2, otbn_controller (%lld sites, %zu observable):\n",
                static_cast<long long>(logic_report.sites),
                logic_analyzer.last_observable_sites());
    std::printf("    reported / simulated injections %12lld / %lld\n",
                static_cast<long long>(logic_report.injections), logic_simulated);
    std::printf("    exhaustive + %2d threads         %12.0f inj/s  (%.4f s/sweep)\n",
                hw_threads, logic_rate, logic_seconds);
    std::printf("  engine reports agree:             %s\n", engines_agree ? "yes" : "NO");
  }
  return engines_agree ? 0 : 1;
}
