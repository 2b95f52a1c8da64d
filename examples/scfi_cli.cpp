// scfi_cli — command-line front door to the toolchain, the analog of the
// paper's "call the SCFI Yosys pass in the design flow".
//
// Usage:
//   scfi_cli harden  <file.kiss2> [-n LEVEL] [-o out.v] [--json out.json]
//   scfi_cli area    <file.kiss2> [-n LEVEL]
//   scfi_cli synfi   <file.kiss2> [-n LEVEL] [--backend sim|sat] [--faults-k K]
//                    [--target any|inputs|state|logic] [--lanes K]
//                    [--threads K]
//   scfi_cli attack  <file.kiss2> [-n LEVEL] [--faults-k K]
//                    [--target any|inputs|state|logic] [--lanes K] [--threads K]
//   scfi_cli sweep   [--corpus DIR | --corpus-verilog DIR] [--modules GLOBS]
//                    [--levels 2,3] [--regions mds_,all]
//                    [--kinds flip,stuck0,stuck1]
//                    [--backend sim|sat] [--faults-k K] [--target any,state,...]
//                    [--campaign-runs N] [--campaign-cycles N]
//                    [--campaign-faults N] [--campaign-seed N]
//                    [--campaign-variants scfi,unprotected,redundancy]
//                    [--campaign-target any,inputs,state,logic]
//                    [--out results.jsonl] [--resume] [--jobs K] [--threads K]
//                    [--retries N] [--job-timeout SECONDS]
//                    [--fleet N] [--max-crashes N] [--heartbeat-timeout SECONDS]
//                    [--drain-grace SECONDS] [--wedge SECONDS]
//   scfi_cli sweep-diff <baseline.jsonl> <candidate.jsonl>
//                    [--max-exploitable-increase N]
//                    [--max-hijack-rate-increase F] [--max-detection-rate-drop F]
//                    [--wilson-z Z] [--wilson-min-trials N] [--fail-on-removed]
//   scfi_cli store-compact <store.jsonl>
//   scfi_cli dot     <file.kiss2>
//   scfi_cli import-verilog <file.v> [--dot]
// Without a file argument a built-in demo FSM is used. `import-verilog`
// parses a structural Verilog netlist with the frontends reader, elaborates
// every module, and reports ports plus every extracted FSM (state register,
// encoding, states/transitions); --dot additionally dumps each machine as
// Graphviz. `attack --faults-k` sets the faults per run. `sweep` runs the
// SYNFI job matrix over every module matching the globs — drawn from the
// OpenTitan zoo, or, with --corpus DIR, from the .kiss2 files discovered
// recursively under DIR, or, with --corpus-verilog DIR, from the FSMs
// extracted out of the .v netlists under DIR (both corpora share one scan:
// files that fail to
// parse/elaborate/extract, and entries whose name another entry also has,
// are reported per module and skipped, not fatal) — plus, with
// --campaign-runs > 0, a Monte-Carlo
// campaign job per module x level x kind x campaign-variant — and streams
// JSONL results into --out; --resume skips jobs already ok there (failed
// and timed-out keys re-execute). A job that throws is retried --retries
// times with backoff, then recorded as a failure record (the sweep exits 1
// but the other jobs complete); --job-timeout bounds each job's wall clock.
// --fleet N forks N supervised worker subprocesses; the supervisor hands
// each idle worker its next job and writes every record into the --out
// store (see src/sweep/README.md): a worker that crashes or stops
// heartbeating is reaped and respawned, its job returns to the queue, and a
// job that kills its worker --max-crashes times is quarantined as a failed
// record with error "crashed". SIGTERM/SIGINT drains the fleet gracefully:
// workers finish their in-flight job within --drain-grace seconds, the
// store is saved compacted, and the exit code reports unfinished work.
// `sweep-diff` compares two stores and exits non-zero when a metric
// regresses beyond its threshold (rates are fractions: 0.005 = half a
// percentage point); campaign rates gate on Wilson-interval separation at
// --wilson-z (default 1.96, 0 = absolute deltas only), falling back to
// absolute deltas below --wilson-min-trials trials.
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "backends/json.h"
#include "base/error.h"
#include "backends/verilog.h"
#include "base/strutil.h"
#include "core/harden.h"
#include "frontends/verilog_parse.h"
#include "fsm/dot.h"
#include "fsm/extract.h"
#include "fsm/kiss2.h"
#include "ot/zoo.h"
#include "redundancy/redundancy.h"
#include "rtlil/design.h"
#include "sim/campaign.h"
#include "sweep/diff_report.h"
#include "sweep/module_source.h"
#include "sweep/supervisor.h"
#include "sweep/sweep.h"
#include "synfi/synfi.h"

namespace {

const char* kDemo = R"(
.i 2
.o 1
.s 3
.p 4
.r IDLE
1- IDLE RUN  1
-1 RUN  DONE 0
-- DONE IDLE 0
00 RUN  RUN  1
.e
)";

scfi::fsm::Fsm load_fsm(const std::string& path) {
  if (path.empty()) return scfi::fsm::parse_kiss2(kDemo, "demo");
  return scfi::fsm::parse_kiss2_file(path, path);
}

int usage() {
  std::fprintf(stderr,
               "usage: scfi_cli <harden|area|synfi|attack|sweep|sweep-diff|store-compact|dot"
               "|import-verilog> [file.kiss2|file.v]\n"
               "  harden/area/synfi/attack: -n LEVEL  protection level (default 2)\n"
               "  harden:  -o out.v --json out.json\n"
               "  synfi:   --backend sim|sat --faults-k K --target any|inputs|state|logic\n"
               "           --lanes K --threads K\n"
               "  attack:  --faults-k K (faults per run)\n"
               "           --target any|inputs|state|logic\n"
               "           --lanes K --threads K\n"
               "  (--lanes: simulator runs per pass, 1..512 = 64 x lane_words;\n"
               "   widths past 64 use multi-word SIMD lane blocks; default auto-\n"
               "   selects per module size)\n"
               "  import-verilog: <file.v>  parse + elaborate a structural Verilog\n"
               "           netlist and report ports + extracted FSMs; --dot dumps\n"
               "           each machine as Graphviz\n"
               "  sweep:   --corpus DIR (sweep .kiss2 files instead of the zoo)\n"
               "           --corpus-verilog DIR (sweep FSMs extracted from .v netlists)\n"
               "           --modules GLOBS --levels 2,3 --regions mds_,all\n"
               "           --kinds flip,stuck0,stuck1 --backend sim|sat\n"
               "           --faults-k K --target any,state,... (synfi target classes;\n"
               "            a state job runs once per kind, under region all, and an\n"
               "            inputs job fails when its region selects no input port)\n"
               "           --campaign-runs N --campaign-cycles N --campaign-faults N\n"
               "           --campaign-seed N --campaign-variants scfi,unprotected\n"
               "           --campaign-target any,inputs,state,logic\n"
               "           --out results.jsonl --resume --jobs K --threads K --lanes K\n"
               "           (--jobs: variant groups open at once; --threads: thread\n"
               "            budget, max(jobs, threads) threads run and the idle ones\n"
               "            help the open groups' runs)\n"
               "           --retries N --job-timeout SECONDS\n"
               "           --fleet N (supervised worker subprocesses; needs --out)\n"
               "           --max-crashes N --heartbeat-timeout SECONDS\n"
               "           --drain-grace SECONDS --wedge SECONDS\n"
               "  sweep-diff: <baseline.jsonl> <candidate.jsonl>\n"
               "           --max-exploitable-increase N --max-hijack-rate-increase F\n"
               "           --max-detection-rate-drop F --wilson-z Z\n"
               "           --wilson-min-trials N --fail-on-removed\n"
               "  store-compact: <store.jsonl>  rewrite latest-wins compact "
               "(salvages a torn tail)\n");
  return 2;
}

int parse_positive(const std::string& flag, const char* text) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  scfi::require(end != text && *end == '\0' && value >= 1 && value <= INT_MAX,
                "scfi_cli: " + flag + " must be a positive integer, got '" +
                    std::string(text) + "'");
  return static_cast<int>(value);
}

long long parse_count(const std::string& flag, const char* text) {
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  scfi::require(end != text && *end == '\0' && value >= 0,
                "scfi_cli: " + flag + " must be a non-negative integer, got '" +
                    std::string(text) + "'");
  return value;
}

double parse_fraction(const std::string& flag, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  scfi::require(end != text && *end == '\0' && value >= 0.0 && value <= 1.0,
                "scfi_cli: " + flag + " must be a fraction in [0, 1], got '" +
                    std::string(text) + "'");
  return value;
}

double parse_zscore(const std::string& flag, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  scfi::require(end != text && *end == '\0' && value >= 0.0 && value <= 100.0,
                "scfi_cli: " + flag + " must be a z-score in [0, 100], got '" +
                    std::string(text) + "'");
  return value;
}

double parse_seconds(const std::string& flag, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  scfi::require(end != text && *end == '\0' && value >= 0.0,
                "scfi_cli: " + flag + " must be a non-negative number of seconds, got '" +
                    std::string(text) + "'");
  return value;
}

std::vector<int> parse_levels(const std::string& text) {
  std::vector<int> levels;
  for (const std::string& field : scfi::split(text, ",")) {
    levels.push_back(parse_positive("--levels", field.c_str()));
  }
  return levels;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::vector<std::string> positional;
  std::string verilog_out;
  std::string json_out;
  std::string modules = "*";
  std::string levels = "2";
  std::string regions = "mds_";
  std::string kinds = "flip";
  std::string backend_name = "sim";
  std::string sweep_out;
  std::string corpus_dir;
  std::string corpus_verilog_dir;
  bool dot_dump = false;
  std::string campaign_variants = "scfi";
  std::string campaign_target = "any";
  bool resume = false;
  bool level_set = false;
  int level = 2;
  int faults_k = 1;
  std::string target = "any";
  // 0 = auto: pick the lane count per module via synfi::auto_lanes. An
  // explicit --lanes is never second-guessed.
  int lanes = 0;
  int threads = 1;
  int jobs = 1;
  int campaign_runs = 0;
  int campaign_cycles = 24;
  int campaign_faults = 1;
  long long campaign_seed = 1;
  int retries = 2;
  double job_timeout = 0.0;
  int fleet = 0;
  int max_crashes = 2;
  double heartbeat_timeout = 10.0;
  double drain_grace = 30.0;
  double wedge_seconds = 0.0;
  scfi::sweep::DiffThresholds thresholds;

  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (arg == "-n" && has_value) {
        level = parse_positive("-n", argv[++i]);
        level_set = true;
      } else if (arg == "-o" && has_value) {
        verilog_out = argv[++i];
      } else if (arg == "--json" && has_value) {
        json_out = argv[++i];
      } else if (arg == "--faults-k" && has_value) {
        faults_k = parse_positive("--faults-k", argv[++i]);
      } else if (arg == "--target" && has_value) {
        target = argv[++i];
        for (const std::string& t : scfi::split(target, ",")) {
          scfi::sweep::fault_target_of(t);  // validate now, use later
        }
      } else if (arg == "--lanes" && has_value) {
        lanes = parse_positive("--lanes", argv[++i]);
        scfi::require(lanes <= scfi::sim::kMaxLanes,
                      "scfi_cli: --lanes must be in [1, 512] (64 x lane_words)");
      } else if (arg == "--threads" && has_value) {
        threads = parse_positive("--threads", argv[++i]);
      } else if (arg == "--jobs" && has_value) {
        jobs = parse_positive("--jobs", argv[++i]);
      } else if (arg == "--backend" && has_value) {
        backend_name = argv[++i];
        scfi::sweep::backend_of(backend_name);  // validate now, use later
      } else if (arg == "--modules" && has_value) {
        modules = argv[++i];
      } else if (arg == "--levels" && has_value) {
        levels = argv[++i];
      } else if (arg == "--regions" && has_value) {
        regions = argv[++i];
      } else if (arg == "--kinds" && has_value) {
        kinds = argv[++i];
      } else if (arg == "--out" && has_value) {
        sweep_out = argv[++i];
      } else if (arg == "--corpus" && has_value) {
        corpus_dir = argv[++i];
      } else if (arg == "--corpus-verilog" && has_value) {
        corpus_verilog_dir = argv[++i];
      } else if (arg == "--dot") {
        dot_dump = true;
      } else if (arg == "--resume") {
        resume = true;
      } else if (arg == "--retries" && has_value) {
        const long long value = parse_count("--retries", argv[++i]);
        scfi::require(value <= INT_MAX, "scfi_cli: --retries too large");
        retries = static_cast<int>(value);
      } else if (arg == "--job-timeout" && has_value) {
        job_timeout = parse_seconds("--job-timeout", argv[++i]);
      } else if (arg == "--fleet" && has_value) {
        fleet = parse_positive("--fleet", argv[++i]);
      } else if (arg == "--max-crashes" && has_value) {
        max_crashes = parse_positive("--max-crashes", argv[++i]);
      } else if (arg == "--heartbeat-timeout" && has_value) {
        heartbeat_timeout = parse_seconds("--heartbeat-timeout", argv[++i]);
      } else if (arg == "--drain-grace" && has_value) {
        drain_grace = parse_seconds("--drain-grace", argv[++i]);
      } else if (arg == "--wedge" && has_value) {
        wedge_seconds = parse_seconds("--wedge", argv[++i]);
      } else if (arg == "--campaign-runs" && has_value) {
        // 0 is the documented off state (SYNFI-only sweep), so scripts can
        // pass it explicitly.
        const long long value = parse_count("--campaign-runs", argv[++i]);
        scfi::require(value <= INT_MAX, "scfi_cli: --campaign-runs too large");
        campaign_runs = static_cast<int>(value);
      } else if (arg == "--campaign-cycles" && has_value) {
        campaign_cycles = parse_positive("--campaign-cycles", argv[++i]);
      } else if (arg == "--campaign-faults" && has_value) {
        campaign_faults = parse_positive("--campaign-faults", argv[++i]);
      } else if (arg == "--campaign-seed" && has_value) {
        campaign_seed = parse_count("--campaign-seed", argv[++i]);
      } else if (arg == "--campaign-variants" && has_value) {
        campaign_variants = argv[++i];
      } else if (arg == "--campaign-target" && has_value) {
        campaign_target = argv[++i];
        for (const std::string& t : scfi::split(campaign_target, ",")) {
          scfi::sweep::fault_target_of(t);  // validate now, use later
        }
      } else if (arg == "--max-exploitable-increase" && has_value) {
        thresholds.max_exploitable_increase =
            parse_count("--max-exploitable-increase", argv[++i]);
      } else if (arg == "--max-hijack-rate-increase" && has_value) {
        thresholds.max_hijack_rate_increase =
            parse_fraction("--max-hijack-rate-increase", argv[++i]);
      } else if (arg == "--max-detection-rate-drop" && has_value) {
        thresholds.max_detection_rate_drop =
            parse_fraction("--max-detection-rate-drop", argv[++i]);
      } else if (arg == "--wilson-z" && has_value) {
        thresholds.wilson_z = parse_zscore("--wilson-z", argv[++i]);
      } else if (arg == "--wilson-min-trials" && has_value) {
        thresholds.wilson_min_trials = parse_count("--wilson-min-trials", argv[++i]);
      } else if (arg == "--fail-on-removed") {
        thresholds.fail_on_removed = true;
      } else if (!arg.empty() && arg[0] != '-') {
        positional.push_back(arg);
      } else {
        return usage();
      }
    }
    const std::string file = positional.empty() ? "" : positional.front();

    if (command == "store-compact") {
      scfi::require(positional.size() == 1,
                    "scfi_cli: store-compact takes exactly one JSONL store path");
      const std::string& path = positional[0];
      // compact_file fails loudly (path + reason) on a missing or empty
      // store: compacting nothing means the caller pointed at the wrong
      // file, and a silent success would hide that.
      const scfi::sweep::ResultStore::CompactStats stats =
          scfi::sweep::ResultStore::compact_file(path);
      std::printf("store-compact: %zu line(s) -> %zu record(s) in %s\n", stats.lines,
                  stats.records, path.c_str());
      return 0;
    }

    if (command == "import-verilog") {
      scfi::require(positional.size() == 1,
                    "scfi_cli: import-verilog takes exactly one .v netlist path");
      scfi::rtlil::Design design;
      const std::vector<scfi::rtlil::Module*> modules =
          scfi::frontends::read_verilog_file(positional[0], design);
      for (const scfi::rtlil::Module* module : modules) {
        std::printf("module %s\n", module->name().c_str());
        for (const scfi::rtlil::Wire* w : module->wires()) {
          if (!w->is_input() && !w->is_output()) continue;
          std::printf("  %-6s %s", w->is_input() ? "input" : "output", w->name().c_str());
          if (w->width() > 1) std::printf(" [%d:0]", w->width() - 1);
          std::printf("\n");
        }
        const std::vector<scfi::fsm::ExtractedFsm> machines =
            scfi::fsm::extract_fsms(*module);
        if (machines.empty()) {
          std::printf("  no FSM found\n");
          continue;
        }
        for (const scfi::fsm::ExtractedFsm& machine : machines) {
          std::printf("  fsm @ %s: %s-encoded, %d state(s), %d input(s), %d output(s), "
                      "%zu transition(s)\n",
                      machine.state_wire.c_str(), scfi::fsm::encoding_name(machine.encoding),
                      machine.fsm.num_states(), machine.fsm.num_inputs(),
                      machine.fsm.num_outputs(), machine.fsm.transitions.size());
          for (std::size_t s = 0; s < machine.state_codes.size(); ++s) {
            std::printf("    %s = code %llu%s\n", machine.fsm.states[s].c_str(),
                        static_cast<unsigned long long>(machine.state_codes[s]),
                        s == 0 ? " (reset)" : "");
          }
          if (dot_dump) std::fputs(scfi::fsm::to_dot(machine.fsm).c_str(), stdout);
        }
      }
      return 0;
    }

    if (command == "sweep-diff") {
      scfi::require(positional.size() == 2,
                    "scfi_cli: sweep-diff takes exactly two JSONL store paths");
      const scfi::sweep::ResultStore baseline =
          scfi::sweep::ResultStore::load(positional[0]);
      scfi::require(baseline.size() > 0,
                    "scfi_cli: baseline store " + positional[0] + " is missing or empty");
      const scfi::sweep::ResultStore candidate =
          scfi::sweep::ResultStore::load(positional[1]);
      scfi::require(candidate.size() > 0,
                    "scfi_cli: candidate store " + positional[1] + " is missing or empty");
      const scfi::sweep::DiffReport report =
          scfi::sweep::diff_report(baseline, candidate, thresholds);
      std::fputs(report.render().c_str(), stdout);
      return report.gate_failed ? 1 : 0;
    }

    if (command == "sweep") {
      // Protection levels come from --levels and modules from --modules;
      // reject the single-FSM flags instead of silently ignoring them.
      scfi::require(!level_set, "scfi_cli: sweep takes --levels 2,3 (not -n)");
      scfi::require(file.empty(),
                    "scfi_cli: sweep runs over zoo/corpus modules (--modules/--corpus), "
                    "not a kiss2 file");
      // Module population: the built-in zoo, a .kiss2 corpus directory, or
      // a directory of Verilog netlists (FSMs extracted on the fly). Corpus
      // files that fail to parse/extract are loud per-module error records,
      // not sweep aborts.
      scfi::require(corpus_dir.empty() || corpus_verilog_dir.empty(),
                    "scfi_cli: --corpus and --corpus-verilog are mutually exclusive");
      const auto report_corpus = [](const auto& corpus) {
        for (const scfi::sweep::CorpusError& error : corpus.errors()) {
          std::fprintf(stderr, "corpus error: %s: %s\n", error.path.c_str(),
                       error.message.c_str());
        }
        std::printf("corpus %s: %zu module(s), %zu skipped\n",
                    corpus.label().c_str(), corpus.size(), corpus.errors().size());
      };
      std::unique_ptr<scfi::sweep::ModuleSource> source;
      if (!corpus_dir.empty()) {
        auto corpus = std::make_unique<scfi::sweep::Kiss2CorpusSource>(corpus_dir);
        report_corpus(*corpus);
        source = std::move(corpus);
      } else if (!corpus_verilog_dir.empty()) {
        auto corpus = std::make_unique<scfi::sweep::VerilogCorpusSource>(corpus_verilog_dir);
        report_corpus(*corpus);
        source = std::move(corpus);
      } else {
        source = std::make_unique<scfi::sweep::ZooSource>();
      }
      // Job matrix: modules x levels x (regions x kinds x targets), all on
      // one backend and one attacker strength (--faults-k).
      std::vector<scfi::sim::FaultKind> kind_list;
      for (const std::string& kind : scfi::split(kinds, ",")) {
        kind_list.push_back(scfi::sweep::fault_kind_of(kind));
      }
      std::vector<scfi::sim::FaultTarget> target_list;
      for (const std::string& t : scfi::split(target, ",")) {
        target_list.push_back(scfi::sweep::fault_target_of(t));
      }
      const std::vector<scfi::synfi::SynfiConfig> configs =
          scfi::sweep::synfi_matrix(scfi::split(regions, ","), kind_list, target_list, faults_k,
                                    scfi::sweep::backend_of(backend_name));
      std::vector<scfi::sweep::SweepJob> sweep_jobs =
          scfi::sweep::expand_jobs(*source, modules, parse_levels(levels), configs);
      if (campaign_runs > 0) {
        // Monte-Carlo campaign jobs ride along: one per module x level x
        // kind x campaign-target x campaign-variant, executed on the
        // streaming planner.
        std::vector<scfi::sim::CampaignConfig> campaign_configs;
        for (const std::string& kind : scfi::split(kinds, ",")) {
          for (const std::string& t : scfi::split(campaign_target, ",")) {
            scfi::sim::CampaignConfig config;
            config.runs = campaign_runs;
            config.cycles = campaign_cycles;
            config.fault.k = campaign_faults;
            config.seed = static_cast<std::uint64_t>(campaign_seed);
            config.fault.kinds = {scfi::sweep::fault_kind_of(kind)};
            config.fault.target = scfi::sweep::fault_target_of(t);
            campaign_configs.push_back(config);
          }
        }
        for (const std::string& variant : scfi::split(campaign_variants, ",")) {
          const std::vector<scfi::sweep::SweepJob> campaign_jobs =
              scfi::sweep::expand_campaign_jobs(*source, modules, parse_levels(levels),
                                                campaign_configs, variant);
          sweep_jobs.insert(sweep_jobs.end(), campaign_jobs.begin(), campaign_jobs.end());
        }
      }

      scfi::require(!resume || !sweep_out.empty(),
                    "scfi_cli: --resume needs --out (the JSONL store to resume from)");
      const std::string lanes_note = lanes == 0 ? "auto" : std::to_string(lanes);

      const auto print_record = [](const scfi::sweep::SweepResult& r) {
        if (r.status == scfi::sweep::JobStatus::kFailed) {
          std::printf("  %-48s FAILED after %d attempt(s): %s [%.3fs]\n", r.key().c_str(),
                      r.attempts, r.error.c_str(), r.seconds);
        } else if (r.job.type == scfi::sweep::JobType::kCampaign) {
          std::printf("  %-48s hijack=%.4f%% detection=%.2f%% effective=%d/%d [%.3fs]\n",
                      r.key().c_str(), 100.0 * r.campaign.hijack_rate(),
                      100.0 * r.campaign.detection_rate(), r.campaign.effective(),
                      r.campaign.runs, r.seconds);
        } else {
          std::printf("  %-48s injections=%6lld exploitable=%4lld (%.2f%%) [%.3fs]\n",
                      r.key().c_str(), static_cast<long long>(r.report.injections),
                      static_cast<long long>(r.report.exploitable), r.report.exploitable_pct(),
                      r.seconds);
        }
      };

      if (fleet > 0) {
        // Fleet mode: the supervisor forks the workers and writes their
        // records into the --out store.
        scfi::require(!sweep_out.empty(),
                      "scfi_cli: --fleet needs --out (the JSONL store the supervisor "
                      "writes)");
        scfi::sweep::FleetConfig fleet_config;
        fleet_config.workers = fleet;
        fleet_config.max_crashes = max_crashes;
        fleet_config.heartbeat_timeout = heartbeat_timeout;
        fleet_config.drain_grace = drain_grace;
        fleet_config.wedge_seconds = wedge_seconds;
        fleet_config.job.jobs = 1;
        fleet_config.job.threads = threads;  // thread budget PER WORKER
        fleet_config.job.lanes = lanes;
        fleet_config.job.retries = retries;
        fleet_config.job.job_timeout = job_timeout;
        if (const char* poison = std::getenv("SCFI_FLEET_POISON")) {
          fleet_config.poison_key = poison;  // test hook: crash its worker
        }
        std::printf(
            "sweep config: %zu job(s), fleet=%d threads=%d lanes=%s backend=%s%s out=%s\n",
            sweep_jobs.size(), fleet, threads, lanes_note.c_str(), backend_name.c_str(),
            resume ? " resume" : "", sweep_out.c_str());
        scfi::sweep::FleetSupervisor supervisor(fleet_config);
        const scfi::sweep::FleetStats stats =
            supervisor.run(sweep_jobs, sweep_out, resume, source.get());
        // The supervisor's final save left a compacted store.
        const scfi::sweep::ResultStore merged = scfi::sweep::ResultStore::load(sweep_out);
        for (const scfi::sweep::SweepResult& r : merged.results()) print_record(r);
        std::printf(
            "sweep fleet: executed %d job(s), skipped %d, failed %d (quarantined %d), "
            "unfinished %d, crashes %d, respawns %d%s\n",
            stats.executed, stats.skipped, stats.failed, stats.quarantined,
            stats.unfinished, stats.crashes, stats.respawns,
            stats.drained ? ", drained" : "");
        return (stats.failed > 0 || stats.unfinished > 0) ? 1 : 0;
      }

      scfi::sweep::ResultStore store;
      // Resume tolerates the torn final line a killed run can leave (the
      // salvage is loudly warned and the torn job simply re-executes);
      // sweep-diff keeps loading strictly — a gate must not guess. The
      // salvaged store is rewritten before any new append: a torn tail has
      // no trailing newline, so appending straight onto it would glue the
      // next record into the garbage. The rewrite also compacts the
      // append history to latest-wins.
      if (resume) {
        store = scfi::sweep::ResultStore::load(sweep_out, /*recover_torn_tail=*/true);
        store.save(sweep_out);
      }
      scfi::sweep::SweepConfig sweep_config;
      sweep_config.jobs = jobs;
      sweep_config.threads = threads;
      sweep_config.lanes = lanes;
      sweep_config.retries = retries;
      sweep_config.job_timeout = job_timeout;
      const std::string out_note = sweep_out.empty() ? "" : " out=" + sweep_out;
      std::printf("sweep config: %zu job(s), jobs=%d threads=%d lanes=%s backend=%s%s%s\n",
                  sweep_jobs.size(), jobs, threads, lanes_note.c_str(), backend_name.c_str(),
                  resume ? " resume" : "", out_note.c_str());
      scfi::sweep::SweepOrchestrator orchestrator(sweep_config);
      const scfi::sweep::SweepStats stats =
          orchestrator.run(sweep_jobs, store, sweep_out, resume, source.get());
      for (const scfi::sweep::SweepResult& r : store.results()) print_record(r);
      if (!sweep_out.empty()) {
        std::printf("sweep store: %d record(s) appended to %s with %d fsync(s)\n",
                    stats.executed + stats.failed, sweep_out.c_str(), stats.syncs);
      }
      std::printf("sweep: executed %d job(s), skipped %d, failed %d, retried %d\n",
                  stats.executed, stats.skipped, stats.failed, stats.retried);
      // Failure records do not abort the fleet, but they must not look like
      // a clean sweep to scripts either.
      return stats.failed > 0 ? 1 : 0;
    }

    const scfi::fsm::Fsm fsm = load_fsm(file);
    if (command == "dot") {
      std::cout << scfi::fsm::to_dot(fsm);
      return 0;
    }

    scfi::rtlil::Design design;
    scfi::core::ScfiConfig config;
    config.protection_level = level;
    scfi::core::ScfiReport report;
    const scfi::fsm::CompiledFsm hard =
        scfi::core::scfi_harden(fsm, design, config, &report);

    if (command == "harden") {
      std::printf("hardened %s: N=%d, %d states (%d-bit), %zu symbols (%d-bit), %d lane(s)\n",
                  fsm.name.c_str(), level, fsm.num_states(), report.plan.state_width,
                  report.plan.symbol_codes.size(), report.plan.symbol_width, report.lanes);
      if (!verilog_out.empty()) {
        std::ofstream out(verilog_out);
        scfi::backends::write_verilog(*hard.module, out);
        std::printf("wrote %s\n", verilog_out.c_str());
      } else {
        scfi::backends::write_verilog(*hard.module, std::cout);
      }
      if (!json_out.empty()) {
        std::ofstream out(json_out);
        scfi::backends::write_json(*hard.module, out);
        std::printf("wrote %s\n", json_out.c_str());
      }
      return 0;
    }
    if (command == "area") {
      scfi::rtlil::Design d2;
      const auto plain = scfi::fsm::compile_unprotected(fsm, d2);
      scfi::redundancy::RedundancyConfig rc;
      rc.protection_level = level;
      const auto redundant = scfi::redundancy::build_redundant(fsm, d2, rc);
      const double ua = scfi::ot::synthesize_area(*plain.module).total_ge;
      const double ra = scfi::ot::synthesize_area(*redundant.module).total_ge;
      const double sa = scfi::ot::synthesize_area(*hard.module).total_ge;
      std::printf("area [GE]: unprotected %.0f, redundancy %.0f (+%.0f%%), scfi %.0f (+%.0f%%)\n",
                  ua, ra, 100.0 * (ra - ua) / ua, sa, 100.0 * (sa - ua) / ua);
      return 0;
    }
    if (command == "synfi") {
      scfi::synfi::SynfiConfig synfi_config;
      synfi_config.backend = scfi::sweep::backend_of(backend_name);
      synfi_config.faults_k = faults_k;
      synfi_config.target = scfi::sweep::fault_target_of(target);
      synfi_config.lanes = lanes > 0 ? lanes : scfi::synfi::auto_lanes(*hard.module);
      synfi_config.threads = threads;
      std::printf("synfi config: backend=%s k=%d target=%s lanes=%d threads=%d\n",
                  backend_name.c_str(), faults_k, target.c_str(), synfi_config.lanes, threads);
      scfi::synfi::Analyzer analyzer(fsm, hard);
      const scfi::synfi::SynfiReport r = analyzer.run(synfi_config);
      std::printf("synfi: %lld sites, %lld injections, %lld exploitable (%.2f%%), %lld detected\n",
                  static_cast<long long>(r.sites), static_cast<long long>(r.injections),
                  static_cast<long long>(r.exploitable), r.exploitable_pct(),
                  static_cast<long long>(r.detected));
      if (synfi_config.backend == scfi::synfi::Backend::kExhaustiveSim) {
        std::printf("simulated %llu of %lld injections (%zu of %lld sites observable)\n",
                    static_cast<unsigned long long>(analyzer.last_simulated_injections()),
                    static_cast<long long>(r.injections), analyzer.last_observable_sites(),
                    static_cast<long long>(r.sites));
      }
      // The smallest exploitable fault count up to --faults-k; for an
      // encoding with minimum distance d this is d once k reaches it. The
      // report above answers k = --faults-k, so only smaller k re-run.
      const int degree = scfi::synfi::measured_protection_degree(analyzer, synfi_config, r);
      if (degree > 0) {
        std::printf("protection degree: %d (smallest exploitable k, probed up to %d)\n",
                    degree, faults_k);
      } else {
        std::printf("protection degree: > %d (no exploitable fault set up to k=%d)\n",
                    faults_k, faults_k);
      }
      return 0;
    }
    if (command == "attack") {
      scfi::sim::CampaignConfig campaign;
      campaign.runs = 1000;
      campaign.cycles = 20;
      campaign.fault.k = faults_k;
      campaign.fault.target = scfi::sweep::fault_target_of(target);
      campaign.lanes = lanes > 0 ? lanes : scfi::synfi::auto_lanes(*hard.module);
      campaign.threads = threads;
      std::printf("attack config: k=%d target=%s lanes=%d threads=%d\n", campaign.fault.k,
                  target.c_str(), campaign.lanes, threads);
      const auto r = scfi::sim::run_campaign(fsm, hard, campaign);
      std::printf("attack with %d fault(s): hijack %.2f%%, detected %.2f%% of effective,"
                  " masked %d/%d\n",
                  campaign.fault.k, 100.0 * r.hijacked / r.runs, 100.0 * r.detection_rate(),
                  r.masked, r.runs);
      std::printf("simulated %d of %d runs (%.1f%%); the rest had every fault outside the "
                  "alert/state cone\n",
                  r.simulated, r.runs, r.runs > 0 ? 100.0 * r.simulated / r.runs : 0.0);
      return 0;
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
