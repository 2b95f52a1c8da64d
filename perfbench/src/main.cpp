// perfbench: the sweep benchmark. One process runs one workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR --reference DIR [--write-reference]
//
// --trace 0 repeats set-up + SweepOrchestrator::run until S seconds are
// spent and reports the end-to-end metrics (medians over the repetitions,
// times scaled to the reference host's speed by a calibration kernel).
// --trace 1 alternates an untraced sweep with a traced replay of the same job
// list and reports the per-layer metrics of the median replay. Every
// repetition checks its verdicts; the last stdout line is the result object.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "base/error.h"
#include "calibrate.h"
#include "stats.h"
#include "sweep_bench.h"

namespace {

namespace fs = std::filesystem;
namespace sw = scfi::sweep;
using perfbench::Span;
using perfbench::quartiles;

constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench";
  std::string reference_dir = "perfbench/reference";
  bool write_reference = false;
};

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      scfi::require(i + 1 < argc, "perfbench: " + arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--trace") {
      opt.trace = value() != "0";
    } else if (arg == "--work-dir") {
      opt.work_dir = value();
    } else if (arg == "--reference") {
      opt.reference_dir = value();
    } else if (arg == "--write-reference") {
      opt.write_reference = true;
    } else {
      throw scfi::ScfiError("perfbench: unknown argument " + arg);
    }
  }
  const auto& names = perfbench::workload_names();
  scfi::require(std::find(names.begin(), names.end(), opt.workload) != names.end(),
                "perfbench: --workload must be one of synfi_k2_logic, synfi_sat_logic, "
                "campaign_mc, corpus_matrix");
  scfi::require(opt.seconds > 0.0, "perfbench: --seconds must be > 0");
  return opt;
}

std::string num(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string list_json(const std::vector<double>& values) {
  std::string out = "[";
  for (const double v : values) out += (out.size() > 1 ? "," : "") + num(v);
  return out + "]";
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
#if defined(__x86_64__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000U, nullptr) >= 0x80000004U) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002U + leaf, &regs[4 * leaf], &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                  &regs[4 * leaf + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();  // up to the first NUL
    const auto first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

/// Host fingerprint stamped on every recorded run.
std::string host_json(const Options& opt, int workers) {
  const auto kib = [](int name) { return std::max(0L, sysconf(name)) / 1024; };
#if defined(__x86_64__)
  const bool avx2 = __builtin_cpu_supports("avx2");
  const bool avx512 = __builtin_cpu_supports("avx512f");
#else
  const bool avx2 = false;
  const bool avx512 = false;
#endif
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#else
  const std::string compiler = "gcc " __VERSION__;
#endif
  return "{\"cpu\":" + quoted(cpu_model()) +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"l1d_kib\":" + std::to_string(kib(_SC_LEVEL1_DCACHE_SIZE)) +
         ",\"l2_kib\":" + std::to_string(kib(_SC_LEVEL2_CACHE_SIZE)) +
         ",\"avx2\":" + (avx2 ? "true" : "false") + ",\"avx512f\":" + (avx512 ? "true" : "false") +
         ",\"compiler\":" + quoted(compiler) + ",\"build_type\":" + quoted(PERFBENCH_BUILD_TYPE) +
         ",\"seed\":" + std::to_string(opt.seed) + ",\"jobs\":" + std::to_string(workers) +
         ",\"threads\":" + std::to_string(workers) + "}";
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// User + system CPU seconds of the whole process so far.
double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(perfbench::now_ns() - start_ns) * 1e-9;
}

/// Verdict bookkeeping shared by both modes.
struct Verdicts {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> problems;

  void fail(const std::string& why) {
    if (problems.size() < 20) problems.push_back(why);
  }
  void diff(const sw::ResultStore& want, const sw::ResultStore& got, const std::string& what) {
    const sw::ResultStore::Diff d = sw::ResultStore::diff(want, got);
    failed += static_cast<long>(d.only_left.size() + d.only_right.size() + d.changed.size());
    for (const auto* keys : {&d.only_left, &d.only_right, &d.changed}) {
      for (const std::string& key : *keys) fail(what + ": " + key);
    }
  }
};

/// Counts one orchestrator store: its jobs, failed records, set-up errors,
/// and a record count that differs from the job count.
void check_store(const sw::ResultStore& store, const perfbench::Setup& setup, Verdicts& v) {
  v.attempted += static_cast<long>(setup.jobs());
  if (setup.errors != 0) {
    v.failed += setup.errors;
    v.fail(std::to_string(setup.errors) + " module(s) failed the source scan");
  }
  for (const sw::SweepResult& r : store.results()) {
    if (r.status != sw::JobStatus::kOk) {
      ++v.failed;
      v.fail("failed job " + r.key() + ": " + r.error);
    }
  }
  if (store.size() != setup.jobs()) {
    v.fail("store holds " + std::to_string(store.size()) + " records for " +
           std::to_string(setup.jobs()) + " jobs");
  }
}

/// Σ SYNFI injections and Σ campaign runs over ok records.
std::pair<double, double> work_of(const sw::ResultStore& store) {
  double injections = 0.0;
  double runs = 0.0;
  for (const sw::SweepResult& r : store.results()) {
    if (r.status != sw::JobStatus::kOk) continue;
    if (r.job.type == sw::JobType::kCampaign) {
      runs += r.campaign.runs;
    } else {
      injections += static_cast<double>(r.report.injections);
    }
  }
  return {injections, runs};
}

using Metrics = std::map<std::string, double>;

struct Layered {
  Metrics metrics;
  perfbench::Tail append_tail;
  perfbench::Tail job_tail;
};

/// Per-layer metrics of one traced replay.
Layered layer_metrics(const perfbench::Trace& trace, const std::vector<Span>& setup_spans,
                      const perfbench::Setup& setup, const sw::ResultStore& replayed) {
  std::map<std::string, double> self_s;
  std::map<std::string, std::vector<double>> dur_ms;
  double busy_s = 0.0;
  for (const std::vector<Span>& spans : trace.threads) {
    const std::vector<std::int64_t> self = perfbench::self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
      self_s[spans[i].name] += static_cast<double>(self[i]) * 1e-9;
      dur_ms[spans[i].name].push_back(dur * 1e3);
      if (spans[i].parent < 0) busy_s += dur;
    }
  }
  double scan_s = 0.0;
  const std::vector<std::int64_t> setup_self = perfbench::self_times(setup_spans);
  for (const std::int64_t s : setup_self) scan_s += static_cast<double>(s) * 1e-9;

  double sim_injections = 0.0, sat_queries = 0.0, sat_stalls = 0.0;
  double campaign_runs = 0.0, campaign_cycles = 0.0, campaign_effective = 0.0;
  for (const sw::SweepResult& r : replayed.results()) {
    if (r.job.type == sw::JobType::kCampaign) {
      campaign_runs += r.campaign.runs;
      campaign_cycles += static_cast<double>(r.campaign.runs) * r.job.campaign.cycles;
      campaign_effective += r.campaign.effective();
    } else if (r.job.synfi.backend == scfi::synfi::Backend::kSat) {
      sat_queries += static_cast<double>(r.report.injections);
      sat_stalls += static_cast<double>(r.report.stalls);
    } else {
      sim_injections += static_cast<double>(r.report.injections);
    }
  }
  const auto count = [&](const char* name) { return static_cast<double>(dur_ms[name].size()); };
  const auto p50 = [&](const char* name) { return perfbench::median(dur_ms[name]); };
  const auto rate = [](double work, double s) { return s > 0.0 ? work / s : 0.0; };
  const double idle_s = trace.worker_s - busy_s;
  double longest_group_ms = 0.0;
  for (const double d : dur_ms["sweep.group"]) longest_group_ms = std::max(longest_group_ms, d);

  Layered out;
  out.append_tail = perfbench::tail_percentile(dur_ms["sweep.append"]);
  out.job_tail = perfbench::tail_percentile(dur_ms["sweep.job"]);
  Metrics& m = out.metrics;
  m["frontends.scan_s"] = scan_s;
  m["frontends.modules"] = setup.modules;
  m["frontends.errors"] = setup.errors;
  m["ot.build_s"] = self_s["ot.build"];
  m["ot.builds"] = count("ot.build");
  m["ot.build_p50_ms"] = p50("ot.build");
  m["synfi.analyzer_new_s"] = self_s["synfi.analyzer_new"];
  m["synfi.analyzers"] = count("synfi.analyzer_new");
  m["synfi.sim_run_s"] = self_s["synfi.sim_run"];
  m["synfi.sim_runs"] = count("synfi.sim_run");
  m["synfi.sim_inj_per_s"] = rate(sim_injections, self_s["synfi.sim_run"]);
  m["synfi.sim_run_p50_ms"] = p50("synfi.sim_run");
  m["synfi.degree_probe_s"] = self_s["synfi.degree_probe"];
  m["synfi.degree_probes"] = count("synfi.degree_probe");
  m["sat.run_s"] = self_s["sat.run"];
  m["sat.queries"] = sat_queries;
  m["sat.queries_per_s"] = rate(sat_queries, self_s["sat.run"]);
  m["sat.stalls"] = sat_stalls;
  m["campaign.run_s"] = self_s["campaign.run"];
  m["campaign.runs"] = campaign_runs;
  m["campaign.run_cycles_per_s"] = rate(campaign_cycles, self_s["campaign.run"]);
  m["campaign.effective_frac"] = campaign_runs > 0.0 ? campaign_effective / campaign_runs : 0.0;
  m["sweep.append_s"] = self_s["sweep.append"];
  m["sweep.appends"] = count("sweep.append");
  m["sweep.append_p50_ms"] = p50("sweep.append");
  m["sweep.append_tail_ms"] = out.append_tail.value;
  m["sweep.emit_wait_s"] = self_s["sweep.emit_wait"];
  m["sweep.self_s"] = self_s["sweep.group"] + self_s["sweep.job"];
  m["sweep.idle_frac"] = trace.worker_s > 0.0 ? idle_s / trace.worker_s : 0.0;
  m["sweep.longest_group_s"] = longest_group_ms * 1e-3;
  m["sweep.job_p50_ms"] = p50("sweep.job");
  m["sweep.job_tail_ms"] = out.job_tail.value;
  m["sweep.workers"] = trace.workers;
  m["trace.wall_s"] = trace.wall_s;
  // The named layers' self-times plus idle time must account for the worker
  // time; what is left is orchestration outside every named layer (the
  // self-time of sweep.group and sweep.job).
  double named_s = 0.0;
  for (const auto& [name, s] : self_s) {
    if (name != "sweep.group" && name != "sweep.job") named_s += s;
  }
  const double unaccounted_s = trace.worker_s - idle_s - named_s;
  m["trace.unaccounted_frac"] = trace.worker_s > 0.0 ? unaccounted_s / trace.worker_s : 0.0;
  return out;
}

void write_spans(const std::string& path, const perfbench::Trace& trace) {
  std::ofstream out(path);
  for (std::size_t t = 0; t < trace.threads.size(); ++t) {
    for (std::size_t i = 0; i < trace.threads[t].size(); ++i) {
      const Span& s = trace.threads[t][i];
      out << "{\"thread\":" << t << ",\"span\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"key\":"
          << (s.job >= 0 ? quoted(trace.keys[static_cast<std::size_t>(s.job)]) : "null") << "}\n";
    }
  }
}

std::string metrics_json(const Metrics& metrics, const std::map<std::string, std::string>& units) {
  std::string out = "{";
  for (const auto& [name, value] : metrics) {
    out += (out.size() > 1 ? "," : "") + quoted(name) + ":{\"value\":" + num(value) +
           ",\"unit\":" + quoted(units.at(name)) + "}";
  }
  return out + "}";
}

std::string unit_of(const std::string& name) {
  static const std::map<std::string, std::string> suffix_units = {
      {"_s", "s"},         {"_ms", "ms"},          {"_per_s", "1/s"},
      {"_frac", "ratio"},  {"_ratio", "ratio"},    {"_mb", "MiB"}};
  std::string best = "count";
  std::size_t best_len = 0;
  for (const auto& [suffix, unit] : suffix_units) {
    if (name.size() > suffix.size() && suffix.size() > best_len &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      best = unit;
      best_len = suffix.size();
    }
  }
  return best;
}

int run(const Options& opt) {
  const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
  sw::SweepConfig config;  // every knob but jobs/threads at its library default
  config.jobs = config.threads = static_cast<int>(std::min(4U, hw));

  const fs::path work = fs::absolute(opt.work_dir);
  const fs::path scratch = work / ("run-" + opt.workload + "-" + std::to_string(getpid()));
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  struct Cleanup {
    fs::path dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{scratch};
  const std::string corpus_dir = (scratch / "corpus").string();
  const std::string store_path = (scratch / "sweep.jsonl").string();
  const std::string replay_path = (scratch / "replay.jsonl").string();

  std::string corpus_json = "null";
  if (opt.workload == "corpus_matrix") {
    const perfbench::CorpusShape shape = perfbench::generate_corpus(opt.seed, corpus_dir);
    corpus_json = "{\"machines\":" + std::to_string(shape.machines) +
                  ",\"states\":" + std::to_string(shape.states) +
                  ",\"transitions\":" + std::to_string(shape.transitions);
  }

  Verdicts verdicts;
  const bool check_reference =
      opt.seed == kDefaultSeed || !perfbench::seed_dependent(opt.workload);
  const fs::path reference = fs::path(opt.reference_dir) / (opt.workload + ".jsonl");
  std::optional<sw::ResultStore> first_store;
  // Every repetition must reproduce the first one's verdicts, and the first
  // must match the committed reference store where the inputs are the
  // reference's (the default seed, or any seed for seed-free workloads).
  const auto check_verdicts = [&](const sw::ResultStore& store) {
    if (first_store) {
      verdicts.diff(*first_store, store, "repetition differs");
      return;
    }
    first_store = store;
    if (opt.write_reference) {
      scfi::require(opt.seed == kDefaultSeed, "perfbench: references are written at seed 1");
      sw::ResultStore normalized;
      for (sw::SweepResult r : store.results()) {
        r.seconds = 0.0;
        normalized.add(std::move(r));
      }
      fs::create_directories(reference.parent_path());
      normalized.save(reference.string());
    } else if (check_reference) {
      if (!fs::exists(reference)) {
        ++verdicts.failed;
        verdicts.fail("missing reference store " + reference.string());
      } else {
        verdicts.diff(sw::ResultStore::load(reference.string()), store, "reference mismatch");
      }
    }
  };

  std::vector<double> cpu_s;  // CPU seconds of each untraced sweep, for the record
  const auto untraced_sweep = [&](const perfbench::Setup& setup, double& seconds) {
    fs::remove(store_path);
    sw::ResultStore store;
    const double cpu_start = cpu_seconds();
    const std::int64_t start = perfbench::now_ns();
    const std::vector<sw::SweepStats> stats =
        perfbench::run_sweep(setup, config, store_path, store);
    seconds = seconds_since(start);
    cpu_s.push_back(cpu_seconds() - cpu_start);
    for (std::size_t p = 0; p < stats.size(); ++p) {
      const std::size_t want = setup.parts[p].jobs.size();
      if (static_cast<std::size_t>(stats[p].executed) != want) {
        verdicts.fail("part " + std::to_string(p) + " executed " +
                      std::to_string(stats[p].executed) + " of " + std::to_string(want) + " jobs");
      }
    }
    sw::ResultStore written = sw::ResultStore::load(store_path);
    check_store(written, setup, verdicts);
    check_verdicts(written);
    for (const std::string& problem : perfbench::schedule_problems(setup, config, written)) {
      verdicts.fail("replay schedule: " + problem);
    }
    return written;
  };

  const std::int64_t measure_start = perfbench::now_ns();
  const perfbench::Setup setup = perfbench::set_up(opt.workload, opt.seed, corpus_dir);
  const std::size_t jobs = setup.jobs();
  std::vector<Span> setup_spans;
  std::optional<perfbench::Setup> traced_setup;
  if (opt.trace) {
    traced_setup = perfbench::set_up(opt.workload, opt.seed, corpus_dir, &setup_spans);
  }

  // Set-up is short next to a sweep, so after every sweep it is timed back
  // to back for a tenth of that sweep's time, and reported as the median of
  // all samples. A zoo set-up takes tens of microseconds; samples spread over
  // the whole run see the same host states as the sweeps, where one burst
  // would see only one.
  std::vector<double> setup_s;
  const auto time_setups = [&](double budget_s) {
    const std::int64_t burst_start = perfbench::now_ns();
    do {
      const std::int64_t start = perfbench::now_ns();
      const perfbench::Setup again = perfbench::set_up(opt.workload, opt.seed, corpus_dir);
      setup_s.push_back(seconds_since(start));
    } while (seconds_since(burst_start) < budget_s);
  };

  // Host speed: the calibration kernel runs on every worker before the
  // first sweep and after every sweep, for a tenth of that sweep's time. A
  // slow spell of the host slows it as much as the sweeps around it.
  std::vector<double> cal_s;
  const auto calibrate = [&](double budget_s) {
    const std::int64_t burst_start = perfbench::now_ns();
    do {
      cal_s.push_back(perfbench::calibrate_s(config.jobs));
    } while (cal_s.size() < 3 || seconds_since(burst_start) < budget_s);
  };
  calibrate(0.0);
  std::vector<double> sweep_s;
  std::vector<double> traced_wall_s;
  std::vector<Layered> layered;
  std::vector<perfbench::Trace> traces;
  std::pair<double, double> totals{0.0, 0.0};
  while (sweep_s.empty() ||
         seconds_since(measure_start) + perfbench::median(sweep_s) * (opt.trace ? 2.3 : 1.2) <=
             opt.seconds) {
    double seconds = 0.0;
    const sw::ResultStore store = untraced_sweep(setup, seconds);
    sweep_s.push_back(seconds);
    calibrate(0.1 * seconds);
    totals = work_of(store);
    time_setups(0.1 * seconds);
    if (!opt.trace) continue;

    fs::remove(replay_path);
    sw::ResultStore replayed_live;
    perfbench::Trace trace = perfbench::replay(*traced_setup, config, replay_path, replayed_live);
    const sw::ResultStore replayed = sw::ResultStore::load(replay_path);
    verdicts.attempted += static_cast<long>(jobs);
    verdicts.diff(store, replayed, "traced replay differs");
    traced_wall_s.push_back(trace.wall_s);
    layered.push_back(layer_metrics(trace, setup_spans, *traced_setup, replayed));
    traces.push_back(std::move(trace));
  }
  while (setup_s.size() < 3) time_setups(0.0);

  // End-to-end times are in reference-host seconds: the measured medians
  // scaled by how much faster than this run's host the reference host runs
  // the calibration kernel. The measured values are printed and recorded.
  const double host_speed = perfbench::kReferenceCalibrationS / perfbench::median(cal_s);
  const double sweep_median = perfbench::median(sweep_s) * host_speed;
  Metrics e2e;
  e2e["sweep_s"] = sweep_median;
  e2e["setup_s"] = perfbench::median(setup_s) * host_speed;
  e2e["work_per_s"] = (totals.first + totals.second) / sweep_median;
  e2e["peak_rss_mb"] = peak_rss_mib();
  Metrics extra;  // printed and recorded, not part of the result object
  extra["sweep_wall_s"] = perfbench::median(sweep_s);
  extra["setup_wall_s"] = perfbench::median(setup_s);
  extra["host_speed_ratio"] = host_speed;
  extra["injections_per_s"] = totals.first / sweep_median;
  extra["campaign_runs_per_s"] = totals.second / sweep_median;
  extra["failed_frac"] =
      verdicts.attempted > 0 ? static_cast<double>(verdicts.failed) / verdicts.attempted : 0.0;

  Metrics reported = e2e;
  std::string tails_json = "null";
  std::string schedule_json = "null";
  if (opt.trace) {
    // The replay whose traced wall is the median stands for the run.
    std::vector<std::size_t> order(traced_wall_s.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return traced_wall_s[a] < traced_wall_s[b]; });
    const std::size_t mid = order[order.size() / 2];
    reported = layered[mid].metrics;
    reported["trace.overhead_frac"] =
        perfbench::median(traced_wall_s) / perfbench::median(sweep_s) - 1.0;
    if (reported["trace.unaccounted_frac"] > 0.05) {
      verdicts.fail("named layer self-times + idle leave more than 5% of the worker time");
    }
    const auto tail_json = [](const perfbench::Tail& t) {
      return "{\"percentile\":" + num(t.percentile) +
             ",\"samples\":" + std::to_string(t.samples) + "}";
    };
    tails_json = "{\"sweep.append_tail_ms\":" + tail_json(layered[mid].append_tail) +
                 ",\"sweep.job_tail_ms\":" + tail_json(layered[mid].job_tail) + "}";
    // Job counts and each group's emit order are checked against the
    // orchestrator's store on every sweep; the lane count is not visible there.
    schedule_json = "{\"groups\":" + std::to_string(traces[mid].groups) +
                    ",\"workers\":" + std::to_string(traces[mid].workers) +
                    ",\"checked\":\"job counts, group emit order, groups open at once\"" +
                    ",\"assumed\":\"lanes = synfi::auto_lanes per module\"}";
    fs::create_directories(work / "traces");
    const std::string spans_name =
        opt.workload + "-seed" + std::to_string(opt.seed) + ".spans.jsonl";
    write_spans((work / "traces" / spans_name).string(), traces[mid]);
  }
  if (corpus_json != "null") corpus_json += ",\"jobs\":" + std::to_string(jobs) + "}";

  const bool correct = verdicts.failed == 0 && verdicts.problems.empty();
  std::printf("perfbench %s seed=%llu trace=%d: %zu job(s), %zu repetition(s), workers=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
              jobs, sweep_s.size(), config.jobs);
  Metrics shown = e2e;
  shown.insert(extra.begin(), extra.end());
  if (opt.trace) shown.insert(reported.begin(), reported.end());
  for (const auto& [name, value] : shown) {
    std::printf("  %-28s %14.6g %s\n", name.c_str(), value, unit_of(name).c_str());
  }
  for (const std::string& problem : verdicts.problems) {
    std::printf("  VERDICT: %s\n", problem.c_str());
  }

  std::map<std::string, std::string> units;
  for (const auto& entry : shown) units[entry.first] = unit_of(entry.first);
  const std::string record =
      "{\"workload\":" + quoted(opt.workload) + ",\"seed\":" + std::to_string(opt.seed) +
      ",\"seconds\":" + num(opt.seconds) + ",\"trace\":" + (opt.trace ? "1" : "0") +
      ",\"correct\":" + (correct ? "true" : "false") + ",\"host\":" + host_json(opt, config.jobs) +
      ",\"corpus\":" + corpus_json + ",\"repetitions\":" + std::to_string(sweep_s.size()) +
      ",\"samples\":{\"sweep_s\":" + list_json(sweep_s) + ",\"sweep_cpu_s\":" + list_json(cpu_s) +
      ",\"cal_s_quartiles\":" + list_json(quartiles(cal_s)) +
      ",\"cal_s_count\":" + std::to_string(cal_s.size()) +
      ",\"setup_s_quartiles\":" + list_json(quartiles(setup_s)) +
      ",\"setup_s_count\":" + std::to_string(setup_s.size()) + "},\"tails\":" + tails_json +
      ",\"schedule\":" + schedule_json +
      ",\"metrics\":" + metrics_json(shown, units) + "}";
  std::printf("record %s\n", record.c_str());
  std::ofstream(work / "history.jsonl", std::ios::app) << record << "\n";

  std::printf("{\"correct\":%s,\"attempted\":%ld,\"failed\":%ld,\"metrics\":%s}\n",
              correct ? "true" : "false", verdicts.attempted, verdicts.failed,
              metrics_json(reported, units).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
