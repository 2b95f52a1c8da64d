#include "sweep_bench.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "ot/zoo.h"
#include "rtlil/design.h"
#include "sim/campaign.h"
#include "synfi/synfi.h"

namespace perfbench {
namespace {

namespace sw = scfi::sweep;
using scfi::sim::FaultKind;
using scfi::sim::FaultTarget;

/// Machines in the generated corpus; each enters the sweep twice (KISS2 and
/// Verilog), 9 jobs per form.
constexpr int kCorpusMachines = 48;

/// Runs of the one 12-cycle campaign per machine form.
constexpr int kCorpusCampaignRuns = 2000;

/// Appends spans to one thread's list; spans opened while another is open
/// become its children.
class Recorder {
 public:
  explicit Recorder(std::vector<Span>& spans) : spans_(spans) {}

  class Scope {
   public:
    Scope(Recorder& rec, const char* name, int job) : rec_(rec), index_(rec.spans_.size()) {
      Span span;
      span.name = name;
      span.parent = rec.current_;
      span.job = job;
      rec.current_ = static_cast<int>(index_);
      rec.spans_.push_back(span);
      rec.spans_.back().start_ns = now_ns();
    }
    ~Scope() {
      rec_.spans_[index_].end_ns = now_ns();
      rec_.current_ = rec_.spans_[index_].parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Recorder& rec_;
    std::size_t index_;
  };

 private:
  std::vector<Span>& spans_;
  int current_ = -1;
};

using Scope = Recorder::Scope;

scfi::ot::Variant variant_of(const sw::SweepJob& job) {
  if (job.variant == "unprotected") return scfi::ot::Variant::kUnprotected;
  if (job.variant == "redundancy") return scfi::ot::Variant::kRedundancy;
  return scfi::ot::Variant::kScfi;
}

std::vector<scfi::synfi::SynfiConfig> synfi_configs(const std::vector<std::string>& regions,
                                                    const std::vector<FaultKind>& kinds,
                                                    scfi::synfi::Backend backend, int faults_k) {
  std::vector<scfi::synfi::SynfiConfig> configs;
  for (const std::string& region : regions) {
    for (const FaultKind kind : kinds) {
      scfi::synfi::SynfiConfig config;
      config.wire_prefix = region;
      config.kind = kind;
      config.backend = backend;
      config.faults_k = faults_k;
      configs.push_back(config);
    }
  }
  return configs;
}

scfi::sim::CampaignConfig campaign_config(int runs, int cycles, FaultTarget target,
                                          std::uint64_t seed) {
  scfi::sim::CampaignConfig config;
  config.runs = runs;
  config.cycles = cycles;
  config.fault.target = target;
  config.seed = seed;
  return config;
}

void append(std::vector<sw::SweepJob>& to, const std::vector<sw::SweepJob>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// Job indices grouped by compiled variant in first-appearance order — the
/// grouping SweepOrchestrator::run applies.
std::vector<std::vector<std::size_t>> variant_groups(const std::vector<sw::SweepJob>& jobs) {
  std::vector<std::vector<std::size_t>> groups;
  std::map<std::string, std::size_t> index;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const sw::SweepJob& job = jobs[j];
    const std::string key = job.source + "|" + job.module + "|" + job.variant + "|n" +
                            std::to_string(job.protection_level);
    const auto [it, inserted] = index.emplace(key, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(j);
  }
  return groups;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"synfi_k2_logic", "synfi_sat_logic",
                                                 "campaign_mc", "corpus_matrix"};
  return names;
}

bool seed_dependent(const std::string& workload) {
  return workload == "campaign_mc" || workload == "corpus_matrix";
}

std::size_t Setup::jobs() const {
  std::size_t n = 0;
  for (const Part& part : parts) n += part.jobs.size();
  return n;
}

CorpusShape generate_corpus(std::uint64_t seed, const std::string& corpus_dir) {
  const std::filesystem::path root(corpus_dir);
  return write_corpus(generate_machines(seed, kCorpusMachines), (root / "kiss2").string(),
                      (root / "verilog").string());
}

Setup set_up(const std::string& workload, std::uint64_t seed, const std::string& corpus_dir,
             std::vector<Span>* spans) {
  Setup setup;
  std::optional<Recorder> recorder;
  if (spans != nullptr) recorder.emplace(*spans);
  {
    std::optional<Scope> scan;
    if (recorder) scan.emplace(*recorder, "frontends.scan", -1);
    if (workload == "corpus_matrix") {
      const std::filesystem::path root(corpus_dir);
      auto kiss2 = std::make_unique<sw::Kiss2CorpusSource>((root / "kiss2").string());
      auto verilog = std::make_unique<sw::VerilogCorpusSource>((root / "verilog").string());
      setup.modules = static_cast<int>(kiss2->size() + verilog->size());
      setup.errors = static_cast<int>(kiss2->errors().size() + verilog->errors().size());
      setup.sources.push_back(std::move(kiss2));
      setup.sources.push_back(std::move(verilog));
    } else {
      setup.sources.push_back(std::make_unique<sw::ZooSource>());
      setup.modules = static_cast<int>(setup.sources.back()->modules("*").size());
    }
  }

  using scfi::synfi::Backend;
  const std::vector<std::string> all = {""};
  const FaultKind flip = FaultKind::kTransientFlip;
  if (workload == "synfi_k2_logic") {
    const auto configs = synfi_configs(all, {flip}, Backend::kExhaustiveSim, 2);
    setup.parts.push_back({nullptr, sw::expand_jobs(*setup.sources[0], "*", {2}, configs)});
  } else if (workload == "synfi_sat_logic") {
    const auto configs = synfi_configs(all, {flip, FaultKind::kStuckAt1}, Backend::kSat, 1);
    setup.parts.push_back({nullptr, sw::expand_jobs(*setup.sources[0], "*", {2}, configs)});
  } else if (workload == "campaign_mc") {
    const std::vector<scfi::sim::CampaignConfig> configs = {
        campaign_config(100000, 24, FaultTarget::kAny, seed),
        campaign_config(100000, 24, FaultTarget::kStateRegister, seed)};
    Part part;
    for (const char* variant : {"scfi", "unprotected", "redundancy"}) {
      append(part.jobs, sw::expand_campaign_jobs(*setup.sources[0], "*", {2}, configs, variant));
    }
    setup.parts.push_back(std::move(part));
  } else if (workload == "corpus_matrix") {
    // flip only: with all three kinds the 2400 fsync'd appends under the
    // emit lock made the sweep stall whenever the host preempted the lock
    // holder.
    const auto configs = synfi_configs({"mds_", ""}, {flip}, Backend::kExhaustiveSim, 1);
    const std::vector<scfi::sim::CampaignConfig> campaigns = {
        campaign_config(kCorpusCampaignRuns, 12, FaultTarget::kAny, seed)};
    for (const auto& source : setup.sources) {
      Part part{source.get(), sw::expand_jobs(*source, "*", {2, 3, 4, 5}, configs)};
      append(part.jobs, sw::expand_campaign_jobs(*source, "*", {2}, campaigns));
      setup.parts.push_back(std::move(part));
    }
  } else {
    throw scfi::ScfiError("perfbench: unknown workload '" + workload + "'");
  }
  for (const Part& part : setup.parts) sw::validate_jobs(part.jobs, part.source);
  return setup;
}

std::vector<sw::SweepStats> run_sweep(const Setup& setup, const sw::SweepConfig& config,
                                      const std::string& out_path, sw::ResultStore& store) {
  sw::SweepOrchestrator orchestrator(config);
  std::vector<sw::SweepStats> stats;
  for (const Part& part : setup.parts) {
    stats.push_back(orchestrator.run(part.jobs, store, out_path, false, part.source));
  }
  return stats;
}

std::vector<std::string> schedule_problems(const Setup& setup, const sw::SweepConfig& config,
                                           const sw::ResultStore& written) {
  std::vector<std::string> problems;
  // Emit position of every key in the store file (parts run back to back).
  std::map<std::string, std::size_t> position;
  for (const sw::SweepResult& r : written.results()) position.emplace(r.key(), position.size());
  for (std::size_t p = 0; p < setup.parts.size(); ++p) {
    const std::vector<sw::SweepJob>& jobs = setup.parts[p].jobs;
    const std::vector<std::vector<std::size_t>> groups = variant_groups(jobs);
    const int outer = std::max(1, std::min(config.jobs, static_cast<int>(groups.size())));
    // Each group as an interval [first emit, last emit], in job order.
    std::vector<std::pair<std::size_t, int>> events;  // (position, +1 open / -1 close)
    for (const std::vector<std::size_t>& group : groups) {
      std::size_t previous = 0;
      for (std::size_t i = 0; i < group.size(); ++i) {
        const auto it = position.find(jobs[group[i]].key());
        if (it == position.end()) {
          problems.push_back("part " + std::to_string(p) + ": no record for " +
                             jobs[group[i]].key());
          return problems;
        }
        if (i > 0 && it->second < previous) {
          problems.push_back("part " + std::to_string(p) + ": " + jobs[group[i]].key() +
                             " was emitted before an earlier job of its variant group");
        }
        previous = it->second;
      }
      events.emplace_back(position.at(jobs[group.front()].key()), +1);
      events.emplace_back(previous, -1);
    }
    // Opens sort before closes at one position, so a one-job group counts.
    std::sort(events.begin(), events.end(),
              [](const auto& a, const auto& b) {
                return a.first != b.first ? a.first < b.first : a.second > b.second;
              });
    int open = 0;
    int most_open = 0;
    for (const auto& event : events) {
      open += event.second;
      most_open = std::max(most_open, open);
    }
    if (most_open > outer) {
      problems.push_back("part " + std::to_string(p) + ": " + std::to_string(most_open) +
                         " variant groups open at once, the replay runs " +
                         std::to_string(outer) + " workers");
    }
  }
  return problems;
}

Trace replay(const Setup& setup, const sw::SweepConfig& config, const std::string& out_path,
             sw::ResultStore& store) {
  static const sw::ZooSource zoo;
  Trace trace;
  std::mutex emit_mutex;
  for (const Part& part : setup.parts) {
    const int base = static_cast<int>(trace.keys.size());
    for (const sw::SweepJob& job : part.jobs) trace.keys.push_back(job.key());
    const std::vector<std::vector<std::size_t>> groups = variant_groups(part.jobs);
    const int outer = std::max(1, std::min(config.jobs, static_cast<int>(groups.size())));
    const int inner = std::max(1, config.threads / outer);
    const sw::ModuleSource& source = part.source != nullptr ? *part.source : zoo;

    std::vector<std::vector<Span>> spans(static_cast<std::size_t>(outer));
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(outer));
    std::atomic<std::size_t> next_group{0};
    const auto worker = [&](int slot) {
      Recorder rec(spans[static_cast<std::size_t>(slot)]);
      try {
        for (;;) {
          const std::size_t g = next_group.fetch_add(1);
          if (g >= groups.size()) return;
          const Scope group_span(rec, "sweep.group", -1);
          const sw::SweepJob& first = part.jobs[groups[g].front()];
          const scfi::ot::OtEntry entry = source.module(first.module);
          scfi::rtlil::Design design;  // outlives `compiled`, which points into it
          std::optional<scfi::fsm::CompiledFsm> compiled;
          {
            const Scope build(rec, "ot.build", base + static_cast<int>(groups[g].front()));
            compiled = scfi::ot::build_ot_variant(entry, design, variant_of(first),
                                                  first.protection_level, first.module + "_sweep");
          }
          const int lanes =
              config.lanes > 0 ? config.lanes : scfi::synfi::auto_lanes(*compiled->module);
          std::unique_ptr<scfi::synfi::Analyzer> analyzer;
          for (const std::size_t j : groups[g]) {
            const int job = base + static_cast<int>(j);
            const Scope job_span(rec, "sweep.job", job);
            const std::int64_t start = now_ns();
            sw::SweepResult result;
            result.job = part.jobs[j];
            if (result.job.type == sw::JobType::kCampaign) {
              scfi::sim::CampaignConfig run = result.job.campaign;
              run.planner = scfi::sim::CampaignPlanner::kStreaming;
              run.lanes = lanes;
              run.threads = inner;
              const Scope span(rec, "campaign.run", job);
              result.campaign = scfi::sim::run_campaign(entry.fsm, *compiled, run);
            } else {
              if (!analyzer) {
                const Scope span(rec, "synfi.analyzer_new", job);
                analyzer = std::make_unique<scfi::synfi::Analyzer>(entry.fsm, *compiled);
              }
              scfi::synfi::SynfiConfig run = result.job.synfi;
              run.lanes = lanes;
              run.threads = inner;
              {
                const bool sat = run.backend == scfi::synfi::Backend::kSat;
                const Scope span(rec, sat ? "sat.run" : "synfi.sim_run", job);
                result.report = analyzer->run(run);
              }
              for (int k = 1; k < run.faults_k && result.protection_degree == 0; ++k) {
                scfi::synfi::SynfiConfig probe = run;
                probe.faults_k = k;
                const Scope span(rec, "synfi.degree_probe", job);
                if (analyzer->run(probe).exploitable > 0) result.protection_degree = k;
              }
              if (result.protection_degree == 0 && result.report.exploitable > 0) {
                result.protection_degree = run.faults_k;
              }
            }
            result.seconds = static_cast<double>(now_ns() - start) * 1e-9;
            std::unique_lock<std::mutex> lock(emit_mutex, std::defer_lock);
            {
              const Scope wait(rec, "sweep.emit_wait", job);
              lock.lock();
            }
            {
              const Scope span(rec, "sweep.append", job);
              sw::ResultStore::append_line(out_path, result);
            }
            store.add(std::move(result));
          }
        }
      } catch (...) {
        errors[static_cast<std::size_t>(slot)] = std::current_exception();
      }
    };

    const std::int64_t start = now_ns();
    if (outer <= 1) {
      worker(0);
    } else {
      std::vector<std::thread> pool;
      for (int w = 0; w < outer; ++w) pool.emplace_back(worker, w);
      for (std::thread& th : pool) th.join();
    }
    const double wall = static_cast<double>(now_ns() - start) * 1e-9;
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    trace.wall_s += wall;
    trace.worker_s += wall * outer;
    trace.workers = std::max(trace.workers, outer);
    trace.groups += static_cast<int>(groups.size());
    for (auto& thread_spans : spans) trace.threads.push_back(std::move(thread_spans));
  }
  return trace;
}

}  // namespace perfbench
