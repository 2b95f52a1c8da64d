// The four benchmark workloads as sweep job lists, the untraced run through
// the public SweepOrchestrator, and the traced replay that calls each layer's
// public function in the orchestrator's order, recording one span per call.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "corpus_gen.h"
#include "stats.h"
#include "sweep/sweep.h"

namespace perfbench {

/// Names of the workloads, in documentation order.
const std::vector<std::string>& workload_names();

/// True when the workload's inputs depend on the seed (the zoo SYNFI
/// workloads are complete analyses of a fixed zoo and ignore it).
bool seed_dependent(const std::string& workload);

/// One SweepOrchestrator::run call: its jobs and the module source they
/// resolve against (nullptr = the built-in zoo).
struct Part {
  const scfi::sweep::ModuleSource* source = nullptr;
  std::vector<scfi::sweep::SweepJob> jobs;
};

/// A workload ready to run: the scanned module sources and the validated
/// job lists. `modules` / `errors` count what the source scan produced.
struct Setup {
  std::vector<std::unique_ptr<scfi::sweep::ModuleSource>> sources;
  std::vector<Part> parts;
  int modules = 0;
  int errors = 0;
  std::size_t jobs() const;
};

/// Scans the workload's module sources (corpus_matrix reads the generated
/// corpus under `corpus_dir`, written by generate_corpus), expands its job
/// matrix, and validates it — everything that happens before a sweep runs.
/// When `spans` is non-null the source scan is recorded as one
/// "frontends.scan" span.
Setup set_up(const std::string& workload, std::uint64_t seed, const std::string& corpus_dir,
             std::vector<Span>* spans = nullptr);

/// Writes corpus_matrix's generated machines under `corpus_dir`.
CorpusShape generate_corpus(std::uint64_t seed, const std::string& corpus_dir);

/// Runs every part through SweepOrchestrator::run, appending to `out_path`;
/// returns each part's stats.
std::vector<scfi::sweep::SweepStats> run_sweep(const Setup& setup,
                                               const scfi::sweep::SweepConfig& config,
                                               const std::string& out_path,
                                               scfi::sweep::ResultStore& store);

/// Problems with the schedule the replay assumes, as far as the
/// orchestrator's store file shows it: within each part every variant group's
/// records must appear in the group's job order (one worker runs a group),
/// and no more groups may be open at once in the emit order than the
/// replay's outer workers. Lane resolution is not visible in the store and
/// stays assumed. Empty when consistent.
std::vector<std::string> schedule_problems(const Setup& setup,
                                           const scfi::sweep::SweepConfig& config,
                                           const scfi::sweep::ResultStore& written);

/// Spans of one traced replay. Each element of `threads` is one pool worker
/// of one part; `keys[job]` names the job a span's `job` index refers to.
struct Trace {
  std::vector<std::vector<Span>> threads;
  std::vector<std::string> keys;
  double wall_s = 0.0;    ///< summed wall of every part's pool
  double worker_s = 0.0;  ///< summed (pool workers x pool wall)
  int workers = 0;        ///< largest pool
  int groups = 0;         ///< variant groups over every part
};

/// Replays the job list with the orchestrator's grouping, outer/inner
/// thread split and lane resolution, calling build_ot_variant, the Analyzer
/// constructor, Analyzer::run, run_campaign and ResultStore::append_line
/// directly and recording a span around each call.
Trace replay(const Setup& setup, const scfi::sweep::SweepConfig& config,
             const std::string& out_path, scfi::sweep::ResultStore& store);

}  // namespace perfbench
