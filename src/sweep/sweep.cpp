#include "sweep/sweep.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "base/error.h"
#include "base/parallel.h"
#include "base/strutil.h"
#include "ot/zoo.h"
#include "rtlil/design.h"
#include "sim/campaign.h"

namespace scfi::sweep {
namespace {

ot::Variant variant_of(const SweepJob& job) {
  if (job.variant == "scfi") return ot::Variant::kScfi;
  if (job.type == JobType::kCampaign) {
    // The campaign engine drives all three compiled forms; only SYNFI is
    // restricted to symbol-encoded variants.
    if (job.variant == "unprotected") return ot::Variant::kUnprotected;
    if (job.variant == "redundancy") return ot::Variant::kRedundancy;
    throw ScfiError("sweep: unknown campaign variant '" + job.variant +
                    "' (expected scfi, unprotected, or redundancy)");
  }
  // kUnprotected compiles to raw control bits, which the symbol-level SYNFI
  // property cannot analyze, and kRedundancy holds N state-register copies
  // of which the one-cycle SYNFI stimulus only drives the primary — its
  // mismatch alert would fire on the stale copies and the report would be
  // meaningless. Reject both up front instead of deep inside a worker.
  throw ScfiError("sweep: unknown or unanalyzable variant '" + job.variant +
                  "' (expected scfi)");
}

/// Jobs that share a compiled variant, served by one Analyzer.
struct VariantGroup {
  std::string source;
  std::string module;
  std::string variant;
  int protection_level = 2;
  std::vector<std::size_t> job_indices;  ///< into the filtered job list
};

/// Maps a job's source label to the ModuleSource serving it: "" is always
/// the built-in zoo; anything else must match the caller-provided source.
const ModuleSource& source_of(const SweepJob& job, const ModuleSource* provided) {
  static const ZooSource zoo;
  if (job.source.empty()) return zoo;
  require(provided != nullptr && provided->label() == job.source,
          "sweep: job source '" + job.source +
              "' has no matching module source (pass the corpus the jobs "
              "were expanded from)");
  return *provided;
}

}  // namespace

void validate_jobs(const std::vector<SweepJob>& jobs, const ModuleSource* source) {
  for (const SweepJob& job : jobs) {
    variant_of(job);
    source_of(job, source);
  }
}

SweepOrchestrator::SweepOrchestrator(const SweepConfig& config) : config_(config) {
  require(config_.jobs >= 1, "sweep: jobs must be >= 1");
  require(config_.threads >= 1, "sweep: threads must be >= 1");
  require(config_.lanes >= 0 && config_.lanes <= sim::kMaxLanes,
          "sweep: lanes must be in [0 (auto), " + std::to_string(sim::kMaxLanes) +
              "] (64 x lane_words)");
  require(config_.retries >= 0, "sweep: retries must be >= 0");
  require(config_.job_timeout >= 0.0, "sweep: job timeout must be >= 0");
}

SweepStats SweepOrchestrator::run(const std::vector<SweepJob>& jobs, ResultStore& store,
                                  const std::string& out_path, bool resume,
                                  const ModuleSource* source) {
  SweepStats stats;

  // Validate and filter up front so a malformed job matrix (a caller bug,
  // unlike an execution failure) aborts before any work runs. The resume
  // lease skips only keys whose stored record is ok: a failed or timed-out
  // key re-executes, and the latest-wins append replaces its record.
  std::vector<SweepJob> pending;
  validate_jobs(jobs, source);
  for (const SweepJob& job : jobs) {
    if (resume) {
      const SweepResult* prior = store.find(job.key());
      if (prior != nullptr && prior->status == JobStatus::kOk) {
        ++stats.skipped;
        continue;
      }
    }
    pending.push_back(job);
  }
  if (pending.empty()) return stats;

  // Group by compiled variant, preserving first-appearance order, so one
  // Analyzer amortizes the build across every query of that variant.
  std::vector<VariantGroup> groups;
  std::map<std::string, std::size_t> group_index;
  for (std::size_t j = 0; j < pending.size(); ++j) {
    const SweepJob& job = pending[j];
    const std::string key = job.source + "|" + job.module + "|" + job.variant + "|n" +
                            std::to_string(job.protection_level);
    const auto it = group_index.find(key);
    if (it == group_index.end()) {
      group_index.emplace(key, groups.size());
      groups.push_back(
          VariantGroup{job.source, job.module, job.variant, job.protection_level, {j}});
    } else {
      groups[it->second].job_indices.push_back(j);
    }
  }

  // One pool of max(jobs, threads) workers. A worker opens the next variant
  // group while groups remain and fewer than `jobs` are open; otherwise it
  // helps the open groups' SYNFI and campaign runs through the board, and
  // it leaves once every group has closed. The board lock guards the
  // scheduling counters below.
  const int workers = std::max(config_.jobs, config_.threads);
  WorkBoard board;
  std::size_t next_group = 0;
  int open_groups = 0;
  std::size_t closed_groups = 0;
  bool aborted = false;
  std::mutex emit_mutex;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(workers));

  // Streams one finished record — ok or failed — under the emit lock.
  const auto emit = [&](SweepResult result) {
    const std::lock_guard<std::mutex> lock(emit_mutex);
    if (!out_path.empty()) ResultStore::append_line(out_path, result);
    if (result.status == JobStatus::kOk) {
      ++stats.executed;
    } else {
      ++stats.failed;
    }
    store.add(std::move(result));
  };
  const auto emit_failure = [&](const SweepJob& job, const std::string& error, int attempts,
                                double seconds) {
    SweepResult result;
    result.job = job;
    result.status = JobStatus::kFailed;
    result.error = error;
    result.attempts = attempts;
    result.seconds = seconds;
    emit(std::move(result));
  };

  const auto seconds_since = [](std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };

  // Runs every job of one group, in job order, as the owner of its runs.
  const auto run_group = [&](const VariantGroup& group) {
    // The group's first job is billed from here, before the variant build,
    // so the `seconds` of a group's records sum to its wall time.
    const auto group_start = std::chrono::steady_clock::now();
    // Building the variant is deterministic — an unknown corpus module
    // or a compile failure would fail identically on every retry — so
    // a build error fails every job of the group in one attempt.
    // `design` must outlive `compiled` (the compiled FSM points into it).
    rtlil::Design design;
    std::optional<ot::OtEntry> entry;
    std::optional<fsm::CompiledFsm> compiled;
    try {
      entry = source_of(pending[group.job_indices.front()], source).module(group.module);
      compiled = ot::build_ot_variant(*entry, design,
                                      variant_of(pending[group.job_indices.front()]),
                                      group.protection_level, group.module + "_sweep");
    } catch (...) {
      if (config_.fail_fast) throw;
      const std::string why = describe_current_exception();
      const double build_seconds = seconds_since(group_start);
      for (const std::size_t j : group.job_indices) {
        emit_failure(pending[j], "variant build failed: " + why, 1,
                     j == group.job_indices.front() ? build_seconds : 0.0);
      }
      return;
    }
    // lanes = 0 resolves per compiled module right here — the one place
    // that holds both the knob and the module; explicit counts pass
    // through untouched.
    const int lanes = config_.lanes > 0 ? config_.lanes : synfi::auto_lanes(*compiled->module);
    // The Analyzer is SYNFI-only (it rejects raw/redundant variants);
    // build it lazily so campaign-only groups never pay for — or trip
    // over — it.
    std::unique_ptr<synfi::Analyzer> analyzer;
    for (const std::size_t j : group.job_indices) {
      // One deadline spans every attempt of the job: retries must not
      // extend a timeout budget. The token also observes the external
      // stop signal (fleet drain) when one is configured.
      CancelToken cancel;
      cancel.chain_to(config_.cancel);
      const bool deadline = config_.job_timeout > 0.0;
      if (deadline) cancel.set_deadline_after(config_.job_timeout);
      const bool cancellable = deadline || config_.cancel != nullptr;
      const auto job_start = std::chrono::steady_clock::now();
      // Time since the deadline was armed (timeout budget and messages)...
      const auto elapsed = [&] { return seconds_since(job_start); };
      // ...and the job's recorded cost, which for the first job includes
      // the variant build.
      const auto billed = [&, bill_start = j == group.job_indices.front() ? group_start
                                                                           : job_start] {
        return seconds_since(bill_start);
      };
      for (int attempt = 1;; ++attempt) {
        try {
          SweepResult result;
          result.job = pending[j];
          if (result.job.type == JobType::kCampaign) {
            sim::CampaignConfig config = result.job.campaign;
            config.lanes = lanes;
            if (cancellable) config.cancel = &cancel;
            result.campaign = sim::run_campaign(entry->fsm, *compiled, config);
          } else {
            if (!analyzer) {
              analyzer = std::make_unique<synfi::Analyzer>(entry->fsm, *compiled);
            }
            synfi::SynfiConfig config = result.job.synfi;
            config.lanes = lanes;
            if (cancellable) config.cancel = &cancel;
            result.report = analyzer->run(config);
            // The job's own report answers k = faults_k; only smaller k
            // re-query the shared (cached) analyzer.
            result.protection_degree =
                synfi::measured_protection_degree(*analyzer, config, result.report);
          }
          result.attempts = attempt;
          result.seconds = billed();
          emit(std::move(result));
          break;
        } catch (const CancelledError&) {
          // The deadline — or the external stop — fired mid-attempt.
          // Deterministically final: the budget spans attempts, so
          // there is nothing to retry.
          if (config_.fail_fast) throw;
          const bool external =
              config_.cancel != nullptr && config_.cancel->stop_requested();
          emit_failure(pending[j],
                       external
                           ? format("cancelled after %.3fs (external stop)", elapsed())
                           : format("timed out after %.3fs (job timeout %.3fs)",
                                    elapsed(), config_.job_timeout),
                       attempt, billed());
          break;
        } catch (...) {
          if (config_.fail_fast) throw;
          const std::string why = describe_current_exception();
          if (attempt > config_.retries || cancel.stop_requested()) {
            emit_failure(pending[j], why, attempt, billed());
            break;
          }
          {
            const std::lock_guard<std::mutex> lock(emit_mutex);
            ++stats.retried;
          }
          double delay_ms = config_.backoff.delay_ms(attempt);
          if (deadline) {
            const double remaining_ms = (config_.job_timeout - elapsed()) * 1000.0;
            delay_ms = std::min(delay_ms, std::max(0.0, remaining_ms));
          }
          if (delay_ms > 0.0) {
            std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(delay_ms));
          }
        }
      }
    }
  };

  const auto worker = [&](int slot) {
    const WorkBoard::Scope scope(board);
    try {
      for (;;) {
        std::optional<std::size_t> g;
        board.help_until([&] {
          // An escaped worker error (fail_fast, or store/append I/O trouble)
          // stops every worker from opening further groups; only the groups
          // already in flight finish.
          if (aborted || closed_groups == groups.size()) return true;
          if (next_group < groups.size() && open_groups < config_.jobs) {
            g = next_group++;
            ++open_groups;
            return true;
          }
          return false;
        });
        if (!g) return;
        run_group(groups[*g]);
        board.post([&] {
          --open_groups;
          ++closed_groups;
        });
      }
    } catch (...) {
      errors[static_cast<std::size_t>(slot)] = std::current_exception();
      board.post([&] { aborted = true; });
    }
  };

  // The worker catches its own escapes into `errors`, so run_shards only
  // joins; the aggregation below reports every one of them.
  run_shards(workers, worker);
  // Escaped errors abort the sweep — all of them reported, not just the
  // first worker's: under fail_fast several workers can trip concurrently,
  // and swallowing the others hides real failures.
  std::vector<std::exception_ptr> raised;
  for (const std::exception_ptr& e : errors) {
    if (e) raised.push_back(e);
  }
  if (raised.size() == 1) std::rethrow_exception(raised.front());
  if (raised.size() > 1) {
    std::string message = format("sweep: %zu worker(s) failed:", raised.size());
    for (const std::exception_ptr& e : raised) {
      try {
        std::rethrow_exception(e);
      } catch (...) {
        message += "\n  " + describe_current_exception();
      }
    }
    throw ScfiError(message);
  }
  return stats;
}

namespace {

/// Matched entries of `source`, or a loud error naming the source when the
/// globs select nothing (a typo must not silently sweep zero modules).
std::vector<ot::OtEntry> matched_entries(const ModuleSource& source,
                                         const std::string& module_globs) {
  std::vector<ot::OtEntry> entries = source.modules(module_globs);
  const std::string where =
      source.label().empty() ? "zoo" : "corpus '" + source.label() + "'";
  require(!entries.empty(), "sweep: no " + where + " module matches '" + module_globs + "'");
  return entries;
}

}  // namespace

std::vector<SweepJob> expand_jobs(const ModuleSource& source, const std::string& module_globs,
                                  const std::vector<int>& levels,
                                  const std::vector<synfi::SynfiConfig>& configs,
                                  const std::string& variant) {
  const std::vector<ot::OtEntry> entries = matched_entries(source, module_globs);
  require(!levels.empty(), "sweep: at least one protection level required");
  require(!configs.empty(), "sweep: at least one synfi config required");
  std::vector<SweepJob> jobs;
  jobs.reserve(entries.size() * levels.size() * configs.size());
  for (const ot::OtEntry& entry : entries) {
    for (const int level : levels) {
      for (const synfi::SynfiConfig& config : configs) {
        SweepJob job;
        job.source = source.label();
        job.module = entry.name;
        job.variant = variant;
        job.protection_level = level;
        job.synfi = config;
        jobs.push_back(std::move(job));
      }
    }
  }
  return jobs;
}

std::vector<SweepJob> expand_jobs(const std::string& module_globs,
                                  const std::vector<int>& levels,
                                  const std::vector<synfi::SynfiConfig>& configs,
                                  const std::string& variant) {
  return expand_jobs(ZooSource{}, module_globs, levels, configs, variant);
}

std::vector<SweepJob> expand_campaign_jobs(const ModuleSource& source,
                                           const std::string& module_globs,
                                           const std::vector<int>& levels,
                                           const std::vector<sim::CampaignConfig>& configs,
                                           const std::string& variant) {
  const std::vector<ot::OtEntry> entries = matched_entries(source, module_globs);
  require(!levels.empty(), "sweep: at least one protection level required");
  require(!configs.empty(), "sweep: at least one campaign config required");
  std::vector<SweepJob> jobs;
  jobs.reserve(entries.size() * levels.size() * configs.size());
  for (const ot::OtEntry& entry : entries) {
    for (const int level : levels) {
      for (const sim::CampaignConfig& config : configs) {
        SweepJob job;
        job.type = JobType::kCampaign;
        job.source = source.label();
        job.module = entry.name;
        job.variant = variant;
        job.protection_level = level;
        job.campaign = config;
        jobs.push_back(std::move(job));
      }
    }
  }
  return jobs;
}

std::vector<SweepJob> expand_campaign_jobs(const std::string& module_globs,
                                           const std::vector<int>& levels,
                                           const std::vector<sim::CampaignConfig>& configs,
                                           const std::string& variant) {
  return expand_campaign_jobs(ZooSource{}, module_globs, levels, configs, variant);
}

}  // namespace scfi::sweep
