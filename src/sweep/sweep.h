// Multi-module sweep orchestration: the paper's §6.4 SYNFI evaluation and
// §6.3 Monte-Carlo fault campaigns as ONE fleet experiment over the
// OpenTitan zoo and/or a KISS2 benchmark corpus (see module_source.h).
//
// A sweep is a set of SweepJobs — module x protection config x query, where
// a query is either a SYNFI analysis or a Monte-Carlo campaign (tagged by
// `SweepJob.type`). The orchestrator groups jobs by compiled variant so
// that the variant is built, flattened and sliced once per group (one
// sim::VariantNetlist serves every campaign, and ONE synfi::Analyzer over
// it every SYNFI query of that variant, amortizing the simulator/CNF build),
// and runs them on one pool of max(jobs, threads) workers: at most `jobs`
// groups are open at once, each running its jobs in order, and every other
// worker helps the open groups' SYNFI and campaign runs by stealing halves
// of their unit ranges (base/parallel.h WorkShare), so a straggler group
// gets the whole pool once the others close. Completed jobs are streamed
// into a ResultStore (and, when requested, appended to a JSONL file as they
// finish), so an interrupted sweep can be resumed by skipping the keys
// already present.
//
// Because every synfi report is lanes/threads-invariant, every campaign
// runs on the streaming jump-ahead planner (per-run RNG streams — also
// lanes/threads-invariant), and jobs are independent, the per-key results
// are bit-identical for every jobs/threads combination — only the
// completion (file) order varies.
//
// The fleet is failure-isolated: a job that throws mid-execution (or whose
// variant fails to build) is retried up to `retries` times with exponential
// backoff, then recorded as a failure record — it never takes
// down the other jobs. A per-job wall-clock deadline (`job_timeout`) is
// enforced cooperatively via a CancelToken polled inside the SYNFI and
// campaign inner loops. A resumed sweep re-executes failed/timed-out keys
// and skips only the ones that completed ok.
#pragma once

#include <string>
#include <vector>

#include "base/retry.h"
#include "sweep/module_source.h"
#include "sweep/result_store.h"

namespace scfi::sweep {

struct SweepConfig {
  /// Maximum concurrently open variant groups (each runs its jobs one at a
  /// time, in job order); >= 1.
  int jobs = 1;
  /// Thread budget: the sweep runs max(jobs, threads) worker threads. At
  /// most `jobs` of them own an open group; the rest help the open groups'
  /// SYNFI and campaign runs, so a straggler group gets every idle thread;
  /// >= 1.
  int threads = 1;
  /// Simulator lanes per pass: (site, edge) injection jobs for
  /// exhaustive-backend SYNFI queries, campaign runs in flight for
  /// campaign jobs. 1..sim::kMaxLanes (64 x lane_words); widths past 64
  /// use multi-word SoA lane blocks. 0 picks the count per compiled module
  /// via synfi::auto_lanes (small modules peak at 128–256 lanes; the
  /// orchestrator is the layer that knows the module, so the sentinel is
  /// resolved here — the engines themselves still reject 0).
  int lanes = 0;
  /// Re-executions granted to a job that throws, beyond its first attempt
  /// (so a job runs at most `retries + 1` times); >= 0. Variant-build
  /// failures and timeouts are deterministic and are never retried.
  int retries = 2;
  /// Per-job wall-clock deadline in seconds, spanning all attempts of the
  /// job; 0 = no deadline. Enforced cooperatively (checked per simulator
  /// batch / SAT query), so a job overruns by at most one batch.
  double job_timeout = 0.0;
  /// Delay schedule between retry attempts of one job.
  BackoffPolicy backoff;
  /// Optional external stop signal: every per-job deadline token chains to
  /// it, so firing it cancels the in-flight attempt at the next batch
  /// boundary (recorded as a failure, never retried). The fleet's graceful
  /// drain arms this with a grace deadline on SIGTERM. Must outlive run().
  const CancelToken* cancel = nullptr;
};

struct SweepStats {
  int executed = 0;  ///< jobs that completed ok in this invocation
  int skipped = 0;   ///< jobs already ok in the store (resume)
  int failed = 0;    ///< jobs recorded as failure records
  int retried = 0;   ///< extra attempts spent across all jobs
  /// File fsyncs the store writer issued, the closing barrier's included
  /// (0 without a store file). Each covers one or more records, so
  /// syncs <= executed + failed; a one-worker sweep syncs every record.
  int syncs = 0;
};

class SweepOrchestrator {
 public:
  explicit SweepOrchestrator(const SweepConfig& config = {});

  /// Runs `jobs`, streaming each finished result — ok or failed — into
  /// `store`. When `out_path` is non-empty, each result is appended to that
  /// JSONL file as it finishes, through one StoreWriter, and is credited —
  /// counted in the stats and added to `store` — only once an fsync that
  /// covers it has finished: the next fsync a worker leads, or the barrier
  /// fsync that ends run(). With `resume`, jobs whose key is already in
  /// `store` with an ok record are skipped (load the store from `out_path`
  /// first to resume a previous invocation); failed/timed-out keys
  /// re-execute, and the latest-wins append replaces their records.
  /// Jobs with an empty `source` resolve against the built-in zoo; jobs
  /// whose `source` matches `source->label()` resolve against `source` (so
  /// zoo and corpus jobs can share one fleet run); any other source label
  /// throws up front, as do unknown/unanalyzable variants and SAT jobs
  /// with skip-cycle faults (malformed job matrices are caller bugs, not
  /// fleet failures). Execution errors — unknown modules, variant-build
  /// failures, jobs that throw or exceed `job_timeout` — become failure
  /// records. Only a store failure escapes run() — a worker's failed write
  /// or fsync, or a failed barrier: that error when there is one, or one
  /// ScfiError aggregating every error when there are several. A record
  /// the failure left uncredited is absent from `store`.
  SweepStats run(const std::vector<SweepJob>& jobs, ResultStore& store,
                 const std::string& out_path = "", bool resume = false,
                 const ModuleSource* source = nullptr);

 private:
  SweepConfig config_;
};

/// The up-front malformed-matrix check run() performs — unknown or
/// unanalyzable variants, unresolvable source labels, SAT SYNFI jobs with
/// skip-cycle faults — exposed so the fleet supervisor can reject a bad
/// matrix in the parent process before forking any worker. Throws
/// ScfiError on the first bad job.
void validate_jobs(const std::vector<SweepJob>& jobs, const ModuleSource* source);

/// Expands a module-glob x levels x configs matrix into the flat SYNFI job
/// list `SweepOrchestrator::run` consumes (modules in the source's
/// canonical order; one job per combination, carrying the source's label).
/// Throws when the glob matches nothing in `source`.
std::vector<SweepJob> expand_jobs(const ModuleSource& source, const std::string& module_globs,
                                  const std::vector<int>& levels,
                                  const std::vector<synfi::SynfiConfig>& configs,
                                  const std::string& variant = "scfi");

/// The SYNFI config matrix of a sweep: one config per region x kind x
/// target, in that nesting, on one back-end and attacker strength. Region
/// "all" means every wire (an empty prefix). A `state` target faults the
/// state register's Q bits whatever the prefix, so it expands once per
/// kind, under region "all", where the first region would place it.
std::vector<synfi::SynfiConfig> synfi_matrix(const std::vector<std::string>& regions,
                                             const std::vector<sim::FaultKind>& kinds,
                                             const std::vector<sim::FaultTarget>& targets,
                                             int faults_k, synfi::Backend backend);

/// Zoo convenience overload (modules in Table 1 order).
std::vector<SweepJob> expand_jobs(const std::string& module_globs,
                                  const std::vector<int>& levels,
                                  const std::vector<synfi::SynfiConfig>& configs,
                                  const std::string& variant = "scfi");

/// Campaign analog of expand_jobs: module-glob x levels x campaign configs,
/// tagged JobType::kCampaign. Campaign jobs accept the "unprotected" and
/// "redundancy" variants too (the campaign engine drives all three compiled
/// forms). The configs' lanes/threads knobs are overwritten by the
/// orchestrator at execution time and do not enter the job identity.
std::vector<SweepJob> expand_campaign_jobs(const ModuleSource& source,
                                           const std::string& module_globs,
                                           const std::vector<int>& levels,
                                           const std::vector<sim::CampaignConfig>& configs,
                                           const std::string& variant = "scfi");

/// Zoo convenience overload (modules in Table 1 order).
std::vector<SweepJob> expand_campaign_jobs(const std::string& module_globs,
                                           const std::vector<int>& levels,
                                           const std::vector<sim::CampaignConfig>& configs,
                                           const std::string& variant = "scfi");

}  // namespace scfi::sweep
