// The sweep fleet's parent process: `scfi_cli sweep --fleet N` forks N
// worker subprocesses that shard one job matrix through the shared JSONL
// store (see lease.h for the claim protocol) and supervises them — a
// worker that segfaults, is OOM-killed, or stops heartbeating is reaped
// and respawned with jittered exponential backoff, and the job it held
// returns to the pool. Process isolation is the point: a job that takes
// its worker down (a simulator bug, an OOM) costs one subprocess, not the
// sweep.
//
// Poison-job quarantine: the supervisor counts, per job key, how many
// workers died holding its lease. At `max_crashes` the key is written as a
// failed record with error "crashed" — terminal for this run, never
// re-leased — and the fleet moves on. Below the threshold the lease is
// released immediately (no waiting for expiry) so a surviving worker can
// steal the job.
//
// Graceful drain: SIGTERM/SIGINT to the supervisor forwards SIGTERM to
// every worker; workers stop claiming, finish their in-flight job within
// `drain_grace` seconds (past it the job's CancelToken fires and the job
// is recorded as cancelled), and exit. The supervisor then merges and
// compacts the store — leases are protocol traffic and are dropped — so
// what is left on disk is a plain result store a later
// `--resume` (fleet or single-process) picks up seamlessly.
//
// Liveness is watched over a per-worker pipe: the worker writes a byte
// every `heartbeat_interval`; a worker silent for `heartbeat_timeout` is
// SIGKILLed (this is how a *wedged* job — spinning forever without
// crashing — is converted into an ordinary crash). If the supervisor
// itself dies, each worker's next heartbeat write hits a closed pipe and
// the default SIGPIPE kills it: no orphan fleet.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/retry.h"
#include "sweep/sweep.h"

namespace scfi::sweep {

struct FleetConfig {
  /// Worker subprocesses to keep alive; >= 1.
  int workers = 2;
  /// Worker deaths one job key survives before it is quarantined as a
  /// failed record with error "crashed"; >= 1.
  int max_crashes = 2;
  /// Lease duration a worker claims per job. Renewed at half-life by the
  /// worker's heartbeat thread, so it only expires when the holder is dead
  /// AND the supervisor (which releases a reaped worker's lease
  /// explicitly) is gone too — the cross-fleet work-stealing fallback.
  double lease_seconds = 120.0;
  /// Seconds between heartbeat bytes on the worker->supervisor pipe.
  double heartbeat_interval = 0.2;
  /// Silence after which a worker is presumed wedged and SIGKILLed.
  double heartbeat_timeout = 10.0;
  /// Supervisor monitor-loop tick (also the workers' ledger re-poll
  /// interval while waiting on peers' leases).
  double poll_interval = 0.05;
  /// Seconds a draining worker may spend finishing its in-flight job
  /// before the job's CancelToken fires.
  double drain_grace = 30.0;
  /// When > 0, a worker whose in-flight job exceeds this many seconds
  /// stops heartbeating on purpose, volunteering for the supervisor's
  /// stale-heartbeat SIGKILL: per-job wedge detection stronger than the
  /// cooperative `job.job_timeout` (it catches jobs that never reach a
  /// cancellation checkpoint). 0 = off.
  double wedge_seconds = 0.0;
  /// Seeds the full-jitter respawn backoff (deterministic fleet runs).
  std::uint64_t jitter_seed = 0x5cf1f1ee7ULL;
  /// Delay schedule between a slot's consecutive crashes and its respawn,
  /// full-jittered so crashed slots do not respawn in lockstep.
  BackoffPolicy respawn_backoff{100.0, 2.0, 5000.0};
  /// Per-worker execution config (threads = thread budget PER WORKER, all
  /// of it on the worker's one running job; `jobs` is forced to 1 — a
  /// worker runs one job at a time so a crash attributes to exactly one
  /// lease; `cancel` is owned by the worker's drain token).
  SweepConfig job;
  /// Test hook: a worker that claims this key SIGKILLs itself while
  /// holding the lease — a deterministic stand-in for a job that crashes
  /// its process. "" = off. Wired from $SCFI_FLEET_POISON by the CLI.
  std::string poison_key;
};

struct FleetStats {
  int executed = 0;     ///< pending keys that finished ok this run
  int skipped = 0;      ///< keys already ok in the store (resume)
  int failed = 0;       ///< pending keys with a failed record (quarantined included)
  int quarantined = 0;  ///< keys failed with error "crashed" after max_crashes
  int unfinished = 0;   ///< pending keys with no terminal record (drain cut them)
  int crashes = 0;      ///< worker deaths observed (any abnormal exit)
  int respawns = 0;     ///< replacement workers forked
  bool drained = false; ///< SIGTERM/SIGINT drain was requested
};

class FleetSupervisor {
 public:
  explicit FleetSupervisor(const FleetConfig& config = {});

  /// Runs `jobs` across the worker fleet, coordinating through the JSONL
  /// store at `store_path` (required — it is the fleet's shared medium).
  /// The store is compacted up front (prior history shrinks to latest-wins
  /// records; everything appended past that baseline is this run's
  /// protocol traffic) and again at the end (leases dropped, finals kept).
  /// With `resume`, keys already ok in the store are skipped. Returns the
  /// run's stats; throws ScfiError on a malformed job matrix, on store
  /// corruption no crash explains, or when every worker is lost to
  /// corruption-class exits. The caller decides the exit code —
  /// `failed > 0 || unfinished > 0` is the CI convention.
  FleetStats run(const std::vector<SweepJob>& jobs, const std::string& store_path,
                 bool resume = false, const ModuleSource* source = nullptr);

 private:
  FleetConfig config_;
};

}  // namespace scfi::sweep
