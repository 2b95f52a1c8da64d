#include "sweep/supervisor.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>

#include "base/error.h"
#include "base/log.h"
#include "base/rng.h"
#include "base/strutil.h"
#include "sweep/lease.h"

namespace scfi::sweep {
namespace {

// Both processes share the handler: the supervisor's SIGTERM/SIGINT starts
// the fleet drain; a worker (which inherits the handler across fork, and
// also receives terminal SIGINT directly as part of the foreground process
// group) stops claiming and finishes its in-flight job. Each process has
// its own copy of the flag after fork.
volatile std::sig_atomic_t g_drain = 0;
void drain_handler(int) { g_drain = 1; }

/// Worker exit codes the supervisor dispatches on. Anything else — and any
/// signal death — is a crash.
constexpr int kExitClean = 0;     ///< all jobs done, or drained
constexpr int kExitInternal = 2;  ///< unexpected exception escaped the worker
constexpr int kExitCorrupt = 3;   ///< store corruption no crash explains: abort the fleet

double steady_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_seconds(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

struct WorkerArgs {
  const FleetConfig* fleet = nullptr;
  const std::vector<SweepJob>* pending = nullptr;  ///< inherited via fork
  const ModuleSource* source = nullptr;
  std::string store_path;
  std::uint64_t baseline = 0;
  std::string worker_id;  ///< "w<slot>.<generation>"
  int slot = 0;
  int heartbeat_fd = -1;
};

/// The worker subprocess body: claim one job at a time through the lease
/// ledger, execute it, append the final record, repeat until every pending
/// key is done or a drain is requested. Runs a heartbeat thread on the
/// side that (a) writes liveness bytes to the supervisor pipe, (b) renews
/// the held lease at half-life, and (c) arms the drain token's grace
/// deadline when a drain arrives. Returns the process exit code.
int worker_body(const WorkerArgs& args) {
  set_log_worker(args.worker_id);
  const FleetConfig& fleet = *args.fleet;
  const std::vector<SweepJob>& pending = *args.pending;

  LeaseLedger ledger(args.store_path, args.baseline);

  // State shared with the heartbeat thread. The mutex orders lease
  // renewals against the final-record append: job_active is cleared under
  // the lock IN THE SAME critical section as the final append, so a
  // renewal can never land after this worker's own final record and
  // resurrect the job.
  std::mutex mutex;
  bool job_active = false;
  const SweepJob* active_job = nullptr;
  double lease_until = 0.0;
  double job_started = 0.0;  // steady seconds
  bool drain_armed = false;
  std::atomic<bool> stop_heartbeat{false};
  CancelToken drain_token;

  std::thread heartbeat([&] {
    while (!stop_heartbeat.load(std::memory_order_relaxed)) {
      bool silent = false;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        if (g_drain != 0 && !drain_armed) {
          drain_armed = true;
          drain_token.set_deadline_after(fleet.drain_grace);
          log_info("drain requested: finishing in-flight work within " +
                   format("%.1fs", fleet.drain_grace));
        }
        if (job_active) {
          if (fleet.wedge_seconds > 0.0 &&
              steady_seconds() - job_started > fleet.wedge_seconds) {
            // Volunteer for the supervisor's stale-heartbeat SIGKILL: the
            // in-flight job blew its wedge budget and may never reach a
            // cooperative cancellation point.
            silent = true;
          }
          const double now = lease_now();
          if (now > lease_until - fleet.lease_seconds / 2.0) {
            ResultStore::append_line(
                args.store_path,
                make_lease(*active_job, args.worker_id, now + fleet.lease_seconds));
            lease_until = now + fleet.lease_seconds;
          }
        }
      }
      if (!silent) {
        const char byte = 'h';
        // If the supervisor died this write raises SIGPIPE, whose default
        // disposition kills us — exactly the no-orphan policy.
        (void)!::write(args.heartbeat_fd, &byte, 1);
      }
      sleep_seconds(fleet.heartbeat_interval);
    }
  });

  SweepConfig job_config = fleet.job;
  job_config.jobs = 1;  // one job at a time: a crash attributes to one lease
  job_config.fail_fast = false;
  job_config.cancel = &drain_token;

  // Slot-scatter: start the claim scan at a per-slot offset so N fresh
  // workers spread over the matrix instead of racing for job 0.
  const std::size_t scatter =
      pending.empty() ? 0
                      : (static_cast<std::size_t>(args.slot) * pending.size()) /
                            static_cast<std::size_t>(std::max(1, fleet.workers));

  int exit_code = kExitClean;
  for (;;) {
    if (g_drain != 0) break;
    try {
      ledger.poll();
    } catch (const ScfiError& e) {
      log_error(std::string(e.what()));
      exit_code = kExitCorrupt;
      break;
    }
    const double now = lease_now();
    const SweepJob* chosen = nullptr;
    bool all_done = true;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const SweepJob& job = pending[(scatter + i) % pending.size()];
      const std::string key = job.key();
      if (ledger.done(key)) continue;
      all_done = false;
      if (chosen == nullptr && ledger.claimable(key, now)) chosen = &job;
    }
    if (all_done) break;
    if (chosen == nullptr) {
      // Everything left is leased by live peers; wait for finals, releases,
      // or expiries.
      sleep_seconds(fleet.poll_interval);
      continue;
    }

    // Claim: append our lease, then re-read — we own the job iff the
    // latest lease for the key is ours and no final landed meanwhile.
    // (Two workers can pass this check in a tight race; that costs one
    // duplicate execution, never a wrong result — jobs are deterministic
    // and the latest final wins.)
    const std::string key = chosen->key();
    const double until = now + fleet.lease_seconds;
    try {
      ResultStore::append_line(args.store_path, make_lease(*chosen, args.worker_id, until));
      ledger.poll();
    } catch (const ScfiError& e) {
      log_error(std::string(e.what()));
      exit_code = kExitCorrupt;
      break;
    }
    const SweepResult* latest = ledger.latest_lease(key);
    if (ledger.done(key) || latest == nullptr || latest->worker != args.worker_id) {
      continue;  // lost the race; pick another job
    }

    if (!fleet.poison_key.empty() && key == fleet.poison_key) {
      // Test hook: die holding the lease, like a segfault mid-job.
      log_warn("poison key claimed; killing self: " + key);
      (void)::raise(SIGKILL);
    }

    {
      const std::lock_guard<std::mutex> lock(mutex);
      job_active = true;
      active_job = chosen;
      lease_until = until;
      job_started = steady_seconds();
    }
    log_info("claimed " + key);

    SweepResult record;
    try {
      ResultStore local;
      SweepOrchestrator orchestrator(job_config);
      orchestrator.run({*chosen}, local, "", false, args.source);
      record = *local.find(key);  // fail_fast=false: ok or failed, always present
    } catch (...) {
      // Orchestrator-level escape (not a job failure — those become
      // records). Record it rather than dying: the job would fail
      // identically on a peer.
      record.job = *chosen;
      record.status = JobStatus::kFailed;
      record.error = describe_current_exception();
    }
    record.worker = args.worker_id;
    try {
      const std::lock_guard<std::mutex> lock(mutex);
      job_active = false;
      active_job = nullptr;
      ResultStore::append_line(args.store_path, record);
    } catch (const ScfiError& e) {
      log_error(std::string(e.what()));
      exit_code = kExitCorrupt;
      break;
    }
    log_info("finished " + key + " (" + job_status_name(record.status) + ")");
  }

  stop_heartbeat.store(true, std::memory_order_relaxed);
  heartbeat.join();
  return exit_code;
}

int worker_main(const WorkerArgs& args) noexcept {
  try {
    return worker_body(args);
  } catch (const std::exception& e) {
    log_error(std::string("worker died on unexpected exception: ") + e.what());
    return kExitInternal;
  } catch (...) {
    log_error("worker died on unknown exception");
    return kExitInternal;
  }
}

/// One fleet slot as the supervisor sees it. A slot outlives any single
/// worker process: crashes respawn a new generation into the same slot.
struct Slot {
  pid_t pid = -1;
  int read_fd = -1;       ///< supervisor end of the heartbeat pipe
  int generation = 0;
  int failures = 0;       ///< consecutive crashes (respawn-backoff input)
  double last_heartbeat = 0.0;  ///< steady seconds
  double respawn_at = -1.0;     ///< steady seconds; >= 0 = respawn scheduled
  bool retired = false;         ///< exited clean / no respawn wanted
  std::string worker_id;
};

}  // namespace

FleetSupervisor::FleetSupervisor(const FleetConfig& config) : config_(config) {
  require(config_.workers >= 1, "fleet: workers must be >= 1");
  require(config_.max_crashes >= 1, "fleet: max-crashes must be >= 1");
  require(config_.lease_seconds > 0.0, "fleet: lease duration must be > 0");
  require(config_.heartbeat_interval > 0.0, "fleet: heartbeat interval must be > 0");
  require(config_.heartbeat_timeout > config_.heartbeat_interval,
          "fleet: heartbeat timeout must exceed the heartbeat interval");
  require(config_.poll_interval > 0.0, "fleet: poll interval must be > 0");
  require(config_.drain_grace >= 0.0, "fleet: drain grace must be >= 0");
  require(config_.wedge_seconds >= 0.0, "fleet: wedge budget must be >= 0");
}

FleetStats FleetSupervisor::run(const std::vector<SweepJob>& jobs,
                                const std::string& store_path, bool resume,
                                const ModuleSource* source) {
  require(!store_path.empty(),
          "fleet: a store path is required (the store file is the fleet's "
          "coordination medium)");
  // A malformed matrix is a caller bug: reject it in the parent before any
  // worker is forked.
  validate_jobs(jobs, source);

  FleetStats stats;

  // Compact the store up front: history shrinks to latest-wins records
  // (torn tail salvaged), and every byte past the resulting size is THIS
  // run's protocol traffic — the ledger baseline.
  ResultStore store;
  struct stat st;
  if (::stat(store_path.c_str(), &st) == 0) {
    store = ResultStore::load(store_path, /*recover_torn_tail=*/true);
  }
  store.save(store_path);
  require(::stat(store_path.c_str(), &st) == 0, "fleet: cannot stat " + store_path);
  const std::uint64_t baseline = static_cast<std::uint64_t>(st.st_size);

  std::vector<SweepJob> pending;
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

  std::map<std::string, const SweepJob*> job_by_key;
  std::vector<std::string> pending_keys;
  pending_keys.reserve(pending.size());
  for (const SweepJob& job : pending) {
    job_by_key[job.key()] = &job;
    pending_keys.push_back(job.key());
  }

  using SignalHandler = void (*)(int);
  g_drain = 0;
  const SignalHandler old_term = std::signal(SIGTERM, drain_handler);
  const SignalHandler old_int = std::signal(SIGINT, drain_handler);

  Rng rng(config_.jitter_seed);
  LeaseLedger ledger(store_path, baseline);
  std::vector<Slot> slots(static_cast<std::size_t>(config_.workers));
  std::map<std::string, int> crash_counts;

  // Fork one worker into `slot`. fork() without exec is safe here: the
  // supervisor is single-threaded (workers start their heartbeat thread
  // only after the fork), and the child touches nothing but its own state
  // before _exit.
  const auto spawn = [&](int index) {
    Slot& slot = slots[static_cast<std::size_t>(index)];
    int fds[2];
    require(::pipe(fds) == 0, "fleet: pipe() failed");
    const int flags = ::fcntl(fds[0], F_GETFL, 0);
    require(flags >= 0 && ::fcntl(fds[0], F_SETFL, flags | O_NONBLOCK) == 0,
            "fleet: cannot set the heartbeat pipe nonblocking");
    const std::string worker_id =
        format("w%d.%d", index, slot.generation);
    const pid_t pid = ::fork();
    require(pid >= 0, "fleet: fork() failed");
    if (pid == 0) {
      // Child. Close every supervisor-side read end — ours and the copies
      // of our siblings' pipes we inherited. A stray inherited read end
      // would keep a sibling's pipe open after the supervisor died and
      // defeat the SIGPIPE orphan policy.
      for (const Slot& s : slots) {
        if (s.read_fd >= 0) ::close(s.read_fd);
      }
      ::close(fds[0]);
      WorkerArgs args;
      args.fleet = &config_;
      args.pending = &pending;
      args.source = source;
      args.store_path = store_path;
      args.baseline = baseline;
      args.worker_id = worker_id;
      args.slot = index;
      args.heartbeat_fd = fds[1];
      ::_exit(worker_main(args));
    }
    ::close(fds[1]);
    slot.pid = pid;
    slot.read_fd = fds[0];
    slot.worker_id = worker_id;
    slot.last_heartbeat = steady_seconds();
    slot.respawn_at = -1.0;
    slot.retired = false;
    log_info(format("fleet: spawned worker %s (pid %d)", worker_id.c_str(),
                    static_cast<int>(pid)));
  };

  for (int s = 0; s < config_.workers; ++s) spawn(s);

  bool drain_forwarded = false;
  bool drain_killed = false;
  double drain_started = 0.0;
  bool corrupt = false;
  std::string corrupt_why;

  const auto poll_ledger = [&] {
    if (corrupt) return;
    try {
      ledger.poll();
    } catch (const ScfiError& e) {
      corrupt = true;
      corrupt_why = e.what();
    }
  };

  for (;;) {
    // 1. Drain: forward SIGTERM once; SIGKILL stragglers past the grace.
    if (g_drain != 0 && !drain_forwarded) {
      drain_forwarded = true;
      stats.drained = true;
      drain_started = steady_seconds();
      log_warn("fleet: drain requested; forwarding SIGTERM to workers");
      for (Slot& slot : slots) {
        if (slot.pid > 0) (void)::kill(slot.pid, SIGTERM);
        if (slot.pid < 0) slot.retired = true;  // cancel scheduled respawns
      }
    }
    if (drain_forwarded && !drain_killed &&
        steady_seconds() - drain_started > config_.drain_grace + 5.0) {
      drain_killed = true;
      for (const Slot& slot : slots) {
        if (slot.pid > 0) {
          log_warn("fleet: worker " + slot.worker_id + " ignored the drain; SIGKILL");
          (void)::kill(slot.pid, SIGKILL);
        }
      }
    }

    // 2. Drain heartbeat bytes; any byte refreshes the slot's liveness.
    for (Slot& slot : slots) {
      if (slot.read_fd < 0) continue;
      char buffer[256];
      bool beat = false;
      for (;;) {
        const ssize_t n = ::read(slot.read_fd, buffer, sizeof(buffer));
        if (n > 0) {
          beat = true;
          continue;
        }
        break;  // 0 = EOF (child gone; waitpid handles it), <0 = EAGAIN/EINTR
      }
      if (beat) slot.last_heartbeat = steady_seconds();
    }

    poll_ledger();
    if (corrupt) break;

    // 3. Reap. A clean exit retires the slot; exit 3 aborts the fleet;
    // everything else is a crash — attribute the held lease, quarantine or
    // release it, and schedule a backed-off respawn.
    for (;;) {
      int status = 0;
      const pid_t pid = ::waitpid(-1, &status, WNOHANG);
      if (pid <= 0) break;
      Slot* slot = nullptr;
      for (Slot& s : slots) {
        if (s.pid == pid) slot = &s;
      }
      if (slot == nullptr) continue;
      ::close(slot->read_fd);
      slot->read_fd = -1;
      slot->pid = -1;
      if (WIFEXITED(status) && WEXITSTATUS(status) == kExitClean) {
        slot->retired = true;
        slot->failures = 0;
        log_info("fleet: worker " + slot->worker_id + " finished");
        continue;
      }
      if (WIFEXITED(status) && WEXITSTATUS(status) == kExitCorrupt) {
        corrupt = true;
        corrupt_why =
            "worker " + slot->worker_id + " reported store corruption (exit 3)";
        continue;
      }
      ++stats.crashes;
      const std::string how =
          WIFSIGNALED(status)
              ? format("killed by signal %d", WTERMSIG(status))
              : format("exit code %d", WIFEXITED(status) ? WEXITSTATUS(status) : -1);
      log_warn("fleet: worker " + slot->worker_id + " crashed (" + how + ")");

      // The dead worker appended nothing after its death, but its last
      // renewal may postdate our poll above — re-poll before attributing.
      poll_ledger();
      if (corrupt) break;
      for (const std::string& key : pending_keys) {
        if (ledger.done(key)) continue;  // sticky final: never resurrect
        const SweepResult* lease = ledger.latest_lease(key);
        if (lease == nullptr || lease->worker != slot->worker_id) continue;
        int& count = crash_counts[key];
        ++count;
        if (count >= config_.max_crashes) {
          SweepResult poison;
          poison.job = *job_by_key.at(key);
          poison.status = JobStatus::kFailed;
          poison.error = "crashed";
          poison.attempts = count;
          poison.worker = slot->worker_id;
          ResultStore::append_line(store_path, poison);
          ++stats.quarantined;
          log_warn(format("fleet: quarantined %s after %d crash(es)", key.c_str(), count));
        } else {
          // Explicit release: back to the pool now, not at lease expiry.
          ResultStore::append_line(store_path, make_lease(*job_by_key.at(key), "", 0.0));
          log_warn("fleet: released lease on " + key);
        }
      }
      if (drain_forwarded) {
        slot->retired = true;
        continue;
      }
      ++slot->failures;
      const double delay_ms =
          config_.respawn_backoff.jittered_delay_ms(slot->failures, rng);
      slot->respawn_at = steady_seconds() + delay_ms / 1000.0;
      log_info(format("fleet: respawning slot %s in %.0fms", slot->worker_id.c_str(),
                      delay_ms));
    }
    if (corrupt) break;

    // 4. Stale heartbeats: a silent worker is presumed wedged or dead and
    // SIGKILLed; the reaper above turns that into an ordinary crash.
    const double now_steady = steady_seconds();
    for (Slot& slot : slots) {
      if (slot.pid > 0 &&
          now_steady - slot.last_heartbeat > config_.heartbeat_timeout) {
        log_warn(format("fleet: worker %s heartbeat stale for %.1fs; SIGKILL",
                        slot.worker_id.c_str(), now_steady - slot.last_heartbeat));
        (void)::kill(slot.pid, SIGKILL);
        slot.last_heartbeat = now_steady;  // one kill per silence, not per tick
      }
    }

    // 5. Respawn scheduled slots; terminate when nothing is running and
    // nothing will be.
    bool all_done = true;
    for (const std::string& key : pending_keys) {
      if (!ledger.done(key)) {
        all_done = false;
        break;
      }
    }
    for (int s = 0; s < config_.workers; ++s) {
      Slot& slot = slots[static_cast<std::size_t>(s)];
      if (slot.pid < 0 && !slot.retired && slot.respawn_at >= 0.0 &&
          now_steady >= slot.respawn_at) {
        if (all_done || drain_forwarded) {
          slot.retired = true;
          continue;
        }
        ++slot.generation;
        ++stats.respawns;
        spawn(s);
      }
    }
    bool any_live = false;
    bool any_scheduled = false;
    for (const Slot& slot : slots) {
      if (slot.pid > 0) any_live = true;
      if (slot.pid < 0 && !slot.retired && slot.respawn_at >= 0.0) any_scheduled = true;
    }
    if (!any_live && !any_scheduled) break;

    sleep_seconds(config_.poll_interval);
  }

  // Tear down: on corruption nothing more can be trusted — kill what is
  // left and surface the error after restoring the signal dispositions.
  if (corrupt) {
    for (Slot& slot : slots) {
      if (slot.pid > 0) {
        (void)::kill(slot.pid, SIGKILL);
        int status = 0;
        while (::waitpid(slot.pid, &status, 0) < 0 && errno == EINTR) {
        }
        slot.pid = -1;
      }
      if (slot.read_fd >= 0) {
        ::close(slot.read_fd);
        slot.read_fd = -1;
      }
    }
  }
  for (Slot& slot : slots) {
    if (slot.read_fd >= 0) {
      ::close(slot.read_fd);
      slot.read_fd = -1;
    }
  }
  (void)std::signal(SIGTERM, old_term);
  (void)std::signal(SIGINT, old_int);
  // A worker's last append can postdate the loop's final poll (it lands
  // just before the exit we reaped); pick it up before accounting.
  poll_ledger();
  require(!corrupt, "fleet: " + corrupt_why);

  // Final merge + compaction: a tolerant whole-file read (a SIGKILL
  // mid-append can leave glued torn bytes strict load refuses), then the
  // atomic save keeps finals only — leases are protocol traffic, not
  // results, and are dropped from what lands on disk.
  LeaseLedger merge(store_path, 0);
  merge.poll();
  ResultStore merged;
  for (const SweepResult* record : merge.finals()) merged.add(*record);
  merged.save(store_path);

  // Accounting runs against THIS run's ledger, not the merged history: a
  // drained key with a stale pre-run record is unfinished, not done.
  for (const std::string& key : pending_keys) {
    const SweepResult* final_record = ledger.final_record(key);
    if (final_record == nullptr) {
      ++stats.unfinished;
    } else if (final_record->status == JobStatus::kOk) {
      ++stats.executed;
    } else {
      ++stats.failed;
    }
  }
  return stats;
}

}  // namespace scfi::sweep
