#include "sweep/supervisor.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <deque>
#include <mutex>
#include <numeric>
#include <optional>
#include <stop_token>
#include <thread>

#include "base/error.h"
#include "base/log.h"
#include "base/rng.h"
#include "base/strutil.h"

namespace scfi::sweep {
namespace {

// Both processes share the handler: the supervisor's SIGTERM/SIGINT starts
// the fleet drain; a worker (which inherits the handler across fork, and
// also receives terminal SIGINT directly as part of the foreground process
// group) takes no further job and finishes its in-flight one. Each process
// has its own copy of the flag after fork.
volatile std::sig_atomic_t g_drain = 0;
void drain_handler(int) { g_drain = 1; }

/// Worker exit codes. A clean exit retires the slot; anything else — and
/// any signal death — is a crash.
constexpr int kExitClean = 0;     ///< job pipe closed, or drained
constexpr int kExitInternal = 2;  ///< unexpected exception escaped the worker

double steady_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_seconds(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

/// Writes all of `bytes` to `fd`; throws on any error but EINTR.
void write_all(int fd, const std::string& bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0 && errno == EINTR) continue;
    require(n > 0, "fleet worker: write to the supervisor pipe failed");
    written += static_cast<std::size_t>(n);
  }
}

/// Reads the next dispatched job index from the job pipe; false at EOF
/// (the supervisor closed the pipe: no more work for this worker).
bool read_job(int fd, std::uint64_t& index) {
  char* bytes = reinterpret_cast<char*>(&index);
  std::size_t got = 0;
  while (got < sizeof(index)) {
    const ssize_t n = ::read(fd, bytes + got, sizeof(index) - got);
    if (n < 0 && errno == EINTR) continue;
    if (n == 0 && got == 0) return false;
    require(n > 0, "fleet worker: job pipe read failed");
    got += static_cast<std::size_t>(n);
  }
  return true;
}

struct WorkerArgs {
  const FleetConfig* fleet = nullptr;
  const std::vector<SweepJob>* pending = nullptr;  ///< inherited via fork
  const ModuleSource* source = nullptr;
  std::string worker_id;  ///< "w<slot>.<generation>"
  int job_fd = -1;        ///< read end: job indices from the supervisor
  int result_fd = -1;     ///< write end: heartbeats and final records
};

/// The worker subprocess body: read a job index, execute that job, send its
/// final record back as one line, repeat until the job pipe closes or a
/// drain is requested. A heartbeat thread on the side (a) writes an empty
/// line to the result pipe every `heartbeat_interval` and (b) arms the
/// drain token's grace deadline when a drain arrives. Returns the process
/// exit code.
int worker_body(const WorkerArgs& args) {
  set_log_worker(args.worker_id);
  const FleetConfig& fleet = *args.fleet;

  // State shared with the heartbeat thread. The mutex also serializes the
  // result pipe's two writers, so a heartbeat never lands inside a record.
  std::mutex mutex;
  bool job_active = false;
  double job_started = 0.0;  // steady seconds
  bool drain_armed = false;
  CancelToken drain_token;

  // Stopped and joined when worker_body returns or throws.
  const std::jthread heartbeat([&](const std::stop_token& stop) {
    while (!stop.stop_requested()) {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        if (g_drain != 0 && !drain_armed) {
          drain_armed = true;
          drain_token.set_deadline_after(fleet.drain_grace);
          log_info("drain requested: finishing in-flight work within " +
                   format("%.1fs", fleet.drain_grace));
        }
        // Past the wedge budget the worker goes silent on purpose and
        // volunteers for the supervisor's stale-heartbeat SIGKILL: the job
        // may never reach a cooperative cancellation point.
        const bool wedged = job_active && fleet.wedge_seconds > 0.0 &&
                            steady_seconds() - job_started > fleet.wedge_seconds;
        if (!wedged) {
          const char newline = '\n';
          // If the supervisor died this write raises SIGPIPE, whose default
          // disposition kills us — exactly the no-orphan policy.
          (void)!::write(args.result_fd, &newline, 1);
        }
      }
      sleep_seconds(fleet.heartbeat_interval);
    }
  });

  SweepConfig job_config = fleet.job;
  job_config.jobs = 1;  // one job at a time: a crash attributes to one job
  job_config.cancel = &drain_token;

  std::uint64_t index = 0;
  while (g_drain == 0 && read_job(args.job_fd, index)) {
    const SweepJob& job = args.pending->at(index);
    const std::string key = job.key();
    if (!fleet.poison_key.empty() && key == fleet.poison_key) {
      // Test hook: die holding the job, like a segfault mid-job.
      log_warn("poison key dispatched; killing self: " + key);
      (void)::raise(SIGKILL);
    }
    {
      const std::lock_guard<std::mutex> lock(mutex);
      job_active = true;
      job_started = steady_seconds();
    }
    log_info("started " + key);

    SweepResult record;
    try {
      ResultStore local;
      SweepOrchestrator(job_config).run({job}, local, "", false, args.source);
      record = *local.find(key);  // execution errors become failed records
    } catch (...) {
      // Orchestrator-level escape (not a job failure — those become
      // records). Record it rather than dying: the job would fail
      // identically on a peer.
      record.job = job;
      record.status = JobStatus::kFailed;
      record.error = describe_current_exception();
    }
    record.worker = args.worker_id;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      job_active = false;
      write_all(args.result_fd, ResultStore::to_line(record) + "\n");
    }
    log_info("finished " + key + " (" + job_status_name(record.status) + ")");
  }
  return kExitClean;
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
  int job_fd = -1;      ///< supervisor end of the job pipe (write)
  int result_fd = -1;   ///< supervisor end of the result pipe (nonblocking read)
  std::string inbox;    ///< bytes of a result line not yet newline-terminated
  std::int64_t job = -1;  ///< index into `pending` the worker holds; -1 = idle
  int generation = 0;
  int failures = 0;       ///< consecutive crashes (respawn-backoff input)
  double last_heartbeat = 0.0;  ///< steady seconds
  double respawn_at = -1.0;     ///< steady seconds; >= 0 = respawn scheduled
  bool retired = false;         ///< exited clean / no respawn wanted
  std::string worker_id;
};

void close_fd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

}  // namespace

FleetSupervisor::FleetSupervisor(const FleetConfig& config) : config_(config) {
  require(config_.workers >= 1, "fleet: workers must be >= 1");
  require(config_.max_crashes >= 1, "fleet: max-crashes must be >= 1");
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
  require(!store_path.empty(), "fleet: a store path is required");
  // A malformed matrix is a caller bug: reject it in the parent before any
  // worker is forked.
  validate_jobs(jobs, source);

  FleetStats stats;

  // The supervisor is the store's only writer. Rewrite the store first:
  // history shrinks to latest-wins records, and a torn tail (which has no
  // newline) is dropped before the first append could glue onto it.
  ResultStore store = ResultStore::load(store_path, /*recover_torn_tail=*/true);
  store.save(store_path);

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

  // Opened after the start-up save, whose rename would orphan an earlier
  // descriptor, and closed before the closing one.
  std::optional<StoreWriter> writer;
  writer.emplace(store_path, [&](SweepResult record) {
    if (record.status == JobStatus::kOk) {
      ++stats.executed;
    } else {
      ++stats.failed;
    }
    store.add(std::move(record));
  });

  std::deque<std::int64_t> queue(pending.size());  // jobs not yet dispatched
  std::iota(queue.begin(), queue.end(), std::int64_t{0});
  std::vector<int> crash_counts(pending.size(), 0);
  std::vector<Slot> slots(static_cast<std::size_t>(config_.workers));
  Rng rng(config_.jitter_seed);

  // SIGPIPE is ignored in the supervisor (a dispatch to a worker that just
  // died must fail with EPIPE, not kill the fleet) and restored to the
  // default in every worker (the no-orphan policy).
  using SignalHandler = void (*)(int);
  g_drain = 0;
  const SignalHandler old_term = std::signal(SIGTERM, drain_handler);
  const SignalHandler old_int = std::signal(SIGINT, drain_handler);
  const SignalHandler old_pipe = std::signal(SIGPIPE, SIG_IGN);

  // However run() leaves — normally with no worker left, or by an
  // exception — no worker outlives it and the caller's signal
  // dispositions come back.
  struct Teardown {
    std::vector<Slot>& slots;
    SignalHandler term, intr, pipe;
    ~Teardown() {
      for (Slot& slot : slots) {
        if (slot.pid > 0) {
          (void)::kill(slot.pid, SIGKILL);
          int status = 0;
          while (::waitpid(slot.pid, &status, 0) < 0 && errno == EINTR) {
          }
        }
        close_fd(slot.job_fd);
        close_fd(slot.result_fd);
      }
      (void)std::signal(SIGTERM, term);
      (void)std::signal(SIGINT, intr);
      (void)std::signal(SIGPIPE, pipe);
    }
  } teardown{slots, old_term, old_int, old_pipe};

  // Fork one worker into `slot`. fork() without exec is safe here: the
  // supervisor is single-threaded (workers start their heartbeat thread
  // only after the fork), and the child touches nothing but its own state
  // before _exit.
  const auto spawn = [&](int index) {
    Slot& slot = slots[static_cast<std::size_t>(index)];
    int job_pipe[2];
    int result_pipe[2];
    require(::pipe(job_pipe) == 0 && ::pipe(result_pipe) == 0, "fleet: pipe() failed");
    const int flags = ::fcntl(result_pipe[0], F_GETFL, 0);
    require(flags >= 0 && ::fcntl(result_pipe[0], F_SETFL, flags | O_NONBLOCK) == 0,
            "fleet: cannot set the result pipe nonblocking");
    const std::string worker_id = format("w%d.%d", index, slot.generation);
    const pid_t pid = ::fork();
    require(pid >= 0, "fleet: fork() failed");
    if (pid == 0) {
      (void)std::signal(SIGPIPE, SIG_DFL);
      // Close every supervisor-side end — ours and the copies of our
      // siblings' pipes we inherited. A stray inherited job-pipe write end
      // would keep a sibling from ever seeing EOF.
      for (Slot& s : slots) {
        close_fd(s.job_fd);
        close_fd(s.result_fd);
      }
      ::close(job_pipe[1]);
      ::close(result_pipe[0]);
      WorkerArgs args;
      args.fleet = &config_;
      args.pending = &pending;
      args.source = source;
      args.worker_id = worker_id;
      args.job_fd = job_pipe[0];
      args.result_fd = result_pipe[1];
      ::_exit(worker_main(args));
    }
    ::close(job_pipe[0]);
    ::close(result_pipe[1]);
    slot.pid = pid;
    slot.job_fd = job_pipe[1];
    slot.result_fd = result_pipe[0];
    slot.inbox.clear();
    slot.job = -1;
    slot.worker_id = worker_id;
    slot.last_heartbeat = steady_seconds();
    slot.respawn_at = -1.0;
    slot.retired = false;
    log_info(format("fleet: spawned worker %s (pid %d)", worker_id.c_str(),
                    static_cast<int>(pid)));
  };

  // Records a final for a pending job: appended through the store writer,
  // which the single-threaded supervisor leads, so the record is fsynced
  // (the crash-safe copy) and credited — counted, and kept in memory for
  // the closing atomic save — before finish() returns.
  const auto finish = [&](SweepResult record) { writer->append(std::move(record)); };

  // Reads what the slot's worker sent; any byte is a heartbeat, and each
  // complete non-empty line is the final record of the job the slot holds.
  // At EOF (the worker is gone) the pipe is closed and a partial line is
  // discarded: a record cut short by a crash never counts.
  const auto read_results = [&](Slot& slot) {
    char buffer[65536];
    for (;;) {
      const ssize_t n = ::read(slot.result_fd, buffer, sizeof(buffer));
      if (n > 0) {
        slot.inbox.append(buffer, static_cast<std::size_t>(n));
        slot.last_heartbeat = steady_seconds();
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n == 0) close_fd(slot.result_fd);
      break;  // EOF, or EAGAIN: nothing more for now
    }
    std::size_t start = 0;
    for (std::size_t newline; (newline = slot.inbox.find('\n', start)) != std::string::npos;
         start = newline + 1) {
      if (newline == start) continue;  // heartbeat
      const std::string line = slot.inbox.substr(start, newline - start);
      SweepResult record;
      try {
        record = ResultStore::parse_line(line);
      } catch (const ScfiError& e) {
        throw ScfiError("fleet: worker " + slot.worker_id + " sent a malformed record: " +
                        e.what());
      }
      require(slot.job >= 0 && record.key() == pending[static_cast<std::size_t>(slot.job)].key(),
              "fleet: worker " + slot.worker_id + " sent a record for a job it does not hold: " +
                  record.key());
      slot.job = -1;
      finish(std::move(record));
    }
    slot.inbox.erase(0, start);
    if (slot.result_fd < 0) slot.inbox.clear();
  };

  for (int s = 0; s < config_.workers; ++s) spawn(s);

  bool drain_forwarded = false;
  bool drain_killed = false;
  double drain_started = 0.0;
  const int poll_ms = std::max(1, static_cast<int>(std::ceil(config_.poll_interval * 1000.0)));

  for (;;) {
    // 1. Drain: forward SIGTERM once; SIGKILL stragglers past the grace.
    // Dispatch below stops and closes each job pipe as its worker goes
    // idle, so the workers exit once their in-flight record is in.
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

    // 2. Heartbeats and final records.
    for (Slot& slot : slots) {
      if (slot.result_fd >= 0) read_results(slot);
    }

    // 3. Reap. The dead worker's pipe is read to EOF first: its final
    // record may have arrived after step 2. A clean exit retires the slot;
    // anything else is a crash — the held job is quarantined or returned
    // to the queue, and a backed-off respawn is scheduled.
    for (Slot& slot : slots) {
      int status = 0;
      if (slot.pid <= 0 || ::waitpid(slot.pid, &status, WNOHANG) != slot.pid) continue;
      slot.pid = -1;
      if (slot.result_fd >= 0) read_results(slot);
      close_fd(slot.result_fd);
      close_fd(slot.job_fd);
      slot.inbox.clear();
      const std::int64_t job = slot.job;
      slot.job = -1;
      if (WIFEXITED(status) && WEXITSTATUS(status) == kExitClean) {
        // A worker that saw the drain before reading its dispatched job
        // exits clean without it.
        if (job >= 0) queue.push_back(job);
        slot.retired = true;
        slot.failures = 0;
        log_info("fleet: worker " + slot.worker_id + " finished");
        continue;
      }
      ++stats.crashes;
      const std::string how =
          WIFSIGNALED(status)
              ? format("killed by signal %d", WTERMSIG(status))
              : format("exit code %d", WIFEXITED(status) ? WEXITSTATUS(status) : -1);
      log_warn("fleet: worker " + slot.worker_id + " crashed (" + how + ")");
      if (job >= 0) {
        const SweepJob& held = pending[static_cast<std::size_t>(job)];
        const int count = ++crash_counts[static_cast<std::size_t>(job)];
        if (count >= config_.max_crashes) {
          SweepResult poison;
          poison.job = held;
          poison.status = JobStatus::kFailed;
          poison.error = "crashed";
          poison.attempts = count;
          poison.worker = slot.worker_id;
          finish(std::move(poison));
          ++stats.quarantined;
          log_warn(format("fleet: quarantined %s after %d crash(es)", held.key().c_str(),
                          count));
        } else {
          queue.push_back(job);
          log_warn("fleet: returned " + held.key() + " to the queue");
        }
      }
      if (drain_forwarded) {
        slot.retired = true;
        continue;
      }
      ++slot.failures;
      const double delay_ms = config_.respawn_backoff.jittered_delay_ms(slot.failures, rng);
      slot.respawn_at = steady_seconds() + delay_ms / 1000.0;
      log_info(format("fleet: respawning slot %s in %.0fms", slot.worker_id.c_str(),
                      delay_ms));
    }

    // 4. Stale heartbeats: a silent worker is presumed wedged or dead and
    // SIGKILLed; the reaper above turns that into an ordinary crash.
    const double now = steady_seconds();
    for (Slot& slot : slots) {
      if (slot.pid > 0 && now - slot.last_heartbeat > config_.heartbeat_timeout) {
        log_warn(format("fleet: worker %s heartbeat stale for %.1fs; SIGKILL",
                        slot.worker_id.c_str(), now - slot.last_heartbeat));
        (void)::kill(slot.pid, SIGKILL);
        slot.last_heartbeat = now;  // one kill per silence, not per tick
      }
    }

    // 5. Respawn scheduled slots while work is queued.
    for (int s = 0; s < config_.workers; ++s) {
      Slot& slot = slots[static_cast<std::size_t>(s)];
      if (slot.pid < 0 && !slot.retired && slot.respawn_at >= 0.0 && now >= slot.respawn_at) {
        if (queue.empty() || drain_forwarded) {
          slot.retired = true;
          continue;
        }
        ++slot.generation;
        ++stats.respawns;
        spawn(s);
      }
    }

    // 6. Dispatch: each idle worker gets the next queued job. With nothing
    // queued (or a drain under way) its job pipe closes and it exits.
    for (Slot& slot : slots) {
      if (slot.pid < 0 || slot.job >= 0 || slot.job_fd < 0) continue;
      if (queue.empty() || drain_forwarded) {
        close_fd(slot.job_fd);
        continue;
      }
      const auto index = static_cast<std::uint64_t>(queue.front());
      // An 8-byte write into an empty pipe is atomic; it fails only when
      // the worker just died, and then the reaper handles it.
      if (::write(slot.job_fd, &index, sizeof(index)) != sizeof(index)) continue;
      slot.job = queue.front();
      queue.pop_front();
    }

    // 7. Terminate when nothing is running and nothing will be; otherwise
    // wait for the next line from any worker, at most one tick.
    std::vector<pollfd> fds;
    bool any_scheduled = false;
    for (const Slot& slot : slots) {
      if (slot.result_fd >= 0) fds.push_back(pollfd{slot.result_fd, POLLIN, 0});
      if (slot.pid < 0 && !slot.retired && slot.respawn_at >= 0.0) any_scheduled = true;
    }
    const bool any_live = std::any_of(slots.begin(), slots.end(),
                                      [](const Slot& slot) { return slot.pid > 0; });
    if (!any_live && !any_scheduled) break;
    (void)::poll(fds.data(), fds.size(), poll_ms);
  }

  // Every final was appended as it arrived; the closing atomic save leaves
  // the store latest-wins compact.
  writer.reset();
  store.save(store_path);
  stats.unfinished = static_cast<int>(pending.size()) - stats.executed - stats.failed;
  return stats;
}

}  // namespace scfi::sweep
