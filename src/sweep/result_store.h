// Persistent store for sweep results — SYNFI pre-silicon analyses (§6.4)
// and Monte-Carlo fault campaigns (§6.3) side by side: one JSON object per
// line (JSONL), append-only and schema-versioned, so successive sweeps over
// the module zoo can be resumed, merged, and compared without a database.
//
// See src/sweep/README.md for the line schema. The store is keyed by the
// job identity (for SYNFI jobs: module | variant | level | region | backend
// | fault kind plus the include_inputs/free_symbol flags; for campaign
// jobs: module | variant | level | mc | kind | target | the campaign
// shape — either prefixed by the module-source label when the module came
// from a KISS2 corpus rather than the built-in zoo); re-appending a key
// makes the latest record win, which is what lets `--resume` replay an
// interrupted sweep on top of a partially written file.
#pragma once

#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/campaign.h"
#include "synfi/synfi.h"

namespace scfi::sweep {

/// Fault-kind / backend / job-type / fault-target name mappings shared by
/// the store, the orchestrator, and the CLI (one place to extend). The *_of
/// parsers throw ScfiError on unknown names.
const char* fault_kind_name(sim::FaultKind kind);
sim::FaultKind fault_kind_of(const std::string& name);
/// A FaultSpec kind set as one token: single kinds print as themselves
/// ("flip"), multi-kind sets join with '+' ("flip+skip"). The parser
/// rejects empty sets and unknown member names.
std::string fault_kinds_name(const std::vector<sim::FaultKind>& kinds);
std::vector<sim::FaultKind> fault_kinds_of(const std::string& name);
const char* backend_name(synfi::Backend backend);
synfi::Backend backend_of(const std::string& name);
const char* fault_target_name(sim::FaultTarget target);
sim::FaultTarget fault_target_of(const std::string& name);

/// What a sweep job runs on its compiled variant.
enum class JobType {
  kSynfi,     ///< §6.4 pre-silicon SYNFI analysis
  kCampaign,  ///< §6.3 Monte-Carlo fault campaign
};
const char* job_type_name(JobType type);
JobType job_type_of(const std::string& name);

/// Outcome of a sweep job. A failed record keeps the full job identity (so
/// resume knows the key) but carries an error message instead of a report
/// payload. Resume skips only ok records; a failed job re-executes.
enum class JobStatus {
  kOk,      ///< report payload is valid
  kFailed,  ///< job threw / timed out / crashed its worker; `error` says why
};
const char* job_status_name(JobStatus status);
JobStatus job_status_of(const std::string& name);

/// One sweep job: which variant to build and which query to run on it.
/// `synfi.lanes`/`synfi.threads` (and, for campaign jobs,
/// `campaign.lanes`/`campaign.threads`) are execution knobs owned by the
/// orchestrator; everything else is job identity.
struct SweepJob {
  JobType type = JobType::kSynfi;
  /// Module-source identity: "" for the built-in OT zoo (keys carry no
  /// source prefix), otherwise the corpus label (e.g. "corpus" for
  /// a `--corpus bench/corpus` sweep). Part of the job identity so zoo and
  /// corpus results coexist — and resume independently — in one store.
  std::string source;
  std::string module;            ///< module name within the source
  /// For SYNFI jobs only "scfi" is analyzable: unprotected variants have
  /// raw (unencoded) control bits and redundancy variants hold N register
  /// copies the one-cycle SYNFI stimulus does not drive. Campaign jobs run
  /// on any of "scfi", "unprotected", or "redundancy".
  std::string variant = "scfi";
  int protection_level = 2;
  synfi::SynfiConfig synfi;       ///< kSynfi jobs
  sim::CampaignConfig campaign;   ///< kCampaign jobs

  /// Canonical identity string, e.g. "pwrmgr_fsm|scfi|n2|r=mds_|sim|flip"
  /// or "pwrmgr_fsm|scfi|n2|mc|flip|t=any|runs=2000|c=12|f=1|s=1"; corpus
  /// jobs prefix the module with the source label, e.g.
  /// "corpus::lion|scfi|n2|r=mds_|sim|flip". SYNFI jobs append "|t=<target>"
  /// and "|k=<n>" only when the threat model departs from the classic
  /// single-fault any-target sweep, whose keys the committed stores pin.
  std::string key() const;
};

/// A finished job: the job identity, its terminal status, the report (one
/// of the two payloads, selected by `job.type`, meaningful only when
/// `status == kOk`), and the wall-clock cost. `attempts` counts executions
/// including retries; `error` is set only on failed records.
struct SweepResult {
  SweepJob job;
  JobStatus status = JobStatus::kOk;
  synfi::SynfiReport report;      ///< kSynfi payload (status == kOk)
  sim::CampaignResult campaign;   ///< kCampaign payload (status == kOk)
  /// Ok SYNFI records only: the variant's measured protection degree — the
  /// smallest k in [1, job.synfi.faults_k] whose k-fault sweep found an
  /// exploitable outcome, 0 when none did. Deterministic given the job
  /// identity, so it participates in reports_equal.
  int protection_degree = 0;
  std::string error;              ///< why the job failed (status == kFailed)
  int attempts = 1;               ///< executions spent, retries included
  /// Wall-clock seconds billed to the job, all attempts and retry backoff
  /// included. The first job of a variant group is billed from before the
  /// variant build (harden + compile), and a job that builds the group's
  /// SYNFI Analyzer carries that too, so the records of one group sum to
  /// the group's wall time less the store appends between its jobs. When
  /// the build fails, the group's first failure record carries the elapsed
  /// build time and the others 0. Diagnostics only: never part of the key
  /// or of reports_equal.
  double seconds = 0.0;
  /// Fleet worker id ("w<slot>.<generation>") that executed the job, ""
  /// outside fleet mode. Pure diagnostics — never part of the verdict or
  /// the key.
  std::string worker;

  std::string key() const { return job.key(); }
};

/// Verdict comparison: differing statuses never compare equal; two failed
/// records always do (the error text, attempt count, and worker id are
/// diagnostics, like timing); two ok records compare the report of the
/// job's type.
bool reports_equal(const SweepResult& a, const SweepResult& b);

class ResultStore {
 public:
  /// Bumped whenever the line schema changes. to_line() writes this
  /// version and parse_line()/load() read only this version: a line of any
  /// other version throws ScfiError naming it, and its store must be
  /// regenerated.
  static constexpr int kSchemaVersion = 6;

  ResultStore() = default;

  /// Parses an existing JSONL store. A missing file yields an empty store;
  /// a malformed line or another schema version throws ScfiError. With
  /// `recover_torn_tail`, a malformed FINAL line without its newline — the
  /// one shape a crash or SIGKILL during append_line can leave behind — is
  /// dropped with a loud warning instead of aborting the load, so
  /// `--resume` can replay on top of a torn store (the dropped job simply
  /// re-executes). Corruption anywhere else, a complete last line included,
  /// still throws: only a torn tail is explainable by a crash.
  static ResultStore load(const std::string& path, bool recover_torn_tail = false);

  /// Adds a result; an existing record with the same key is replaced
  /// in place (latest wins).
  void add(SweepResult result);

  bool contains(const std::string& key) const;
  const SweepResult* find(const std::string& key) const;
  const std::vector<SweepResult>& results() const { return results_; }
  std::size_t size() const { return results_.size(); }

  /// Folds `other` into this store; on key collisions `other` wins.
  void merge(const ResultStore& other);

  /// Key-level comparison of two stores. `changed` lists keys present in
  /// both whose reports differ (timing is ignored — only verdicts count).
  struct Diff {
    std::vector<std::string> only_left;
    std::vector<std::string> only_right;
    std::vector<std::string> changed;
    bool empty() const { return only_left.empty() && only_right.empty() && changed.empty(); }
  };
  static Diff diff(const ResultStore& left, const ResultStore& right);

  /// Rewrites the whole store (one line per record, key order = insertion)
  /// crash-safely: the lines go to a sibling temp file which is fsynced and
  /// atomically renamed over `path`, so a crash at any point leaves either
  /// the complete old store or the complete new one — never a torn mix.
  /// Also the latest-wins compactor behind `scfi_cli store-compact`.
  void save(const std::string& path) const;

  /// Serializes one record as a single JSONL line (no trailing newline).
  static std::string to_line(const SweepResult& result);
  /// Inverse of to_line; throws ScfiError on malformed input, a missing
  /// type/source/status field, or a schema version other than
  /// kSchemaVersion. Unknown scalar fields are skipped.
  static SweepResult parse_line(const std::string& line);
  /// Appends one record to a JSONL file (creating it if needed) through a
  /// one-record StoreWriter: one O_APPEND write, then an fsync that this
  /// call leads, so records from concurrent writers never interleave and
  /// once the call returns the record survives a crash or power cut. A kill
  /// inside the call can at worst leave one torn final line, which load()'s
  /// recovery mode salvages.
  static void append_line(const std::string& path, const SweepResult& result);

  /// What `scfi_cli store-compact` reports after compact_file().
  struct CompactStats {
    std::size_t lines = 0;    ///< non-blank JSONL lines before the rewrite
    std::size_t records = 0;  ///< latest-wins records after it
  };
  /// Rewrites the store at `path` latest-wins compact (salvaging a torn
  /// tail) via the atomic save() path. A missing file, an empty file, or a
  /// file whose every line is torn is an error — ScfiError naming the path
  /// and the reason — not a silent no-op: compacting nothing means the
  /// caller pointed at the wrong store.
  static CompactStats compact_file(const std::string& path);

 private:
  std::vector<SweepResult> results_;
  std::map<std::string, std::size_t> index_;  ///< key -> position in results_
};

/// Group-commit appender to one JSONL store file: the one append and fsync
/// path of the sweep subsystem (SweepOrchestrator::run, the fleet
/// supervisor and append_line all append through it).
///
/// - One O_APPEND descriptor serves the writer's lifetime. When the open
///   creates the file, the parent directory is fsynced too (best-effort,
///   like save()), so a new store's directory entry survives a power cut.
/// - append() serializes the record outside the writer's lock and writes
///   it as one line with one write() under the lock, so lines of concurrent
///   callers never interleave and the file order is the order of those
///   writes.
/// - A record is *credited* — handed to `credit` — only after an fsync
///   that began after its write has finished. Credits come in file order,
///   one call at a time, outside the lock, on the thread that led the
///   fsync.
/// - A caller that finds no fsync in flight leads one: it takes every
///   written, uncredited line, fsyncs, credits them and returns. A caller
///   that finds one in flight returns right after its write, and a later
///   leader or sync() credits its line. So no caller waits on an fsync it
///   does not lead, and a single-threaded caller leads every fsync: each
///   of its append() calls returns with its record credited.
/// - sync() is the barrier: it waits for the fsync in flight, then leads
///   one more when any written line is still uncredited.
/// - A failed write or fsync throws ScfiError naming the path and fails the
///   writer for good: that batch is never credited, later append() calls
///   throw without writing, and sync() throws while a written line is
///   uncredited. Nothing is re-synced after a failed fsync, since a retry
///   can report success for pages the kernel has already dropped.
///
/// Whatever a crash or power cut leaves, every credited record is on disk;
/// a SIGKILL leaves at most one torn final line (see ResultStore::load).
class StoreWriter {
 public:
  /// Receives each record once an fsync covers it; empty = credit nothing.
  using Credit = std::function<void(SweepResult)>;

  /// Opens `path` for appending, creating it if needed; throws ScfiError
  /// naming the path when it cannot.
  explicit StoreWriter(std::string path, Credit credit = {});
  /// Closes the descriptor. Lines written after the last fsync are not
  /// synced or credited: call sync() first.
  ~StoreWriter();
  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;

  /// Writes `result` as one line and, when no fsync is in flight, leads
  /// one (see the class comment).
  void append(SweepResult result);
  /// Barrier: returns once every line written before the call is credited.
  void sync();
  /// File fsyncs issued so far, failed ones and the barrier's included
  /// (the directory fsync after a create is not counted).
  int syncs() const;

  /// Best-effort fsync of `path`'s parent directory, which makes a create
  /// or rename there durable. Some filesystems reject directory fsync;
  /// that weakens durability, never correctness, so failures are quiet.
  static void sync_parent_dir(const std::string& path);

 private:
  /// Runs one fsync over every uncredited line; `lock` is held on entry and
  /// on exit, and no fsync is in flight on entry.
  void lead(std::unique_lock<std::mutex>& lock);

  std::string path_;
  Credit credit_;
  int fd_ = -1;
  mutable std::mutex mutex_;
  std::condition_variable idle_;        ///< an fsync finished
  std::vector<SweepResult> unsynced_;   ///< written, not yet credited (file order)
  bool syncing_ = false;                ///< an fsync is in flight
  bool failed_ = false;                 ///< a write or fsync failed
  int syncs_ = 0;
};

}  // namespace scfi::sweep
