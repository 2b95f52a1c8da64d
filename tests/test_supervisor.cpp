// The sweep fleet contract: FleetSupervisor drives N forked workers to
// the same bit-identical results as a single-process sweep — through
// worker crashes (respawned with backoff, their job requeued), poison jobs
// (quarantined as failed/"crashed" after max_crashes), wedged jobs
// (stopped heartbeat -> supervisor SIGKILL), and graceful SIGTERM drain
// (in-flight work finishes or is recorded cancelled; a later resume
// completes the matrix).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "base/error.h"
#include "sweep/result_store.h"
#include "sweep/supervisor.h"
#include "sweep/sweep.h"

namespace scfi::sweep {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove(path);
  return path;
}

/// A cheap, deterministic SYNFI matrix: pwrmgr_fsm x levels {2,3} x kinds
/// {flip, stuck0} = 4 jobs, each a few milliseconds.
std::vector<SweepJob> synfi_matrix() {
  std::vector<synfi::SynfiConfig> configs(2);
  configs[0].wire_prefix = "mds_";
  configs[0].kind = sim::FaultKind::kTransientFlip;
  configs[1].wire_prefix = "mds_";
  configs[1].kind = sim::FaultKind::kStuckAt0;
  return expand_jobs("pwrmgr*", {2, 3}, configs);
}

/// Campaign jobs sized to take on the order of a second each — long enough
/// that a drain signal lands mid-flight deterministically.
std::vector<SweepJob> slow_campaign_matrix(int runs) {
  sim::CampaignConfig config;
  config.runs = runs;
  config.cycles = 24;
  config.seed = 7;
  return expand_campaign_jobs("pwrmgr*", {2, 3},
                              std::vector<sim::CampaignConfig>{config, [&] {
                                                                 sim::CampaignConfig c = config;
                                                                 c.fault.kinds = {
                                                                     sim::FaultKind::kStuckAt0};
                                                                 return c;
                                                               }()});
}

TEST(FleetSupervisor, ValidatesConfigStoreAndMatrix) {
  FleetConfig bad = FleetConfig{};
  bad.workers = 0;
  EXPECT_THROW(FleetSupervisor{bad}, ScfiError);
  bad = FleetConfig{};
  bad.max_crashes = 0;
  EXPECT_THROW(FleetSupervisor{bad}, ScfiError);
  bad = FleetConfig{};
  bad.heartbeat_timeout = 0.01;  // below the heartbeat interval
  EXPECT_THROW(FleetSupervisor{bad}, ScfiError);

  FleetSupervisor fleet{FleetConfig{}};
  // The store file IS the coordination medium: a path is mandatory.
  EXPECT_THROW(fleet.run(synfi_matrix(), ""), ScfiError);
  // A malformed matrix is rejected in the parent, before any fork.
  std::vector<SweepJob> jobs = synfi_matrix();
  jobs[0].variant = "warp-drive";
  EXPECT_THROW(fleet.run(jobs, temp_path("fleet_badmatrix.jsonl")), ScfiError);
}

TEST(FleetSupervisor, MatchesSingleProcessRunBitIdentically) {
  const std::vector<SweepJob> jobs = synfi_matrix();

  ResultStore single;
  SweepOrchestrator orchestrator{SweepConfig{}};
  orchestrator.run(jobs, single);

  const std::string path = temp_path("fleet_identical.jsonl");
  FleetConfig config;
  config.workers = 3;
  config.poll_interval = 0.01;
  config.heartbeat_interval = 0.05;
  FleetSupervisor fleet(config);
  const FleetStats stats = fleet.run(jobs, path);
  EXPECT_EQ(stats.executed, 4);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.unfinished, 0);
  EXPECT_EQ(stats.crashes, 0);
  EXPECT_FALSE(stats.drained);

  // The compacted store holds finals only, and the verdicts are
  // bit-identical to the single-process run (diff ignores timing, attempt
  // counts, and worker ids — the diagnostics allowed to differ).
  const ResultStore merged = ResultStore::load(path);  // strict load passes
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_TRUE(ResultStore::diff(single, merged).empty());
}

TEST(FleetSupervisor, PoisonJobIsQuarantinedAndWorkerRespawned) {
  const std::vector<SweepJob> jobs = synfi_matrix();
  const std::string poison = jobs[0].key();

  const std::string path = temp_path("fleet_poison.jsonl");
  FleetConfig config;
  config.workers = 1;  // forces the crash -> respawn -> re-claim path
  config.max_crashes = 2;
  config.poll_interval = 0.01;
  config.heartbeat_interval = 0.05;
  config.respawn_backoff = BackoffPolicy{1.0, 2.0, 8.0};
  config.poison_key = poison;
  FleetSupervisor fleet(config);
  const FleetStats stats = fleet.run(jobs, path);

  // Two workers died on the poison key; the second death quarantined it.
  // The fleet still finished every other job and exited.
  EXPECT_EQ(stats.crashes, 2);
  EXPECT_EQ(stats.quarantined, 1);
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.executed, 3);
  EXPECT_EQ(stats.unfinished, 0);
  EXPECT_GE(stats.respawns, 1);

  const ResultStore merged = ResultStore::load(path);
  ASSERT_EQ(merged.size(), 4u);
  const SweepResult* quarantined = merged.find(poison);
  ASSERT_NE(quarantined, nullptr);
  EXPECT_TRUE(quarantined->status == JobStatus::kFailed);
  EXPECT_EQ(quarantined->error, "crashed");
  EXPECT_EQ(quarantined->attempts, 2);

  // Resume (poison hook off) re-executes exactly the quarantined key and
  // converges the store to all-ok.
  FleetConfig retry = config;
  retry.poison_key = "";
  FleetSupervisor fleet2(retry);
  const FleetStats resumed = fleet2.run(jobs, path, /*resume=*/true);
  EXPECT_EQ(resumed.skipped, 3);
  EXPECT_EQ(resumed.executed, 1);
  EXPECT_EQ(resumed.failed, 0);
  const ResultStore healed = ResultStore::load(path);
  for (const SweepResult& record : healed.results()) {
    EXPECT_TRUE(record.status == JobStatus::kOk) << record.key();
  }
}

TEST(FleetSupervisor, WedgedJobIsReapedViaStoppedHeartbeat) {
  // One enormous campaign job (minutes of work) with a 0.2s wedge budget:
  // the worker's heartbeat goes silent, the supervisor SIGKILLs it, and
  // max_crashes=1 quarantines the job immediately — the fleet exits in
  // about a second instead of running the campaign to completion.
  sim::CampaignConfig huge;
  huge.runs = 50000000;
  huge.cycles = 24;
  const std::vector<SweepJob> jobs =
      expand_campaign_jobs("pwrmgr*", {2}, std::vector<sim::CampaignConfig>{huge});
  ASSERT_EQ(jobs.size(), 1u);

  const std::string path = temp_path("fleet_wedge.jsonl");
  FleetConfig config;
  config.workers = 1;
  config.max_crashes = 1;
  config.wedge_seconds = 0.2;
  config.heartbeat_interval = 0.05;
  config.heartbeat_timeout = 0.5;
  config.poll_interval = 0.01;
  FleetSupervisor fleet(config);
  const FleetStats stats = fleet.run(jobs, path);
  EXPECT_EQ(stats.crashes, 1);
  EXPECT_EQ(stats.quarantined, 1);
  EXPECT_EQ(stats.failed, 1);
  const ResultStore merged = ResultStore::load(path);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged.results()[0].error, "crashed");
}

TEST(FleetSupervisor, SigtermDrainsGracefullyAndResumeCompletes) {
  // Campaigns of about a second each; SIGTERM lands as soon as the first
  // record reaches the store, when a worker has just taken the next job and
  // the other still holds its first, so the fleet is mid-flight whatever
  // the host's speed: claimed jobs are cancelled within the (short) grace
  // and recorded, unclaimed jobs stay unfinished, and nothing is torn — a
  // resumed fleet completes the matrix to all-ok.
  const std::vector<SweepJob> jobs = slow_campaign_matrix(5000000);
  ASSERT_EQ(jobs.size(), 4u);

  const std::string path = temp_path("fleet_drain.jsonl");
  FleetConfig config;
  config.workers = 2;
  config.poll_interval = 0.01;
  config.heartbeat_interval = 0.05;
  config.drain_grace = 0.1;
  FleetSupervisor fleet(config);

  // The supervisor saves the (empty) store before it installs its drain
  // handler and appends the first final after; `done` keeps a signal from
  // outliving run(), whose handler would be gone.
  std::atomic<bool> done{false};
  std::thread signaller([&] {
    const auto empty = [&] {
      std::error_code ec;
      return !std::filesystem::exists(path, ec) || std::filesystem::file_size(path, ec) == 0;
    };
    while (!done && empty()) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (!done) (void)::kill(::getpid(), SIGTERM);
  });
  const FleetStats stats = fleet.run(jobs, path);
  done = true;
  signaller.join();

  EXPECT_TRUE(stats.drained);
  EXPECT_EQ(stats.executed + stats.failed + stats.unfinished, 4);
  EXPECT_GT(stats.failed + stats.unfinished, 0);  // the drain cut real work

  // The drained store is clean (strict load, finals only) and resume
  // finishes the job matrix.
  const ResultStore after = ResultStore::load(path);
  FleetSupervisor fleet2(config);
  const FleetStats resumed = fleet2.run(jobs, path, /*resume=*/true);
  EXPECT_FALSE(resumed.drained);
  EXPECT_EQ(resumed.skipped + resumed.executed, 4);
  EXPECT_EQ(resumed.failed, 0);
  EXPECT_EQ(resumed.unfinished, 0);
  const ResultStore healed = ResultStore::load(path);
  ASSERT_EQ(healed.size(), 4u);
  for (const SweepResult& record : healed.results()) {
    EXPECT_TRUE(record.status == JobStatus::kOk) << record.key();
  }
}

}  // namespace
}  // namespace scfi::sweep
