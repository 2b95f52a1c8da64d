// The group-commit store writer (sweep::StoreWriter) and the sweep's use of
// it: concurrent appends reach the file as whole lines and each record is
// credited exactly once, in file order, after an fsync covers it; a sweep's
// file, store and stats agree; a serial sweep still syncs every record; and
// a store that cannot be written or synced fails run() loudly, naming the
// path, without crediting what it lost.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "base/error.h"
#include "base/parallel.h"
#include "base/strutil.h"
#include "kiss2_corpus.h"
#include "sweep/module_source.h"
#include "sweep/result_store.h"
#include "sweep/sweep.h"

namespace scfi::sweep {
namespace {

std::string fresh_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

/// Every line of `path`, each through the strict parser.
std::vector<SweepResult> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<SweepResult> records;
  for (std::string line; std::getline(in, line);) {
    records.push_back(ResultStore::parse_line(line));
  }
  return records;
}

std::vector<std::string> keys_of(const std::vector<SweepResult>& records) {
  std::vector<std::string> keys;
  for (const SweepResult& r : records) keys.push_back(r.key());
  return keys;
}

/// A SYNFI record with a key of its own.
SweepResult record(int thread, int index) {
  SweepResult result;
  result.job.module = format("m%d_%d", thread, index);
  result.report.sites = thread;
  result.report.injections = index;
  result.seconds = 0.001;
  return result;
}

TEST(StoreWriter, ConcurrentAppendsAreCreditedOnceInFileOrder) {
  constexpr int kThreads = 8;
  constexpr int kAppends = 200;
  const std::string path = fresh_path("store_writer_concurrent.jsonl");
  std::vector<std::string> credited;
  std::atomic<int> crediting{0};
  bool overlapped = false;
  StoreWriter writer(path, [&](SweepResult result) {
    if (crediting.fetch_add(1) != 0) overlapped = true;
    credited.push_back(result.key());
    crediting.fetch_sub(1);
  });
  run_shards(kThreads, [&](int slot) {
    for (int i = 0; i < kAppends; ++i) writer.append(record(slot, i));
  });
  writer.sync();

  EXPECT_FALSE(overlapped) << "credit calls must never overlap";
  const std::vector<SweepResult> lines = read_lines(path);
  ASSERT_EQ(lines.size(), std::size_t{kThreads * kAppends});
  EXPECT_EQ(credited, keys_of(lines)) << "credit order must be file order";
  std::vector<std::string> unique = credited;
  std::sort(unique.begin(), unique.end());
  EXPECT_EQ(std::unique(unique.begin(), unique.end()), unique.end());
  EXPECT_GE(writer.syncs(), 1);
  EXPECT_LE(writer.syncs(), kThreads * kAppends);

  // The barrier with nothing left to credit issues no fsync.
  const int syncs = writer.syncs();
  writer.sync();
  EXPECT_EQ(writer.syncs(), syncs);
}

TEST(StoreWriter, FailedFsyncCreditsNothingAndFailsTheWriter) {
  // /dev/null takes the write but rejects fsync.
  int credits = 0;
  StoreWriter writer("/dev/null", [&](SweepResult) { ++credits; });
  try {
    writer.append(record(0, 0));
    ADD_FAILURE() << "fsync of /dev/null succeeded";
  } catch (const ScfiError& e) {
    EXPECT_NE(std::string(e.what()).find("fsync of /dev/null failed"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(credits, 0);
  EXPECT_EQ(writer.syncs(), 1);
  // A failed writer writes nothing more, and the barrier reports the
  // record it could not credit instead of syncing again.
  EXPECT_THROW(writer.append(record(0, 1)), ScfiError);
  try {
    writer.sync();
    ADD_FAILURE() << "the barrier of a failed writer returned";
  } catch (const ScfiError& e) {
    EXPECT_NE(std::string(e.what()).find("1 record(s) written to /dev/null were never synced"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(credits, 0);
  EXPECT_EQ(writer.syncs(), 1);
}

TEST(StoreWriter, UnopenablePathThrowsNamingIt) {
  const std::string path = ::testing::TempDir() + "/no_such_dir/store.jsonl";
  try {
    StoreWriter writer(path);
    ADD_FAILURE() << "opened " << path;
  } catch (const ScfiError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

/// The committed test corpus as a directory, and a SYNFI + campaign matrix
/// over it: 4 machines x 2 levels x 4 SYNFI configs, plus a campaign per
/// machine.
std::vector<SweepJob> corpus_matrix(const Kiss2CorpusSource& corpus) {
  const std::vector<synfi::SynfiConfig> configs =
      synfi_matrix({"mds_", "all"}, {sim::FaultKind::kTransientFlip, sim::FaultKind::kStuckAt1},
                   {sim::FaultTarget::kAny}, 1, synfi::Backend::kExhaustiveSim);
  std::vector<SweepJob> jobs = expand_jobs(corpus, "*", {2, 3}, configs);
  sim::CampaignConfig campaign;
  campaign.runs = 200;
  campaign.cycles = 8;
  const std::vector<SweepJob> campaigns = expand_campaign_jobs(corpus, "*", {2}, {campaign});
  jobs.insert(jobs.end(), campaigns.begin(), campaigns.end());
  return jobs;
}

std::string write_corpus(const std::string& name) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(::testing::TempDir()) / name;
  fs::remove_all(root);
  fs::create_directories(root);
  for (const test::Kiss2Bench& bench : test::kKiss2Corpus) {
    std::ofstream(root / (std::string(bench.name) + ".kiss2")) << bench.text;
  }
  return root.generic_string();
}

TEST(SweepGroupCommit, FileRecordsEqualStoreAndStats) {
  const Kiss2CorpusSource corpus(write_corpus("group_commit_corpus"));
  const std::vector<SweepJob> jobs = corpus_matrix(corpus);
  ASSERT_EQ(jobs.size(), 36u);
  const std::string path = fresh_path("group_commit_4.jsonl");
  SweepConfig config;
  config.jobs = 4;
  config.threads = 4;
  ResultStore store;
  const SweepStats stats = SweepOrchestrator(config).run(jobs, store, path, false, &corpus);

  const std::vector<SweepResult> lines = read_lines(path);
  EXPECT_EQ(lines.size(), jobs.size());
  EXPECT_EQ(static_cast<std::size_t>(stats.executed + stats.failed), lines.size());
  EXPECT_EQ(store.size(), lines.size());
  // The store is credited in file order.
  EXPECT_EQ(keys_of(store.results()), keys_of(lines));
  for (const SweepResult& line : lines) {
    const SweepResult* stored = store.find(line.key());
    ASSERT_NE(stored, nullptr) << line.key();
    EXPECT_TRUE(reports_equal(*stored, line)) << line.key();
  }
  EXPECT_GE(stats.syncs, 1);
  EXPECT_LE(static_cast<std::size_t>(stats.syncs), lines.size());
}

TEST(SweepGroupCommit, SerialSweepSyncsEveryRecord) {
  const Kiss2CorpusSource corpus(write_corpus("group_commit_serial"));
  const std::vector<SweepJob> jobs = corpus_matrix(corpus);
  const std::string path = fresh_path("group_commit_1.jsonl");
  ResultStore store;
  const SweepStats stats = SweepOrchestrator(SweepConfig{}).run(jobs, store, path, false, &corpus);
  EXPECT_EQ(static_cast<std::size_t>(stats.executed + stats.failed), jobs.size());
  EXPECT_EQ(static_cast<std::size_t>(stats.syncs), jobs.size());
  EXPECT_EQ(read_lines(path).size(), jobs.size());

  // Without a store file there is no writer and no fsync.
  ResultStore memory;
  EXPECT_EQ(SweepOrchestrator(SweepConfig{}).run(jobs, memory, "", false, &corpus).syncs, 0);
  EXPECT_EQ(memory.size(), jobs.size());
}

TEST(SweepGroupCommit, UnwritableStoreThrowsNamingThePathAndCreditsNothing) {
  const std::vector<SweepJob> jobs =
      expand_jobs("pwrmgr_fsm,adc_ctrl_fsm", {2}, {synfi::SynfiConfig{}});
  for (const int workers : {1, 2}) {
    SweepConfig config;
    config.jobs = workers;
    config.threads = workers;
    ResultStore store;
    try {
      SweepOrchestrator(config).run(jobs, store, "/dev/full");
      ADD_FAILURE() << "a sweep into /dev/full succeeded";
    } catch (const ScfiError& e) {
      EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos) << e.what();
    }
    EXPECT_EQ(store.size(), 0u) << "workers=" << workers;
  }
}

TEST(SweepGroupCommit, BarrierFailureJoinsTheWorkerErrors) {
  // /dev/null takes the line but fails the worker's fsync; the barrier then
  // fails on the record that fsync left uncredited, and run() reports both.
  const std::vector<SweepJob> jobs = expand_jobs("pwrmgr_fsm", {2}, {synfi::SynfiConfig{}});
  ResultStore store;
  try {
    SweepOrchestrator(SweepConfig{}).run(jobs, store, "/dev/null");
    ADD_FAILURE() << "a sweep into /dev/null succeeded";
  } catch (const ScfiError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sweep: 2 error(s):"), std::string::npos) << what;
    EXPECT_NE(what.find("fsync of /dev/null failed"), std::string::npos) << what;
    EXPECT_NE(what.find("1 record(s) written to /dev/null were never synced"), std::string::npos)
        << what;
  }
  EXPECT_EQ(store.size(), 0u);
}

}  // namespace
}  // namespace scfi::sweep
