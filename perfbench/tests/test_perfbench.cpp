// Tests of the benchmark's own arithmetic and inputs: corpus determinism,
// the tail percentile, span self-time, and the replay schedule check.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "corpus_gen.h"
#include "fsm/kiss2.h"
#include "stats.h"
#include "sweep/module_source.h"
#include "sweep_bench.h"

namespace {

namespace fs = std::filesystem;
using perfbench::Span;

std::map<std::string, std::string> read_tree(const fs::path& root) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    files[entry.path().lexically_relative(root).generic_string()] = text.str();
  }
  return files;
}

/// A fresh directory under the working directory, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& name) : path(fs::current_path() / name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

TEST(CorpusGen, SameSeedWritesByteIdenticalFiles) {
  const TempDir a("perfbench_corpus_a");
  const TempDir b("perfbench_corpus_b");
  const auto machines = perfbench::generate_machines(7, 12);
  const perfbench::CorpusShape shape =
      perfbench::write_corpus(machines, (a.path / "kiss2").string(), (a.path / "verilog").string());
  perfbench::write_corpus(perfbench::generate_machines(7, 12), (b.path / "kiss2").string(),
                          (b.path / "verilog").string());
  const auto files = read_tree(a.path);
  EXPECT_EQ(files.size(), 24U);
  EXPECT_EQ(files, read_tree(b.path));
  EXPECT_EQ(shape.machines, 12);
  int states = 0;
  for (const auto& fsm : machines) states += fsm.num_states();
  EXPECT_EQ(shape.states, states);
}

TEST(CorpusGen, SeedChangesStructureButNotSizes) {
  const auto one = perfbench::generate_machines(1, 10);
  const auto two = perfbench::generate_machines(2, 10);
  bool any_different = false;
  for (std::size_t m = 0; m < one.size(); ++m) {
    EXPECT_EQ(one[m].num_states(), two[m].num_states());
    EXPECT_EQ(one[m].num_inputs(), two[m].num_inputs());
    any_different =
        any_different || scfi::fsm::write_kiss2(one[m]) != scfi::fsm::write_kiss2(two[m]);
  }
  EXPECT_TRUE(any_different);
  EXPECT_EQ(one.front().num_states(), 3);
  EXPECT_EQ(one.back().num_states(), 30);
}

TEST(CorpusGen, BothFormsScanCleanThroughTheirFrontDoors) {
  const TempDir dir("perfbench_corpus_scan");
  const auto machines = perfbench::generate_machines(3, 8);
  perfbench::write_corpus(machines, (dir.path / "kiss2").string(), (dir.path / "verilog").string());
  const scfi::sweep::Kiss2CorpusSource kiss2((dir.path / "kiss2").string());
  const scfi::sweep::VerilogCorpusSource verilog((dir.path / "verilog").string());
  EXPECT_TRUE(kiss2.errors().empty());
  EXPECT_TRUE(verilog.errors().empty());
  ASSERT_EQ(kiss2.size(), machines.size());
  ASSERT_EQ(verilog.size(), machines.size());
  for (const auto& fsm : machines) {
    EXPECT_EQ(kiss2.module(fsm.name).fsm.num_states(), fsm.num_states());
    EXPECT_EQ(verilog.module(fsm.name).fsm.num_states(), fsm.num_states());
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Stats, Median) {
  EXPECT_EQ(perfbench::median({}), 0.0);
  EXPECT_EQ(perfbench::median({3, 1, 2}), 2.0);
  EXPECT_EQ(perfbench::median({4, 1, 3, 2}), 2.5);
}

TEST(Stats, TailKeepsTenSamplesBeyond) {
  // Fewer than 20 samples: no rung has ten beyond it, so the maximum.
  const perfbench::Tail few = perfbench::tail_percentile(one_to(19));
  EXPECT_EQ(few.value, 19.0);
  EXPECT_EQ(few.percentile, 100.0);
  EXPECT_EQ(few.samples, 19U);
  // 20 samples: p50 is rank 10, with exactly ten beyond.
  const perfbench::Tail twenty = perfbench::tail_percentile(one_to(20));
  EXPECT_EQ(twenty.percentile, 50.0);
  EXPECT_EQ(twenty.value, 10.0);
  // 100 samples: p90 (rank 90, ten beyond); p99 would leave one.
  const perfbench::Tail hundred = perfbench::tail_percentile(one_to(100));
  EXPECT_EQ(hundred.percentile, 90.0);
  EXPECT_EQ(hundred.value, 90.0);
  // 99 samples: p90 is rank 90 with nine beyond, so fall back to p50.
  EXPECT_EQ(perfbench::tail_percentile(one_to(99)).percentile, 50.0);
  const perfbench::Tail thousand = perfbench::tail_percentile(one_to(1000));
  EXPECT_EQ(thousand.percentile, 99.0);
  EXPECT_EQ(thousand.value, 990.0);
  EXPECT_EQ(perfbench::tail_percentile({}).samples, 0U);
}

Span span(std::int64_t start, std::int64_t end, int parent) {
  Span s;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(Stats, SelfTimeSubtractsCoveredChildTime) {
  const std::vector<Span> spans = {
      span(0, 100, -1),   // 0: root
      span(10, 30, 0),    // 1: child
      span(20, 50, 0),    // 2: overlaps child 1; [10,50] counts once
      span(90, 120, 0),   // 3: runs past the root; clipped to [90,100]
      span(25, 40, 2),    // 4: grandchild, covers part of span 2 only
      span(200, 260, -1), // 5: second root without children
  };
  const std::vector<std::int64_t> self = perfbench::self_times(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30 - 15);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 15);
  EXPECT_EQ(self[5], 60);
}

TEST(Stats, SelfTimesOfANestedTreeSumToTheRoot) {
  const std::vector<Span> spans = {span(0, 1000, -1), span(100, 400, 0), span(150, 200, 1),
                                   span(200, 390, 1), span(500, 900, 0), span(600, 700, 4)};
  std::int64_t total = 0;
  for (const std::int64_t s : perfbench::self_times(spans)) total += s;
  EXPECT_EQ(total, 1000);
}

/// A store holding one ok record per job, appended in the given job order.
scfi::sweep::ResultStore store_in_order(const perfbench::Setup& setup,
                                        const std::vector<std::size_t>& order) {
  scfi::sweep::ResultStore store;
  for (const std::size_t j : order) {
    scfi::sweep::SweepResult r;
    r.job = setup.parts.front().jobs[j];
    store.add(r);
  }
  return store;
}

TEST(Schedule, EmitOrderMustFollowTheReplaysGroups) {
  // 7 zoo modules x {flip, stuck1}: jobs 2m and 2m+1 share module m's group.
  const perfbench::Setup setup = perfbench::set_up("synfi_sat_logic", 1, "");
  ASSERT_EQ(setup.parts.size(), 1U);
  ASSERT_EQ(setup.jobs(), 14U);
  ASSERT_EQ(setup.parts.front().jobs[0].module, setup.parts.front().jobs[1].module);
  scfi::sweep::SweepConfig config;
  config.jobs = config.threads = 2;

  std::vector<std::size_t> in_order(14);
  for (std::size_t j = 0; j < in_order.size(); ++j) in_order[j] = j;
  EXPECT_TRUE(perfbench::schedule_problems(setup, config, store_in_order(setup, in_order)).empty());

  // Two groups interleaved: fine for two workers, not for one.
  std::vector<std::size_t> interleaved = {0, 2, 1, 3};
  for (std::size_t j = 4; j < 14; ++j) interleaved.push_back(j);
  const scfi::sweep::ResultStore two_open = store_in_order(setup, interleaved);
  EXPECT_TRUE(perfbench::schedule_problems(setup, config, two_open).empty());
  config.jobs = 1;
  EXPECT_EQ(perfbench::schedule_problems(setup, config, two_open).size(), 1U);

  // A group's second job emitted before its first.
  std::vector<std::size_t> swapped = in_order;
  std::swap(swapped[0], swapped[1]);
  EXPECT_EQ(perfbench::schedule_problems(setup, config, store_in_order(setup, swapped)).size(), 1U);

  // A missing record.
  in_order.pop_back();
  EXPECT_FALSE(
      perfbench::schedule_problems(setup, config, store_in_order(setup, in_order)).empty());
}

}  // namespace
