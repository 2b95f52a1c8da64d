// The sweep subsystem contract: the JSONL result-store schema is pinned by
// golden lines (schema v6 — bump ResultStore::kSchemaVersion when it has
// to change; a line of any other version is rejected), load/save/merge/diff
// round-trip, SweepOrchestrator results — SYNFI and Monte-Carlo campaign
// jobs alike, from the zoo or a KISS2 corpus — are bit-identical to direct
// per-module analyze()/run_campaign() for every jobs/threads combination
// with --resume skipping stored ok jobs, failing jobs are isolated into
// failure records (retried on an attempt budget, bounded by a cooperative
// per-job deadline) instead of taking down the fleet, and diff_report
// gates on the configured thresholds (Wilson-interval separation for
// campaign rates, absolute deltas as the low-trial fallback; an ok ->
// failed transition always gates).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "base/error.h"
#include "base/strutil.h"
#include "kiss2_corpus.h"
#include "ot/zoo.h"
#include "rtlil/design.h"
#include "sim/campaign.h"
#include "sweep/diff_report.h"
#include "sweep/module_source.h"
#include "sweep/sweep.h"
#include "synfi/synfi.h"

namespace scfi::sweep {
namespace {

/// A store record with every field populated, fixed so the golden line
/// below pins the schema byte for byte.
SweepResult golden_result() {
  SweepResult result;
  result.job.module = "pwrmgr_fsm";
  result.job.variant = "scfi";
  result.job.protection_level = 3;
  result.job.synfi.wire_prefix = "mds_";
  result.job.synfi.backend = synfi::Backend::kSat;
  result.job.synfi.kind = sim::FaultKind::kStuckAt1;
  result.job.synfi.free_symbol = true;
  result.report.sites = 75;
  result.report.injections = 1275;
  result.report.exploitable = 2;
  result.report.detected = 1200;
  result.report.masked = 73;
  result.report.stalls = 1;
  result.report.exploitable_sites = {"mds_x_12[0]", "mds_a_3[1]"};
  result.protection_degree = 1;
  result.seconds = 0.125;
  return result;
}

constexpr const char* kGoldenLine =
    "{\"schema\":6,\"type\":\"synfi\",\"key\":\"pwrmgr_fsm|scfi|n3|r=mds_|sat|stuck1|free\","
    "\"source\":\"\",\"module\":\"pwrmgr_fsm\",\"variant\":\"scfi\",\"level\":3,"
    "\"status\":\"ok\",\"region\":\"mds_\","
    "\"include_inputs\":false,\"backend\":\"sat\",\"kind\":\"stuck1\","
    "\"target\":\"any\",\"faults_k\":1,\"free_symbol\":true,"
    "\"sites\":75,\"injections\":1275,\"exploitable\":2,\"protection_degree\":1,"
    "\"detected\":1200,\"masked\":73,"
    "\"stalls\":1,\"exploitable_sites\":[\"mds_x_12[0]\",\"mds_a_3[1]\"],"
    "\"attempts\":1,\"seconds\":0.125000}";

/// A failed record: full job identity, no payload counters, the error and
/// attempt count instead.
SweepResult golden_failed_result() {
  SweepResult result;
  result.job.module = "pwrmgr_fsm";
  result.job.variant = "scfi";
  result.job.protection_level = 3;
  result.job.synfi.wire_prefix = "mds_";
  result.job.synfi.backend = synfi::Backend::kSat;
  result.job.synfi.kind = sim::FaultKind::kStuckAt1;
  result.job.synfi.free_symbol = true;
  result.status = JobStatus::kFailed;
  result.error = "synfi: no fault sites match prefix 'mds_'";
  result.attempts = 3;
  result.seconds = 0.125;
  return result;
}

constexpr const char* kGoldenFailedLine =
    "{\"schema\":6,\"type\":\"synfi\",\"key\":\"pwrmgr_fsm|scfi|n3|r=mds_|sat|stuck1|free\","
    "\"source\":\"\",\"module\":\"pwrmgr_fsm\",\"variant\":\"scfi\",\"level\":3,"
    "\"status\":\"failed\",\"region\":\"mds_\","
    "\"include_inputs\":false,\"backend\":\"sat\",\"kind\":\"stuck1\","
    "\"target\":\"any\",\"faults_k\":1,\"free_symbol\":true,"
    "\"error\":\"synfi: no fault sites match prefix 'mds_'\","
    "\"attempts\":3,\"seconds\":0.125000}";

/// A campaign record with every field populated, pinning the campaign line
/// byte for byte.
SweepResult golden_campaign_result() {
  SweepResult result;
  result.job.type = JobType::kCampaign;
  result.job.module = "pwrmgr_fsm";
  result.job.variant = "scfi";
  result.job.protection_level = 2;
  result.job.campaign.runs = 2000;
  result.job.campaign.cycles = 12;
  result.job.campaign.fault.k = 1;
  result.job.campaign.seed = 7;
  result.campaign.runs = 2000;
  result.campaign.masked = 1500;
  result.campaign.detected = 480;
  result.campaign.hijacked = 3;
  result.campaign.lagged = 12;
  result.campaign.silent_invalid = 5;
  result.seconds = 0.25;
  return result;
}

constexpr const char* kGoldenCampaignLine =
    "{\"schema\":6,\"type\":\"campaign\","
    "\"key\":\"pwrmgr_fsm|scfi|n2|mc|flip|t=any|runs=2000|c=12|f=1|s=7\","
    "\"source\":\"\",\"module\":\"pwrmgr_fsm\",\"variant\":\"scfi\",\"level\":2,"
    "\"status\":\"ok\",\"kind\":\"flip\","
    "\"target\":\"any\",\"runs\":2000,\"cycles\":12,\"faults\":1,\"seed\":7,"
    "\"masked\":1500,\"detected\":480,\"hijacked\":3,\"lagged\":12,\"silent_invalid\":5,"
    "\"attempts\":1,\"seconds\":0.250000}";

/// A corpus-sourced campaign record: the source label prefixes the key and
/// is carried in the `source` field.
SweepResult golden_corpus_result() {
  SweepResult result = golden_campaign_result();
  result.job.source = "corpus";
  result.job.module = "mcnc/lion";
  return result;
}

constexpr const char* kGoldenCorpusLine =
    "{\"schema\":6,\"type\":\"campaign\","
    "\"key\":\"corpus::mcnc/lion|scfi|n2|mc|flip|t=any|runs=2000|c=12|f=1|s=7\","
    "\"source\":\"corpus\",\"module\":\"mcnc/lion\",\"variant\":\"scfi\",\"level\":2,"
    "\"status\":\"ok\",\"kind\":\"flip\","
    "\"target\":\"any\",\"runs\":2000,\"cycles\":12,\"faults\":1,\"seed\":7,"
    "\"masked\":1500,\"detected\":480,\"hijacked\":3,\"lagged\":12,\"silent_invalid\":5,"
    "\"attempts\":1,\"seconds\":0.250000}";

/// A fleet lease record: status `leased` with the holder and its
/// expiry; no payload counters.
SweepResult golden_leased_result() {
  SweepResult result;
  result.job = golden_result().job;
  result.status = JobStatus::kLeased;
  result.worker = "w2.1";
  result.deadline = 1754700000.5;
  result.attempts = 1;
  result.seconds = 0.0;
  return result;
}

constexpr const char* kGoldenLeasedLine =
    "{\"schema\":6,\"type\":\"synfi\",\"key\":\"pwrmgr_fsm|scfi|n3|r=mds_|sat|stuck1|free\","
    "\"source\":\"\",\"module\":\"pwrmgr_fsm\",\"variant\":\"scfi\",\"level\":3,"
    "\"status\":\"leased\",\"worker\":\"w2.1\",\"region\":\"mds_\","
    "\"include_inputs\":false,\"backend\":\"sat\",\"kind\":\"stuck1\","
    "\"target\":\"any\",\"faults_k\":1,\"free_symbol\":true,"
    "\"deadline\":1754700000.500000,"
    "\"attempts\":1,\"seconds\":0.000000}";

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// The head of a minimal v6 SYNFI line: the identity fields parse_line
/// requires, except `status`. Each rejection case appends what it tests.
constexpr const char* kV6Synfi =
    "{\"schema\":6,\"type\":\"synfi\",\"source\":\"\",\"module\":\"m\",";

/// parse_line must throw ScfiError for `line`, and for the stated reason:
/// the message must contain `why`.
void expect_rejected(const std::string& line, const std::string& why) {
  try {
    ResultStore::parse_line(line);
    ADD_FAILURE() << "accepted: " << line;
  } catch (const ScfiError& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
        << line << " -> " << e.what();
  }
}

TEST(ResultStore, GoldenLinePinsSchema) {
  EXPECT_EQ(ResultStore::to_line(golden_result()), kGoldenLine);
  EXPECT_EQ(ResultStore::to_line(golden_campaign_result()), kGoldenCampaignLine);
  EXPECT_EQ(ResultStore::to_line(golden_corpus_result()), kGoldenCorpusLine);
  EXPECT_EQ(ResultStore::to_line(golden_failed_result()), kGoldenFailedLine);
  EXPECT_EQ(ResultStore::to_line(golden_leased_result()), kGoldenLeasedLine);
}

TEST(ResultStore, LeasedRecordRoundTripAndValidation) {
  const SweepResult parsed = ResultStore::parse_line(kGoldenLeasedLine);
  EXPECT_TRUE(parsed.status == JobStatus::kLeased);
  EXPECT_EQ(parsed.worker, "w2.1");
  EXPECT_DOUBLE_EQ(parsed.deadline, 1754700000.5);
  EXPECT_EQ(ResultStore::to_line(parsed), kGoldenLeasedLine);

  // Two leases compare equal (protocol traffic, not a verdict) but never
  // equal an ok or failed record.
  SweepResult other = golden_leased_result();
  other.worker = "w0.7";
  other.deadline = 1.0;
  EXPECT_TRUE(reports_equal(parsed, other));
  EXPECT_FALSE(reports_equal(parsed, golden_result()));
  EXPECT_FALSE(reports_equal(parsed, golden_failed_result()));

  // The deadline travels with leases only, and leases must carry one.
  EXPECT_THROW(ResultStore::parse_line(std::string(kV6Synfi) +
                                       "\"status\":\"ok\",\"deadline\":1.0}"),
               ScfiError);
  EXPECT_THROW(ResultStore::parse_line(std::string(kV6Synfi) + "\"status\":\"leased\"}"),
               ScfiError);
  // Only failed records carry an error message.
  EXPECT_THROW(ResultStore::parse_line(std::string(kV6Synfi) +
                                       "\"status\":\"leased\",\"deadline\":1.0,"
                                       "\"error\":\"boom\"}"),
               ScfiError);
}

TEST(ResultStore, FailedRecordRoundTripAndEquality) {
  const SweepResult failed = golden_failed_result();
  const SweepResult parsed = ResultStore::parse_line(kGoldenFailedLine);
  EXPECT_TRUE(parsed.status == JobStatus::kFailed);
  EXPECT_EQ(parsed.key(), failed.key());
  EXPECT_EQ(parsed.error, failed.error);
  EXPECT_EQ(parsed.attempts, 3);
  EXPECT_EQ(ResultStore::to_line(parsed), kGoldenFailedLine);

  // Status is part of the verdict: ok vs failed never compare equal, so an
  // old failure record never satisfies a resume or a baseline...
  const SweepResult ok = golden_result();
  EXPECT_FALSE(reports_equal(ok, failed));
  EXPECT_FALSE(reports_equal(failed, ok));
  // ...while two failures compare equal whatever their diagnostics say
  // (error text and attempt count are timing-like noise).
  SweepResult other = failed;
  other.error = "different message";
  other.attempts = 1;
  EXPECT_TRUE(reports_equal(failed, other));

  // diff() surfaces the ok <-> failed flip as a changed key.
  ResultStore left, right;
  left.add(ok);
  right.add(failed);
  EXPECT_EQ(ResultStore::diff(left, right).changed, std::vector<std::string>{ok.key()});
}

TEST(DiffReport, StatusTransitionsGateAsymmetrically) {
  const SweepResult ok = golden_result();
  const SweepResult failed = golden_failed_result();
  ResultStore was_ok, now_failed;
  was_ok.add(ok);
  now_failed.add(failed);

  // ok -> failed is a regression no threshold can wave through, and the
  // render names the error on the REGRESSION line CI greps for.
  const DiffReport broke = diff_report(was_ok, now_failed);
  ASSERT_EQ(broke.changed.size(), 1u);
  EXPECT_TRUE(broke.changed[0].regression);
  EXPECT_TRUE(broke.gate_failed);
  EXPECT_NE(broke.render().find("REGRESSION"), std::string::npos);
  EXPECT_NE(broke.render().find(failed.error), std::string::npos);

  // failed -> ok is a recovery: reported, never gated.
  const DiffReport recovered = diff_report(now_failed, was_ok);
  ASSERT_EQ(recovered.changed.size(), 1u);
  EXPECT_FALSE(recovered.changed[0].regression);
  EXPECT_FALSE(recovered.gate_failed);
  EXPECT_NE(recovered.render().find("recovered"), std::string::npos);

  // failed -> failed is not a change at all.
  SweepResult still_failed = failed;
  still_failed.error = "another message";
  ResultStore later;
  later.add(still_failed);
  EXPECT_TRUE(diff_report(now_failed, later).changed.empty());
}

TEST(ResultStore, CorpusLineRoundTripAndKeyPrefix) {
  const SweepResult expected = golden_corpus_result();
  EXPECT_EQ(expected.key(), "corpus::mcnc/lion|scfi|n2|mc|flip|t=any|runs=2000|c=12|f=1|s=7");
  const SweepResult parsed = ResultStore::parse_line(kGoldenCorpusLine);
  EXPECT_EQ(parsed.job.source, "corpus");
  EXPECT_EQ(parsed.job.module, "mcnc/lion");
  EXPECT_EQ(parsed.key(), expected.key());
  EXPECT_TRUE(reports_equal(parsed, expected));
  EXPECT_EQ(ResultStore::to_line(parsed), kGoldenCorpusLine);
  // The same module name from a different source is a different key: zoo
  // and corpus results never collide in one store.
  SweepResult zoo = expected;
  zoo.job.source = "";
  EXPECT_NE(zoo.key(), expected.key());
}

TEST(ResultStore, CampaignSeedRoundTripsExactly) {
  // Seeds above 2^53 must survive the JSONL round trip bit-exactly — a
  // double-typed parse would silently round the seed and change the
  // recomputed key, breaking --resume and the diff gate.
  SweepResult result = golden_campaign_result();
  result.job.campaign.seed = 9007199254740993ULL;  // 2^53 + 1
  const SweepResult parsed = ResultStore::parse_line(ResultStore::to_line(result));
  EXPECT_EQ(parsed.job.campaign.seed, result.job.campaign.seed);
  EXPECT_EQ(parsed.key(), result.key());
  // Negative or out-of-range seeds are malformed lines, not values to wrap
  // or saturate into a different (silently resumable) key.
  const std::string prefix =
      "{\"schema\":6,\"type\":\"campaign\",\"source\":\"\",\"module\":\"m\","
      "\"status\":\"ok\",\"seed\":";
  EXPECT_THROW(ResultStore::parse_line(prefix + "-1}"), ScfiError);
  EXPECT_THROW(ResultStore::parse_line(prefix + "18446744073709551616}"), ScfiError);
  // Count fields are int-bounded: an out-of-range or negative count is a
  // malformed line, not a value to wrap through a double->int cast.
  const std::string count_prefix =
      "{\"schema\":6,\"type\":\"campaign\",\"source\":\"\",\"module\":\"m\","
      "\"status\":\"ok\",\"runs\":";
  EXPECT_THROW(ResultStore::parse_line(count_prefix + "9999999999}"), ScfiError);
  EXPECT_THROW(ResultStore::parse_line(count_prefix + "-5}"), ScfiError);
}

TEST(ResultStore, CampaignLineRoundTrip) {
  const SweepResult parsed = ResultStore::parse_line(kGoldenCampaignLine);
  const SweepResult expected = golden_campaign_result();
  EXPECT_EQ(parsed.key(), expected.key());
  EXPECT_TRUE(parsed.job.type == JobType::kCampaign);
  EXPECT_EQ(parsed.job.campaign.runs, expected.job.campaign.runs);
  EXPECT_EQ(parsed.job.campaign.cycles, expected.job.campaign.cycles);
  EXPECT_EQ(parsed.job.campaign.fault.k, expected.job.campaign.fault.k);
  EXPECT_EQ(parsed.job.campaign.seed, expected.job.campaign.seed);
  EXPECT_TRUE(parsed.campaign == expected.campaign);
  EXPECT_TRUE(reports_equal(parsed, expected));
  EXPECT_EQ(ResultStore::to_line(parsed), kGoldenCampaignLine);
}

TEST(ResultStore, ParseRoundTrip) {
  const SweepResult parsed = ResultStore::parse_line(kGoldenLine);
  const SweepResult expected = golden_result();
  EXPECT_EQ(parsed.key(), expected.key());
  EXPECT_EQ(parsed.job.module, expected.job.module);
  EXPECT_EQ(parsed.job.protection_level, expected.job.protection_level);
  EXPECT_EQ(parsed.job.synfi.wire_prefix, expected.job.synfi.wire_prefix);
  EXPECT_TRUE(parsed.job.synfi.backend == expected.job.synfi.backend);
  EXPECT_TRUE(parsed.job.synfi.kind == expected.job.synfi.kind);
  EXPECT_EQ(parsed.job.synfi.free_symbol, expected.job.synfi.free_symbol);
  EXPECT_TRUE(parsed.report == expected.report);
  EXPECT_DOUBLE_EQ(parsed.seconds, expected.seconds);
  // And serializing the parse reproduces the line exactly.
  EXPECT_EQ(ResultStore::to_line(parsed), kGoldenLine);
}

TEST(ResultStore, ParseRejectsBadInput) {
  const std::string ok = std::string(kV6Synfi) + "\"status\":\"ok\"";
  ASSERT_NO_THROW(ResultStore::parse_line(ok + "}"));  // each case breaks one thing
  expect_rejected("{\"schema\":99,\"module\":\"m\"}", "schema version 99");
  expect_rejected("{\"module\":\"m\"}", "missing schema");
  expect_rejected("{\"schema\":6,\"type\":\"synfi\",\"source\":\"\",\"status\":\"ok\"}",
                  "missing module");
  expect_rejected("not json", "expected '{'");
  // type, source and status have no defaults: a v6 line always has them.
  expect_rejected("{\"schema\":6,\"source\":\"\",\"module\":\"m\",\"status\":\"ok\"}",
                  "missing a type, source, or status");
  expect_rejected("{\"schema\":6,\"type\":\"synfi\",\"module\":\"m\",\"status\":\"ok\"}",
                  "missing a type, source, or status");
  expect_rejected(std::string(kV6Synfi) + "\"level\":2}", "missing a type, source, or status");
  // Malformed \u escapes surface as ScfiError (with file:line context from
  // load()), never as a bare std::invalid_argument.
  expect_rejected(
      "{\"schema\":6,\"type\":\"synfi\",\"source\":\"\",\"status\":\"ok\",\"module\":\"\\uzzzz\"}",
      "\\u escape");
  expect_rejected(
      "{\"schema\":6,\"type\":\"synfi\",\"source\":\"\",\"status\":\"ok\",\"module\":\"\\u00x1\"}",
      "\\u escape");
  // Status values, attempt counts and error fields are validated.
  expect_rejected(std::string(kV6Synfi) + "\"status\":\"exploded\"}", "unknown job status");
  expect_rejected(ok + ",\"attempts\":0}", "attempts must be >= 1");
  expect_rejected(ok + ",\"error\":\"boom\"}", "only failed records");
  // Integer fields take only non-negative integers in range: a double cast
  // to an integer would be undefined out of range and would load a garbage
  // key (level 1e20 became n-2147483648, -3 became n-3).
  expect_rejected("{\"schema\":6,\"type\":\"synfi\",\"module\":\"m\",\"level\":1e20}",
                  "malformed integer");
  expect_rejected("{\"schema\":6,\"type\":\"synfi\",\"module\":\"m\",\"level\":-3}",
                  "malformed integer");
  expect_rejected("{\"schema\":1e300,\"type\":\"synfi\",\"module\":\"m\"}", "malformed integer");
  expect_rejected(ok + ",\"sites\":1e30}", "malformed integer");
  expect_rejected(ok + ",\"level\":2.5}", "malformed integer");
  expect_rejected(ok + ",\"level\":2147483648}", "out of range");
  expect_rejected(ok + ",\"injections\":9223372036854775808}", "out of range");
  expect_rejected(ok + ",\"stalls\":-1}", "malformed integer");
}

/// Table of the schema versions the store no longer reads: v1..v5 and the
/// not-yet-defined v7.
class OtherSchemaVersion : public testing::TestWithParam<int> {};

TEST_P(OtherSchemaVersion, LineIsRejectedNamingItsVersion) {
  // Only v6 is read. Older and newer lines are not migrated but rejected
  // with an error that names their version, so their store is regenerated.
  const int version = GetParam();
  const std::string head = "{\"schema\":6";
  ASSERT_EQ(std::string(kGoldenLine).rfind(head, 0), 0u);
  const std::string line =
      "{\"schema\":" + std::to_string(version) + (kGoldenLine + head.size());
  expect_rejected(line, "schema version " + std::to_string(version) + " ");
  expect_rejected(line, "regenerate");
}

INSTANTIATE_TEST_SUITE_P(ResultStore, OtherSchemaVersion, testing::Values(1, 2, 3, 4, 5, 7),
                         [](const testing::TestParamInfo<int>& info) {
                           return "V" + std::to_string(info.param);
                         });

TEST(ResultStore, EscapedStringsRoundTrip) {
  SweepResult result = golden_result();
  result.job.module = "odd\"name\\with\tescapes";
  result.report.exploitable_sites = {"wire\"x[0]"};
  const std::string line = ResultStore::to_line(result);
  const SweepResult parsed = ResultStore::parse_line(line);
  EXPECT_EQ(parsed.job.module, result.job.module);
  EXPECT_EQ(parsed.report.exploitable_sites, result.report.exploitable_sites);
}

/// Random store-record generator for the round-trip property test. Strings
/// lean on the bytes the JSON writer escapes, integers mix small values
/// with values above 2^53, and times are whole microseconds so that the
/// writer's six decimals print them exactly.
class RandomRecords {
 public:
  explicit RandomRecords(std::uint64_t seed) : rng_(seed) {}

  SweepResult next(JobType type, JobStatus status) {
    SweepResult r;
    SweepJob& job = r.job;
    job.type = type;
    job.source = coin() ? "" : text(1);
    job.module = text(1);
    job.variant = text(0);
    job.protection_level = count();
    if (type == JobType::kCampaign) {
      job.campaign.runs = count();
      job.campaign.cycles = count();
      job.campaign.fault.k = count();
      job.campaign.fault.target = target();
      job.campaign.fault.kinds.clear();
      for (int n = 1 + static_cast<int>(rng_() % 4); n > 0; --n) {
        job.campaign.fault.kinds.push_back(kind());
      }
      job.campaign.seed = coin() ? rng_() % 1000 : rng_();
    } else {
      job.synfi.wire_prefix = text(0);
      job.synfi.include_inputs = coin();
      job.synfi.backend = coin() ? synfi::Backend::kSat : synfi::Backend::kExhaustiveSim;
      job.synfi.kind = kind();
      job.synfi.target = target();
      job.synfi.faults_k = 1 + static_cast<int>(rng_() % 4);
      job.synfi.free_symbol = coin();
    }
    r.status = status;
    if (status == JobStatus::kOk && type == JobType::kCampaign) {
      r.campaign.runs = job.campaign.runs;
      r.campaign.masked = count();
      r.campaign.detected = count();
      r.campaign.hijacked = count();
      r.campaign.lagged = count();
      r.campaign.silent_invalid = count();
    } else if (status == JobStatus::kOk) {
      r.report.faults_k = job.synfi.faults_k;
      r.report.sites = counter();
      r.report.injections = counter();
      r.report.exploitable = counter();
      r.report.detected = counter();
      r.report.masked = counter();
      r.report.stalls = counter();
      for (int n = static_cast<int>(rng_() % 4); n > 0; --n) {
        r.report.exploitable_sites.push_back(text(0));
      }
      r.protection_degree = static_cast<int>(rng_() % 4);
    }
    if (status == JobStatus::kFailed) r.error = text(0);
    // Whole microseconds around the epoch seconds of a lease deadline.
    if (status == JobStatus::kLeased) r.deadline = micros(1'700'000'000'000'000ULL);
    r.worker = coin() ? "" : text(1);
    r.attempts = 1 + static_cast<int>(rng_() % 5);
    r.seconds = micros(0);
    return r;
  }

 private:
  bool coin() { return (rng_() & 1) != 0; }
  std::string text(std::size_t min_size) {
    static constexpr char kAlphabet[] = "az_Z09|:/.[]{},\"\\\t\n\r\x01\x1f ";
    std::string s(min_size + rng_() % 10, ' ');
    for (char& c : s) c = kAlphabet[rng_() % (sizeof(kAlphabet) - 1)];
    return s;
  }
  int count() {
    return static_cast<int>(coin() ? rng_() % 100 : rng_() % (std::uint64_t{INT_MAX} + 1));
  }
  std::int64_t counter() {
    return static_cast<std::int64_t>(coin() ? rng_() % 100 : rng_() >> 1);
  }
  double micros(std::uint64_t base) {
    return static_cast<double>(base + rng_() % 100'000'000'000ULL) / 1e6;
  }
  sim::FaultKind kind() {
    static constexpr sim::FaultKind kKinds[] = {
        sim::FaultKind::kTransientFlip, sim::FaultKind::kStuckAt0, sim::FaultKind::kStuckAt1,
        sim::FaultKind::kSkipCycle};
    return kKinds[rng_() % 4];
  }
  sim::FaultTarget target() {
    static constexpr sim::FaultTarget kTargets[] = {
        sim::FaultTarget::kAny, sim::FaultTarget::kControlInputs,
        sim::FaultTarget::kStateRegister, sim::FaultTarget::kLogic};
    return kTargets[rng_() % 4];
  }

  std::mt19937_64 rng_;
};

TEST(ResultStore, RandomRecordsRoundTrip) {
  RandomRecords gen(20261017);
  for (int i = 0; i < 200; ++i) {
    for (const JobType type : {JobType::kSynfi, JobType::kCampaign}) {
      for (const JobStatus status : {JobStatus::kOk, JobStatus::kFailed, JobStatus::kLeased}) {
        const SweepResult record = gen.next(type, status);
        const std::string line = ResultStore::to_line(record);
        const SweepResult parsed = ResultStore::parse_line(line);
        ASSERT_EQ(ResultStore::to_line(parsed), line);
        EXPECT_EQ(parsed.key(), record.key()) << line;
        EXPECT_TRUE(reports_equal(parsed, record)) << line;
        EXPECT_EQ(parsed.worker, record.worker) << line;
        EXPECT_EQ(parsed.attempts, record.attempts) << line;
        EXPECT_EQ(parsed.error, record.error) << line;
      }
    }
  }
}

TEST(ResultStore, SaveLoadAppendDedupe) {
  const std::string path = temp_path("store_roundtrip.jsonl");
  std::remove(path.c_str());

  ResultStore store;
  SweepResult a = golden_result();
  SweepResult b = golden_result();
  b.job.module = "aes_control";
  store.add(a);
  store.add(b);
  store.save(path);

  // Appending a NEWER record for a's key: on load, the later line wins.
  a.report.exploitable = 7;
  ResultStore::append_line(path, a);

  const ResultStore loaded = ResultStore::load(path);
  ASSERT_EQ(loaded.size(), 2u);
  ASSERT_TRUE(loaded.contains(a.key()));
  EXPECT_EQ(loaded.find(a.key())->report.exploitable, 7);
  EXPECT_TRUE(loaded.contains(b.key()));

  // Missing file -> empty store.
  EXPECT_EQ(ResultStore::load(temp_path("does_not_exist.jsonl")).size(), 0u);
}

TEST(ResultStore, TornTailRecoveryIsOptInAndLastLineOnly) {
  // A SIGKILL between append_line's write and its fsync leaves a torn final
  // line — exactly what truncating a complete store mid-record simulates.
  const std::string path = temp_path("store_torn_tail.jsonl");
  std::remove(path.c_str());
  const SweepResult a = golden_result();
  SweepResult b = golden_result();
  b.job.module = "aes_control";
  ResultStore::append_line(path, a);
  ResultStore::append_line(path, b);
  {
    const std::string full = ResultStore::to_line(b);
    std::ofstream out(path, std::ios::trunc);
    out << ResultStore::to_line(a) << "\n" << full.substr(0, full.size() / 2);
  }

  // Strict load (the default, and what sweep-diff uses) still throws with
  // path:line context; recovery salvages every complete record.
  EXPECT_THROW(ResultStore::load(path), ScfiError);
  try {
    ResultStore::load(path);
    FAIL() << "strict load accepted a torn line";
  } catch (const ScfiError& e) {
    EXPECT_NE(std::string(e.what()).find(path + ":2"), std::string::npos);
  }
  const ResultStore recovered = ResultStore::load(path, /*recover_torn_tail=*/true);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_TRUE(recovered.contains(a.key()));

  // Corruption anywhere BEFORE the last line is not a torn tail — no crash
  // produces it — so even recovery mode refuses the file.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"schema\":6,\"type\":\"synfi\",\"module\":\"m\"" << "\n"
        << ResultStore::to_line(a) << "\n";
  }
  EXPECT_THROW(ResultStore::load(path, /*recover_torn_tail=*/true), ScfiError);

  // A store that is ONLY a torn line recovers to empty rather than failing.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"schema\":6,\"ty";
  }
  EXPECT_EQ(ResultStore::load(path, /*recover_torn_tail=*/true).size(), 0u);

  // A complete (newline-terminated) final line of another schema is no torn
  // tail either: recovery refuses it and names its line.
  {
    const std::string line = ResultStore::to_line(b);
    std::ofstream out(path, std::ios::trunc);
    out << ResultStore::to_line(a) << "\n"
        << "{\"schema\":7" << line.substr(std::string("{\"schema\":6").size()) << "\n";
  }
  try {
    ResultStore::load(path, /*recover_torn_tail=*/true);
    FAIL() << "recovery dropped a complete final line";
  } catch (const ScfiError& e) {
    EXPECT_NE(std::string(e.what()).find(path + ":2"), std::string::npos) << e.what();
  }
}

TEST(ResultStore, SaveIsAtomicAndCompactsLatestWins) {
  // An append-heavy store (key re-appended, torn tail) compacts through
  // recovery-load + save to one line per key, and save never leaves its
  // temp file behind.
  const std::string path = temp_path("store_compact.jsonl");
  std::remove(path.c_str());
  SweepResult a = golden_result();
  ResultStore::append_line(path, a);
  a.report.exploitable = 9;
  ResultStore::append_line(path, a);
  SweepResult b = golden_result();
  b.job.module = "aes_control";
  ResultStore::append_line(path, b);
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"schema\":6,\"torn";
  }

  ResultStore store = ResultStore::load(path, /*recover_torn_tail=*/true);
  ASSERT_EQ(store.size(), 2u);
  store.save(path);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  std::ifstream in(path);
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 2u);
  const ResultStore reloaded = ResultStore::load(path);  // strict: no torn tail left
  ASSERT_EQ(reloaded.size(), 2u);
  EXPECT_EQ(reloaded.find(a.key())->report.exploitable, 9);
  EXPECT_TRUE(reloaded.contains(b.key()));

  // Saving over a live store replaces it atomically — the target keeps its
  // old contents if the temp write fails (unwritable directory).
  ResultStore fresh;
  fresh.add(b);
  EXPECT_THROW(fresh.save("/no/such/dir/store.jsonl"), ScfiError);
}

TEST(ResultStore, CompactFileRewritesLatestWinsAndReportsStats) {
  const std::string path = temp_path("compact_stats.jsonl");
  std::filesystem::remove(path);
  SweepResult a = golden_result();
  ResultStore::append_line(path, a);
  a.report.exploitable = 9;
  ResultStore::append_line(path, a);
  ResultStore::append_line(path, golden_campaign_result());
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"schema\":6,\"torn";  // crash-shaped torn tail: salvaged, not fatal
  }

  const ResultStore::CompactStats stats = ResultStore::compact_file(path);
  EXPECT_EQ(stats.lines, 4u);
  EXPECT_EQ(stats.records, 2u);
  const ResultStore store = ResultStore::load(path);  // strict reload passes
  ASSERT_EQ(store.size(), 2u);
  EXPECT_EQ(store.find(a.key())->report.exploitable, 9);
}

TEST(ResultStore, CompactFileFailsLoudlyOnMissingOrEmptyStore) {
  // A missing store is an error naming the path and the reason — not a
  // silently created empty file.
  const std::string missing = temp_path("compact_missing.jsonl");
  std::filesystem::remove(missing);
  try {
    ResultStore::compact_file(missing);
    FAIL() << "compact_file must throw on a missing store";
  } catch (const ScfiError& e) {
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("no such store"), std::string::npos);
  }
  EXPECT_FALSE(std::filesystem::exists(missing));

  // An empty (or blank-line-only) store is equally a caller mistake.
  const std::string empty = temp_path("compact_empty.jsonl");
  {
    std::ofstream out(empty, std::ios::trunc);
    out << "\n  \n";
  }
  try {
    ResultStore::compact_file(empty);
    FAIL() << "compact_file must throw on an empty store";
  } catch (const ScfiError& e) {
    EXPECT_NE(std::string(e.what()).find(empty), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("empty"), std::string::npos);
  }

  // A store whose only line is torn holds no complete records: also loud.
  const std::string torn = temp_path("compact_torn_only.jsonl");
  {
    std::ofstream out(torn, std::ios::trunc);
    out << "{\"schema\":6,\"torn";
  }
  EXPECT_THROW(ResultStore::compact_file(torn), ScfiError);
}

TEST(ResultStore, ConcurrentForkedAppendsNeverTearOrInterleave) {
  // Two REAL processes hammering one store through the O_APPEND append
  // path: every line must parse strictly (no torn or interleaved bytes),
  // no append may be lost, and the shared key must resolve latest-wins to
  // some process's final write — the exact guarantee the fleet's lease
  // protocol is built on.
  const std::string path = temp_path("forked_appends.jsonl");
  std::filesystem::remove(path);
  constexpr int kAppendsPerProcess = 200;

  std::vector<pid_t> children;
  for (int p = 1; p <= 2; ++p) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: interleave private-key and shared-key appends. exploitable
      // encodes (process, sequence) so the parent can check freshness.
      for (int i = 0; i < kAppendsPerProcess; ++i) {
        SweepResult own = golden_result();
        own.job.module = "proc" + std::to_string(p);
        own.report.exploitable = 1000 * p + i;
        SweepResult shared = golden_result();
        shared.report.exploitable = 1000 * p + i;
        ResultStore::append_line(path, own);
        ResultStore::append_line(path, shared);
      }
      ::_exit(0);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }

  std::size_t lines = 0;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      EXPECT_FALSE(line.empty());
      ++lines;
    }
  }
  EXPECT_EQ(lines, 2u * 2u * kAppendsPerProcess);  // nothing lost, nothing glued

  const ResultStore store = ResultStore::load(path);  // strict: all lines intact
  ASSERT_EQ(store.size(), 3u);  // proc1 + proc2 + the shared key
  SweepResult probe = golden_result();
  probe.job.module = "proc1";
  EXPECT_EQ(store.find(probe.key())->report.exploitable, 1000 + kAppendsPerProcess - 1);
  probe.job.module = "proc2";
  EXPECT_EQ(store.find(probe.key())->report.exploitable, 2000 + kAppendsPerProcess - 1);
  // The shared key holds SOME process's final write: O_APPEND makes the
  // race a total order whose winner is the last full record.
  const std::int64_t last = store.find(golden_result().key())->report.exploitable;
  EXPECT_TRUE(last == 1000 + kAppendsPerProcess - 1 || last == 2000 + kAppendsPerProcess - 1)
      << "shared key resolved to a non-final write: " << last;
}

TEST(ResultStore, MergeAndDiff) {
  SweepResult a = golden_result();
  SweepResult b = golden_result();
  b.job.module = "aes_control";
  SweepResult c = golden_result();
  c.job.module = "i2c_fsm";

  ResultStore left;
  left.add(a);
  left.add(b);
  ResultStore right;
  SweepResult b2 = b;
  b2.report.exploitable += 5;
  b2.seconds = 99.0;  // timing must NOT count as a change
  right.add(b2);
  right.add(c);

  const ResultStore::Diff diff = ResultStore::diff(left, right);
  EXPECT_EQ(diff.only_left, std::vector<std::string>{a.key()});
  EXPECT_EQ(diff.only_right, std::vector<std::string>{c.key()});
  EXPECT_EQ(diff.changed, std::vector<std::string>{b.key()});
  EXPECT_FALSE(diff.empty());

  ResultStore merged = left;
  merged.merge(right);
  EXPECT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged.find(b.key())->report.exploitable, b2.report.exploitable);
  // Same-timing stores with equal reports diff empty.
  EXPECT_TRUE(ResultStore::diff(merged, merged).empty());
}

TEST(ResultStore, CampaignDiffIgnoresTiming) {
  SweepResult base = golden_campaign_result();
  ResultStore left;
  left.add(base);

  // Timing-only movement is not a change.
  SweepResult same = base;
  same.seconds = 42.0;
  ResultStore right_same;
  right_same.add(same);
  EXPECT_TRUE(ResultStore::diff(left, right_same).empty());

  // A verdict movement is.
  SweepResult moved = base;
  moved.campaign.hijacked += 1;
  moved.campaign.masked -= 1;
  ResultStore right_moved;
  right_moved.add(moved);
  const ResultStore::Diff diff = ResultStore::diff(left, right_moved);
  EXPECT_EQ(diff.changed, std::vector<std::string>{base.key()});
}

TEST(DiffReport, GatesOnConfiguredThresholds) {
  const SweepResult synfi_base = golden_result();
  const SweepResult campaign_base = golden_campaign_result();
  ResultStore baseline;
  baseline.add(synfi_base);
  baseline.add(campaign_base);

  // One new exploitable injection + a hijack-rate jump far outside the
  // baseline's Wilson interval (3/2000 [0.05%, 0.44%] -> 103/2000, whose
  // lower bound 4.26% clears it).
  SweepResult synfi_cand = synfi_base;
  synfi_cand.report.exploitable += 1;
  SweepResult campaign_cand = campaign_base;
  campaign_cand.campaign.hijacked += 100;
  campaign_cand.campaign.masked -= 100;
  ResultStore candidate;
  candidate.add(synfi_cand);
  candidate.add(campaign_cand);

  // Default thresholds: any worsening beyond sampling noise gates.
  const DiffReport strict = diff_report(baseline, candidate);
  ASSERT_EQ(strict.changed.size(), 2u);
  EXPECT_EQ(strict.regressions, 2);
  EXPECT_TRUE(strict.gate_failed);
  EXPECT_NE(strict.render().find("REGRESSION"), std::string::npos);

  // Loose thresholds: the same movement is reported but does not gate (the
  // allowances are on the interval separation: hijack ~3.8pp, detection
  // ~10.9pp here).
  DiffThresholds loose;
  loose.max_exploitable_increase = 1;
  loose.max_hijack_rate_increase = 0.05;
  loose.max_detection_rate_drop = 0.12;
  const DiffReport lenient = diff_report(baseline, candidate, loose);
  EXPECT_EQ(lenient.changed.size(), 2u);
  EXPECT_EQ(lenient.regressions, 0);
  EXPECT_FALSE(lenient.gate_failed);

  // A detection-rate drop gates independently of the hijack rate
  // (480/500 [93.9%, 97.4%] -> 400/500 [76.3%, 83.3%]: disjoint).
  SweepResult det_drop = campaign_base;
  det_drop.campaign.detected -= 80;
  det_drop.campaign.lagged += 80;
  ResultStore det_candidate;
  det_candidate.add(synfi_base);
  det_candidate.add(det_drop);
  const DiffReport det_report = diff_report(baseline, det_candidate);
  EXPECT_EQ(det_report.regressions, 1);

  // Improvements never gate.
  SweepResult better = synfi_base;
  better.report.exploitable -= 1;
  better.report.detected += 1;
  ResultStore improved;
  improved.add(better);
  improved.add(campaign_base);
  const DiffReport improvement = diff_report(baseline, improved);
  EXPECT_EQ(improvement.changed.size(), 1u);
  EXPECT_FALSE(improvement.gate_failed);

  // Removed keys gate only when asked; added keys never do.
  ResultStore subset;
  subset.add(campaign_base);
  EXPECT_FALSE(diff_report(baseline, subset).gate_failed);
  DiffThresholds coverage;
  coverage.fail_on_removed = true;
  const DiffReport removed = diff_report(baseline, subset, coverage);
  EXPECT_TRUE(removed.gate_failed);
  EXPECT_EQ(removed.removed, std::vector<std::string>{synfi_base.key()});
  // A gating removal must surface on the REGRESSION lines CI greps for,
  // not only in the exit code.
  EXPECT_NE(removed.render().find("REGRESSION"), std::string::npos);
  EXPECT_EQ(diff_report(baseline, subset).render().find("REGRESSION"), std::string::npos);
  EXPECT_FALSE(diff_report(subset, baseline, coverage).gate_failed);  // additions OK
}

TEST(WilsonInterval, ClosedFormValuesPinned) {
  // Zero trials: vacuous interval — no information, can never gate.
  const WilsonInterval none = wilson_interval(0, 0, 1.96);
  EXPECT_DOUBLE_EQ(none.lower, 0.0);
  EXPECT_DOUBLE_EQ(none.upper, 1.0);
  // Known closed-form values (z = 1.96).
  const WilsonInterval zero = wilson_interval(0, 100, 1.96);
  EXPECT_NEAR(zero.lower, 0.0, 1e-9);
  EXPECT_NEAR(zero.upper, 0.036994807, 1e-8);
  const WilsonInterval one_in_ten = wilson_interval(1, 10, 1.96);
  EXPECT_NEAR(one_in_ten.lower, 0.017875750, 1e-8);
  EXPECT_NEAR(one_in_ten.upper, 0.404156385, 1e-8);
  const WilsonInterval half = wilson_interval(50, 100, 1.96);
  EXPECT_NEAR(half.lower, 0.403829829, 1e-8);
  EXPECT_NEAR(half.upper, 0.596170171, 1e-8);
  // The interval is symmetric under success/failure exchange.
  EXPECT_NEAR(half.lower + half.upper, 1.0, 1e-12);
  const WilsonInterval rare = wilson_interval(5, 2000, 1.96);
  EXPECT_NEAR(rare.lower, 0.001068293, 1e-8);
  EXPECT_NEAR(rare.upper, 0.005839239, 1e-8);
  // z = 0 collapses to the point estimate; bounds stay clamped to [0, 1].
  const WilsonInterval point = wilson_interval(5, 2000, 0.0);
  EXPECT_NEAR(point.lower, 0.0025, 1e-12);
  EXPECT_NEAR(point.upper, 0.0025, 1e-12);
  EXPECT_THROW(wilson_interval(5, 2, 1.96), ScfiError);   // successes > trials
  EXPECT_THROW(wilson_interval(-1, 2, 1.96), ScfiError);  // negative count
}

TEST(DiffReport, WilsonGatingAbsorbsSamplingNoise) {
  // 3/2000 -> 12/2000 hijacks: a 4x point-estimate jump, but the intervals
  // [0.05%, 0.44%] and [0.34%, 1.05%] overlap — Monte-Carlo noise, not a
  // provable regression. The absolute gate (wilson_z = 0) fails it, the
  // default Wilson gate does not.
  const SweepResult base = golden_campaign_result();  // hijacked = 3, runs = 2000
  SweepResult cand = base;
  cand.campaign.hijacked += 9;
  cand.campaign.masked -= 9;
  ResultStore left, right;
  left.add(base);
  right.add(cand);

  const DiffReport wilson = diff_report(left, right);
  ASSERT_EQ(wilson.changed.size(), 1u);
  EXPECT_TRUE(wilson.changed[0].hijack_wilson);
  EXPECT_TRUE(wilson.changed[0].detection_wilson);
  EXPECT_FALSE(wilson.changed[0].regression);
  EXPECT_FALSE(wilson.gate_failed);
  EXPECT_NEAR(wilson.changed[0].base_hijack.upper, 0.004401112, 1e-8);
  EXPECT_NEAR(wilson.changed[0].cand_hijack.lower, 0.003435560, 1e-8);

  DiffThresholds absolute;
  absolute.wilson_z = 0.0;
  const DiffReport raw = diff_report(left, right, absolute);
  ASSERT_EQ(raw.changed.size(), 1u);
  EXPECT_FALSE(raw.changed[0].hijack_wilson);
  EXPECT_FALSE(raw.changed[0].detection_wilson);
  EXPECT_TRUE(raw.changed[0].regression);
  EXPECT_TRUE(raw.gate_failed);
  EXPECT_NE(raw.changed[0].note.find("absolute gate"), std::string::npos);
}

TEST(DiffReport, RatesGateIndependentlyWhenTrialCountsDiverge) {
  // 2000 runs but only ~10 effective faults: the hijack rate has enough
  // trials for Wilson, the detection rate does not — it falls back to the
  // absolute threshold independently, and a 1-count detection drop gates
  // even while the hijack movement is absorbed as noise.
  SweepResult base = golden_campaign_result();
  base.campaign.masked = 1990;
  base.campaign.detected = 6;
  base.campaign.hijacked = 2;
  base.campaign.lagged = 1;
  base.campaign.silent_invalid = 1;  // effective = 10
  SweepResult cand = base;
  cand.campaign.detected = 5;
  cand.campaign.lagged = 2;  // detection 6/10 -> 5/10
  cand.campaign.hijacked = 3;
  cand.campaign.masked = 1989;  // hijack 2/2000 -> 3/2000: inside the band
  ResultStore left, right;
  left.add(base);
  right.add(cand);
  const DiffReport report = diff_report(left, right);
  ASSERT_EQ(report.changed.size(), 1u);
  EXPECT_TRUE(report.changed[0].hijack_wilson);
  EXPECT_FALSE(report.changed[0].detection_wilson);
  EXPECT_TRUE(report.changed[0].regression);
  EXPECT_NE(report.changed[0].note.find("absolute gate"), std::string::npos);
}

TEST(DiffReport, LowTrialKeysFallBackToAbsoluteThresholds) {
  // 20 runs is below wilson_min_trials: the interval would span most of
  // [0, 1] and wave any regression through, so the absolute thresholds
  // (default: any increase) decide instead.
  SweepResult base = golden_campaign_result();
  base.job.campaign.runs = 20;
  base.campaign.runs = 20;
  base.campaign.masked = 20;
  base.campaign.detected = 0;
  base.campaign.hijacked = 0;
  base.campaign.lagged = 0;
  base.campaign.silent_invalid = 0;
  SweepResult cand = base;
  cand.campaign.hijacked = 3;
  cand.campaign.masked = 17;
  ResultStore left, right;
  left.add(base);
  right.add(cand);
  const DiffReport report = diff_report(left, right);
  ASSERT_EQ(report.changed.size(), 1u);
  EXPECT_FALSE(report.changed[0].hijack_wilson);
  EXPECT_TRUE(report.changed[0].regression);

  // Raising the trial floor above both sides of a large-sample pair forces
  // the same fallback there too.
  DiffThresholds high_floor;
  high_floor.wilson_min_trials = 1'000'000;
  const SweepResult big_base = golden_campaign_result();
  SweepResult big_cand = big_base;
  big_cand.campaign.hijacked += 1;
  big_cand.campaign.masked -= 1;
  ResultStore bl, br;
  bl.add(big_base);
  br.add(big_cand);
  EXPECT_FALSE(diff_report(bl, br).gate_failed);  // Wilson: noise
  EXPECT_TRUE(diff_report(bl, br, high_floor).gate_failed);  // absolute: any increase
}

TEST(SweepJobs, ExpandCampaignMatrix) {
  sim::CampaignConfig flip;
  flip.runs = 500;
  flip.cycles = 10;
  sim::CampaignConfig stuck = flip;
  stuck.fault.kinds = {sim::FaultKind::kStuckAt1};
  const std::vector<SweepJob> jobs =
      expand_campaign_jobs("pwrmgr_fsm,i2c*", {2, 3}, {flip, stuck});
  ASSERT_EQ(jobs.size(), 8u);  // 2 modules x 2 levels x 2 configs
  EXPECT_EQ(jobs[0].key(), "i2c_fsm|scfi|n2|mc|flip|t=any|runs=500|c=10|f=1|s=1");
  EXPECT_EQ(jobs[7].key(), "pwrmgr_fsm|scfi|n3|mc|stuck1|t=any|runs=500|c=10|f=1|s=1");
  for (const SweepJob& job : jobs) EXPECT_TRUE(job.type == JobType::kCampaign);
  const std::vector<SweepJob> raw =
      expand_campaign_jobs("pwrmgr_fsm", {2}, {flip}, "unprotected");
  EXPECT_EQ(raw[0].key(), "pwrmgr_fsm|unprotected|n2|mc|flip|t=any|runs=500|c=10|f=1|s=1");
  EXPECT_THROW(expand_campaign_jobs("no_such_module*", {2}, {flip}), ScfiError);
  EXPECT_THROW(expand_campaign_jobs("pwrmgr_fsm", {2}, {}), ScfiError);
}

TEST(SweepJobs, ExpandMatrixAndGlobs) {
  synfi::SynfiConfig mds;
  synfi::SynfiConfig whole;
  whole.wire_prefix = "";
  const std::vector<SweepJob> jobs =
      expand_jobs("pwrmgr_fsm,i2c*", {2, 3}, {mds, whole});
  ASSERT_EQ(jobs.size(), 8u);  // 2 modules x 2 levels x 2 configs
  EXPECT_EQ(jobs[0].key(), "i2c_fsm|scfi|n2|r=mds_|sim|flip");
  EXPECT_EQ(jobs[7].key(), "pwrmgr_fsm|scfi|n3|r=|sim|flip");
  EXPECT_THROW(expand_jobs("no_such_module*", {2}, {mds}), ScfiError);
  EXPECT_THROW(expand_jobs("pwrmgr_fsm", {}, {mds}), ScfiError);
}

/// Writes a throwaway corpus tree: two parse-clean machines (one nested, to
/// exercise recursive discovery), one malformed file, and one non-.kiss2
/// file that must be ignored.
std::string write_test_corpus(const std::string& name) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(::testing::TempDir()) / name;
  fs::remove_all(root);
  fs::create_directories(root / "sub");
  const auto write = [](const fs::path& path, const std::string& text) {
    std::ofstream out(path);
    out << text;
  };
  write(root / "lion.kiss2", std::string(test::kLion));
  write(root / "sub" / "train.kiss2", std::string(test::kTrain4));
  write(root / "bad.kiss2", ".i 2\n.o 1\nnot a transition\n.e\n");
  write(root / "notes.txt", "not a kiss2 file\n");
  return root.generic_string();
}

TEST(ModuleSource, CorpusDiscoveryGlobsAndErrors) {
  const std::string dir = write_test_corpus("corpus_discovery");
  const Kiss2CorpusSource corpus(dir);
  EXPECT_EQ(corpus.label(), "corpus_discovery");
  ASSERT_EQ(corpus.size(), 2u);
  // Parse failures are loud per-module records, not aborts.
  ASSERT_EQ(corpus.errors().size(), 1u);
  EXPECT_EQ(corpus.errors()[0].module, "bad");
  EXPECT_NE(corpus.errors()[0].message.find("kiss2"), std::string::npos);

  // Name-sorted discovery; nested files keep their relative path as name.
  const std::vector<ot::OtEntry> all = corpus.modules("*");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].name, "lion");
  EXPECT_EQ(all[1].name, "sub/train");
  EXPECT_FALSE(all[0].datapath);  // bare FSM: no datapath builder

  EXPECT_EQ(corpus.modules("sub/*").size(), 1u);
  EXPECT_EQ(corpus.modules("lion,sub/train").size(), 2u);
  EXPECT_EQ(corpus.modules("no_such*").size(), 0u);
  EXPECT_EQ(corpus.module("lion").fsm.num_states(), 4);
  EXPECT_THROW(corpus.module("bad"), ScfiError);
  EXPECT_THROW(Kiss2CorpusSource("/no/such/dir"), ScfiError);

  // An explicit label overrides the directory-derived one, and a trailing
  // slash (shell tab-completion) still derives the base name.
  EXPECT_EQ(Kiss2CorpusSource(dir, "mcnc").label(), "mcnc");
  EXPECT_EQ(Kiss2CorpusSource(dir + "/").label(), "corpus_discovery");
}

TEST(ModuleSource, VerilogCorpusNamesErrorsAndCollisions) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(::testing::TempDir()) / "vcorpus_names";
  fs::remove_all(root);
  fs::create_directories(root / "top");
  const auto write = [](const fs::path& path, const std::string& text) {
    std::ofstream out(path);
    out << text;
  };
  // q <= q ^ t: a one-register toggle machine named `name`.
  const auto toggle = [](const std::string& name) {
    return "module " + name + " (clk, rst_n, t, o);\n  input clk, rst_n, t;\n  output o;\n"
           "  reg q;\n  always @(posedge clk or negedge rst_n)\n"
           "    if (!rst_n) q <= 1'b0; else q <= q ^ t;\n  assign o = q;\nendmodule\n";
  };
  // Two modules in one file get "/<module>"; top.v's ctl and top/ctl.v's
  // ctl would both be "top/ctl".
  write(root / "top.v", toggle("ctl") + toggle("dp"));
  write(root / "top" / "ctl.v", toggle("ctl"));
  // Two state registers in one module get ".<state_wire>".
  write(root / "pair.v",
        "module pair (clk, rst_n, a, b, oa, ob);\n  input clk, rst_n, a, b;\n"
        "  output oa, ob;\n  reg qa, qb;\n  always @(posedge clk or negedge rst_n)\n"
        "    if (!rst_n) begin qa <= 1'b0; qb <= 1'b0; end\n"
        "    else begin qa <= qa ^ a; qb <= qb ^ b; end\n"
        "  assign oa = qa;\n  assign ob = qb;\nendmodule\n");
  // A register without feedback holds no FSM.
  write(root / "pipe.v",
        "module pipe (clk, rst_n, d, y);\n  input clk, rst_n, d;\n  output y;\n  reg r;\n"
        "  always @(posedge clk or negedge rst_n)\n"
        "    if (!rst_n) r <= 1'b0; else r <= d;\n  assign y = r;\nendmodule\n");

  const VerilogCorpusSource corpus(root.generic_string());
  EXPECT_EQ(corpus.label(), "vcorpus_names");
  const std::vector<ot::OtEntry> all = corpus.modules("*");
  std::vector<std::string> names;
  for (const ot::OtEntry& entry : all) names.push_back(entry.name);
  EXPECT_EQ(names, (std::vector<std::string>{"pair.qa", "pair.qb", "top/dp"}));
  EXPECT_EQ(corpus.size(), 3u);
  EXPECT_EQ(corpus.module("top/dp").fsm.name, "top/dp");
  EXPECT_EQ(corpus.module("pair.qb").fsm.inputs, (std::vector<std::string>{"b"}));
  EXPECT_THROW(corpus.module("top/ctl"), ScfiError);

  // The machine-less module and both colliding entries are recorded, each
  // collision naming the other entry's path.
  const std::string top = (root / "top.v").generic_string();
  const std::string nested = (root / "top" / "ctl.v").generic_string();
  ASSERT_EQ(corpus.errors().size(), 3u);
  EXPECT_EQ(corpus.errors()[0].module, "pipe");
  EXPECT_NE(corpus.errors()[0].message.find("no FSM found"), std::string::npos);
  EXPECT_EQ(corpus.errors()[1].module, "top/ctl");
  EXPECT_EQ(corpus.errors()[1].path, top);
  EXPECT_NE(corpus.errors()[1].message.find(nested), std::string::npos);
  EXPECT_EQ(corpus.errors()[2].module, "top/ctl");
  EXPECT_EQ(corpus.errors()[2].path, nested);
  EXPECT_NE(corpus.errors()[2].message.find(top), std::string::npos);
}

TEST(SweepJobs, ExpandFromCorpusCarriesSourceLabel) {
  const std::string dir = write_test_corpus("corpus_expand");
  const Kiss2CorpusSource corpus(dir, "mcnc");
  synfi::SynfiConfig flip;
  const std::vector<SweepJob> jobs = expand_jobs(corpus, "*", {2}, {flip});
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].key(), "mcnc::lion|scfi|n2|r=mds_|sim|flip");
  EXPECT_EQ(jobs[1].key(), "mcnc::sub/train|scfi|n2|r=mds_|sim|flip");
  EXPECT_THROW(expand_jobs(corpus, "no_such*", {2}, {flip}), ScfiError);

  sim::CampaignConfig camp;
  camp.runs = 100;
  const std::vector<SweepJob> campaign_jobs =
      expand_campaign_jobs(corpus, "lion", {2}, {camp}, "unprotected");
  ASSERT_EQ(campaign_jobs.size(), 1u);
  EXPECT_EQ(campaign_jobs[0].key(),
            "mcnc::lion|unprotected|n2|mc|flip|t=any|runs=100|c=24|f=1|s=1");
}

TEST(SweepOrchestrator, CorpusJobsMatchDirectRuns) {
  // A mixed corpus + zoo matrix in ONE fleet run: per-key results must be
  // bit-identical to direct per-module analyze()/run_campaign() for every
  // jobs/threads combination, and the store must resume cleanly.
  const std::string dir = write_test_corpus("corpus_orchestrate");
  const Kiss2CorpusSource corpus(dir);
  synfi::SynfiConfig flip;
  sim::CampaignConfig camp;
  camp.runs = 300;
  camp.cycles = 8;
  camp.seed = 9;
  std::vector<SweepJob> jobs = expand_jobs(corpus, "*", {2}, {flip});
  const std::vector<SweepJob> corpus_camp = expand_campaign_jobs(corpus, "lion", {2}, {camp});
  jobs.insert(jobs.end(), corpus_camp.begin(), corpus_camp.end());
  const std::vector<SweepJob> zoo_jobs = expand_jobs("pwrmgr_fsm", {2}, {flip});
  jobs.insert(jobs.end(), zoo_jobs.begin(), zoo_jobs.end());
  ASSERT_EQ(jobs.size(), 4u);

  ResultStore reference;
  for (const SweepJob& job : jobs) {
    const ot::OtEntry entry =
        job.source.empty() ? ot::ot_entry(job.module) : corpus.module(job.module);
    rtlil::Design d;
    const fsm::CompiledFsm c = ot::build_ot_variant(entry, d, ot::Variant::kScfi,
                                                    job.protection_level, job.module + "_ref");
    SweepResult result;
    result.job = job;
    if (job.type == JobType::kCampaign) {
      sim::CampaignConfig config = job.campaign;
      config.lanes = sim::kNumLanes;
      result.campaign = sim::run_campaign(entry.fsm, c, config);
    } else {
      result.report = synfi::analyze(entry.fsm, c, job.synfi);
    }
    reference.add(result);
  }

  struct JobsThreads {
    int jobs;
    int threads;
  };
  for (const JobsThreads jt : {JobsThreads{1, 1}, {2, 2}, {3, 8}}) {
    SweepConfig config;
    config.jobs = jt.jobs;
    config.threads = jt.threads;
    ResultStore store;
    SweepOrchestrator orchestrator(config);
    const SweepStats stats = orchestrator.run(jobs, store, "", false, &corpus);
    EXPECT_EQ(stats.executed, 4);
    ASSERT_EQ(store.size(), 4u);
    for (const SweepJob& job : jobs) {
      const SweepResult* got = store.find(job.key());
      ASSERT_NE(got, nullptr) << job.key();
      EXPECT_TRUE(reports_equal(*got, *reference.find(job.key())))
          << job.key() << " jobs=" << jt.jobs << " threads=" << jt.threads;
    }
  }

  // The mixed store round-trips through JSONL (v3 lines) and resumes with
  // every job skipped.
  const std::string path = temp_path("sweep_corpus.jsonl");
  std::remove(path.c_str());
  ResultStore store;
  SweepOrchestrator orchestrator{SweepConfig{}};
  EXPECT_EQ(orchestrator.run(jobs, store, path, false, &corpus).executed, 4);
  ResultStore resumed = ResultStore::load(path);
  EXPECT_EQ(resumed.size(), 4u);
  const SweepStats second = orchestrator.run(jobs, resumed, path, true, &corpus);
  EXPECT_EQ(second.executed, 0);
  EXPECT_EQ(second.skipped, 4);

  // Corpus jobs without their source are rejected up front, whatever the
  // provided source's label is.
  ResultStore empty;
  EXPECT_THROW(orchestrator.run(jobs, empty), ScfiError);
  const Kiss2CorpusSource other(dir, "other_label");
  EXPECT_THROW(orchestrator.run(jobs, empty, "", false, &other), ScfiError);
  EXPECT_EQ(empty.size(), 0u);
}

TEST(SweepOrchestrator, MatchesSequentialAnalyzeForAllJobsThreads) {
  synfi::SynfiConfig flip;
  synfi::SynfiConfig stuck;
  stuck.kind = sim::FaultKind::kStuckAt1;
  const std::vector<SweepJob> jobs =
      expand_jobs("pwrmgr_fsm,adc_ctrl_fsm", {2}, {flip, stuck});
  ASSERT_EQ(jobs.size(), 4u);

  // Sequential reference: fresh variant + one-shot analyze() per job.
  ResultStore reference;
  for (const SweepJob& job : jobs) {
    const ot::OtEntry entry = ot::ot_entry(job.module);
    rtlil::Design d;
    const fsm::CompiledFsm c = ot::build_ot_variant(entry, d, ot::Variant::kScfi,
                                                    job.protection_level, job.module + "_ref");
    SweepResult result;
    result.job = job;
    result.report = synfi::analyze(entry.fsm, c, job.synfi);
    reference.add(result);
  }

  struct JobsThreads {
    int jobs;
    int threads;
  };
  for (const JobsThreads jt : {JobsThreads{1, 1}, {2, 2}, {4, 3}, {2, 8}}) {
    SweepConfig config;
    config.jobs = jt.jobs;
    config.threads = jt.threads;
    ResultStore store;
    SweepOrchestrator orchestrator(config);
    const SweepStats stats = orchestrator.run(jobs, store);
    EXPECT_EQ(stats.executed, 4);
    EXPECT_EQ(stats.skipped, 0);
    ASSERT_EQ(store.size(), 4u);
    for (const SweepJob& job : jobs) {
      const SweepResult* got = store.find(job.key());
      ASSERT_NE(got, nullptr) << job.key();
      EXPECT_TRUE(got->report == reference.find(job.key())->report)
          << job.key() << " jobs=" << jt.jobs << " threads=" << jt.threads;
    }
  }
}

TEST(SweepDegree, OrchestratorMatchesLibraryProbe) {
  // The orchestrator's protection_degree field is the library's answer for
  // the job's own report: the smallest exploitable k up to faults_k. On the
  // aes_control diffusion layer that is the paper's distance claim — level
  // d measures degree d once faults_k reaches d, and 0 below it.
  std::vector<synfi::SynfiConfig> configs;
  for (const int k : {1, 2, 3}) {
    synfi::SynfiConfig config;  // default mds_ region, exhaustive back-end
    config.faults_k = k;
    configs.push_back(config);
  }
  const std::vector<SweepJob> jobs = expand_jobs("aes_control", {2, 3}, configs);
  ASSERT_EQ(jobs.size(), 6u);
  SweepConfig sweep_config;
  sweep_config.jobs = 2;
  sweep_config.threads = 2;
  ResultStore store;
  EXPECT_EQ(SweepOrchestrator(sweep_config).run(jobs, store).executed, 6);

  for (const SweepJob& job : jobs) {
    const SweepResult* got = store.find(job.key());
    ASSERT_NE(got, nullptr) << job.key();
    const ot::OtEntry entry = ot::ot_entry(job.module);
    rtlil::Design d;
    const fsm::CompiledFsm c = ot::build_ot_variant(entry, d, ot::Variant::kScfi,
                                                    job.protection_level, job.module + "_ref");
    synfi::Analyzer analyzer(entry.fsm, c);
    const synfi::SynfiReport report = analyzer.run(job.synfi);
    EXPECT_TRUE(got->report == report) << job.key();
    EXPECT_EQ(got->protection_degree,
              synfi::measured_protection_degree(analyzer, job.synfi, report))
        << job.key();
    const int level = job.protection_level;
    EXPECT_EQ(got->protection_degree, job.synfi.faults_k >= level ? level : 0) << job.key();
  }
}

TEST(SweepOrchestrator, MixedSynfiAndCampaignMatrix) {
  // SYNFI and Monte-Carlo campaign jobs share one fleet run; per-key
  // results must be bit-identical to direct analyze()/run_campaign() calls
  // for every jobs/threads combination, including campaign jobs on the
  // unprotected variant (which SYNFI cannot analyze).
  synfi::SynfiConfig flip;
  sim::CampaignConfig camp;
  camp.runs = 400;
  camp.cycles = 8;
  camp.fault.k = 1;
  camp.seed = 5;
  std::vector<SweepJob> jobs = expand_jobs("pwrmgr_fsm", {2}, {flip});
  const std::vector<SweepJob> campaign_jobs =
      expand_campaign_jobs("pwrmgr_fsm,adc_ctrl_fsm", {2}, {camp});
  jobs.insert(jobs.end(), campaign_jobs.begin(), campaign_jobs.end());
  const std::vector<SweepJob> raw_jobs =
      expand_campaign_jobs("pwrmgr_fsm", {2}, {camp}, "unprotected");
  jobs.insert(jobs.end(), raw_jobs.begin(), raw_jobs.end());
  ASSERT_EQ(jobs.size(), 4u);

  // Direct reference, one fresh variant per job. Campaign jobs run the
  // streaming planner at the orchestrator's lane count; threads never
  // change results.
  ResultStore reference;
  for (const SweepJob& job : jobs) {
    const ot::OtEntry entry = ot::ot_entry(job.module);
    rtlil::Design d;
    const ot::Variant variant =
        job.variant == "unprotected" ? ot::Variant::kUnprotected : ot::Variant::kScfi;
    const fsm::CompiledFsm c =
        ot::build_ot_variant(entry, d, variant, job.protection_level, job.module + "_ref");
    SweepResult result;
    result.job = job;
    if (job.type == JobType::kCampaign) {
      sim::CampaignConfig config = job.campaign;
      config.planner = sim::CampaignPlanner::kStreaming;
      config.lanes = sim::kNumLanes;
      result.campaign = sim::run_campaign(entry.fsm, c, config);
    } else {
      result.report = synfi::analyze(entry.fsm, c, job.synfi);
    }
    reference.add(result);
  }

  struct JobsThreads {
    int jobs;
    int threads;
  };
  for (const JobsThreads jt : {JobsThreads{1, 1}, {2, 2}, {3, 8}}) {
    SweepConfig config;
    config.jobs = jt.jobs;
    config.threads = jt.threads;
    ResultStore store;
    SweepOrchestrator orchestrator(config);
    const SweepStats stats = orchestrator.run(jobs, store);
    EXPECT_EQ(stats.executed, 4);
    ASSERT_EQ(store.size(), 4u);
    for (const SweepJob& job : jobs) {
      const SweepResult* got = store.find(job.key());
      ASSERT_NE(got, nullptr) << job.key();
      EXPECT_TRUE(reports_equal(*got, *reference.find(job.key())))
          << job.key() << " jobs=" << jt.jobs << " threads=" << jt.threads;
    }
  }

  // The mixed store round-trips through JSONL and resumes with every job
  // type skipped.
  const std::string path = temp_path("sweep_mixed.jsonl");
  std::remove(path.c_str());
  ResultStore store;
  SweepOrchestrator orchestrator{SweepConfig{}};
  const SweepStats first = orchestrator.run(jobs, store, path, /*resume=*/false);
  EXPECT_EQ(first.executed, 4);
  ResultStore resumed = ResultStore::load(path);
  EXPECT_EQ(resumed.size(), 4u);
  const SweepStats second = orchestrator.run(jobs, resumed, path, /*resume=*/true);
  EXPECT_EQ(second.executed, 0);
  EXPECT_EQ(second.skipped, 4);
}

TEST(SweepOrchestrator, ResumeSkipsStoredJobs) {
  const std::string path = temp_path("sweep_resume.jsonl");
  std::remove(path.c_str());

  synfi::SynfiConfig flip;
  synfi::SynfiConfig stuck;
  stuck.kind = sim::FaultKind::kStuckAt0;
  const std::vector<SweepJob> jobs = expand_jobs("pwrmgr_fsm", {2}, {flip, stuck});

  SweepConfig config;
  config.jobs = 2;
  config.threads = 2;
  SweepOrchestrator orchestrator(config);

  ResultStore store;
  const SweepStats first = orchestrator.run(jobs, store, path, /*resume=*/false);
  EXPECT_EQ(first.executed, 2);

  // A second invocation resuming from the streamed file runs nothing.
  ResultStore resumed = ResultStore::load(path);
  EXPECT_EQ(resumed.size(), 2u);
  const SweepStats second = orchestrator.run(jobs, resumed, path, /*resume=*/true);
  EXPECT_EQ(second.executed, 0);
  EXPECT_EQ(second.skipped, 2);

  // Partial store: drop one record, resume runs exactly the missing job.
  ResultStore partial;
  partial.add(*resumed.find(jobs[0].key()));
  const SweepStats third = orchestrator.run(jobs, partial, "", /*resume=*/true);
  EXPECT_EQ(third.executed, 1);
  EXPECT_EQ(third.skipped, 1);
  EXPECT_TRUE(partial.find(jobs[1].key())->report ==
              resumed.find(jobs[1].key())->report);
}

TEST(SweepOrchestrator, RejectsBadJobsAndConfig) {
  EXPECT_THROW(SweepOrchestrator(SweepConfig{0, 1, 64}), ScfiError);
  EXPECT_THROW(SweepOrchestrator(SweepConfig{1, 0, 64}), ScfiError);
  EXPECT_THROW(SweepOrchestrator(SweepConfig{1, 1, sim::kMaxLanes + 1}), ScfiError);
  EXPECT_THROW(SweepOrchestrator(SweepConfig{1, 1, 64, -1}), ScfiError);      // retries
  EXPECT_THROW(SweepOrchestrator(SweepConfig{1, 1, 64, 0, -0.5}), ScfiError);  // timeout

  // Malformed job matrices — unknown or unanalyzable variant names — are
  // caller bugs and still abort up front, before any work runs.
  SweepOrchestrator orchestrator{SweepConfig{}};
  ResultStore store;
  SweepJob unknown;
  unknown.module = "pwrmgr_fsm";
  unknown.variant = "unprotected";  // raw control bits: not symbol-analyzable
  EXPECT_THROW(orchestrator.run({unknown}, store), ScfiError);
  // Redundancy variants hold N register copies the SYNFI stimulus does not
  // drive; accepting them would produce meaningless reports.
  unknown.variant = "redundancy";
  EXPECT_THROW(orchestrator.run({unknown}, store), ScfiError);
  // Campaign jobs accept all three compiled forms but still reject unknown
  // variant names up front.
  SweepJob campaign;
  campaign.type = JobType::kCampaign;
  campaign.module = "pwrmgr_fsm";
  campaign.variant = "no_such_variant";
  EXPECT_THROW(orchestrator.run({campaign}, store), ScfiError);
  // The SAT backend cannot model a clock glitch: retrying could never help.
  SweepJob sat_skip;
  sat_skip.module = "pwrmgr_fsm";
  sat_skip.synfi.backend = synfi::Backend::kSat;
  sat_skip.synfi.kind = sim::FaultKind::kSkipCycle;
  EXPECT_THROW(orchestrator.run({sat_skip}, store), ScfiError);
  EXPECT_EQ(store.size(), 0u);

  // An unknown MODULE, by contrast, is an execution failure: it is
  // isolated into a failure record (fail_fast restores the old abort).
  SweepJob missing;
  missing.module = "no_such_module";
  const SweepStats stats = orchestrator.run({missing}, store);
  EXPECT_EQ(stats.failed, 1);
  ASSERT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.find(missing.key())->status == JobStatus::kFailed);
  SweepConfig strict;
  strict.fail_fast = true;
  SweepOrchestrator fail_fast{strict};
  ResultStore empty;
  EXPECT_THROW(fail_fast.run({missing}, empty), ScfiError);
  EXPECT_EQ(empty.size(), 0u);
}

TEST(SweepOrchestrator, BuildFailureRecordsCarryTheBuildTime) {
  // A failed variant build is billed like a successful one: the group's
  // first record carries the time spent up to the failure, the other
  // records of the group nothing, so the group's seconds sum to its wall
  // time instead of recording 0.
  SweepJob flip;
  flip.module = "no_such_module";
  SweepJob stuck = flip;
  stuck.synfi.kind = sim::FaultKind::kStuckAt1;
  SweepOrchestrator orchestrator{SweepConfig{}};
  ResultStore store;
  const SweepStats stats = orchestrator.run({flip, stuck}, store);
  EXPECT_EQ(stats.failed, 2);
  ASSERT_EQ(store.size(), 2u);
  const SweepResult* first = store.find(flip.key());
  const SweepResult* second = store.find(stuck.key());
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_NE(first->error.find("variant build failed"), std::string::npos);
  EXPECT_GT(first->seconds, 0.0);
  EXPECT_EQ(second->seconds, 0.0);
}

TEST(SweepOrchestrator, IsolatesFailingJobsAndResumesOnlyThose) {
  // The acceptance scenario: a corpus sweep with one job on a module whose
  // .kiss2 failed to parse (group-build failure: "bad" is not among the
  // corpus entries) and one job that throws mid-execution (a SYNFI region
  // prefix matching no fault site), next to two healthy jobs. The fleet
  // must complete, record failure entries for exactly the two bad keys,
  // and a --resume must re-execute only them — for every jobs/threads
  // combination.
  const std::string dir = write_test_corpus("corpus_isolate");
  const Kiss2CorpusSource corpus(dir);
  synfi::SynfiConfig flip;
  std::vector<SweepJob> jobs = expand_jobs(corpus, "*", {2}, {flip});
  ASSERT_EQ(jobs.size(), 2u);  // lion, sub/train
  SweepJob unparseable = jobs[0];
  unparseable.module = "bad";
  jobs.push_back(unparseable);
  SweepJob throws_midway = jobs[0];
  throws_midway.synfi.wire_prefix = "no_such_region_";
  jobs.push_back(throws_midway);

  const std::vector<std::string> bad_keys = {unparseable.key(), throws_midway.key()};
  const std::vector<std::string> good_keys = {jobs[0].key(), jobs[1].key()};

  struct JobsThreads {
    int jobs;
    int threads;
  };
  for (const JobsThreads jt : {JobsThreads{1, 1}, {2, 2}, {3, 8}}) {
    SweepConfig config;
    config.jobs = jt.jobs;
    config.threads = jt.threads;
    config.retries = 1;
    config.backoff.initial_ms = 0.0;  // retry instantly in tests
    ResultStore store;
    SweepOrchestrator orchestrator(config);
    const std::string path =
        temp_path("sweep_isolate_" + std::to_string(jt.jobs) + ".jsonl");
    std::remove(path.c_str());
    const SweepStats stats = orchestrator.run(jobs, store, path, false, &corpus);
    EXPECT_EQ(stats.executed, 2) << "jobs=" << jt.jobs;
    EXPECT_EQ(stats.failed, 2) << "jobs=" << jt.jobs;
    // The build failure is deterministic and not retried; the mid-execution
    // throw burns the full attempt budget.
    EXPECT_EQ(stats.retried, config.retries) << "jobs=" << jt.jobs;
    ASSERT_EQ(store.size(), 4u);
    for (const std::string& key : good_keys) {
      ASSERT_NE(store.find(key), nullptr) << key;
      EXPECT_TRUE(store.find(key)->status == JobStatus::kOk) << key;
    }
    const SweepResult* build_failure = store.find(unparseable.key());
    ASSERT_NE(build_failure, nullptr);
    EXPECT_TRUE(build_failure->status == JobStatus::kFailed);
    EXPECT_EQ(build_failure->attempts, 1);
    EXPECT_NE(build_failure->error.find("variant build failed"), std::string::npos);
    const SweepResult* exec_failure = store.find(throws_midway.key());
    ASSERT_NE(exec_failure, nullptr);
    EXPECT_TRUE(exec_failure->status == JobStatus::kFailed);
    EXPECT_EQ(exec_failure->attempts, config.retries + 1);
    EXPECT_NE(exec_failure->error.find("no fault sites"), std::string::npos);

    // The failure records stream into the JSONL file like any other and
    // survive the round trip.
    ResultStore reloaded = ResultStore::load(path);
    ASSERT_EQ(reloaded.size(), 4u);
    EXPECT_TRUE(reloaded.find(unparseable.key())->status == JobStatus::kFailed);

    // Resume skips the ok keys and re-executes exactly the failed ones
    // (which fail again here — the lease just grants them a fresh run).
    const SweepStats second = orchestrator.run(jobs, reloaded, path, true, &corpus);
    EXPECT_EQ(second.skipped, 2);
    EXPECT_EQ(second.executed, 0);
    EXPECT_EQ(second.failed, 2);
  }
}

TEST(SweepOrchestrator, RetryBudgetIsSpentAndRecorded) {
  // A deterministic mid-execution failure burns first + `retries` attempts,
  // and the failure record reports the full count.
  SweepJob job = expand_jobs("pwrmgr_fsm", {2}, {synfi::SynfiConfig{}})[0];
  job.synfi.wire_prefix = "no_such_region_";
  for (const int retries : {0, 3}) {
    SweepConfig config;
    config.retries = retries;
    config.backoff.initial_ms = 0.0;
    ResultStore store;
    const SweepStats stats = SweepOrchestrator(config).run({job}, store);
    EXPECT_EQ(stats.failed, 1);
    EXPECT_EQ(stats.retried, retries);
    ASSERT_EQ(store.size(), 1u);
    EXPECT_EQ(store.find(job.key())->attempts, retries + 1);
  }
}

TEST(SweepOrchestrator, JobTimeoutRecordsFailureAndResumeRecovers) {
  // An already-expired deadline cancels the job at its first cooperative
  // check point — deterministically, whatever the machine speed — and the
  // timeout is terminal: no retry can extend the budget.
  const std::vector<SweepJob> jobs =
      expand_jobs("pwrmgr_fsm", {2}, {synfi::SynfiConfig{}});
  const std::string path = temp_path("sweep_timeout.jsonl");
  std::remove(path.c_str());
  SweepConfig config;
  config.job_timeout = 1e-9;
  ResultStore store;
  const SweepStats stats = SweepOrchestrator(config).run(jobs, store, path);
  EXPECT_EQ(stats.executed, 0);
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.retried, 0);
  ASSERT_EQ(store.size(), 1u);
  const SweepResult* timed_out = store.find(jobs[0].key());
  ASSERT_NE(timed_out, nullptr);
  EXPECT_TRUE(timed_out->status == JobStatus::kFailed);
  EXPECT_NE(timed_out->error.find("timed out"), std::string::npos);

  // Campaign jobs poll the same token per claimed unit.
  const std::vector<SweepJob> campaign_jobs =
      expand_campaign_jobs("pwrmgr_fsm", {2}, {sim::CampaignConfig{}});
  ResultStore campaign_store;
  EXPECT_EQ(SweepOrchestrator(config).run(campaign_jobs, campaign_store).failed, 1);

  // A resume without the deadline re-executes the timed-out key and its
  // latest-wins record flips to ok — the retry-lease path end to end.
  ResultStore resumed = ResultStore::load(path);
  const SweepStats second = SweepOrchestrator(SweepConfig{}).run(jobs, resumed, path, true);
  EXPECT_EQ(second.executed, 1);
  EXPECT_EQ(second.skipped, 0);
  EXPECT_EQ(second.failed, 0);
  EXPECT_TRUE(ResultStore::load(path).find(jobs[0].key())->status == JobStatus::kOk);
}

TEST(SweepStraggler, WholeLogicK2IsBitIdenticalForEveryJobsThreads) {
  // The straggler shape: one i2c_fsm group (176 of 535 whole-logic sites
  // observable, 49 edges) outlasts the small ones, so once those close,
  // idle workers help its run. Every split must give the same records key
  // for key — counters, exploitable-site order, degree.
  synfi::SynfiConfig whole;
  whole.wire_prefix = "";
  whole.faults_k = 2;
  const std::vector<SweepJob> jobs =
      expand_jobs("i2c_fsm,pwrmgr_fsm,adc_ctrl_fsm", {2}, {whole});
  ASSERT_EQ(jobs.size(), 3u);

  struct JobsThreads {
    int jobs;
    int threads;
  };
  std::vector<ResultStore> stores;
  for (const JobsThreads jt : {JobsThreads{1, 1}, {4, 4}, {2, 8}, {8, 2}}) {
    SweepConfig config;
    config.jobs = jt.jobs;
    config.threads = jt.threads;
    stores.emplace_back();
    const SweepStats stats = SweepOrchestrator(config).run(jobs, stores.back());
    EXPECT_EQ(stats.executed, 3) << "jobs=" << jt.jobs << " threads=" << jt.threads;
  }
  for (const SweepJob& job : jobs) {
    const SweepResult* reference = stores.front().find(job.key());
    ASSERT_NE(reference, nullptr) << job.key();
    EXPECT_GT(reference->report.injections, 0) << job.key();
    for (std::size_t i = 1; i < stores.size(); ++i) {
      const SweepResult* got = stores[i].find(job.key());
      ASSERT_NE(got, nullptr) << job.key();
      EXPECT_TRUE(got->report == reference->report) << job.key() << " config " << i;
      EXPECT_EQ(got->protection_degree, reference->protection_degree) << job.key();
    }
  }
}

TEST(SweepStraggler, JobTimeoutStopsTheHelpersOfItsRun) {
  // A whole-logic k = 6 otbn_controller job would run for minutes: even
  // with only its 88 observable sites simulated, its top layer alone is
  // C(88, 6) x 15 = 8.1e9 jobs. Idle workers join its run as soon as the
  // small groups close. Its deadline must stop every participant — the
  // helpers check the job's token, not their own — so the sweep ends near
  // the deadline with exactly one timed-out record, the small jobs ok, and
  // the throwing job retried as before.
  synfi::SynfiConfig straggler;
  straggler.wire_prefix = "";
  straggler.faults_k = 6;
  std::vector<SweepJob> jobs = expand_jobs("otbn_controller", {2}, {straggler});
  for (const SweepJob& small : expand_jobs("pwrmgr_fsm,adc_ctrl_fsm", {2}, {{}})) {
    jobs.push_back(small);
  }
  SweepJob throws_midway = jobs.back();
  throws_midway.synfi.wire_prefix = "no_such_region_";
  jobs.push_back(throws_midway);

  SweepConfig config;
  config.jobs = 2;
  config.threads = 4;
  config.job_timeout = 1.0;
  config.retries = 2;
  config.backoff.initial_ms = 0.0;
  ResultStore store;
  const auto start = std::chrono::steady_clock::now();
  const SweepStats stats = SweepOrchestrator(config).run(jobs, store);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(wall, 30.0);
  EXPECT_EQ(stats.executed, 2);
  EXPECT_EQ(stats.failed, 2);
  EXPECT_EQ(stats.retried, config.retries);
  ASSERT_EQ(store.size(), jobs.size());
  const SweepResult* timed_out = store.find(jobs[0].key());
  ASSERT_NE(timed_out, nullptr);
  EXPECT_TRUE(timed_out->status == JobStatus::kFailed);
  EXPECT_NE(timed_out->error.find("timed out"), std::string::npos) << timed_out->error;
  EXPECT_EQ(timed_out->attempts, 1);
  for (const std::size_t j : {std::size_t{1}, std::size_t{2}}) {
    const SweepResult* ok = store.find(jobs[j].key());
    ASSERT_NE(ok, nullptr) << jobs[j].key();
    EXPECT_TRUE(ok->status == JobStatus::kOk) << jobs[j].key();
  }
  const SweepResult* thrown = store.find(throws_midway.key());
  ASSERT_NE(thrown, nullptr);
  EXPECT_EQ(thrown->attempts, config.retries + 1);
  EXPECT_EQ(thrown->error.find("timed out"), std::string::npos) << thrown->error;
}

TEST(GlobMatch, Basics) {
  EXPECT_TRUE(glob_match("pwrmgr_fsm", "pwrmgr_fsm"));
  EXPECT_TRUE(glob_match("pwrmgr_fsm", "pwr*"));
  EXPECT_TRUE(glob_match("pwrmgr_fsm", "*fsm"));
  EXPECT_TRUE(glob_match("pwrmgr_fsm", "*"));
  EXPECT_TRUE(glob_match("abc", "a?c"));
  EXPECT_TRUE(glob_match("", "*"));
  EXPECT_FALSE(glob_match("pwrmgr_fsm", "pwr"));
  EXPECT_FALSE(glob_match("abc", "a?d"));
  EXPECT_FALSE(glob_match("abc", "abcd"));
}

}  // namespace
}  // namespace scfi::sweep
