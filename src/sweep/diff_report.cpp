#include "sweep/diff_report.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "base/error.h"
#include "base/strutil.h"

namespace scfi::sweep {

WilsonInterval wilson_interval(std::int64_t successes, std::int64_t trials, double z) {
  require(trials >= 0 && successes >= 0 && successes <= trials,
          "wilson_interval: successes must be in [0, trials]");
  require(z >= 0.0, "wilson_interval: z must be non-negative");
  if (trials == 0) return WilsonInterval{0.0, 1.0};
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      (z / denom) * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  return WilsonInterval{std::max(0.0, center - half), std::min(1.0, center + half)};
}

namespace {

/// A changed pair where at least one side is a failed record. Same-status
/// pairs never reach here (reports_equal treats two failures as equal), so
/// this is always a status transition: a job that used to pass and now
/// fails is a regression regardless of thresholds; a transition INTO ok is
/// a recovery and never gates.
DiffEntry compare_status(const SweepResult& base, const SweepResult& cand) {
  DiffEntry entry;
  entry.key = base.key();
  entry.type = base.job.type;
  if (cand.status != JobStatus::kOk) {
    entry.regression = true;
    entry.note = std::string(job_status_name(base.status)) + " -> FAILED" +
                 (cand.error.empty() ? "" : " (" + cand.error + ")");
  } else {
    entry.regression = false;
    entry.note = std::string(job_status_name(base.status)) + " -> ok (recovered" +
                 (base.error.empty() ? "" : "; was: " + base.error) + ")";
  }
  return entry;
}

DiffEntry compare_synfi(const SweepResult& base, const SweepResult& cand,
                        const DiffThresholds& thresholds) {
  DiffEntry entry;
  entry.key = base.key();
  entry.type = JobType::kSynfi;
  entry.d_exploitable = cand.report.exploitable - base.report.exploitable;
  entry.d_detected = cand.report.detected - base.report.detected;
  entry.d_masked = cand.report.masked - base.report.masked;
  entry.regression = entry.d_exploitable > thresholds.max_exploitable_increase;
  entry.note = format("exploitable %lld -> %lld (%+lld), detected %+lld, masked %+lld",
                      static_cast<long long>(base.report.exploitable),
                      static_cast<long long>(cand.report.exploitable),
                      static_cast<long long>(entry.d_exploitable),
                      static_cast<long long>(entry.d_detected),
                      static_cast<long long>(entry.d_masked));
  return entry;
}

DiffEntry compare_campaign(const SweepResult& base, const SweepResult& cand,
                           const DiffThresholds& thresholds) {
  DiffEntry entry;
  entry.key = base.key();
  entry.type = JobType::kCampaign;
  entry.d_hijacked = cand.campaign.hijacked - base.campaign.hijacked;
  entry.d_hijack_rate = cand.campaign.hijack_rate() - base.campaign.hijack_rate();
  entry.d_detection_rate = cand.campaign.detection_rate() - base.campaign.detection_rate();

  const sim::CampaignResult& b = base.campaign;
  const sim::CampaignResult& c = cand.campaign;
  entry.base_hijack = wilson_interval(b.hijacked, b.runs, thresholds.wilson_z);
  entry.cand_hijack = wilson_interval(c.hijacked, c.runs, thresholds.wilson_z);
  entry.base_detection = wilson_interval(b.detected, b.effective(), thresholds.wilson_z);
  entry.cand_detection = wilson_interval(c.detected, c.effective(), thresholds.wilson_z);

  // A rate regresses when the candidate interval clears the baseline
  // interval by more than the absolute allowance — sampling noise inside
  // the bands never gates. Low-trial keys (either side) fall back to the
  // raw absolute deltas: their intervals are too wide to say anything.
  const auto wilson_usable = [&](std::int64_t base_trials, std::int64_t cand_trials) {
    return thresholds.wilson_z > 0.0 && base_trials >= thresholds.wilson_min_trials &&
           cand_trials >= thresholds.wilson_min_trials;
  };
  bool hijack_regressed = false;
  entry.hijack_wilson = wilson_usable(b.runs, c.runs);
  if (entry.hijack_wilson) {
    hijack_regressed =
        entry.cand_hijack.lower - entry.base_hijack.upper > thresholds.max_hijack_rate_increase;
  } else {
    hijack_regressed = entry.d_hijack_rate > thresholds.max_hijack_rate_increase;
  }
  bool detection_regressed = false;
  entry.detection_wilson = wilson_usable(b.effective(), c.effective());
  if (entry.detection_wilson) {
    detection_regressed = entry.base_detection.lower - entry.cand_detection.upper >
                          thresholds.max_detection_rate_drop;
  } else {
    detection_regressed = -entry.d_detection_rate > thresholds.max_detection_rate_drop;
  }
  entry.regression = hijack_regressed || detection_regressed;
  entry.note = format(
      "hijack %.4f%% [%.4f, %.4f] -> %.4f%% [%.4f, %.4f] (%+lld run(s))%s, "
      "detection %.2f%% [%.2f, %.2f] -> %.2f%% [%.2f, %.2f]%s",
      100.0 * b.hijack_rate(), 100.0 * entry.base_hijack.lower, 100.0 * entry.base_hijack.upper,
      100.0 * c.hijack_rate(), 100.0 * entry.cand_hijack.lower, 100.0 * entry.cand_hijack.upper,
      static_cast<long long>(entry.d_hijacked), entry.hijack_wilson ? "" : " (absolute gate)",
      100.0 * b.detection_rate(), 100.0 * entry.base_detection.lower,
      100.0 * entry.base_detection.upper, 100.0 * c.detection_rate(),
      100.0 * entry.cand_detection.lower, 100.0 * entry.cand_detection.upper,
      entry.detection_wilson ? "" : " (absolute gate)");
  return entry;
}

}  // namespace

DiffReport diff_report(const ResultStore& baseline, const ResultStore& candidate,
                       const DiffThresholds& thresholds) {
  // The key-level walk is ResultStore::diff's job (one definition of
  // "changed"); this layer only scores the changed pairs against the
  // thresholds. diff() returns each list key-sorted.
  const ResultStore::Diff diff = ResultStore::diff(baseline, candidate);
  DiffReport report;
  report.removed = diff.only_left;
  report.added = diff.only_right;
  report.changed.reserve(diff.changed.size());
  for (const std::string& key : diff.changed) {
    const SweepResult& base = *baseline.find(key);
    const SweepResult& cand = *candidate.find(key);
    if (base.status != cand.status) {
      report.changed.push_back(compare_status(base, cand));
    } else {
      report.changed.push_back(base.job.type == JobType::kCampaign
                                   ? compare_campaign(base, cand, thresholds)
                                   : compare_synfi(base, cand, thresholds));
    }
  }
  for (const DiffEntry& entry : report.changed) report.regressions += entry.regression;
  report.removed_gates = thresholds.fail_on_removed;
  if (report.removed_gates) {
    report.regressions += static_cast<int>(report.removed.size());
  }
  report.gate_failed = report.regressions > 0;
  return report;
}

std::string DiffReport::render() const {
  std::ostringstream out;
  for (const DiffEntry& entry : changed) {
    out << (entry.regression ? "REGRESSION " : "drift      ") << entry.key << ": " << entry.note
        << "\n";
  }
  for (const std::string& key : removed) {
    out << (removed_gates ? "REGRESSION " : "removed    ") << key << " (missing from candidate)\n";
  }
  for (const std::string& key : added) out << "added      " << key << "\n";
  if (changed.empty() && removed.empty() && added.empty()) {
    out << "sweep-diff: stores are identical (timing ignored)\n";
  }
  out << format("sweep-diff: %zu changed, %zu added, %zu removed, %d regression(s)\n",
                changed.size(), added.size(), removed.size(), regressions);
  return out.str();
}

}  // namespace scfi::sweep
