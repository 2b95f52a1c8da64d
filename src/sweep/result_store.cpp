#include "sweep/result_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "backends/json.h"
#include "base/error.h"
#include "base/log.h"
#include "base/strutil.h"

namespace scfi::sweep {

const char* fault_kind_name(sim::FaultKind kind) {
  switch (kind) {
    case sim::FaultKind::kStuckAt0: return "stuck0";
    case sim::FaultKind::kStuckAt1: return "stuck1";
    case sim::FaultKind::kTransientFlip: return "flip";
    case sim::FaultKind::kSkipCycle: return "skip";
    default: return "none";
  }
}

sim::FaultKind fault_kind_of(const std::string& name) {
  if (name == "stuck0") return sim::FaultKind::kStuckAt0;
  if (name == "stuck1") return sim::FaultKind::kStuckAt1;
  if (name == "flip") return sim::FaultKind::kTransientFlip;
  if (name == "skip") return sim::FaultKind::kSkipCycle;
  throw ScfiError("sweep: unknown fault kind '" + name +
                  "' (expected flip, stuck0, stuck1, or skip)");
}

std::string fault_kinds_name(const std::vector<sim::FaultKind>& kinds) {
  require(!kinds.empty(), "sweep: a fault spec needs at least one kind");
  std::string joined;
  for (const sim::FaultKind kind : kinds) {
    if (!joined.empty()) joined += '+';
    joined += fault_kind_name(kind);
  }
  return joined;
}

std::vector<sim::FaultKind> fault_kinds_of(const std::string& name) {
  std::vector<sim::FaultKind> kinds;
  std::string::size_type begin = 0;
  while (begin <= name.size()) {
    const std::string::size_type end = name.find('+', begin);
    const std::string token =
        name.substr(begin, end == std::string::npos ? std::string::npos : end - begin);
    kinds.push_back(fault_kind_of(token));
    if (end == std::string::npos) break;
    begin = end + 1;
  }
  return kinds;
}

const char* backend_name(synfi::Backend backend) {
  return backend == synfi::Backend::kSat ? "sat" : "sim";
}

synfi::Backend backend_of(const std::string& name) {
  if (name == "sat") return synfi::Backend::kSat;
  if (name == "sim") return synfi::Backend::kExhaustiveSim;
  throw ScfiError("sweep: unknown backend '" + name + "' (expected sim or sat)");
}

const char* fault_target_name(sim::FaultTarget target) {
  switch (target) {
    case sim::FaultTarget::kControlInputs: return "inputs";
    case sim::FaultTarget::kStateRegister: return "state";
    case sim::FaultTarget::kLogic: return "logic";
    default: return "any";
  }
}

sim::FaultTarget fault_target_of(const std::string& name) {
  if (name == "inputs") return sim::FaultTarget::kControlInputs;
  if (name == "state") return sim::FaultTarget::kStateRegister;
  if (name == "logic") return sim::FaultTarget::kLogic;
  if (name == "any") return sim::FaultTarget::kAny;
  throw ScfiError("sweep: unknown fault target '" + name +
                  "' (expected any, inputs, state, or logic)");
}

const char* job_type_name(JobType type) {
  return type == JobType::kCampaign ? "campaign" : "synfi";
}

JobType job_type_of(const std::string& name) {
  if (name == "synfi") return JobType::kSynfi;
  if (name == "campaign") return JobType::kCampaign;
  throw ScfiError("sweep: unknown job type '" + name + "' (expected synfi or campaign)");
}

const char* job_status_name(JobStatus status) {
  switch (status) {
    case JobStatus::kFailed: return "failed";
    default: return "ok";
  }
}

JobStatus job_status_of(const std::string& name) {
  if (name == "ok") return JobStatus::kOk;
  if (name == "failed") return JobStatus::kFailed;
  throw ScfiError("sweep: unknown job status '" + name + "' (expected ok or failed)");
}

bool reports_equal(const SweepResult& a, const SweepResult& b) {
  if (a.job.type != b.job.type) return false;
  if (a.status != b.status) return false;
  // Two failures compare equal regardless of error text, attempt count, or
  // worker id: those are diagnostics, like timing, not part of the verdict.
  if (a.status != JobStatus::kOk) return true;
  if (a.job.type == JobType::kCampaign) return a.campaign == b.campaign;
  return a.report == b.report && a.protection_degree == b.protection_degree;
}

namespace {

/// Minimal recursive-descent reader for the one flat object shape the store
/// emits: string / integer / double / bool values plus one string array.
class LineParser {
 public:
  explicit LineParser(const std::string& text) : text_(text) {}

  void expect(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) [[unlikely]] {
      throw ScfiError(std::string("result store: expected '") + c + "' in JSONL line");
    }
    ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string parse_string() {
    expect('"');
    std::string raw;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) {
        raw.push_back(text_[pos_++]);
      }
      raw.push_back(text_[pos_++]);
    }
    expect('"');
    return backends::json_unescape(raw);
  }

  double parse_number() {
    skip_ws();
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    require(end != begin, "result store: malformed number in JSONL line");
    pos_ += static_cast<std::size_t>(end - begin);
    return value;
  }

  /// Exact integer parse for every integer field: the campaign seed would
  /// lose bits above 2^53 through parse_number()'s double and silently
  /// change the recomputed job key, and a double cast to a narrower integer
  /// is undefined when out of range. Rejects negatives, fractions,
  /// exponents and values above `max` instead of wrapping or saturating
  /// them into a different (and silently resumable) key.
  std::uint64_t parse_uint(std::uint64_t max = UINT64_MAX) {
    skip_ws();
    require(pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9',
            "result store: malformed integer in JSONL line");
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(begin, &end, 10);
    require(errno != ERANGE && *end != '.' && *end != 'e' && *end != 'E',
            "result store: malformed integer in JSONL line");
    require(value <= max, "result store: integer out of range in JSONL line");
    pos_ += static_cast<std::size_t>(end - begin);
    return value;
  }

  /// parse_uint bounded to int, for the store's int-typed counts.
  int parse_int_count() { return static_cast<int>(parse_uint(INT_MAX)); }

  /// parse_uint bounded to int64, for the SYNFI report counters.
  std::int64_t parse_int64() { return static_cast<std::int64_t>(parse_uint(INT64_MAX)); }

  bool parse_bool() {
    skip_ws();
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    throw ScfiError("result store: malformed bool in JSONL line");
  }

  std::vector<std::string> parse_string_array() {
    std::vector<std::string> items;
    expect('[');
    if (consume(']')) return items;
    do {
      items.push_back(parse_string());
    } while (consume(','));
    expect(']');
    return items;
  }

  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t')) ++pos_;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string SweepJob::key() const {
  // Zoo keys (empty source) carry no source prefix: the committed v6
  // baseline and reference stores pin these keys byte for byte.
  const std::string qualified = source.empty() ? module : source + "::" + module;
  if (type == JobType::kCampaign) {
    return qualified + "|" + variant + "|n" + std::to_string(protection_level) + "|mc|" +
           fault_kinds_name(campaign.fault.kinds) + "|t=" +
           fault_target_name(campaign.fault.target) +
           "|runs=" + std::to_string(campaign.runs) + "|c=" + std::to_string(campaign.cycles) +
           "|f=" + std::to_string(campaign.fault.k) + "|s=" + std::to_string(campaign.seed);
  }
  std::string key = qualified + "|" + variant + "|n" + std::to_string(protection_level) +
                    "|r=" + synfi.wire_prefix + "|" + backend_name(synfi.backend) + "|" +
                    fault_kind_name(synfi.kind);
  // Non-default threat models extend the key; the classic single-fault
  // any-target sweep's keys stay as the committed stores pin them.
  if (synfi.target != sim::FaultTarget::kAny) key += "|t=" + std::string(fault_target_name(synfi.target));
  if (synfi.faults_k != 1) key += "|k=" + std::to_string(synfi.faults_k);
  if (synfi.include_inputs) key += "|inputs";
  if (synfi.free_symbol) key += "|free";
  return key;
}

std::string ResultStore::to_line(const SweepResult& result) {
  const SweepJob& job = result.job;
  std::ostringstream out;
  out << "{\"schema\":" << kSchemaVersion;
  out << ",\"type\":\"" << job_type_name(job.type) << "\"";
  out << ",\"key\":\"" << backends::json_escape(result.key()) << "\"";
  out << ",\"source\":\"" << backends::json_escape(job.source) << "\"";
  out << ",\"module\":\"" << backends::json_escape(job.module) << "\"";
  out << ",\"variant\":\"" << backends::json_escape(job.variant) << "\"";
  out << ",\"level\":" << job.protection_level;
  out << ",\"status\":\"" << job_status_name(result.status) << "\"";
  if (!result.worker.empty()) {
    out << ",\"worker\":\"" << backends::json_escape(result.worker) << "\"";
  }
  const bool ok = result.status == JobStatus::kOk;
  // Identity fields are written even for failed records (resume needs the
  // key to round-trip); the payload counters exist only on ok records.
  if (job.type == JobType::kCampaign) {
    const sim::CampaignResult& c = result.campaign;
    out << ",\"kind\":\"" << fault_kinds_name(job.campaign.fault.kinds) << "\"";
    out << ",\"target\":\"" << fault_target_name(job.campaign.fault.target) << "\"";
    out << ",\"runs\":" << job.campaign.runs;
    out << ",\"cycles\":" << job.campaign.cycles;
    out << ",\"faults\":" << job.campaign.fault.k;
    out << ",\"seed\":" << job.campaign.seed;
    if (ok) {
      out << ",\"masked\":" << c.masked;
      out << ",\"detected\":" << c.detected;
      out << ",\"hijacked\":" << c.hijacked;
      out << ",\"lagged\":" << c.lagged;
      out << ",\"silent_invalid\":" << c.silent_invalid;
    }
  } else {
    const synfi::SynfiReport& r = result.report;
    out << ",\"region\":\"" << backends::json_escape(job.synfi.wire_prefix) << "\"";
    out << ",\"include_inputs\":" << (job.synfi.include_inputs ? "true" : "false");
    out << ",\"backend\":\"" << backend_name(job.synfi.backend) << "\"";
    out << ",\"kind\":\"" << fault_kind_name(job.synfi.kind) << "\"";
    out << ",\"target\":\"" << fault_target_name(job.synfi.target) << "\"";
    out << ",\"faults_k\":" << job.synfi.faults_k;
    out << ",\"free_symbol\":" << (job.synfi.free_symbol ? "true" : "false");
    if (ok) {
      out << ",\"sites\":" << r.sites;
      out << ",\"injections\":" << r.injections;
      out << ",\"exploitable\":" << r.exploitable;
      out << ",\"protection_degree\":" << result.protection_degree;
      out << ",\"detected\":" << r.detected;
      out << ",\"masked\":" << r.masked;
      out << ",\"stalls\":" << r.stalls;
      out << ",\"exploitable_sites\":[";
      for (std::size_t i = 0; i < r.exploitable_sites.size(); ++i) {
        if (i > 0) out << ",";
        out << "\"" << backends::json_escape(r.exploitable_sites[i]) << "\"";
      }
      out << "]";
    }
  }
  if (result.status == JobStatus::kFailed) {
    out << ",\"error\":\"" << backends::json_escape(result.error) << "\"";
  }
  out << ",\"attempts\":" << result.attempts;
  char seconds[32];
  std::snprintf(seconds, sizeof(seconds), "%.6f", result.seconds);
  out << ",\"seconds\":" << seconds << "}";
  return out.str();
}

SweepResult ResultStore::parse_line(const std::string& line) {
  // Fields are collected first and committed at the end: the `kind`,
  // `target`, `detected`, and `masked` names are shared between the two job
  // types, so they can only be routed once the (possibly later) `type` field
  // is known.
  bool saw_schema = false;
  std::string type_str;
  std::string kind_str;
  std::string target_str;
  bool saw_kind = false;
  bool saw_target = false;
  bool saw_source = false;
  bool saw_status = false;
  bool saw_error = false;
  int faults_k = 1;
  std::int64_t detected = 0;
  std::int64_t masked = 0;
  SweepResult result;
  LineParser parser(line);
  parser.expect('{');
  if (!parser.consume('}')) {
    do {
      const std::string field = parser.parse_string();
      parser.expect(':');
      if (field == "schema") {
        const int schema = parser.parse_int_count();
        if (schema != kSchemaVersion) [[unlikely]] {
          throw ScfiError("result store: schema version " + std::to_string(schema) +
                          " is not readable (only v" + std::to_string(kSchemaVersion) +
                          "); regenerate the store by re-running its sweep");
        }
        saw_schema = true;
      } else if (field == "type") {
        type_str = parser.parse_string();
      } else if (field == "key") {
        parser.parse_string();  // derived; recomputed from the job fields
      } else if (field == "source") {
        result.job.source = parser.parse_string();
        saw_source = true;
      } else if (field == "status") {
        result.status = job_status_of(parser.parse_string());
        saw_status = true;
      } else if (field == "error") {
        result.error = parser.parse_string();
        saw_error = true;
      } else if (field == "attempts") {
        result.attempts = parser.parse_int_count();
      } else if (field == "worker") {
        result.worker = parser.parse_string();
      } else if (field == "module") {
        result.job.module = parser.parse_string();
      } else if (field == "variant") {
        result.job.variant = parser.parse_string();
      } else if (field == "level") {
        result.job.protection_level = parser.parse_int_count();
      } else if (field == "region") {
        result.job.synfi.wire_prefix = parser.parse_string();
      } else if (field == "include_inputs") {
        result.job.synfi.include_inputs = parser.parse_bool();
      } else if (field == "backend") {
        result.job.synfi.backend = backend_of(parser.parse_string());
      } else if (field == "kind") {
        kind_str = parser.parse_string();
        saw_kind = true;
      } else if (field == "target") {
        target_str = parser.parse_string();
        saw_target = true;
      } else if (field == "faults_k") {
        faults_k = parser.parse_int_count();
      } else if (field == "protection_degree") {
        result.protection_degree = parser.parse_int_count();
      } else if (field == "free_symbol") {
        result.job.synfi.free_symbol = parser.parse_bool();
      } else if (field == "runs") {
        result.job.campaign.runs = parser.parse_int_count();
      } else if (field == "cycles") {
        result.job.campaign.cycles = parser.parse_int_count();
      } else if (field == "faults") {
        result.job.campaign.fault.k = parser.parse_int_count();
      } else if (field == "seed") {
        result.job.campaign.seed = parser.parse_uint();
      } else if (field == "hijacked") {
        result.campaign.hijacked = parser.parse_int_count();
      } else if (field == "lagged") {
        result.campaign.lagged = parser.parse_int_count();
      } else if (field == "silent_invalid") {
        result.campaign.silent_invalid = parser.parse_int_count();
      } else if (field == "sites") {
        result.report.sites = parser.parse_int64();
      } else if (field == "injections") {
        result.report.injections = parser.parse_int64();
      } else if (field == "exploitable") {
        result.report.exploitable = parser.parse_int64();
      } else if (field == "detected") {
        detected = parser.parse_int64();
      } else if (field == "masked") {
        masked = parser.parse_int64();
      } else if (field == "stalls") {
        result.report.stalls = parser.parse_int64();
      } else if (field == "exploitable_sites") {
        result.report.exploitable_sites = parser.parse_string_array();
      } else if (field == "seconds") {
        result.seconds = parser.parse_number();
      } else {
        // Unknown fields are skipped so minor forward extensions do not
        // break old readers — but only scalar values, keeping this honest.
        if (parser.peek() == '"') {
          parser.parse_string();
        } else if (parser.peek() == 't' || parser.peek() == 'f') {
          parser.parse_bool();
        } else {
          parser.parse_number();
        }
      }
    } while (parser.consume(','));
    parser.expect('}');
  }
  require(saw_schema, "result store: JSONL line missing schema field");
  require(!result.job.module.empty(), "result store: JSONL line missing module field");
  require(!type_str.empty() && saw_source && saw_status,
          "result store: JSONL line missing a type, source, or status field");
  result.job.type = job_type_of(type_str);
  require(result.attempts >= 1, "result store: attempts must be >= 1");
  require(result.status == JobStatus::kFailed || !saw_error,
          "result store: only failed records can carry an error field");
  if (result.job.type == JobType::kCampaign) {
    if (saw_kind) result.job.campaign.fault.kinds = fault_kinds_of(kind_str);
    if (saw_target) result.job.campaign.fault.target = fault_target_of(target_str);
    require(detected <= INT_MAX && masked <= INT_MAX,
            "result store: integer out of range in JSONL line");
    result.campaign.runs = result.job.campaign.runs;
    result.campaign.detected = static_cast<int>(detected);
    result.campaign.masked = static_cast<int>(masked);
  } else {
    if (saw_kind) result.job.synfi.kind = fault_kind_of(kind_str);
    if (saw_target) result.job.synfi.target = fault_target_of(target_str);
    require(faults_k >= 1, "result store: faults_k must be >= 1");
    result.job.synfi.faults_k = faults_k;
    result.report.faults_k = faults_k;
    result.report.detected = detected;
    result.report.masked = masked;
  }
  return result;
}

ResultStore ResultStore::load(const std::string& path, bool recover_torn_tail) {
  ResultStore store;
  // A missing store is a fresh start; an existing-but-unreadable one must
  // NOT silently resume as empty (every completed job would re-execute).
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return store;
  std::ifstream in(path);
  if (!in.good()) [[unlikely]] throw ScfiError("result store: cannot read " + path);
  // Lines are collected before parsing so the final line is known up front:
  // recovery may salvage ONLY a torn last line, one without its newline
  // (the one shape a crash mid-append can leave); a malformed line anywhere
  // earlier, or a complete last line, is corruption no crash explains.
  std::vector<std::pair<std::size_t, std::string>> lines;
  std::string line;
  std::size_t line_no = 0;
  bool last_terminated = true;
  while (std::getline(in, line)) {
    ++line_no;
    std::string trimmed = trim(line);
    if (trimmed.empty()) continue;
    lines.emplace_back(line_no, std::move(trimmed));
    last_terminated = !in.eof();
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    try {
      store.add(parse_line(lines[i].second));
    } catch (const ScfiError& e) {
      if (recover_torn_tail && i + 1 == lines.size() && !last_terminated) {
        log_warn("result store: dropping torn final line at " + path + ":" +
                 std::to_string(lines[i].first) + " (" + e.what() +
                 "); the interrupted job will re-execute on resume");
        break;
      }
      throw ScfiError(path + ":" + std::to_string(lines[i].first) + ": " + e.what());
    }
  }
  return store;
}

void ResultStore::add(SweepResult result) {
  const std::string key = result.key();
  const auto it = index_.find(key);
  if (it != index_.end()) {
    results_[it->second] = std::move(result);
    return;
  }
  index_.emplace(key, results_.size());
  results_.push_back(std::move(result));
}

bool ResultStore::contains(const std::string& key) const { return index_.count(key) > 0; }

const SweepResult* ResultStore::find(const std::string& key) const {
  const auto it = index_.find(key);
  return it != index_.end() ? &results_[it->second] : nullptr;
}

void ResultStore::merge(const ResultStore& other) {
  for (const SweepResult& result : other.results_) add(result);
}

ResultStore::Diff ResultStore::diff(const ResultStore& left, const ResultStore& right) {
  Diff diff;
  for (const SweepResult& l : left.results_) {
    const SweepResult* r = right.find(l.key());
    if (r == nullptr) {
      diff.only_left.push_back(l.key());
    } else if (!reports_equal(l, *r)) {
      diff.changed.push_back(l.key());
    }
  }
  for (const SweepResult& r : right.results_) {
    if (left.find(r.key()) == nullptr) diff.only_right.push_back(r.key());
  }
  std::sort(diff.only_left.begin(), diff.only_left.end());
  std::sort(diff.only_right.begin(), diff.only_right.end());
  std::sort(diff.changed.begin(), diff.changed.end());
  return diff;
}

namespace {

/// fsync of an already-written file by path; throws on failure (a store the
/// caller believes durable must actually be on disk).
void fsync_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) [[unlikely]] {
    throw ScfiError("result store: cannot reopen " + path + " for fsync");
  }
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) [[unlikely]] throw ScfiError("result store: fsync of " + path + " failed");
}

}  // namespace

void ResultStore::save(const std::string& path) const {
  // Write-to-temp + fsync + atomic rename: the old in-place truncate lost
  // every record if the process died between the truncate and the final
  // flush. After the rename the directory entry is synced too, so the swap
  // itself survives a power cut.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.good()) [[unlikely]] throw ScfiError("result store: cannot write " + tmp);
    for (const SweepResult& result : results_) out << to_line(result) << "\n";
    out.flush();
    if (!out.good()) [[unlikely]] {
      throw ScfiError("result store: write to " + tmp + " failed");
    }
  }
  fsync_file(tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) [[unlikely]] {
    throw ScfiError("result store: cannot rename " + tmp + " over " + path);
  }
  StoreWriter::sync_parent_dir(path);
}

void ResultStore::append_line(const std::string& path, const SweepResult& result) {
  StoreWriter(path).append(result);
}

ResultStore::CompactStats ResultStore::compact_file(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) [[unlikely]] {
    throw ScfiError("store-compact: " + path + ": no such store file");
  }
  CompactStats stats;
  {
    std::ifstream in(path);
    if (!in.good()) [[unlikely]] {
      throw ScfiError("store-compact: " + path + ": cannot read store");
    }
    std::string line;
    while (std::getline(in, line)) {
      if (!trim(line).empty()) ++stats.lines;
    }
  }
  if (stats.lines == 0) [[unlikely]] {
    throw ScfiError("store-compact: " + path + ": store is empty");
  }
  const ResultStore store = load(path, /*recover_torn_tail=*/true);
  // All-torn is indistinguishable from pointing at a non-store file; either
  // way an atomic rewrite to zero records would destroy whatever was there.
  if (store.size() == 0) [[unlikely]] {
    throw ScfiError("store-compact: " + path + ": store holds no complete records");
  }
  store.save(path);
  stats.records = store.size();
  return stats;
}

}  // namespace scfi::sweep
