// Where a sweep job matrix draws its modules from.
//
// The paper's evaluation runs over two very different module populations:
// the OpenTitan-style zoo (§6, Table 1 — built-in factories with datapaths)
// and the MCNC/LGSynth KISS2 benchmark corpus (§6 — bare state machines
// from .kiss2 files). `ModuleSource` abstracts over both so the orchestrator
// and the job-matrix expanders never care which population a module came
// from; the source's `label()` is threaded through `SweepJob::source` into
// the result-store keys, keeping zoo and corpus results
// distinguishable — and resumable — in one JSONL store.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "ot/zoo.h"

namespace scfi::sweep {

/// Abstract module population. Entries are `ot::OtEntry`s; corpus entries
/// simply carry no datapath builder (`build_ot_variant` skips the attach).
class ModuleSource {
 public:
  virtual ~ModuleSource() = default;

  /// Corpus identity threaded into job keys and the JSONL store. "" is the
  /// built-in zoo — zoo keys carry no source prefix. The
  /// label, not the directory path, is the resume/diff identity, so a
  /// relative and an absolute path to the same corpus produce the same keys.
  virtual std::string label() const = 0;

  /// Every entry whose name matches one of the comma-separated glob
  /// patterns (`*`/`?`), in the source's canonical order. May be empty
  /// (callers decide whether that is an error).
  virtual std::vector<ot::OtEntry> modules(const std::string& globs) const = 0;

  /// Entry by exact name; throws ScfiError when unknown.
  virtual ot::OtEntry module(const std::string& name) const = 0;
};

/// The built-in OpenTitan zoo, Table 1 order.
class ZooSource final : public ModuleSource {
 public:
  std::string label() const override { return ""; }
  std::vector<ot::OtEntry> modules(const std::string& globs) const override;
  ot::OtEntry module(const std::string& name) const override;
};

/// One corpus entry the scan could not ingest (.kiss2 parse error, Verilog
/// parse/elaboration error, FSM extraction failure, entry name collision).
/// Recorded (and logged) loudly per module instead of aborting the whole
/// sweep: one malformed benchmark must not take down a corpus-scale
/// campaign.
struct CorpusError {
  std::string module;   ///< entry name the module would have had
  std::string path;     ///< file path as discovered
  std::string message;  ///< why it was skipped
};

/// What one corpus file yields: named machines, and the modules in it that
/// were skipped as (entry name, reason).
struct CorpusFile {
  std::vector<ot::OtEntry> entries;
  std::vector<std::pair<std::string, std::string>> skipped;
};

/// A directory of module files, scanned recursively once at construction.
/// Entry names are the file path relative to the corpus root minus the
/// extension, with '/' separators (e.g. "mcnc/lion"); a file that holds
/// several machines suffixes them (see VerilogCorpusSource). Entries are
/// bare FSMs (no datapath), name-sorted so discovery order is deterministic
/// across filesystems. Whatever the scan skips — an unreadable or malformed
/// file, a module without an FSM, every entry whose name another entry also
/// has — becomes a CorpusError and a logged warning, and the sweep runs on
/// over the rest.
class CorpusSource : public ModuleSource {
 public:
  std::string label() const override { return label_; }
  std::vector<ot::OtEntry> modules(const std::string& globs) const override;
  ot::OtEntry module(const std::string& name) const override;

  /// What the scan skipped (already logged), sorted by module name.
  const std::vector<CorpusError>& errors() const { return errors_; }
  std::size_t size() const { return entries_.size(); }

 protected:
  /// Reads one file, given its path and base entry name. A loader that
  /// throws ScfiError skips the whole file under that name.
  using Loader = CorpusFile (*)(const std::string& path, const std::string& name);

  /// Scans `dir` for `extension` files, handing each to `load` with its
  /// path and base entry name (throws ScfiError when `dir` is not a
  /// directory). `kind` prefixes messages; `label` defaults to the
  /// directory's base name.
  CorpusSource(const std::string& kind, const std::string& dir, const std::string& label,
               const std::string& extension, Loader load);

 private:
  std::string kind_;
  std::string label_;
  std::vector<ot::OtEntry> entries_;  ///< name-sorted, unique names
  std::vector<CorpusError> errors_;
};

/// A directory of `.kiss2` files (fsm::parse_kiss2_file), one machine per
/// file.
class Kiss2CorpusSource final : public CorpusSource {
 public:
  /// `label` defaults to the directory's base name, e.g. "corpus" for
  /// "bench/corpus/".
  explicit Kiss2CorpusSource(const std::string& dir, const std::string& label = "");
};

/// A directory of structural Verilog netlists (`.v`). Every file goes
/// through the frontends reader (parse + elaborate + validate) and each
/// module's state machines are recovered by fsm::extract_fsms — the paper's
/// real-RTL front door: the sweep hardens what was *extracted from a
/// netlist*, not a hand-written FSM description.
///
/// A file with several modules appends "/<module>" to the entry name, and a
/// module with several state registers appends ".<state_wire>", so every
/// extracted machine has a stable store key. A module without an FSM is a
/// CorpusError like a file that fails to parse or elaborate.
class VerilogCorpusSource final : public CorpusSource {
 public:
  /// `label` defaults to the directory's base name, e.g. "corpus-verilog"
  /// for "bench/corpus-verilog/".
  explicit VerilogCorpusSource(const std::string& dir, const std::string& label = "");
};

}  // namespace scfi::sweep
