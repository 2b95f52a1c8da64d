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

/// One corpus file the scan could not ingest (.kiss2 parse error, Verilog
/// parse/elaboration error, FSM extraction failure). Recorded (and logged)
/// loudly per module instead of aborting the whole sweep: one malformed
/// benchmark must not take down a corpus-scale campaign.
struct CorpusError {
  std::string module;   ///< module name the file would have had
  std::string path;     ///< file path as discovered
  std::string message;  ///< the parse error
};

/// A directory of `.kiss2` files, discovered recursively at construction.
/// Module names are the file paths relative to the corpus root, minus the
/// `.kiss2` extension, with '/' separators (e.g. "mcnc/lion"); entries are
/// name-sorted so discovery order is deterministic across filesystems.
class Kiss2CorpusSource final : public ModuleSource {
 public:
  /// Scans `dir` (throws ScfiError when it is not a directory). `label`
  /// defaults to the directory's base name, e.g. "corpus" for
  /// "bench/corpus/".
  explicit Kiss2CorpusSource(const std::string& dir, const std::string& label = "");

  std::string label() const override { return label_; }
  std::vector<ot::OtEntry> modules(const std::string& globs) const override;
  ot::OtEntry module(const std::string& name) const override;

  /// Files that failed to parse during the scan (already logged as
  /// warnings); the sweep runs on over the remaining entries.
  const std::vector<CorpusError>& errors() const { return errors_; }
  std::size_t size() const { return entries_.size(); }

 private:
  std::string label_;
  std::vector<ot::OtEntry> entries_;  ///< parse-clean entries, name-sorted
  std::vector<CorpusError> errors_;
};

/// A directory of structural Verilog netlists (`.v`), discovered recursively
/// at construction. Every file goes through the frontends reader
/// (parse + elaborate + validate) and each module's state machines are
/// recovered by fsm::extract_fsms — the paper's real-RTL front door: the
/// sweep hardens what was *extracted from a netlist*, not a hand-written
/// FSM description.
///
/// Entry names are the file path relative to the corpus root minus the `.v`
/// extension (like the KISS2 corpus); a file with several modules appends
/// "/<module>", and a module with several state registers appends
/// ".<state_wire>", so every extracted machine has a stable store key.
/// Files that fail to parse/elaborate — and modules where no FSM can be
/// extracted — become loud per-module CorpusErrors, and the sweep runs on.
class VerilogCorpusSource final : public ModuleSource {
 public:
  /// Scans `dir` (throws ScfiError when it is not a directory). `label`
  /// defaults to the directory's base name, e.g. "corpus-verilog" for
  /// "bench/corpus-verilog/".
  explicit VerilogCorpusSource(const std::string& dir, const std::string& label = "");

  std::string label() const override { return label_; }
  std::vector<ot::OtEntry> modules(const std::string& globs) const override;
  ot::OtEntry module(const std::string& name) const override;

  const std::vector<CorpusError>& errors() const { return errors_; }
  std::size_t size() const { return entries_.size(); }

 private:
  std::string label_;
  std::vector<ot::OtEntry> entries_;  ///< extraction-clean entries, name-sorted
  std::vector<CorpusError> errors_;
};

}  // namespace scfi::sweep
