#include "sweep/module_source.h"

#include <algorithm>
#include <filesystem>
#include <tuple>

#include "base/error.h"
#include "base/log.h"
#include "base/strutil.h"
#include "frontends/verilog_parse.h"
#include "fsm/extract.h"
#include "fsm/kiss2.h"
#include "rtlil/design.h"

namespace scfi::sweep {
namespace {

bool matches_any(const std::string& name, const std::vector<std::string>& patterns) {
  for (const std::string& pattern : patterns) {
    if (glob_match(name, pattern)) return true;
  }
  return false;
}

/// Corpus label: explicit, or the directory's base name. A trailing slash
/// ("bench/corpus/", what shell completion produces) leaves filename()
/// empty; the base name is then one level up.
std::string derive_label(const std::string& kind, const std::filesystem::path& root,
                         const std::string& dir, const std::string& label) {
  if (!label.empty()) return label;
  std::filesystem::path base = root.filename();
  if (base.empty()) base = root.parent_path().filename();
  const std::string derived = base.generic_string();
  require(!derived.empty() && derived != "." && derived != "..",
          kind + ": cannot derive a label from '" + dir + "'; pass one explicitly");
  return derived;
}

CorpusFile load_kiss2(const std::string& path, const std::string& name) {
  CorpusFile file;
  file.entries.push_back({name, fsm::parse_kiss2_file(path, name), {}});
  return file;
}

CorpusFile load_verilog(const std::string& path, const std::string& name) {
  rtlil::Design design;
  const std::vector<rtlil::Module*> modules = frontends::read_verilog_file(path, design);
  CorpusFile file;
  for (const rtlil::Module* module : modules) {
    const std::string module_name = modules.size() == 1 ? name : name + "/" + module->name();
    std::vector<fsm::ExtractedFsm> machines;
    try {
      machines = fsm::extract_fsms(*module);
    } catch (const ScfiError& e) {
      file.skipped.emplace_back(module_name, e.what());
      continue;
    }
    // A netlist without a state machine cannot feed the hardening sweep;
    // record it instead of silently shrinking the corpus.
    if (machines.empty()) {
      file.skipped.emplace_back(module_name, "no FSM found in module " + module->name());
    }
    for (fsm::ExtractedFsm& machine : machines) {
      const std::string entry_name =
          machines.size() == 1 ? module_name : module_name + "." + machine.state_wire;
      file.entries.push_back({entry_name, std::move(machine.fsm), {}});
    }
  }
  return file;
}

}  // namespace

std::vector<ot::OtEntry> ZooSource::modules(const std::string& globs) const {
  return ot::ot_entries(globs);
}

ot::OtEntry ZooSource::module(const std::string& name) const { return ot::ot_entry(name); }

CorpusSource::CorpusSource(const std::string& kind, const std::string& dir,
                           const std::string& label, const std::string& extension,
                           Loader load)
    : kind_(kind) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path root = fs::path(dir).lexically_normal();
  require(fs::is_directory(root, ec),
          kind + ": " + dir + " is not a directory of " + extension + " files");
  label_ = derive_label(kind, root, dir, label);

  const auto skip = [&](const std::string& name, const std::string& path,
                        const std::string& reason) {
    errors_.push_back(CorpusError{name, path, reason});
    log_warn(kind + ": skipping " + name + " (" + path + "): " + reason);
  };
  struct Found {
    ot::OtEntry entry;
    std::string path;
  };
  std::vector<Found> found;
  for (const fs::directory_entry& file :
       fs::recursive_directory_iterator(root, fs::directory_options::skip_permission_denied)) {
    if (!file.is_regular_file(ec) || file.path().extension() != extension) continue;
    const std::string path = file.path().generic_string();
    const std::string name =
        file.path().lexically_relative(root).replace_extension().generic_string();
    CorpusFile loaded;
    try {
      loaded = load(path, name);
    } catch (const ScfiError& e) {
      loaded.skipped.emplace_back(name, e.what());
    }
    for (const auto& [module, reason] : loaded.skipped) skip(module, path, reason);
    for (ot::OtEntry& entry : loaded.entries) {
      entry.fsm.name = entry.name;
      found.push_back(Found{std::move(entry), path});
    }
  }

  // Name sort; a name that several entries share identifies none of them,
  // so every one of them is skipped, naming the other paths.
  std::sort(found.begin(), found.end(), [](const Found& a, const Found& b) {
    return std::tie(a.entry.name, a.path) < std::tie(b.entry.name, b.path);
  });
  for (std::size_t i = 0, j = 0; i < found.size(); i = j) {
    while (j < found.size() && found[j].entry.name == found[i].entry.name) ++j;
    if (j - i == 1) {
      entries_.push_back(std::move(found[i].entry));
      continue;
    }
    for (std::size_t k = i; k < j; ++k) {
      std::string others;
      for (std::size_t o = i; o < j; ++o) {
        if (o != k) others += (others.empty() ? "" : ", ") + found[o].path;
      }
      skip(found[k].entry.name, found[k].path, "entry name also produced by " + others);
    }
  }
  std::sort(errors_.begin(), errors_.end(), [](const CorpusError& a, const CorpusError& b) {
    return std::tie(a.module, a.path) < std::tie(b.module, b.path);
  });
}

std::vector<ot::OtEntry> CorpusSource::modules(const std::string& globs) const {
  const std::vector<std::string> patterns = split(globs, ",");
  std::vector<ot::OtEntry> matched;
  for (const ot::OtEntry& entry : entries_) {
    if (matches_any(entry.name, patterns)) matched.push_back(entry);
  }
  return matched;
}

ot::OtEntry CorpusSource::module(const std::string& name) const {
  for (const ot::OtEntry& entry : entries_) {
    if (entry.name == name) return entry;
  }
  throw ScfiError(kind_ + " " + label_ + ": unknown module " + name);
}

Kiss2CorpusSource::Kiss2CorpusSource(const std::string& dir, const std::string& label)
    : CorpusSource("corpus", dir, label, ".kiss2", load_kiss2) {}

VerilogCorpusSource::VerilogCorpusSource(const std::string& dir, const std::string& label)
    : CorpusSource("corpus-verilog", dir, label, ".v", load_verilog) {}

}  // namespace scfi::sweep
