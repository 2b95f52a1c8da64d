#include "ot/zoo.h"

#include "base/error.h"
#include "base/strutil.h"
#include "core/harden.h"
#include "redundancy/redundancy.h"
#include "synth/lower.h"
#include "synth/opt.h"

namespace scfi::ot {

std::vector<OtEntry> ot_zoo() {
  std::vector<OtEntry> zoo;
  zoo.push_back(adc_ctrl_entry());
  zoo.push_back(aes_control_entry());
  zoo.push_back(i2c_entry());
  zoo.push_back(ibex_controller_entry());
  zoo.push_back(ibex_lsu_entry());
  zoo.push_back(otbn_controller_entry());
  zoo.push_back(pwrmgr_entry());
  return zoo;
}

OtEntry ot_entry(const std::string& name) {
  for (OtEntry& entry : ot_zoo()) {
    if (entry.name == name) return entry;
  }
  throw ScfiError("ot_entry: unknown module " + name);
}

std::vector<OtEntry> ot_entries(const std::string& globs) {
  const std::vector<std::string> patterns = split(globs, ",");
  std::vector<OtEntry> matched;
  for (OtEntry& entry : ot_zoo()) {
    for (const std::string& pattern : patterns) {
      if (glob_match(entry.name, pattern)) {
        matched.push_back(std::move(entry));
        break;
      }
    }
  }
  return matched;
}

fsm::CompiledFsm build_ot_variant(const OtEntry& entry, rtlil::Design& design, Variant variant,
                                  int protection_level, const std::string& module_name) {
  fsm::Fsm fsm = entry.fsm;
  fsm.name = module_name;
  fsm::CompiledFsm compiled;
  switch (variant) {
    case Variant::kUnprotected:
      compiled = fsm::compile_unprotected(fsm, design);
      break;
    case Variant::kRedundancy: {
      redundancy::RedundancyConfig config;
      config.protection_level = protection_level;
      config.module_suffix = "";
      compiled = redundancy::build_redundant(fsm, design, config);
      break;
    }
    case Variant::kScfi: {
      core::ScfiConfig config;
      config.protection_level = protection_level;
      config.module_suffix = "";
      compiled = core::scfi_harden(fsm, design, config);
      break;
    }
  }
  // Corpus-sourced entries (bare KISS2 machines) carry no datapath
  // builder. The module is checked where an engine reads it: rtlil::flatten
  // is the structural check.
  if (entry.datapath) entry.datapath(*compiled.module);
  return compiled;
}

synth::AreaReport synthesize_area(rtlil::Module& module) {
  synth::lower_to_gates(module);
  synth::optimize(module);
  return synth::area_report(module);
}

}  // namespace scfi::ot
