#include "core/pass.h"

#include "base/error.h"
#include "fsm/extract.h"

namespace scfi::core {

std::vector<PassResult> run_scfi_pass(rtlil::Design& design, const std::string& module_name,
                                      const ScfiConfig& config) {
  const rtlil::Module* source = design.module(module_name);
  require(source != nullptr, "run_scfi_pass: no module " + module_name);

  std::vector<fsm::ExtractedFsm> machines = fsm::extract_fsms(*source);
  std::vector<PassResult> results(machines.size());
  for (std::size_t i = 0; i < machines.size(); ++i) {
    PassResult& result = results[i];
    result.extracted = std::move(machines[i].fsm);
    // The hardened module is named after the source module (and the state
    // register, when it holds several machines), as load_verilog names
    // corpus entries.
    result.extracted.name =
        machines.size() == 1 ? module_name : module_name + "_" + machines[i].state_wire;
    result.hardened = scfi_harden(result.extracted, design, config, &result.report);
  }
  return results;
}

}  // namespace scfi::core
