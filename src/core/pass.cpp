#include "core/pass.h"

#include "base/error.h"
#include "fsm/extract.h"

namespace scfi::core {

PassResult run_scfi_pass(rtlil::Design& design, const std::string& module_name,
                         const PassOptions& options) {
  rtlil::Module* source = design.module(module_name);
  require(source != nullptr, "run_scfi_pass: no module " + module_name);

  PassResult result;
  result.extracted = fsm::extract_fsm(*source, options.state_wire).fsm;
  // Reuse the source module's name for the hardened FSM.
  result.extracted.name = module_name;
  result.hardened = scfi_harden(result.extracted, design, options.config, &result.report);
  if (options.verify) {
    synfi::SynfiConfig synfi_config;  // MDS diffusion region, transient flips
    result.verification = synfi::analyze(result.extracted, result.hardened, synfi_config);
    require(result.verification->exploitable == 0,
            "run_scfi_pass: verification found exploitable faults in the diffusion layer of " +
                module_name);
  }
  return result;
}

}  // namespace scfi::core
