// End-to-end SCFI pass over a design: recover every FSM held in a module
// (fsm::extract_fsms, the one recovery entry), harden each, and report — the
// analog of inserting the SCFI pass into the Yosys flow (paper §5), which
// hardens unprotected FSMs without user interaction.
#pragma once

#include <string>
#include <vector>

#include "core/harden.h"
#include "rtlil/design.h"

namespace scfi::core {

struct PassResult {
  fsm::CompiledFsm hardened;
  ScfiReport report;
  fsm::Fsm extracted;  ///< the FSM recovered from the netlist
};

/// Hardens every machine fsm::extract_fsms recovers from `module_name`
/// inside `design`, adding one module per machine next to it: named
/// `<module><suffix>` when the module holds one machine and
/// `<module>_<state_wire><suffix>` when it holds several. Returns the
/// results in the module wire order of their state registers; empty for a
/// module with no FSM. Throws ScfiError when there is no such module or a
/// machine exceeds the extraction bounds.
std::vector<PassResult> run_scfi_pass(rtlil::Design& design, const std::string& module_name,
                                      const ScfiConfig& config = {});

}  // namespace scfi::core
