// End-to-end SCFI pass over a design: recover the FSM held in a compiled
// module's state register (fsm::extract_fsm, over the module's whole
// interface), harden it, and report — the analog of inserting the SCFI pass
// into the Yosys flow (paper §5).
#pragma once

#include <optional>
#include <string>

#include "core/harden.h"
#include "rtlil/design.h"
#include "synfi/synfi.h"

namespace scfi::core {

struct PassOptions {
  ScfiConfig config;
  /// State register of the source module; must be a self-contained
  /// register (fsm::find_state_registers), else the pass throws ScfiError.
  std::string state_wire = "state_q";
  /// Run the SYNFI-style exhaustive fault analysis on the hardened module as
  /// part of the pass (the paper's §7 "integrate the formal analysis into
  /// the Yosys pass" extension). Throws ScfiError when faults inside the
  /// MDS diffusion layer turn out exploitable.
  bool verify = false;
};

struct PassResult {
  fsm::CompiledFsm hardened;
  ScfiReport report;
  fsm::Fsm extracted;  ///< the FSM recovered from the netlist
  std::optional<synfi::SynfiReport> verification;  ///< set when verify = true
};

/// Extracts the FSM from `module_name` inside `design` and adds the hardened
/// module next to it.
PassResult run_scfi_pass(rtlil::Design& design, const std::string& module_name,
                         const PassOptions& options = {});

}  // namespace scfi::core
