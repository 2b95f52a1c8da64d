// The OpenTitan-inspired evaluation module zoo (paper Table 1).
//
// Each entry provides the control FSM and a datapath builder that adds the
// surrounding module logic (timers, accumulators, shifters) sized so that
// the unprotected module area is in the ballpark of the paper's GE numbers.
// The FSMs re-create the state/transition structure of their OpenTitan
// namesakes; see DESIGN.md for the substitution rationale.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "fsm/compile.h"
#include "rtlil/design.h"
#include "synth/stat.h"

namespace scfi::ot {

struct OtEntry {
  std::string name;
  fsm::Fsm fsm;
  /// Adds the module's datapath; may read the FSM's output port wires.
  std::function<void(rtlil::Module&)> datapath;
};

// One factory per module (each in its own translation unit).
OtEntry adc_ctrl_entry();
OtEntry aes_control_entry();
OtEntry i2c_entry();
OtEntry ibex_controller_entry();
OtEntry ibex_lsu_entry();
OtEntry otbn_controller_entry();
OtEntry pwrmgr_entry();

/// All seven modules in Table 1 order.
std::vector<OtEntry> ot_zoo();

/// Lookup by name; throws ScfiError when unknown.
OtEntry ot_entry(const std::string& name);

/// Every zoo module whose name matches one of the comma-separated glob
/// patterns (`*`/`?`), in Table 1 order. "pwrmgr_fsm,i2c*" selects two
/// modules; "*" selects the whole zoo. Empty result is allowed.
std::vector<OtEntry> ot_entries(const std::string& globs);

enum class Variant { kUnprotected, kRedundancy, kScfi };

/// Compiles the FSM in the requested variant and attaches the datapath;
/// the module is checked when it is flattened. `module_name` must be unique
/// within the design.
fsm::CompiledFsm build_ot_variant(const OtEntry& entry, rtlil::Design& design, Variant variant,
                                  int protection_level, const std::string& module_name);

/// Lowers to gates, optimizes, and returns the area report.
synth::AreaReport synthesize_area(rtlil::Module& module);

}  // namespace scfi::ot
