// KISS2 flow: consume an FSM in the classic MCNC benchmark format, harden
// it, and emit DOT (CFG), Verilog (hardened netlist) and a KISS2 round-trip
// — the interoperability path for third-party state machines.
#include <cstdio>
#include <iostream>

#include "backends/verilog.h"
#include "base/error.h"
#include "core/harden.h"
#include "fsm/dot.h"
#include "fsm/kiss2.h"
#include "rtlil/design.h"

namespace {

// dk27-style tiny MCNC benchmark (inlined so the example is self-contained;
// the original's unreachable state7 is pruned so the spec passes check()).
const char* kKiss2 = R"(
.i 1
.o 2
.s 6
.p 12
.r START
0 START state6 00
1 START state4 00
0 state2 state5 00
1 state2 state3 00
0 state3 state5 00
1 state3 START  01
0 state4 state6 00
1 state4 state6 10
0 state5 START  10
1 state5 state2 10
0 state6 state5 01
1 state6 state2 01
.e
)";

}  // namespace

int main(int argc, char** argv) {
  scfi::fsm::Fsm fsm;
  try {
    fsm = argc > 1 ? scfi::fsm::parse_kiss2_file(argv[1], "dk27")
                   : scfi::fsm::parse_kiss2(kKiss2, "dk27");
  } catch (const scfi::ScfiError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  std::printf("parsed '%s': %d states, %zu transitions, %d inputs\n", fsm.name.c_str(),
              fsm.num_states(), fsm.transitions.size(), fsm.num_inputs());

  std::printf("\n--- control-flow graph (DOT) ---\n%s\n", scfi::fsm::to_dot(fsm).c_str());

  scfi::rtlil::Design design;
  scfi::core::ScfiConfig config;
  config.protection_level = 2;
  scfi::core::ScfiReport report;
  const scfi::fsm::CompiledFsm hard = scfi::core::scfi_harden(fsm, design, config, &report);
  std::printf("--- hardened: %d CFG edges, %d lane(s), modifier width %d ---\n",
              report.cfg_edges, report.lanes, report.mod_width);

  std::printf("\n--- hardened netlist (Verilog) ---\n");
  scfi::backends::write_verilog(*hard.module, std::cout);

  std::printf("\n--- KISS2 round-trip ---\n%s", scfi::fsm::write_kiss2(fsm).c_str());
  return 0;
}
