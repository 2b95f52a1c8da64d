// FSM detection + recovery from an arbitrary netlist — the front half of
// Yosys' fsm_detect/fsm_extract (§5.1 of the paper: "our custom FSM
// protection pass identifies the unprotected FSM by utilizing the existing
// Yosys FSM passes").
//
// Detection is structural: a candidate state register is a wire whose bits
// are all flip-flop outputs and whose next-state cone's flip-flop support is
// exactly the wire itself (self-feeding and self-contained — datapath
// pipeline registers fail the self-feeding test, registers fed by other
// registers fail self-containment). Recovery is exhaustive simulation, BFS
// from the reset code over every combination of the chosen input bits,
// followed by adjacent-implicant cube compaction; the encoding of the
// discovered codes is classified as binary / one-hot / other.
//
// Both run on the module's one rtlil::flatten result: the cone traces read
// its ops by net id and its flip-flop table, and the simulator runs it.
//
// The recovery contract: every eval() settles 64 consecutive input
// combinations, one per lane of a 64-lane word (input bit i < 6 carries the
// fixed lane pattern of bit i of the lane number, bit i >= 6 is constant
// across the word), with the state register set to the code being expanded,
// the inputs outside the chosen bits at 0 and every other register at its
// reset value. The lanes are read back in combination order, so the BFS
// order, the state numbering, the cubes and the point where the
// `max_states` bound throws are those of one combination per eval().
// Cubes are (care, value) bit words inside; guards become '0'/'1'/'-'
// strings only in the returned Fsm.
//
// Two entries share that one recovery and differ only in the port bits they
// hand it. extract_fsms() discovers every candidate and keeps, per machine,
// the inputs its cones reach and the outputs that depend on it alone;
// extract_fsm() recovers one named register over the module's whole
// interface (every input and output bit), which is what the SCFI pass
// hardens.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fsm/fsm.h"
#include "rtlil/module.h"

namespace scfi::fsm {

enum class StateEncoding : std::uint8_t {
  kBinary,  ///< codes are exactly {0, ..., n-1}
  kOneHot,  ///< every code has exactly one bit set
  kOther,
};

const char* encoding_name(StateEncoding encoding);

struct ExtractOptions {
  int max_inputs = 14;   ///< exhaustive 2^n bound on the recovered input bits
  int max_states = 256;  ///< reachable-state bound (runaway counters)
  bool capture_outputs = true;
};

/// One recovered machine. `state_codes[i]` is the register code of
/// `fsm.states[i]` (named "s<code>", reset state first).
struct ExtractedFsm {
  std::string state_wire;
  StateEncoding encoding = StateEncoding::kOther;
  std::vector<std::uint64_t> state_codes;
  Fsm fsm;
};

/// Structural scan only (no simulation): names of candidate state-register
/// wires, in module wire order. Empty when the module has no FSM.
std::vector<std::string> find_state_registers(const rtlil::Module& module);

/// Recovers every candidate state register as an Fsm (validated by
/// Fsm::check). A module with no FSM yields an empty vector without error;
/// a candidate exceeding the exhaustive bounds throws ScfiError.
std::vector<ExtractedFsm> extract_fsms(const rtlil::Module& module,
                                       const ExtractOptions& options = {});

/// Recovers the machine held in `state_wire` over every input and output
/// bit of the module (inputs named `w` or `w[i]` for multi-bit ports, same
/// for outputs). Throws ScfiError naming the wire when it does not exist or
/// is not one of find_state_registers' self-contained registers, and when
/// the exhaustive bounds are exceeded.
ExtractedFsm extract_fsm(const rtlil::Module& module, const std::string& state_wire,
                         const ExtractOptions& options = {});

}  // namespace scfi::fsm
