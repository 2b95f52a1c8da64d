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
// across the word), with the state register set to the code being expanded
// and the inputs outside the chosen bits at 0. Other registers are left to
// whatever they latched: recovery observes only the inputs its cones reach
// and the outputs whose cone holds this register and no other state, so no
// other register can change what it reads. The lanes are read back in
// combination order, so the BFS order, the state numbering, the cubes and
// the point where the `max_states` bound throws are those of one
// combination per eval(). Cubes are (care, value) bit words inside; guards
// become '0'/'1'/'-' strings only in the returned Fsm.
//
// extract_fsms() is the one entry: every FSM recovered anywhere (the
// Verilog corpus, `import-verilog`, the SCFI pass) comes through it.
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
};

/// One recovered machine. `state_codes[i]` is the register code of
/// `fsm.states[i]` (named "s<code>", reset state first).
struct ExtractedFsm {
  std::string state_wire;
  StateEncoding encoding = StateEncoding::kOther;
  std::vector<std::uint64_t> state_codes;
  Fsm fsm;
};

/// Recovers every candidate state register, in module wire order, as an Fsm
/// (validated by Fsm::check) over the input bits its cones reach and the
/// output bits whose cone holds it and no other state (named `w`, or `w[i]`
/// for a multi-bit port). A module with no FSM yields an empty vector
/// without error; a candidate exceeding the exhaustive bounds throws
/// ScfiError.
std::vector<ExtractedFsm> extract_fsms(const rtlil::Module& module,
                                       const ExtractOptions& options = {});

}  // namespace scfi::fsm
