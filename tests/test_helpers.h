// Shared helpers for the test suites: small reference FSMs and convenience
// builders.
#pragma once

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "fsm/fsm.h"
#include "rtlil/module.h"
#include "rtlil/validate.h"

namespace scfi::test {

/// The four-state example FSM of the paper's Figure 2 (S0..S3 with guarded
/// forward edges and a reset loop).
inline fsm::Fsm paper_fsm() {
  fsm::Fsm f;
  f.name = "paper_fig2";
  f.inputs = {"x0", "x1", "x2", "x3"};
  f.outputs = {"y0", "y1"};
  f.add_transition("S0", "1---", "S1", "10");
  f.add_transition("S0", "01--", "S2", "01");
  f.add_transition("S1", "--1-", "S3", "11");
  f.add_transition("S2", "---1", "S3", "11");
  f.add_transition("S3", "1---", "S0", "00");
  f.reset_state = 0;
  return f;
}

/// A 14-transition FSM mirroring the one used for the paper's formal
/// analysis (§6.4: "an FSM with 14 state transitions").
inline fsm::Fsm synfi_fsm() {
  fsm::Fsm f;
  f.name = "synfi14";
  f.inputs = {"a", "b", "c"};
  f.outputs = {"o"};
  f.add_transition("IDLE",  "1--", "CFG",   "0");
  f.add_transition("CFG",   "-1-", "ARM",   "0");
  f.add_transition("CFG",   "-00", "IDLE",  "0");
  f.add_transition("ARM",   "--1", "FIRE",  "1");
  f.add_transition("ARM",   "1-0", "CFG",   "0");
  f.add_transition("FIRE",  "1--", "COOL",  "0");
  f.add_transition("FIRE",  "01-", "ARM",   "0");
  f.add_transition("COOL",  "-1-", "IDLE",  "0");
  f.add_transition("COOL",  "-01", "ARM",   "0");
  // Plus implicit idle self-loops on IDLE/CFG/ARM/FIRE/COOL -> 14 CFG edges.
  f.reset_state = 0;
  return f;
}

/// Tiny two-state toggle machine.
inline fsm::Fsm toggle_fsm() {
  fsm::Fsm f;
  f.name = "toggle";
  f.inputs = {"t"};
  f.outputs = {"q"};
  f.add_transition("OFF", "1", "ON", "1");
  f.add_transition("ON", "1", "OFF", "0");
  f.reset_state = 0;
  return f;
}

/// `bits`, an assignment of `from`'s inputs, restricted to `to`'s inputs,
/// matched by name (a recovered machine keeps a subset of the source's).
inline std::vector<bool> inputs_by_name(const fsm::Fsm& from, const fsm::Fsm& to,
                                        const std::vector<bool>& bits) {
  std::vector<bool> out;
  for (const std::string& name : to.inputs) {
    const auto at = std::find(from.inputs.begin(), from.inputs.end(), name);
    out.push_back(bits.at(static_cast<std::size_t>(at - from.inputs.begin())));
  }
  return out;
}

/// The driving cell of every driven wire bit of `module`.
inline std::unordered_map<rtlil::SigBit, const rtlil::Cell*> drivers(const rtlil::Module& module) {
  std::unordered_map<rtlil::SigBit, const rtlil::Cell*> out;
  for (const rtlil::Cell* cell : module.cells()) {
    for (const rtlil::SigBit& bit : cell->port(rtlil::output_port(cell->type())).bits()) {
      out.emplace(bit, cell);
    }
  }
  return out;
}

/// Whether a combinational cell drives `bit` (`driver` from drivers()).
inline bool comb_driven(const std::unordered_map<rtlil::SigBit, const rtlil::Cell*>& driver,
                        const rtlil::SigBit& bit) {
  const auto it = driver.find(bit);
  return it != driver.end() && !rtlil::is_ff(it->second->type());
}

}  // namespace scfi::test
