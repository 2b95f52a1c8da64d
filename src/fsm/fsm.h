// Finite-state machine IR.
//
// An Fsm is the 5-tuple {S, X, Y, phi, lambda} of the paper (§2.2): named
// states, raw control bits (inputs), output bits, and a priority-ordered
// transition list with guard patterns over the control bits ('0', '1', '-').
//
// Control-symbol view (used by SCFI, R1): the input alphabet is the set of
// distinct guard strings. Every state additionally has an implicit lowest-
// priority self-loop on the all-dash "idle" symbol unless it already carries
// a catch-all guard. cfg_edges() materializes this complete edge list — the
// control-flow graph of Figure 2.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace scfi::fsm {

struct Transition {
  int from = 0;
  std::string guard;   ///< one char per input: '0', '1' or '-'
  int to = 0;
  std::string output;  ///< one char per output: '0', '1' or '-' (Mealy)
};

/// One edge of the control-flow graph in symbol space.
struct CfgEdge {
  int from = 0;
  std::string symbol;  ///< guard string; all-dash = idle/default
  int to = 0;
  std::string output;
  int transition_index = -1;  ///< -1 for the implicit idle self-loop
};

class Fsm {
 public:
  std::string name = "fsm";
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
  std::vector<std::string> states;
  int reset_state = 0;
  std::vector<Transition> transitions;

  int num_inputs() const { return static_cast<int>(inputs.size()); }
  int num_outputs() const { return static_cast<int>(outputs.size()); }
  int num_states() const { return static_cast<int>(states.size()); }

  /// Index of a state name; -1 when absent.
  int state_index(const std::string& name) const;

  /// Adds a state, returning its index (idempotent for existing names).
  int add_state(const std::string& name);

  /// Appends a transition (priority = insertion order within a state).
  void add_transition(const std::string& from, const std::string& guard, const std::string& to,
                      const std::string& output = "");

  /// The all-dash idle symbol for this FSM.
  std::string idle_symbol() const { return std::string(inputs.size(), '-'); }

  /// Distinct guard strings (sorted), including the idle symbol if any state
  /// needs the implicit self-loop.
  std::vector<std::string> symbols() const;

  /// Complete CFG in symbol space (explicit transitions + implicit idles).
  std::vector<CfgEdge> cfg_edges() const;

  /// Transitions leaving state `s`, in priority order.
  std::vector<int> transitions_from(int s) const;

  /// True when `input_bits[i]` (for input i) satisfies `guard`.
  static bool guard_matches(const std::string& guard, const std::vector<bool>& input_bits);

  /// A concrete input assignment that triggers exactly transition `t`
  /// (satisfies its guard, fails all higher-priority guards of the same
  /// state). nullopt when the transition is completely shadowed.
  std::optional<std::vector<bool>> concrete_input_for(int t) const;

  /// A concrete input assignment matching NO guard of `state` (drives the
  /// implicit idle self-loop). nullopt when the state has a catch-all guard.
  std::optional<std::vector<bool>> concrete_input_for_idle(int state) const;

  /// Raw-bit step (priority semantics). Returns resulting state and the index
  /// of the taken transition (-1 if none matched).
  std::pair<int, int> step_raw(int state, const std::vector<bool>& input_bits) const;

  /// Validates the machine; throws ScfiError describing the first problem.
  /// Checks: non-empty, consistent widths, valid state refs, no duplicate
  /// guards per state, no fully shadowed transitions, all states reachable.
  void check() const;
};

}  // namespace scfi::fsm
