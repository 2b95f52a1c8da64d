#include "fsm/fsm.h"

#include <algorithm>
#include <deque>
#include <set>
#include <span>

#include "base/error.h"

namespace scfi::fsm {
namespace {

/// The least input in `cube` (a guard-like pattern) that the guards of
/// `ts` do not match, reading inputs as numbers over the cube's '-'
/// positions, the highest most significant; every '-' lies below `limit`.
/// Splits the highest '-', 0 first: a sub-cube inside a guard holds no such
/// input, one that meets no guard holds its all-zero completion, and only
/// the guards that meet a cube are passed on to its halves.
std::optional<std::vector<bool>> least_uncovered(const std::vector<Transition>& transitions,
                                                 std::span<const int> ts, std::string cube,
                                                 std::size_t limit = std::string::npos) {
  std::vector<int> meeting;
  for (const int t : ts) {
    const std::string& guard = transitions[static_cast<std::size_t>(t)].guard;
    check(guard.size() == cube.size(), "least_uncovered: width mismatch");
    bool meets = true;
    bool covers = true;
    for (std::size_t i = 0; i < cube.size() && meets; ++i) {
      if (guard[i] == '-') continue;
      covers = covers && cube[i] != '-';
      meets = cube[i] == '-' || guard[i] == cube[i];
    }
    if (meets && covers) return std::nullopt;
    if (meets) meeting.push_back(t);
  }
  if (meeting.empty()) {
    std::vector<bool> bits(cube.size());
    for (std::size_t i = 0; i < cube.size(); ++i) bits[i] = cube[i] == '1';
    return bits;
  }
  // A guard that meets the cube without covering it fixes one of its '-'.
  const std::size_t pos = cube.rfind('-', limit - 1);
  for (const char half : {'0', '1'}) {
    cube[pos] = half;
    auto found = least_uncovered(transitions, meeting, cube, pos);
    if (found.has_value()) return found;
  }
  return std::nullopt;
}

}  // namespace

int Fsm::state_index(const std::string& state_name) const {
  for (std::size_t i = 0; i < states.size(); ++i) {
    if (states[i] == state_name) return static_cast<int>(i);
  }
  return -1;
}

int Fsm::add_state(const std::string& state_name) {
  const int existing = state_index(state_name);
  if (existing >= 0) return existing;
  states.push_back(state_name);
  return static_cast<int>(states.size()) - 1;
}

void Fsm::add_transition(const std::string& from, const std::string& guard, const std::string& to,
                         const std::string& output) {
  Transition t;
  t.from = add_state(from);
  t.to = add_state(to);
  t.guard = guard;
  t.output = output.empty() ? std::string(outputs.size(), '-') : output;
  transitions.push_back(std::move(t));
}

std::vector<std::string> Fsm::symbols() const {
  std::set<std::string> set;
  for (const Transition& t : transitions) set.insert(t.guard);
  // States whose guards do not cover the whole input space need the
  // implicit idle symbol.
  for (int s = 0; s < num_states(); ++s) {
    if (concrete_input_for_idle(s).has_value()) {
      set.insert(idle_symbol());
      break;
    }
  }
  return std::vector<std::string>(set.begin(), set.end());
}

std::vector<CfgEdge> Fsm::cfg_edges() const {
  std::vector<CfgEdge> edges;
  const std::string idle = idle_symbol();
  for (int s = 0; s < num_states(); ++s) {
    for (int ti : transitions_from(s)) {
      const Transition& t = transitions[static_cast<std::size_t>(ti)];
      edges.push_back(CfgEdge{s, t.guard, t.to, t.output, ti});
    }
    // The implicit stay edge exists only when some input matches no guard.
    if (concrete_input_for_idle(s).has_value()) {
      edges.push_back(CfgEdge{s, idle, s, std::string(outputs.size(), '0'), -1});
    }
  }
  return edges;
}

std::vector<int> Fsm::transitions_from(int s) const {
  std::vector<int> out;
  for (std::size_t i = 0; i < transitions.size(); ++i) {
    if (transitions[i].from == s) out.push_back(static_cast<int>(i));
  }
  return out;
}

bool Fsm::guard_matches(const std::string& guard, const std::vector<bool>& input_bits) {
  scfi::check(guard.size() == input_bits.size(), "guard_matches: width mismatch");
  for (std::size_t i = 0; i < guard.size(); ++i) {
    if (guard[i] == '-') continue;
    if ((guard[i] == '1') != input_bits[i]) return false;
  }
  return true;
}

std::optional<std::vector<bool>> Fsm::concrete_input_for(int t) const {
  const std::vector<int> from = transitions_from(transitions[static_cast<std::size_t>(t)].from);
  const auto at = std::find(from.begin(), from.end(), t);
  return least_uncovered(transitions, std::span<const int>(from.begin(), at),
                         transitions[static_cast<std::size_t>(t)].guard);
}

std::optional<std::vector<bool>> Fsm::concrete_input_for_idle(int state) const {
  return least_uncovered(transitions, transitions_from(state), std::string(inputs.size(), '-'));
}

CfgEdge Fsm::step_symbol(int state, const std::string& symbol) const {
  for (int ti : transitions_from(state)) {
    const Transition& t = transitions[static_cast<std::size_t>(ti)];
    if (t.guard == symbol) return CfgEdge{state, t.guard, t.to, t.output, ti};
  }
  require(symbol == idle_symbol(),
          "step_symbol: state " + states[static_cast<std::size_t>(state)] +
              " has no edge for symbol " + symbol);
  return CfgEdge{state, symbol, state, std::string(outputs.size(), '0'), -1};
}

std::pair<int, int> Fsm::step_raw(int state, const std::vector<bool>& input_bits) const {
  for (int ti : transitions_from(state)) {
    if (guard_matches(transitions[static_cast<std::size_t>(ti)].guard, input_bits)) {
      return {transitions[static_cast<std::size_t>(ti)].to, ti};
    }
  }
  return {state, -1};
}

void Fsm::check() const {
  require(!states.empty(), "fsm " + name + ": no states");
  require(reset_state >= 0 && reset_state < num_states(), "fsm " + name + ": bad reset state");
  std::set<std::string> state_names(states.begin(), states.end());
  require(state_names.size() == states.size(), "fsm " + name + ": duplicate state names");
  for (std::size_t i = 0; i < transitions.size(); ++i) {
    const Transition& t = transitions[i];
    require(t.from >= 0 && t.from < num_states() && t.to >= 0 && t.to < num_states(),
            "fsm " + name + ": transition with invalid state index");
    require(t.guard.size() == inputs.size(),
            "fsm " + name + ": guard width mismatch on transition " + std::to_string(i));
    require(t.output.size() == outputs.size(),
            "fsm " + name + ": output width mismatch on transition " + std::to_string(i));
    for (char c : t.guard) require(c == '0' || c == '1' || c == '-', "bad guard char");
    for (char c : t.output) require(c == '0' || c == '1' || c == '-', "bad output char");
  }
  // Each state's transitions in priority order, built once: the checks
  // below visit every transition, so a per-transition transitions_from()
  // would make them quadratic in the transition count.
  std::vector<std::vector<int>> from(static_cast<std::size_t>(num_states()));
  std::vector<std::size_t> rank(transitions.size());  // position in its state's list
  for (std::size_t i = 0; i < transitions.size(); ++i) {
    std::vector<int>& ts = from[static_cast<std::size_t>(transitions[i].from)];
    rank[i] = ts.size();
    ts.push_back(static_cast<int>(i));
  }
  for (int s = 0; s < num_states(); ++s) {
    std::set<std::string> guards;
    for (int ti : from[static_cast<std::size_t>(s)]) {
      const auto [unused, inserted] =
          guards.insert(transitions[static_cast<std::size_t>(ti)].guard);
      require(inserted, "fsm " + name + ": duplicate guard in state " +
                            states[static_cast<std::size_t>(s)]);
    }
  }
  for (std::size_t i = 0; i < transitions.size(); ++i) {
    const std::vector<int>& ts = from[static_cast<std::size_t>(transitions[i].from)];
    require(least_uncovered(transitions, std::span<const int>(ts.data(), rank[i]),
                            transitions[i].guard)
                .has_value(),
            "fsm " + name + ": transition " + std::to_string(i) + " is fully shadowed");
  }
  // Reachability from reset over CFG edges.
  std::vector<bool> seen(static_cast<std::size_t>(num_states()), false);
  std::deque<int> queue{reset_state};
  seen[static_cast<std::size_t>(reset_state)] = true;
  while (!queue.empty()) {
    const int s = queue.front();
    queue.pop_front();
    for (int ti : from[static_cast<std::size_t>(s)]) {
      const int to = transitions[static_cast<std::size_t>(ti)].to;
      if (!seen[static_cast<std::size_t>(to)]) {
        seen[static_cast<std::size_t>(to)] = true;
        queue.push_back(to);
      }
    }
  }
  for (int s = 0; s < num_states(); ++s) {
    require(seen[static_cast<std::size_t>(s)],
            "fsm " + name + ": state " + states[static_cast<std::size_t>(s)] + " unreachable");
  }
}

}  // namespace scfi::fsm
