#include "fsm/fsm.h"

#include <algorithm>
#include <deque>
#include <set>
#include <span>

#include "base/error.h"

namespace scfi::fsm {

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
  return unshadowed_input(t, std::span<const int>(from.begin(), at));
}

std::optional<std::vector<bool>> Fsm::unshadowed_input(int t,
                                                       std::span<const int> earlier) const {
  const Transition& target = transitions[static_cast<std::size_t>(t)];
  // Collect the don't-care positions of the target guard.
  std::vector<std::size_t> free_pos;
  std::vector<bool> bits(inputs.size(), false);
  for (std::size_t i = 0; i < target.guard.size(); ++i) {
    if (target.guard[i] == '-') {
      free_pos.push_back(i);
    } else {
      bits[i] = target.guard[i] == '1';
    }
  }
  const auto shadowed = [&](const std::vector<bool>& cand) {
    for (int ti : earlier) {
      if (guard_matches(transitions[static_cast<std::size_t>(ti)].guard, cand)) return true;
    }
    return false;
  };
  // Exhaust the free positions (capped; specs in this repo are small).
  const std::size_t combos = free_pos.size() <= 16 ? (1ULL << free_pos.size()) : (1ULL << 16);
  for (std::size_t c = 0; c < combos; ++c) {
    std::vector<bool> cand = bits;
    for (std::size_t i = 0; i < free_pos.size() && i < 16; ++i) {
      cand[free_pos[i]] = (c >> i) & 1;
    }
    if (!shadowed(cand)) return cand;
  }
  return std::nullopt;
}

std::optional<std::vector<bool>> Fsm::concrete_input_for_idle(int state) const {
  const std::vector<int> from = transitions_from(state);
  const auto matches_any = [&](const std::vector<bool>& cand) {
    for (int ti : from) {
      if (guard_matches(transitions[static_cast<std::size_t>(ti)].guard, cand)) return true;
    }
    return false;
  };
  // Exhaust up to 2^16 assignments; FSMs in this repo have few inputs.
  const std::size_t n = inputs.size();
  const std::size_t combos = n <= 16 ? (1ULL << n) : (1ULL << 16);
  for (std::size_t c = 0; c < combos; ++c) {
    std::vector<bool> cand(n, false);
    for (std::size_t i = 0; i < n && i < 16; ++i) cand[i] = (c >> i) & 1;
    if (!matches_any(cand)) return cand;
  }
  return std::nullopt;
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
    require(unshadowed_input(static_cast<int>(i), std::span<const int>(ts.data(), rank[i]))
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
