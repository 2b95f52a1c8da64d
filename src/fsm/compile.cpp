#include "fsm/compile.h"

#include "base/error.h"

namespace scfi::fsm {
namespace {

using rtlil::Const;
using rtlil::Module;
using rtlil::SigBit;
using rtlil::SigSpec;

int minimal_width(int count) {
  int w = 1;
  while ((1LL << w) < count) ++w;
  return w;
}

SigSpec const_bit(bool v) { return SigSpec(SigBit(v)); }

/// Next state as a balanced AND-OR ROM over mutually exclusive edge
/// conditions: bit b is the OR of the conditions whose target code sets b,
/// plus a "stay" term that keeps the current bit when no condition holds
/// (always, for an empty edge set).
SigSpec build_next_state_rom(Module& m, const SigSpec& state, const std::vector<SigSpec>& conds,
                             const std::vector<std::uint64_t>& targets) {
  SigSpec all;
  for (const SigSpec& c : conds) all.append(c);
  const SigSpec stay = all.width() == 0 ? const_bit(true)
                                        : m.make_not(m.make_reduce_or(all, "anyact"), "stayc");
  SigSpec next;
  for (int bit = 0; bit < state.width(); ++bit) {
    SigSpec terms = m.make_and(stay, state.extract(bit, 1), "stayt");
    for (std::size_t e = 0; e < conds.size(); ++e) {
      if ((targets[e] >> bit) & 1) terms.append(conds[e]);
    }
    next.append(terms.width() == 1 ? terms : m.make_reduce_or(terms, "nsrom"));
  }
  return next;
}

}  // namespace

int CompiledFsm::decode_state(std::uint64_t reg_value) const {
  for (std::size_t i = 0; i < state_codes.size(); ++i) {
    if (state_codes[i] == reg_value) return static_cast<int>(i);
  }
  return -1;
}

std::vector<SigSpec> build_raw_edge_actives(Module& m, const Fsm& fsm, const SigSpec& state,
                                            const std::vector<SigSpec>& input_bits,
                                            const std::vector<std::uint64_t>& state_codes) {
  check(static_cast<int>(input_bits.size()) == fsm.num_inputs(),
        "build_raw_edge_actives: input count mismatch");
  // Guard match = AND over the fixed literals of the pattern.
  const auto guard_match = [&](const std::string& guard) -> SigSpec {
    SigSpec literals;
    for (std::size_t i = 0; i < guard.size(); ++i) {
      if (guard[i] == '-') continue;
      SigSpec bit = input_bits[i];
      if (guard[i] == '0') bit = m.make_not(bit, "gl");
      literals.append(bit);
    }
    if (literals.width() == 0) return const_bit(true);
    if (literals.width() == 1) return literals;
    return m.make_reduce_and(literals, "gm");
  };

  std::vector<SigSpec> actives(fsm.transitions.size());
  for (int s = 0; s < fsm.num_states(); ++s) {
    const SigSpec state_eq =
        m.make_eq(state, SigSpec(Const::from_uint(state_codes[static_cast<std::size_t>(s)],
                                                  state.width())),
                  "seq");
    SigSpec prev_any = const_bit(false);
    for (int ti : fsm.transitions_from(s)) {
      const Transition& t = fsm.transitions[static_cast<std::size_t>(ti)];
      const SigSpec match = guard_match(t.guard);
      const SigSpec not_prev = m.make_not(prev_any, "np");
      const SigSpec excl = m.make_and(match, not_prev, "ex");
      actives[static_cast<std::size_t>(ti)] = m.make_and(state_eq, excl, "act");
      prev_any = m.make_or(prev_any, match, "pa");
    }
  }
  return actives;
}

SigSpec build_symbol_next_state(Module& m, const Fsm& fsm, const SigSpec& state,
                                const SigSpec& xenc,
                                const std::vector<std::uint64_t>& state_codes,
                                const std::map<std::string, std::uint64_t>& symbol_codes) {
  // The edge conditions are mutually exclusive (distinct states or distinct
  // codewords), as the next-state ROM needs.
  std::vector<SigSpec> conds;
  std::vector<std::uint64_t> targets;
  for (const CfgEdge& e : fsm.cfg_edges()) {
    if (e.from == e.to && e.transition_index < 0) continue;  // implicit stay
    const auto sym_it = symbol_codes.find(e.symbol);
    check(sym_it != symbol_codes.end(), "build_symbol_next_state: missing symbol code");
    const SigSpec state_eq = m.make_eq(
        state, SigSpec(Const::from_uint(state_codes[static_cast<std::size_t>(e.from)],
                                        state.width())),
        "seq");
    const SigSpec sym_eq =
        m.make_eq(xenc, SigSpec(Const::from_uint(sym_it->second, xenc.width())), "xeq");
    conds.push_back(m.make_and(state_eq, sym_eq, "cond"));
    targets.push_back(state_codes[static_cast<std::size_t>(e.to)]);
  }
  return build_next_state_rom(m, state, conds, targets);
}

CompiledFsm compile_unprotected(const Fsm& fsm, rtlil::Design& design,
                                const CompileOptions& options) {
  fsm.check();
  CompiledFsm out;
  const std::string mod_name = options.module_name.empty() ? fsm.name : options.module_name;
  Module* m = design.add_module(mod_name);
  out.module = m;

  // Encoding: caller-provided or plain binary.
  if (options.state_codes.empty()) {
    out.state_width = options.state_width > 0 ? options.state_width
                                              : minimal_width(fsm.num_states());
    for (int s = 0; s < fsm.num_states(); ++s) {
      out.state_codes.push_back(static_cast<std::uint64_t>(s));
    }
  } else {
    require(options.state_codes.size() == static_cast<std::size_t>(fsm.num_states()),
            "compile_unprotected: encoding size mismatch");
    require(options.state_width > 0, "compile_unprotected: explicit encoding needs width");
    out.state_width = options.state_width;
    out.state_codes = options.state_codes;
  }

  std::vector<SigSpec> input_bits;
  for (const std::string& in_name : fsm.inputs) {
    input_bits.emplace_back(m->add_input(in_name, 1));
  }

  rtlil::Wire* state_w = m->add_wire("state_q", out.state_width);
  out.state_wire = state_w->name();
  const SigSpec state(state_w);

  const std::vector<SigSpec> actives =
      build_raw_edge_actives(*m, fsm, state, input_bits, out.state_codes);

  // The edge activations are mutually exclusive, one per transition.
  std::vector<std::uint64_t> targets;
  for (const Transition& t : fsm.transitions) {
    targets.push_back(out.state_codes[static_cast<std::size_t>(t.to)]);
  }
  const SigSpec next = build_next_state_rom(*m, state, actives, targets);

  rtlil::Cell* ff = m->add_cell("state_ff", rtlil::CellType::kDff);
  ff->set_port("D", next);
  ff->set_port("Q", state);
  ff->set_reset_value(Const::from_uint(
      out.state_codes[static_cast<std::size_t>(fsm.reset_state)], out.state_width));

  // Mealy outputs: OR of the active edges asserting each bit.
  for (int j = 0; j < fsm.num_outputs(); ++j) {
    rtlil::Wire* y = m->add_output(fsm.outputs[static_cast<std::size_t>(j)], 1);
    SigSpec acc = const_bit(false);
    for (std::size_t ti = 0; ti < fsm.transitions.size(); ++ti) {
      if (fsm.transitions[ti].output[static_cast<std::size_t>(j)] == '1') {
        acc = m->make_or(acc, actives[ti], "yor");
      }
    }
    m->drive(SigSpec(y), acc);
  }

  return out;
}

}  // namespace scfi::fsm
