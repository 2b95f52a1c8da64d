#include "redundancy/redundancy.h"

#include "base/error.h"
#include "encode/lexicode.h"

namespace scfi::redundancy {

using rtlil::Const;
using rtlil::SigBit;
using rtlil::SigSpec;

fsm::CompiledFsm build_redundant(const fsm::Fsm& fsm, rtlil::Design& design,
                                 const RedundancyConfig& config) {
  fsm.check();
  require(config.protection_level >= 1, "build_redundant: protection level must be >= 1");
  const int n = config.protection_level;

  fsm::CompiledFsm out;
  rtlil::Module* m = design.add_module(fsm.name + config.module_suffix);
  out.module = m;

  // Binary state encoding, replicated N times (the paper encodes only the
  // control signals for this baseline).
  out.state_width = 1;
  while ((1 << out.state_width) < fsm.num_states()) ++out.state_width;
  for (int s = 0; s < fsm.num_states(); ++s) {
    out.state_codes.push_back(static_cast<std::uint64_t>(s));
  }

  // Control symbols encoded with Hamming distance N (shared with SCFI's R1).
  const std::vector<std::string> symbols = fsm.symbols();
  encode::CodeSpec spec;
  spec.count = static_cast<int>(symbols.size());
  spec.min_distance = n;
  spec.min_weight = n;
  const encode::Code code = encode::generate_code(spec);
  out.symbol_width = code.width;
  for (std::size_t i = 0; i < symbols.size(); ++i) out.symbol_codes[symbols[i]] = code.words[i];

  rtlil::Wire* xw = m->add_input("x_enc", out.symbol_width);
  out.symbol_input_wire = xw->name();
  const SigSpec xenc(xw);

  const Const reset = Const::from_uint(
      out.state_codes[static_cast<std::size_t>(fsm.reset_state)], out.state_width);

  // N independent copies of register + next-state logic. Each copy is put
  // in its own share group so the optimizer cannot merge identical
  // comparators across copies — the paper instantiates them manually and
  // warns (§6.4) that optimization would weaken the redundancy.
  std::vector<SigSpec> q(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::string wire_name = i == 0 ? "state_q" : "state_q_r" + std::to_string(i);
    rtlil::Wire* sq = m->add_wire(wire_name, out.state_width);
    q[static_cast<std::size_t>(i)] = SigSpec(sq);
    const std::size_t cells_before = m->cells().size();
    const SigSpec next = fsm::build_symbol_next_state(*m, fsm, q[static_cast<std::size_t>(i)],
                                                      xenc, out.state_codes, out.symbol_codes);
    rtlil::Cell* ff = m->add_cell(m->uniquify("state_ff"), rtlil::CellType::kDff);
    ff->set_port("D", next);
    ff->set_port("Q", q[static_cast<std::size_t>(i)]);
    ff->set_reset_value(reset);
    for (std::size_t ci = cells_before; ci < m->cells().size(); ++ci) {
      m->cells()[ci]->set_share_group(i + 1);
    }
  }
  out.state_wire = "state_q";

  // Mismatch detector over the state registers.
  SigSpec mismatch = SigSpec(SigBit(false));
  for (int i = 1; i < n; ++i) {
    const SigSpec eq = m->make_eq(q[0], q[static_cast<std::size_t>(i)], "cmp");
    mismatch = m->make_or(mismatch, m->make_not(eq, "ncmp"), "mm");
  }
  rtlil::Wire* alert = m->add_output("fsm_alert", 1);
  out.alert_wire = alert->name();
  m->drive(SigSpec(alert), mismatch);

  // Mealy outputs from the primary copy.
  const std::vector<fsm::CfgEdge> edges = fsm.cfg_edges();
  std::vector<SigSpec> cond(edges.size());
  for (std::size_t ei = 0; ei < edges.size(); ++ei) {
    const fsm::CfgEdge& e = edges[ei];
    const SigSpec seq = m->make_eq(
        q[0], SigSpec(Const::from_uint(out.state_codes[static_cast<std::size_t>(e.from)],
                                       out.state_width)),
        "oseq");
    const SigSpec xeq = m->make_eq(
        xenc, SigSpec(Const::from_uint(out.symbol_codes.at(e.symbol), out.symbol_width)), "oxeq");
    cond[ei] = m->make_and(seq, xeq, "ocond");
  }
  for (int j = 0; j < fsm.num_outputs(); ++j) {
    rtlil::Wire* y = m->add_output(fsm.outputs[static_cast<std::size_t>(j)], 1);
    SigSpec acc = SigSpec(SigBit(false));
    for (std::size_t ei = 0; ei < edges.size(); ++ei) {
      if (edges[ei].output[static_cast<std::size_t>(j)] == '1') {
        acc = m->make_or(acc, cond[ei], "yor");
      }
    }
    m->drive(SigSpec(y), acc);
  }

  return out;
}

}  // namespace scfi::redundancy
