#include "core/harden.h"

#include "base/error.h"
#include "mds/registry.h"

namespace scfi::core {
namespace {

using rtlil::Const;
using rtlil::Module;
using rtlil::SigBit;
using rtlil::SigSpec;

/// Emits the MDS straight-line program as an XOR network over `input`
/// (width = 8 * words). Multiplication by alpha is a rewiring plus a single
/// XOR2 (bit2 ^= bit7), exactly as costed in the paper.
SigSpec emit_mds(Module& m, const mds::Slp& slp, const SigSpec& input) {
  check(input.width() == 8 * slp.num_inputs(), "emit_mds: input width mismatch");
  std::vector<SigSpec> value;
  value.reserve(static_cast<std::size_t>(slp.num_values()));
  for (int w = 0; w < slp.num_inputs(); ++w) value.push_back(input.extract(8 * w, 8));
  for (const mds::SlpOp& op : slp.ops()) {
    const SigSpec& a = value[static_cast<std::size_t>(op.a)];
    if (op.kind == mds::SlpOp::Kind::kXor) {
      value.push_back(m.make_xor(a, value[static_cast<std::size_t>(op.b)], "mds_x"));
    } else {
      // alpha * a over F2[X]/(X^8+X^2+1):
      //   out[0]=a[7], out[1]=a[0], out[2]=a[1]^a[7], out[k]=a[k-1] (k>=3).
      const SigSpec folded = m.make_xor(a.extract(1, 1), a.extract(7, 1), "mds_a");
      SigSpec shifted;
      shifted.append(a.extract(7, 1));  // out[0]
      shifted.append(a.extract(0, 1));  // out[1]
      shifted.append(folded);           // out[2]
      shifted.append(a.extract(2, 5));  // out[3..7]
      value.push_back(shifted);
    }
  }
  SigSpec out;
  for (int v : slp.outputs()) out.append(value[static_cast<std::size_t>(v)]);
  return out;
}

SigSpec replicate(const SigSpec& bit, int width) {
  SigSpec out;
  for (int i = 0; i < width; ++i) out.append(bit);
  return out;
}

}  // namespace

fsm::CompiledFsm scfi_harden(const fsm::Fsm& fsm, rtlil::Design& design,
                             const ScfiConfig& config, ScfiReport* report) {
  fsm.check();
  const mds::Construction& mds = mds::construction(config.mds);
  const EncodingPlan plan = plan_encoding(fsm, config);
  const LaneLayout layout =
      compute_layout(plan.state_width, plan.symbol_width, config.effective_error_bits(), mds);
  const std::vector<fsm::CfgEdge> edges = fsm.cfg_edges();
  const std::vector<EdgeModifier> mods = compute_modifiers(fsm, plan, layout, mds);
  check(mods.size() == edges.size(), "scfi_harden: modifier/edge count mismatch");

  fsm::CompiledFsm out;
  Module* m = design.add_module(fsm.name + config.module_suffix);
  out.module = m;
  out.state_width = plan.state_width;
  out.state_codes = plan.state_codes;
  out.symbol_codes = plan.symbol_codes;
  out.symbol_width = plan.symbol_width;
  out.error_code = plan.error_code;
  out.has_error_state = true;

  rtlil::Wire* xw = m->add_input("x_enc", plan.symbol_width);
  out.symbol_input_wire = xw->name();
  const SigSpec xenc(xw);

  rtlil::Wire* sw = m->add_wire("state_q", plan.state_width);
  out.state_wire = sw->name();
  const SigSpec state(sw);

  // (1) Input pattern matching: comparators on the encoded state and the
  // encoded control symbol, shared across edges. With encoded_selectors
  // (paper §7 extension) the whole selector network is duplicated in a
  // separate share group and checked by a mismatch comparator below.
  const int reps = config.encoded_selectors ? 2 : 1;
  std::vector<std::vector<SigSpec>> state_eq_r(static_cast<std::size_t>(reps));
  std::vector<std::map<std::string, SigSpec>> sym_eq_r(static_cast<std::size_t>(reps));
  std::vector<std::vector<SigSpec>> edge_cond_r(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const std::size_t first_cell = m->cells().size();
    auto& state_eq = state_eq_r[static_cast<std::size_t>(r)];
    state_eq.resize(static_cast<std::size_t>(fsm.num_states()));
    for (int s = 0; s < fsm.num_states(); ++s) {
      state_eq[static_cast<std::size_t>(s)] = m->make_eq(
          state,
          SigSpec(Const::from_uint(plan.state_codes[static_cast<std::size_t>(s)],
                                   plan.state_width)),
          "seq");
    }
    auto& sym_eq = sym_eq_r[static_cast<std::size_t>(r)];
    for (const auto& [sym, code] : plan.symbol_codes) {
      sym_eq[sym] = m->make_eq(xenc, SigSpec(Const::from_uint(code, plan.symbol_width)), "xeq");
    }
    auto& edge_cond = edge_cond_r[static_cast<std::size_t>(r)];
    edge_cond.resize(edges.size());
    for (std::size_t ei = 0; ei < edges.size(); ++ei) {
      const fsm::CfgEdge& e = edges[ei];
      edge_cond[ei] = m->make_and(state_eq[static_cast<std::size_t>(e.from)],
                                  sym_eq.at(e.symbol), "econd");
    }
    if (reps > 1) {
      for (std::size_t ci = first_cell; ci < m->cells().size(); ++ci) {
        m->cells()[ci]->set_share_group(1000 + r);
      }
    }
  }
  const std::vector<SigSpec>& state_eq = state_eq_r[0];
  const std::vector<SigSpec>& edge_cond = edge_cond_r[0];

  // (2) Modifier selection as an AND-OR ROM: bit i of the modifier bus is
  // the OR of the (mutually exclusive) edge conditions whose modifier sets
  // bit i. No match leaves the all-zero modifier, which cannot produce a
  // valid next state (infective by construction). Because every lane solve
  // confines the nonzero modifier bits to its pivot columns, most bus bits
  // fold to constant zero during optimization. Under encoded_selectors the
  // ROM is built once per selector replica.
  std::vector<SigSpec> mod_bus_r(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const std::size_t first_cell = m->cells().size();
    std::vector<SigSpec> mod_terms(static_cast<std::size_t>(layout.mod_width));
    for (std::size_t ei = 0; ei < edges.size(); ++ei) {
      int off = 0;
      for (std::size_t lane = 0; lane < layout.lanes.size(); ++lane) {
        for (int bit = 0; bit < layout.lanes[lane].mod_len; ++bit) {
          if ((mods[ei].lane_mods[lane] >> bit) & 1) {
            mod_terms[static_cast<std::size_t>(off + bit)].append(
                edge_cond_r[static_cast<std::size_t>(r)][ei]);
          }
        }
        off += layout.lanes[lane].mod_len;
      }
    }
    SigSpec bus;
    for (int bit = 0; bit < layout.mod_width; ++bit) {
      const SigSpec& terms = mod_terms[static_cast<std::size_t>(bit)];
      if (terms.width() == 0) {
        bus.append(SigSpec(SigBit(false)));
      } else if (terms.width() == 1) {
        bus.append(terms);
      } else {
        bus.append(m->make_reduce_or(terms, "modrom"));
      }
    }
    mod_bus_r[static_cast<std::size_t>(r)] = bus;
    if (reps > 1) {
      for (std::size_t ci = first_cell; ci < m->cells().size(); ++ci) {
        m->cells()[ci]->set_share_group(1000 + r);
      }
    }
  }
  const SigSpec& mod_bus = mod_bus_r[0];

  // (3) Mix, (4) diffusion, (5) unmix.
  SigSpec next_enc;
  SigSpec error_bits;
  int mod_off = 0;
  for (const Lane& lane : layout.lanes) {
    SigSpec lane_in;
    lane_in.append(state.extract(lane.state_lo, lane.state_len));
    lane_in.append(xenc.extract(lane.sym_lo, lane.sym_len));
    lane_in.append(mod_bus.extract(mod_off, lane.mod_len));
    mod_off += lane.mod_len;
    check(lane_in.width() == layout.lane_bits, "scfi_harden: lane width mismatch");
    const SigSpec lane_out = emit_mds(*m, mds.slp, lane_in);
    next_enc.append(lane_out.extract(0, lane.state_len));
    error_bits.append(
        lane_out.extract(layout.lane_bits - layout.error_bits, layout.error_bits));
  }
  check(next_enc.width() == plan.state_width, "scfi_harden: next state width mismatch");

  // (6) Error logic: the AND-reduced error bits infect the next state; a
  // current state outside the valid set, or an encoded input matching no
  // expected pattern (the `default` branch of Figure 4), collapses to the
  // all-zero terminal ERROR state. The pattern-match gate makes FT2
  // detection deterministic below N flips; the error bits remain as the
  // probabilistic backstop against faults inside the function itself.
  const SigSpec err_ok = m->make_reduce_and(error_bits, "err_ok");
  const SigSpec infected = m->make_and(next_enc, replicate(err_ok, plan.state_width), "infect");
  SigSpec valid = SigSpec(SigBit(false));
  for (int s = 0; s < fsm.num_states(); ++s) {
    valid = m->make_or(valid, state_eq[static_cast<std::size_t>(s)], "valid");
  }
  // Every selector replica must see a match, and (under encoded_selectors)
  // the duplicated modifier buses must agree: a single selector fault makes
  // the replicas diverge and deterministically lands in ERROR.
  SigSpec matched_all;
  for (int r = 0; r < reps; ++r) {
    SigSpec any_edge;
    for (const SigSpec& cond : edge_cond_r[static_cast<std::size_t>(r)]) any_edge.append(cond);
    matched_all.append(m->make_reduce_or(any_edge, "matched"));
  }
  SigSpec matched =
      matched_all.width() == 1 ? matched_all : m->make_reduce_and(matched_all, "matched_and");
  if (reps > 1) {
    const SigSpec sel_eq = m->make_eq(mod_bus_r[0], mod_bus_r[1], "sel_eq");
    matched = m->make_and(matched, sel_eq, "sel_ok");
  }
  const SigSpec ok = m->make_and(valid, matched, "ok");
  const SigSpec next_final =
      m->make_mux(ok, SigSpec(Const::from_uint(plan.error_code, plan.state_width)), infected,
                  "next");

  rtlil::Cell* ff = m->add_cell("state_ff", rtlil::CellType::kDff);
  ff->set_port("D", next_final);
  ff->set_port("Q", state);
  ff->set_reset_value(Const::from_uint(
      plan.state_codes[static_cast<std::size_t>(fsm.reset_state)], plan.state_width));

  // Mealy outputs from the (mutually exclusive) edge conditions. With
  // protect_outputs (paper §7 extension) the output network is duplicated
  // from an independent selector replica and checked; otherwise lambda stays
  // unprotected, as in the paper's prototype.
  const auto output_network = [&](const std::vector<SigSpec>& conds) {
    std::vector<SigSpec> ys;
    for (int j = 0; j < fsm.num_outputs(); ++j) {
      SigSpec acc = SigSpec(SigBit(false));
      for (std::size_t ei = 0; ei < edges.size(); ++ei) {
        if (edges[ei].output[static_cast<std::size_t>(j)] == '1') {
          acc = m->make_or(acc, conds[ei], "yor");
        }
      }
      ys.push_back(acc);
    }
    return ys;
  };
  const std::vector<SigSpec> y_primary = output_network(edge_cond);
  SigSpec out_err = SigSpec(SigBit(false));
  if (config.protect_outputs && fsm.num_outputs() > 0) {
    // Independent replica of the conditions feeding a shadow output network.
    const std::size_t first_cell = m->cells().size();
    std::vector<SigSpec> shadow_cond(edges.size());
    std::vector<SigSpec> sh_state_eq(static_cast<std::size_t>(fsm.num_states()));
    for (int s = 0; s < fsm.num_states(); ++s) {
      sh_state_eq[static_cast<std::size_t>(s)] = m->make_eq(
          state,
          SigSpec(Const::from_uint(plan.state_codes[static_cast<std::size_t>(s)],
                                   plan.state_width)),
          "oseq");
    }
    std::map<std::string, SigSpec> sh_sym_eq;
    for (const auto& [sym, code] : plan.symbol_codes) {
      sh_sym_eq[sym] =
          m->make_eq(xenc, SigSpec(Const::from_uint(code, plan.symbol_width)), "oxeq");
    }
    for (std::size_t ei = 0; ei < edges.size(); ++ei) {
      shadow_cond[ei] = m->make_and(sh_state_eq[static_cast<std::size_t>(edges[ei].from)],
                                    sh_sym_eq.at(edges[ei].symbol), "oecond");
    }
    const std::vector<SigSpec> y_shadow = output_network(shadow_cond);
    for (std::size_t ci = first_cell; ci < m->cells().size(); ++ci) {
      m->cells()[ci]->set_share_group(2000);
    }
    for (int j = 0; j < fsm.num_outputs(); ++j) {
      const SigSpec differ =
          m->make_xor(y_primary[static_cast<std::size_t>(j)],
                      y_shadow[static_cast<std::size_t>(j)], "ymm");
      out_err = m->make_or(out_err, differ, "oerr");
    }
  }
  for (int j = 0; j < fsm.num_outputs(); ++j) {
    rtlil::Wire* y = m->add_output(fsm.outputs[static_cast<std::size_t>(j)], 1);
    m->drive(SigSpec(y), y_primary[static_cast<std::size_t>(j)]);
  }

  // Alert: register outside the valid set (includes ERROR), a failing
  // error-bit check, or (with protect_outputs) an output-network mismatch —
  // all in the current cycle (zero detection latency).
  rtlil::Wire* alert = m->add_output("fsm_alert", 1);
  out.alert_wire = alert->name();
  const SigSpec alert_sig =
      m->make_or(m->make_or(m->make_not(ok, "nok"), m->make_not(err_ok, "nerr"), "alrt0"),
                 out_err, "alert");
  m->drive(SigSpec(alert), alert_sig);

  if (report != nullptr) {
    report->plan = plan;
    report->lanes = layout.k();
    report->mod_width = layout.mod_width;
    report->mds_xor_gates = mds.xor_gates;
    report->mds_depth = mds.depth;
    report->cfg_edges = static_cast<int>(edges.size());
  }
  return out;
}

}  // namespace scfi::core
