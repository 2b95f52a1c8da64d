#include "rtlil/flatten.h"

#include <algorithm>
#include <iterator>
#include <string>

#include "base/error.h"

namespace scfi::rtlil {
namespace {

std::int32_t temp_net(FlatNetlist& flat) { return flat.num_nets++; }

/// Emits a balanced gate tree over `terms`, writing the result to `out`.
void emit_tree(FlatNetlist& flat, FlatOp::Kind kind, std::vector<std::int32_t> terms,
               std::int32_t out) {
  check(!terms.empty(), "flatten: empty gate tree");
  while (terms.size() > 2) {
    std::vector<std::int32_t> next;
    for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
      const std::int32_t t = temp_net(flat);
      flat.ops.push_back(FlatOp{kind, t, terms[i], terms[i + 1], 0});
      next.push_back(t);
    }
    if (terms.size() % 2 == 1) next.push_back(terms.back());
    terms = std::move(next);
  }
  if (terms.size() == 2) {
    flat.ops.push_back(FlatOp{kind, out, terms[0], terms[1], 0});
  } else {
    flat.ops.push_back(FlatOp{FlatOp::Kind::kBuf, out, terms[0], 0, 0});
  }
}

void compile_cell(FlatNetlist& flat, const Cell& cell) {
  std::vector<FlatOp>& ops = flat.ops;
  const auto net_of = [&](const SigBit& bit) { return flat.net_of(bit); };
  const SigSpec& y = cell.port(output_port(cell.type()));
  const auto in = [&](const char* p) { return cell.port(p); };
  const auto bits_of = [&](const SigSpec& s) {
    std::vector<std::int32_t> nets;
    nets.reserve(static_cast<std::size_t>(s.width()));
    for (const SigBit& b : s.bits()) nets.push_back(net_of(b));
    return nets;
  };
  switch (cell.type()) {
    case CellType::kBuf:
    case CellType::kGateBuf:
      for (int i = 0; i < y.width(); ++i) {
        ops.push_back(FlatOp{FlatOp::Kind::kBuf, net_of(y.bit(i)), net_of(in("A").bit(i)), 0, 0});
      }
      break;
    case CellType::kNot:
    case CellType::kGateInv:
      for (int i = 0; i < y.width(); ++i) {
        ops.push_back(FlatOp{FlatOp::Kind::kNot, net_of(y.bit(i)), net_of(in("A").bit(i)), 0, 0});
      }
      break;
    case CellType::kAnd:
    case CellType::kOr:
    case CellType::kXor:
    case CellType::kXnor:
    case CellType::kGateAnd2:
    case CellType::kGateOr2:
    case CellType::kGateXor2:
    case CellType::kGateXnor2:
    case CellType::kGateNand2:
    case CellType::kGateNor2: {
      FlatOp::Kind k = FlatOp::Kind::kAnd;
      switch (cell.type()) {
        case CellType::kOr:
        case CellType::kGateOr2: k = FlatOp::Kind::kOr; break;
        case CellType::kXor:
        case CellType::kGateXor2: k = FlatOp::Kind::kXor; break;
        case CellType::kXnor:
        case CellType::kGateXnor2: k = FlatOp::Kind::kXnor; break;
        case CellType::kGateNand2: k = FlatOp::Kind::kNand; break;
        case CellType::kGateNor2: k = FlatOp::Kind::kNor; break;
        default: break;
      }
      for (int i = 0; i < y.width(); ++i) {
        ops.push_back(FlatOp{k, net_of(y.bit(i)), net_of(in("A").bit(i)),
                             net_of(in("B").bit(i)), 0});
      }
      break;
    }
    case CellType::kMux:
    case CellType::kGateMux2: {
      const std::int32_t s = net_of(in("S").bit(0));
      for (int i = 0; i < y.width(); ++i) {
        ops.push_back(FlatOp{FlatOp::Kind::kMux, net_of(y.bit(i)), net_of(in("A").bit(i)),
                             net_of(in("B").bit(i)), s});
      }
      break;
    }
    case CellType::kGateAoi21:
      ops.push_back(FlatOp{FlatOp::Kind::kAoi21, net_of(y.bit(0)), net_of(in("A").bit(0)),
                           net_of(in("B").bit(0)), net_of(in("C").bit(0))});
      break;
    case CellType::kGateOai21:
      ops.push_back(FlatOp{FlatOp::Kind::kOai21, net_of(y.bit(0)), net_of(in("A").bit(0)),
                           net_of(in("B").bit(0)), net_of(in("C").bit(0))});
      break;
    case CellType::kEq: {
      const std::vector<std::int32_t> a = bits_of(in("A"));
      const std::vector<std::int32_t> b = bits_of(in("B"));
      std::vector<std::int32_t> eq_bits;
      for (std::size_t i = 0; i < a.size(); ++i) {
        const std::int32_t t = temp_net(flat);
        ops.push_back(FlatOp{FlatOp::Kind::kXnor, t, a[i], b[i], 0});
        eq_bits.push_back(t);
      }
      emit_tree(flat, FlatOp::Kind::kAnd, std::move(eq_bits), net_of(y.bit(0)));
      break;
    }
    case CellType::kReduceAnd:
      emit_tree(flat, FlatOp::Kind::kAnd, bits_of(in("A")), net_of(y.bit(0)));
      break;
    case CellType::kReduceOr:
      emit_tree(flat, FlatOp::Kind::kOr, bits_of(in("A")), net_of(y.bit(0)));
      break;
    case CellType::kReduceXor:
      emit_tree(flat, FlatOp::Kind::kXor, bits_of(in("A")), net_of(y.bit(0)));
      break;
    case CellType::kDff:
    case CellType::kGateDff:
      unreachable("compile_cell: flip-flop in combinational list");
    default:
      unreachable(std::string("compile_cell: unhandled type ") + cell_type_name(cell.type()));
  }
}

}  // namespace

std::int32_t FlatNetlist::net_of(const SigBit& bit) const {
  if (bit.is_const()) return bit.const_value() ? 1 : 0;
  const auto it = wire_base.find(bit.wire);
  // Composed message: built only on the failure path (net_of runs per bit).
  if (it == wire_base.end()) unreachable("flatten: unknown wire " + bit.wire->name());
  return it->second + bit.offset;
}

FlatNetlist flatten(const Module& module) {
  FlatNetlist out;
  out.module = &module;
  for (const Wire* w : module.wires()) {
    out.wire_base[w] = out.num_nets;
    out.num_nets += w->width();
  }
  const NetlistIndex index(module);
  for (const Cell* cell : index.topo_comb()) compile_cell(out, *cell);
  for (const Cell* ff : index.ffs()) {
    const SigSpec& d = ff->port("D");
    const SigSpec& q = ff->port("Q");
    for (int i = 0; i < q.width(); ++i) {
      out.ffs.push_back(FlatFf{out.net_of(d.bit(i)), out.net_of(q.bit(i)),
                               ff->reset_value().bit(i)});
    }
  }
  return out;
}

std::vector<char> fanin_cone(const FlatNetlist& flat, const std::vector<std::int32_t>& roots) {
  // Producing op and flip-flop of every net; -1 where there is none.
  const auto nets = static_cast<std::size_t>(flat.num_nets);
  std::vector<std::int32_t> producer(nets, -1);
  for (std::size_t i = 0; i < flat.ops.size(); ++i) {
    producer[static_cast<std::size_t>(flat.ops[i].out)] = static_cast<std::int32_t>(i);
  }
  std::vector<std::int32_t> q_to_ff(nets, -1);
  for (std::size_t i = 0; i < flat.ffs.size(); ++i) {
    q_to_ff[static_cast<std::size_t>(flat.ffs[i].q)] = static_cast<std::int32_t>(i);
  }
  std::vector<char> in_cone(nets, 0);
  std::vector<std::int32_t> work;
  const auto add = [&](std::int32_t net) {
    if (in_cone[static_cast<std::size_t>(net)] == 0) {
      in_cone[static_cast<std::size_t>(net)] = 1;
      work.push_back(net);
    }
  };
  for (const std::int32_t root : roots) add(root);
  while (!work.empty()) {
    const auto net = static_cast<std::size_t>(work.back());
    work.pop_back();
    if (producer[net] >= 0) {
      const FlatOp& op = flat.ops[static_cast<std::size_t>(producer[net])];
      add(op.a);
      add(op.b);
      add(op.c);
    } else if (q_to_ff[net] >= 0) {
      add(flat.ffs[static_cast<std::size_t>(q_to_ff[net])].d);
    }
  }
  return in_cone;
}

FlatNetlist slice(const FlatNetlist& flat, const std::vector<char>& cone) {
  check(cone.size() == static_cast<std::size_t>(flat.num_nets), "slice: cone of another netlist");
  const auto live = [&](std::int32_t net) { return cone[static_cast<std::size_t>(net)] != 0; };
  FlatNetlist out{flat.module, flat.num_nets, flat.wire_base, {}, {}};
  std::copy_if(flat.ops.begin(), flat.ops.end(), std::back_inserter(out.ops),
               [&](const FlatOp& op) { return live(op.out); });
  std::copy_if(flat.ffs.begin(), flat.ffs.end(), std::back_inserter(out.ffs),
               [&](const FlatFf& ff) { return live(ff.q); });
  return out;
}

}  // namespace scfi::rtlil
