#include "rtlil/flatten.h"

#include <algorithm>
#include <iterator>
#include <span>
#include <string>
#include <string_view>

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

/// The op of a bitwise cell: one per output bit.
FlatOp::Kind bitwise_kind(CellType type) {
  using K = FlatOp::Kind;
  switch (type) {
    case CellType::kBuf: case CellType::kGateBuf: return K::kBuf;
    case CellType::kNot: case CellType::kGateInv: return K::kNot;
    case CellType::kAnd: case CellType::kGateAnd2: return K::kAnd;
    case CellType::kOr: case CellType::kGateOr2: return K::kOr;
    case CellType::kXor: case CellType::kGateXor2: return K::kXor;
    case CellType::kXnor: case CellType::kGateXnor2: return K::kXnor;
    case CellType::kMux: case CellType::kGateMux2: return K::kMux;
    case CellType::kGateNand2: return K::kNand;
    case CellType::kGateNor2: return K::kNor;
    case CellType::kGateAoi21: return K::kAoi21;
    case CellType::kGateOai21: return K::kOai21;
    default: unreachable(std::string("compile_cell: unhandled type ") + cell_type_name(type));
  }
}

/// Emits the ops of the combinational `cell`, which drives the nets `y`
/// and reads the nets `in` (its input ports in order, bit by bit).
void compile_cell(FlatNetlist& flat, const Cell& cell, std::span<const std::int32_t> y,
                  std::span<const std::int32_t> in) {
  using K = FlatOp::Kind;
  switch (cell.type()) {
    case CellType::kEq: {
      // A and B are equally wide: Y is the AND over A XNOR B.
      const std::size_t w = in.size() / 2;
      std::vector<std::int32_t> eq_bits;
      for (std::size_t i = 0; i < w; ++i) {
        eq_bits.push_back(temp_net(flat));
        flat.ops.push_back(FlatOp{K::kXnor, eq_bits.back(), in[i], in[w + i], 0});
      }
      return emit_tree(flat, K::kAnd, std::move(eq_bits), y[0]);
    }
    case CellType::kReduceAnd: return emit_tree(flat, K::kAnd, {in.begin(), in.end()}, y[0]);
    case CellType::kReduceOr: return emit_tree(flat, K::kOr, {in.begin(), in.end()}, y[0]);
    case CellType::kReduceXor: return emit_tree(flat, K::kXor, {in.begin(), in.end()}, y[0]);
    default: break;
  }
  // Op i reads bit i of A and of B, and the one bit of S (mux) or C.
  const K kind = bitwise_kind(cell.type());
  const std::size_t w = y.size();
  const std::size_t ports = input_ports(cell.type()).size();
  for (std::size_t i = 0; i < w; ++i) {
    flat.ops.push_back(FlatOp{kind, y[i], in[i], ports > 1 ? in[w + i] : 0,
                              ports > 2 ? in[2 * w] : 0});
  }
}

void check_widths(const Cell& cell) {
  const auto fail = [&cell](const std::string& msg) {
    throw ScfiError("cell " + cell.name() + " (" + cell_type_name(cell.type()) + "): " + msg);
  };
  const auto need = [&](std::string_view port) -> const SigSpec& {
    if (!cell.has_port(port)) fail(std::string("missing port ").append(port));
    return cell.port(port);
  };
  const SigSpec& y = need(output_port(cell.type()));
  switch (cell.type()) {
    case CellType::kNot:
    case CellType::kBuf:
      if (need("A").width() != y.width()) fail("A/Y width mismatch");
      break;
    case CellType::kAnd:
    case CellType::kOr:
    case CellType::kXor:
    case CellType::kXnor:
      if (need("A").width() != y.width() || need("B").width() != y.width()) {
        fail("A/B/Y width mismatch");
      }
      break;
    case CellType::kMux:
      if (need("A").width() != y.width() || need("B").width() != y.width()) {
        fail("A/B/Y width mismatch");
      }
      if (need("S").width() != 1) fail("S must be 1 bit");
      break;
    case CellType::kEq:
      if (need("A").width() != need("B").width()) fail("A/B width mismatch");
      if (y.width() != 1) fail("Y must be 1 bit");
      break;
    case CellType::kReduceAnd:
    case CellType::kReduceOr:
    case CellType::kReduceXor:
      need("A");
      if (y.width() != 1) fail("Y must be 1 bit");
      break;
    case CellType::kDff:
      if (need("D").width() != y.width()) fail("D/Q width mismatch");
      if (cell.reset_value().width() != y.width()) fail("reset width mismatch");
      break;
    case CellType::kGateDff:
      if (need("D").width() != 1 || y.width() != 1) fail("gate DFF must be 1 bit");
      if (cell.reset_value().width() != 1) fail("reset width mismatch");
      break;
    default:
      // One-bit gates.
      for (const std::string& p : input_ports(cell.type())) {
        if (need(p).width() != 1) fail("port " + p + " must be 1 bit");
      }
      if (y.width() != 1) fail("Y must be 1 bit");
      break;
  }
}

/// The constants and then every wire's bits, numbered; no ops yet.
FlatNetlist number_wires(const Module& module) {
  FlatNetlist flat;
  flat.module = &module;
  for (const Wire* w : module.wires()) {
    flat.wire_base.emplace(w, flat.num_nets);
    flat.num_nets += w->width();
  }
  return flat;
}

/// Nets per cell, in cell order: cell i owns nets[start[i], start[i + 1]).
struct CellNets {
  std::vector<std::int32_t> nets;
  std::vector<std::size_t> start{0};

  std::span<const std::int32_t> of(std::size_t cell) const {
    return std::span(nets).subspan(start[cell], start[cell + 1] - start[cell]);
  }
};

/// The structural pass's result: every cell's driven and read nets, in port
/// and bit order (a constant bit reads net 0 or 1), and the combinational
/// cells in dependency order, as indices into the module's cells().
struct SortedCells {
  CellNets outs;
  CellNets ins;
  std::vector<std::int32_t> comb;
};

/// The structural pass over `flat`'s wire nets; validate_module lists its
/// checks.
SortedCells sort_cells(const FlatNetlist& flat) {
  const std::vector<Cell*>& cells = flat.module->cells();
  // A bit's net. Module::remove_wires can leave a cell a dangling Wire*,
  // so a bit that is on no wire of the module is rejected unread.
  const auto net = [&flat](const Cell& cell, std::string_view port, const SigBit& bit) {
    if (bit.is_const()) return std::int32_t{bit.const_value() ? 1 : 0};
    const auto it = flat.wire_base.find(bit.wire);
    if (it == flat.wire_base.end() || bit.offset < 0 || bit.offset >= it->first->width())
        [[unlikely]] {
      throw ScfiError("cell " + cell.name() + " port " + std::string(port) +
                      ": bit is not on a wire of module " + flat.module->name());
    }
    return it->second + bit.offset;
  };
  SortedCells out;
  std::vector<std::int32_t> driver(static_cast<std::size_t>(flat.num_nets), -1);  // cell index
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = *cells[i];
    check_widths(cell);
    const char* y = output_port(cell.type());
    for (const SigBit& bit : cell.port(y).bits()) {
      if (bit.is_const()) [[unlikely]] {
        throw ScfiError("cell " + cell.name() + " drives a constant bit");
      }
      const std::int32_t n = net(cell, y, bit);
      if (bit.wire->is_input()) [[unlikely]] {
        throw ScfiError("cell " + cell.name() + " drives input wire " + bit.wire->name());
      }
      std::int32_t& d = driver[static_cast<std::size_t>(n)];
      if (d >= 0) [[unlikely]] {
        throw ScfiError("multiple drivers on wire " + bit.wire->name() + " (cells " +
                        cells[static_cast<std::size_t>(d)]->name() + ", " + cell.name() + ")");
      }
      d = static_cast<std::int32_t>(i);
      out.outs.nets.push_back(n);
    }
    out.outs.start.push_back(out.outs.nets.size());
    for (const std::string& p : input_ports(cell.type())) {
      for (const SigBit& bit : cell.port(p).bits()) out.ins.nets.push_back(net(cell, p, bit));
    }
    out.ins.start.push_back(out.ins.nets.size());
  }

  // Kahn's sort at cell granularity, FIFO from cell order: a combinational
  // cell waits once per read of a net that a combinational cell drives
  // (flip-flop outputs and module inputs are sources). `readers` lists the
  // waiting cells per net, in cell and read order (CSR over reader_start).
  const auto comb = [&cells](std::size_t cell) { return !is_ff(cells[cell]->type()); };
  const auto waits_on = [&](std::int32_t net) {
    const std::int32_t d = driver[static_cast<std::size_t>(net)];
    return d >= 0 && comb(static_cast<std::size_t>(d));
  };
  std::vector<std::int32_t> pending(cells.size(), 0);
  std::vector<std::size_t> reader_start(static_cast<std::size_t>(flat.num_nets) + 1, 0);
  std::size_t comb_cells = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!comb(i)) continue;
    ++comb_cells;
    for (const std::int32_t n : out.ins.of(i)) {
      if (!waits_on(n)) continue;
      ++pending[i];
      ++reader_start[static_cast<std::size_t>(n) + 1];
    }
  }
  for (std::size_t n = 1; n < reader_start.size(); ++n) reader_start[n] += reader_start[n - 1];
  std::vector<std::int32_t> readers(reader_start.back());
  std::vector<std::size_t> fill(reader_start.begin(), reader_start.end() - 1);
  std::vector<std::int32_t>& queue = out.comb;
  queue.reserve(comb_cells);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!comb(i)) continue;
    for (const std::int32_t n : out.ins.of(i)) {
      if (waits_on(n)) readers[fill[static_cast<std::size_t>(n)]++] = static_cast<std::int32_t>(i);
    }
    if (pending[i] == 0) queue.push_back(static_cast<std::int32_t>(i));
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const std::int32_t n : out.outs.of(static_cast<std::size_t>(queue[head]))) {
      const auto at = static_cast<std::size_t>(n);
      for (std::size_t r = reader_start[at]; r < reader_start[at + 1]; ++r) {
        if (--pending[static_cast<std::size_t>(readers[r])] == 0) queue.push_back(readers[r]);
      }
    }
  }
  if (queue.size() != comb_cells) [[unlikely]] {
    throw ScfiError("module " + flat.module->name() + ": combinational loop detected");
  }
  return out;
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
  FlatNetlist out = number_wires(module);
  const SortedCells sorted = sort_cells(out);
  const std::vector<Cell*>& cells = module.cells();
  for (const std::int32_t c : sorted.comb) {
    const auto i = static_cast<std::size_t>(c);
    compile_cell(out, *cells[i], sorted.outs.of(i), sorted.ins.of(i));
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!is_ff(cells[i]->type())) continue;
    const std::span<const std::int32_t> d = sorted.ins.of(i);
    const std::span<const std::int32_t> q = sorted.outs.of(i);
    for (std::size_t b = 0; b < q.size(); ++b) {
      out.ffs.push_back(FlatFf{d[b], q[b], cells[i]->reset_value().bit(static_cast<int>(b))});
    }
  }
  return out;
}

void validate_module(const Module& module) { (void)sort_cells(number_wires(module)); }

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
