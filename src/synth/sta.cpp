#include "synth/sta.h"

#include <algorithm>

#include "synth/techlib.h"

namespace scfi::synth {

using rtlil::Cell;
using rtlil::SigBit;

TimingGraph::TimingGraph(const rtlil::Module& module) : flat(rtlil::flatten(module)) {
  const auto nets = static_cast<std::size_t>(flat.num_nets);
  const auto at = [this](const SigBit& bit) { return static_cast<std::size_t>(flat.net_of(bit)); };
  driver.assign(nets, nullptr);
  reader_start.assign(nets + 1, 0);
  std::vector<std::pair<std::size_t, const Cell*>> reads;  // (net, reader) in cell and port order
  for (const Cell* cell : module.cells()) {
    (void)techlib_gate(cell->type());  // rejects word-level cells
    for (const SigBit& y : cell->port(rtlil::output_port(cell->type())).bits()) {
      driver[at(y)] = cell;
    }
    for (const std::string& p : rtlil::input_ports(cell->type())) {
      for (const SigBit& b : cell->port(p).bits()) {
        if (!b.is_const()) reads.emplace_back(at(b), cell);
      }
    }
  }
  for (const auto& read : reads) ++reader_start[read.first + 1];
  for (std::size_t n = 1; n <= nets; ++n) reader_start[n] += reader_start[n - 1];
  readers.resize(reads.size());
  std::vector<std::size_t> fill(reader_start.begin(), reader_start.end() - 1);
  for (const auto& [net, cell] : reads) readers[fill[net]++] = cell;

  op_of.assign(nets, -1);
  for (std::size_t i = 0; i < flat.ops.size(); ++i) {
    op_of[static_cast<std::size_t>(flat.ops[i].out)] = static_cast<std::int32_t>(i);
  }
  output_pin.assign(nets, 0);
  for (const rtlil::Wire* w : module.wires()) {
    for (int i = 0; w->is_output() && i < w->width(); ++i) output_pin[at(SigBit(w, i))] = 1;
  }
}

double TimingGraph::load(std::int32_t net) const {
  const auto n = static_cast<std::size_t>(net);
  double load = 0.0;
  for (std::size_t r = reader_start[n]; r < reader_start[n + 1]; ++r) {
    const Cell& reader = *readers[r];
    load += techlib_gate(reader.type()).drive[static_cast<std::size_t>(reader.drive())].input_cap;
  }
  if (output_pin[n] != 0) load += 2.0;  // external pin load
  return load;
}

TimingReport TimingGraph::analyze() const {
  const auto at = [](std::int32_t net) { return static_cast<std::size_t>(net); };
  // Inputs, constants and undriven bits arrive at t = 0.
  std::vector<double> arrival(at(flat.num_nets), 0.0);
  for (const rtlil::FlatFf& ff : flat.ffs) arrival[at(ff.q)] = dff_clk_to_q_ps();

  // One op per gate, in dependency order. An unused operand slot reads
  // net 0, a constant at t = 0, so it never raises the worst input.
  for (const rtlil::FlatOp& op : flat.ops) {
    const double worst_in = std::max({arrival[at(op.a)], arrival[at(op.b)], arrival[at(op.c)]});
    const Cell& cell = *driver[at(op.out)];
    const GateTiming& t = techlib_gate(cell.type()).drive[static_cast<std::size_t>(cell.drive())];
    arrival[at(op.out)] = worst_in + t.intrinsic_ps + t.slope_ps * load(op.out);
  }

  // The worst sink: flip-flop D inputs (plus setup), then module outputs,
  // in net order. Net 0 stands for "no path".
  double worst = 0.0;
  std::int32_t worst_net = 0;
  for (const rtlil::FlatFf& ff : flat.ffs) {
    const double t = arrival[at(ff.d)] + dff_setup_ps();
    if (t > worst) {
      worst = t;
      worst_net = ff.d;
    }
  }
  for (std::int32_t n = 0; n < flat.num_nets; ++n) {
    if (output_pin[at(n)] != 0 && arrival[at(n)] > worst) {
      worst = arrival[at(n)];
      worst_net = n;
    }
  }

  TimingReport report;
  report.min_period_ps = worst;
  report.max_freq_mhz = worst > 0.0 ? 1e6 / worst : 0.0;

  // Walk the worst path backwards, each time to the gate's worst input, the
  // first in port order on a tie (an unused slot, at t = 0, never wins).
  for (std::int32_t net = worst_net; op_of[at(net)] >= 0;) {
    const rtlil::FlatOp& op = flat.ops[at(op_of[at(net)])];
    report.critical_path.push_back(driver[at(net)]);
    net = op.a;
    for (const std::int32_t in : {op.b, op.c}) {
      if (arrival[at(in)] > arrival[at(net)]) net = in;
    }
  }
  std::reverse(report.critical_path.begin(), report.critical_path.end());
  return report;
}

TimingReport analyze_timing(const rtlil::Module& module) { return TimingGraph(module).analyze(); }

}  // namespace scfi::synth
