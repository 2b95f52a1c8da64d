#include "synth/sizing.h"

#include <algorithm>

#include "synth/sta.h"
#include "synth/stat.h"
#include "synth/techlib.h"

namespace scfi::synth {
namespace {

constexpr int kMaxUpsizes = 20000;

/// Analytic benefit of upsizing one cell: reduction of its own stage delay
/// minus the extra delay its increased input capacitance inflicts on the
/// slowest upstream driver. Avoids a full STA per candidate.
double upsize_gain(const TimingGraph& graph, const rtlil::Cell& cell) {
  const GateInfo& info = techlib_gate(cell.type());
  const GateTiming& now = info.drive[static_cast<std::size_t>(cell.drive())];
  const GateTiming& up = info.drive[static_cast<std::size_t>(cell.drive() + 1)];
  const double load = graph.load(graph.flat.net_of(cell.port("Y").bit(0)));  // a one-bit gate
  const double own_gain = (now.intrinsic_ps - up.intrinsic_ps) + (now.slope_ps - up.slope_ps) * load;
  // Penalty: every driver of this cell sees +delta_cap on its net.
  const double delta_cap = up.input_cap - now.input_cap;
  double worst_penalty = 0.0;
  for (const std::string& p : rtlil::input_ports(cell.type())) {
    for (const rtlil::SigBit& b : cell.port(p).bits()) {
      const rtlil::Cell* driver = graph.driver[static_cast<std::size_t>(graph.flat.net_of(b))];
      if (driver == nullptr || rtlil::is_ff(driver->type())) continue;
      const GateTiming& dt =
          techlib_gate(driver->type()).drive[static_cast<std::size_t>(driver->drive())];
      worst_penalty = std::max(worst_penalty, dt.slope_ps * delta_cap);
    }
  }
  return own_gain - worst_penalty;
}

}  // namespace

SizingResult size_for_period(rtlil::Module& module, double target_period_ps) {
  for (rtlil::Cell* cell : module.cells()) cell->set_drive(0);

  SizingResult result;
  // Built once: an upsize changes drives only, so each round re-times
  // the same graph.
  const TimingGraph graph(module);
  TimingReport timing = graph.analyze();
  int upsizes = 0;
  double last_period = timing.min_period_ps;
  int stagnant_rounds = 0;
  while (timing.min_period_ps > target_period_ps && upsizes < kMaxUpsizes) {
    rtlil::Cell* best_cell = nullptr;
    double best_score = 0.0;
    for (const rtlil::Cell* path_cell : timing.critical_path) {
      if (path_cell->drive() + 1 >= kNumDrives) continue;
      auto* cell = const_cast<rtlil::Cell*>(path_cell);
      const double gain = upsize_gain(graph, *cell);
      const double area_cost =
          techlib_gate(cell->type()).drive[static_cast<std::size_t>(cell->drive() + 1)].area_ge -
          cell_area_ge(*cell);
      const double score = gain / std::max(area_cost, 1e-6);
      if (gain > 1e-9 && score > best_score) {
        best_score = score;
        best_cell = cell;
      }
    }
    if (best_cell == nullptr) {
      // Plateau: no single upsize has positive analytic gain. Force-upsize
      // the first path cell with headroom so a later driver upsize can
      // realize the chain gain; the drive lattice is finite.
      for (const rtlil::Cell* path_cell : timing.critical_path) {
        if (path_cell->drive() + 1 < kNumDrives) {
          best_cell = const_cast<rtlil::Cell*>(path_cell);
          break;
        }
      }
      if (best_cell == nullptr) break;  // whole path maxed out
    }
    best_cell->set_drive(best_cell->drive() + 1);
    ++upsizes;
    timing = graph.analyze();
    // Abandon when several consecutive rounds fail to improve the period.
    if (timing.min_period_ps >= last_period - 1e-9) {
      if (++stagnant_rounds > 64) break;
    } else {
      stagnant_rounds = 0;
      last_period = timing.min_period_ps;
    }
  }

  result.met = timing.min_period_ps <= target_period_ps;
  result.achieved_period_ps = timing.min_period_ps;
  result.area_ge = area_report(module).total_ge;
  result.upsized = upsizes;
  return result;
}

double min_achievable_period(rtlil::Module& module) {
  return size_for_period(module, 0.0).achieved_period_ps;
}

}  // namespace scfi::synth
