// Static timing analysis on mapped netlists.
//
// Simple but complete register-to-register model: module inputs arrive at
// t=0, flip-flop outputs at clock-to-Q; every gate adds an intrinsic delay
// plus a load-dependent term (sum of the input capacitances it drives); the
// minimum clock period is the worst arrival at any flip-flop D input plus
// setup, or at any module output.
#pragma once

#include <cstdint>
#include <vector>

#include "rtlil/flatten.h"

namespace scfi::synth {

struct TimingReport {
  double min_period_ps = 0.0;
  double max_freq_mhz = 0.0;
  /// Gates along the critical path, source to sink.
  std::vector<const rtlil::Cell*> critical_path;
};

/// A gate-level module's timing graph over its flattened net ids, built
/// once. analyze() reads the cells' current drives, so gate sizing re-times
/// one graph after each upsize. `module` must outlive it.
struct TimingGraph {
  /// Flattens `module`, which checks it; every cell must be a mapped gate.
  explicit TimingGraph(const rtlil::Module& module);

  TimingReport analyze() const;
  /// The input capacitances of `net`'s readers, in cell and port order,
  /// plus the external pin load of a module output.
  double load(std::int32_t net) const;

  rtlil::FlatNetlist flat;
  std::vector<const rtlil::Cell*> driver;  ///< per net; nullptr: none
  std::vector<std::int32_t> op_of;         ///< per net: its op (one per gate), or -1
  std::vector<std::size_t> reader_start;   ///< net n's readers: [reader_start[n], [n + 1])
  std::vector<const rtlil::Cell*> readers;
  std::vector<char> output_pin;  ///< per net: a bit of a module output
};

/// Analyzes `module` (must be gate-level and loop-free).
TimingReport analyze_timing(const rtlil::Module& module);

}  // namespace scfi::synth
