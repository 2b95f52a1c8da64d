// Structural validation and netlist indexing.
//
// NetlistIndex computes, for a module, the driver of every wire bit and a
// topological order of the combinational cells (throwing on combinational
// loops). It is the shared backbone of the simulator, static timing analysis
// and the optimization passes.
#pragma once

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "rtlil/module.h"

namespace scfi::rtlil {

/// Names of the output ports of a cell type ("Y" or "Q").
const char* output_port(CellType type);

/// Names of the input ports of a cell type, in canonical order (static
/// storage: the call allocates nothing).
std::span<const std::string> input_ports(CellType type);

/// Validates port presence/widths and driver uniqueness; throws ScfiError
/// with a diagnostic on the first violation. Also rejects combinational
/// loops (via NetlistIndex).
void validate_module(const Module& module);

class NetlistIndex {
 public:
  explicit NetlistIndex(const Module& module);

  const Module& module() const { return *module_; }

  /// Driving cell of a wire bit; nullptr for inputs/undriven bits.
  Cell* driver(const SigBit& bit) const;

  /// Combinational cells in dependency order (inputs/FF outputs first).
  const std::vector<Cell*>& topo_comb() const { return topo_comb_; }

  /// All flip-flop cells.
  const std::vector<Cell*>& ffs() const { return ffs_; }

  /// All cells reading a given wire bit.
  std::vector<Cell*> readers(const SigBit& bit) const;

 private:
  const Module* module_;
  std::unordered_map<SigBit, Cell*> driver_;
  std::unordered_map<SigBit, std::vector<Cell*>> readers_;
  std::vector<Cell*> topo_comb_;
  std::vector<Cell*> ffs_;
};

}  // namespace scfi::rtlil
