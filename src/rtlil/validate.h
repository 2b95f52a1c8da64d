// Cell port conventions and structural validation.
//
// validate_module is rtlil::flatten's structural pass without the ops (both
// live in rtlil/flatten.cpp): every engine checks the module it flattens.
#pragma once

#include <span>
#include <string>

#include "rtlil/module.h"

namespace scfi::rtlil {

/// Names of the output ports of a cell type ("Y" or "Q").
const char* output_port(CellType type);

/// Names of the input ports of a cell type, in canonical order (static
/// storage: the call allocates nothing).
std::span<const std::string> input_ports(CellType type);

/// Throws ScfiError on the first violation, cell by cell: missing ports and
/// port widths, then a driven constant, input or twice-driven bit, and a bit
/// on no wire of the module; last, a loop between combinational cells.
void validate_module(const Module& module);

}  // namespace scfi::rtlil
