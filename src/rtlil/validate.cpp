#include "rtlil/validate.h"

#include <deque>
#include <string_view>

#include "base/error.h"

namespace scfi::rtlil {

const char* output_port(CellType type) {
  return is_ff(type) ? "Q" : "Y";
}

std::span<const std::string> input_ports(CellType type) {
  static const std::string kA[] = {"A"};
  static const std::string kAB[] = {"A", "B"};
  static const std::string kABS[] = {"A", "B", "S"};
  static const std::string kABC[] = {"A", "B", "C"};
  static const std::string kD[] = {"D"};
  switch (type) {
    case CellType::kNot:
    case CellType::kBuf:
    case CellType::kReduceAnd:
    case CellType::kReduceOr:
    case CellType::kReduceXor:
    case CellType::kGateInv:
    case CellType::kGateBuf:
      return kA;
    case CellType::kAnd:
    case CellType::kOr:
    case CellType::kXor:
    case CellType::kXnor:
    case CellType::kEq:
    case CellType::kGateNand2:
    case CellType::kGateNor2:
    case CellType::kGateAnd2:
    case CellType::kGateOr2:
    case CellType::kGateXor2:
    case CellType::kGateXnor2:
      return kAB;
    case CellType::kMux:
    case CellType::kGateMux2:
      return kABS;
    case CellType::kGateAoi21:
    case CellType::kGateOai21:
      return kABC;
    case CellType::kDff:
    case CellType::kGateDff:
      return kD;
  }
  unreachable("input_ports: unknown cell type");
}

namespace {

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

}  // namespace

NetlistIndex::NetlistIndex(const Module& module) : module_(&module) {
  for (Cell* cell : module.cells()) {
    check_widths(*cell);
    const SigSpec& out = cell->port(output_port(cell->type()));
    for (const SigBit& bit : out.bits()) {
      if (bit.is_const()) [[unlikely]] {
        throw ScfiError("cell " + cell->name() + " drives a constant bit");
      }
      if (bit.wire->is_input()) [[unlikely]] {
        throw ScfiError("cell " + cell->name() + " drives input wire " + bit.wire->name());
      }
      const auto [it, inserted] = driver_.emplace(bit, cell);
      if (!inserted) [[unlikely]] {
        throw ScfiError("multiple drivers on wire " + bit.wire->name() + " (cells " +
                        it->second->name() + ", " + cell->name() + ")");
      }
    }
    for (const std::string& p : input_ports(cell->type())) {
      for (const SigBit& bit : cell->port(p).bits()) {
        if (!bit.is_const()) readers_[bit].push_back(cell);
      }
    }
    if (is_ff(cell->type())) ffs_.push_back(cell);
  }

  // Kahn topological sort of combinational cells. FF outputs and module
  // inputs have no combinational driver and act as sources.
  std::unordered_map<Cell*, int> pending;
  std::deque<Cell*> ready;
  for (Cell* cell : module.cells()) {
    if (is_ff(cell->type())) continue;
    int deps = 0;
    for (const std::string& p : input_ports(cell->type())) {
      for (const SigBit& bit : cell->port(p).bits()) {
        if (bit.is_const()) continue;
        const auto it = driver_.find(bit);
        if (it != driver_.end() && !is_ff(it->second->type())) ++deps;
      }
    }
    pending[cell] = deps;
    if (deps == 0) ready.push_back(cell);
  }
  while (!ready.empty()) {
    Cell* cell = ready.front();
    ready.pop_front();
    topo_comb_.push_back(cell);
    for (const SigBit& bit : cell->port(output_port(cell->type())).bits()) {
      const auto it = readers_.find(bit);
      if (it == readers_.end()) continue;
      for (Cell* reader : it->second) {
        if (is_ff(reader->type())) continue;
        if (--pending[reader] == 0) ready.push_back(reader);
      }
    }
  }
  std::size_t comb_count = 0;
  for (Cell* cell : module.cells()) {
    if (!is_ff(cell->type())) ++comb_count;
  }
  if (topo_comb_.size() != comb_count) {
    throw ScfiError("module " + module.name() + ": combinational loop detected");
  }
}

Cell* NetlistIndex::driver(const SigBit& bit) const {
  const auto it = driver_.find(bit);
  return it == driver_.end() ? nullptr : it->second;
}

std::vector<Cell*> NetlistIndex::readers(const SigBit& bit) const {
  const auto it = readers_.find(bit);
  return it == readers_.end() ? std::vector<Cell*>() : it->second;
}

void validate_module(const Module& module) {
  NetlistIndex index(module);  // performs all checks
  (void)index;
}

}  // namespace scfi::rtlil
