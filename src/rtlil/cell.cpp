#include "rtlil/cell.h"

#include "base/error.h"

namespace scfi::rtlil {

bool is_word_level(CellType type) {
  switch (type) {
    case CellType::kNot:
    case CellType::kAnd:
    case CellType::kOr:
    case CellType::kXor:
    case CellType::kXnor:
    case CellType::kMux:
    case CellType::kEq:
    case CellType::kReduceAnd:
    case CellType::kReduceOr:
    case CellType::kReduceXor:
    case CellType::kBuf:
    case CellType::kDff:
      return true;
    default:
      return false;
  }
}

bool is_ff(CellType type) { return type == CellType::kDff || type == CellType::kGateDff; }

bool is_gate(CellType type) { return !is_word_level(type); }

const char* cell_type_name(CellType type) {
  switch (type) {
    case CellType::kNot: return "$not";
    case CellType::kAnd: return "$and";
    case CellType::kOr: return "$or";
    case CellType::kXor: return "$xor";
    case CellType::kXnor: return "$xnor";
    case CellType::kMux: return "$mux";
    case CellType::kEq: return "$eq";
    case CellType::kReduceAnd: return "$reduce_and";
    case CellType::kReduceOr: return "$reduce_or";
    case CellType::kReduceXor: return "$reduce_xor";
    case CellType::kBuf: return "$buf";
    case CellType::kDff: return "$dff";
    case CellType::kGateInv: return "INV";
    case CellType::kGateBuf: return "BUF";
    case CellType::kGateNand2: return "NAND2";
    case CellType::kGateNor2: return "NOR2";
    case CellType::kGateAnd2: return "AND2";
    case CellType::kGateOr2: return "OR2";
    case CellType::kGateXor2: return "XOR2";
    case CellType::kGateXnor2: return "XNOR2";
    case CellType::kGateMux2: return "MUX2";
    case CellType::kGateAoi21: return "AOI21";
    case CellType::kGateOai21: return "OAI21";
    case CellType::kGateDff: return "DFF";
  }
  unreachable("cell_type_name: unknown type");
}

const SigSpec& Cell::port(std::string_view port) const {
  const auto it = ports_.find(port);
  if (it == ports_.end()) [[unlikely]] {
    detail::throw_check_failed("cell " + name_ + " has no port " + std::string(port));
  }
  return it->second;
}

void Cell::set_port(const std::string& port, SigSpec sig) { ports_[port] = std::move(sig); }

}  // namespace scfi::rtlil
