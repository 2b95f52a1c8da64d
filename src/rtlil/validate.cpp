#include "rtlil/validate.h"

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

}  // namespace scfi::rtlil
