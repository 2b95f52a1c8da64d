// Cell model: word-level operators (Yosys-style) and mapped standard-cell
// gates live in one type system so passes can handle mixed netlists.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "rtlil/sig.h"

namespace scfi::rtlil {

enum class CellType {
  // Word-level cells (arbitrary width, bitwise unless noted).
  kNot,        // Y = ~A
  kAnd,        // Y = A & B
  kOr,         // Y = A | B
  kXor,        // Y = A ^ B
  kXnor,       // Y = ~(A ^ B)
  kMux,        // Y = S ? B : A          (S is 1 bit)
  kEq,         // Y = (A == B)           (Y is 1 bit)
  kReduceAnd,  // Y = &A                 (Y is 1 bit)
  kReduceOr,   // Y = |A                 (Y is 1 bit)
  kReduceXor,  // Y = ^A                 (Y is 1 bit)
  kBuf,        // Y = A (alias; removed by opt_clean)
  kDff,        // Q <= D, with a reset Const applied by the simulator/reset
  // One-bit standard-cell gates (after lowering / technology mapping).
  kGateInv,    // Y = !A
  kGateBuf,    // Y = A
  kGateNand2,  // Y = !(A & B)
  kGateNor2,   // Y = !(A | B)
  kGateAnd2,   // Y = A & B
  kGateOr2,    // Y = A | B
  kGateXor2,   // Y = A ^ B
  kGateXnor2,  // Y = !(A ^ B)
  kGateMux2,   // Y = S ? B : A
  kGateAoi21,  // Y = !((A & B) | C)
  kGateOai21,  // Y = !((A | B) & C)
  kGateDff,    // Q <= D (1 bit), param reset bit
};

/// True for word-level types that the lowering pass must decompose.
bool is_word_level(CellType type);

/// True for the two flip-flop types.
bool is_ff(CellType type);

/// True for single-bit mapped gates (including kGateDff).
bool is_gate(CellType type);

const char* cell_type_name(CellType type);

class Cell {
 public:
  Cell(std::string name, CellType type) : name_(std::move(name)), type_(type) {}

  const std::string& name() const { return name_; }
  CellType type() const { return type_; }
  void set_type(CellType t) { type_ = t; }

  bool has_port(std::string_view port) const { return ports_.find(port) != ports_.end(); }
  /// Throws LogicBug when the cell has no such port.
  const SigSpec& port(std::string_view port) const;
  void set_port(const std::string& port, SigSpec sig);
  void unset_port(const std::string& port) { ports_.erase(port); }
  const std::map<std::string, SigSpec, std::less<>>& ports() const { return ports_; }

  /// Reset value for kDff/kGateDff cells (width matches Q).
  const Const& reset_value() const { return reset_; }
  void set_reset_value(Const value) { reset_ = std::move(value); }

  /// Drive-strength index into the techlib variants (0 = X1).
  int drive() const { return drive_; }
  void set_drive(int d) { drive_ = d; }

  /// Cells in different share groups are never merged by the optimizer's
  /// structural sharing pass. Used to keep manually instantiated redundant
  /// logic copies physically separate (paper §6.1(ii) / §6.4 note on
  /// optimizers weakening redundancy-based countermeasures).
  int share_group() const { return share_group_; }
  void set_share_group(int g) { share_group_ = g; }

 private:
  std::string name_;
  CellType type_;
  std::map<std::string, SigSpec, std::less<>> ports_;
  Const reset_;
  int drive_ = 0;
  int share_group_ = 0;
};

}  // namespace scfi::rtlil
