// Module: owns wires and cells, provides the word-level builder API used by
// the FSM compiler, the SCFI pass and the datapath library.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "rtlil/cell.h"
#include "rtlil/sig.h"

namespace scfi::rtlil {

class Wire {
 public:
  Wire(std::string name, int width) : name_(std::move(name)), width_(width) {}

  const std::string& name() const { return name_; }
  int width() const { return width_; }

  bool is_input() const { return input_; }
  bool is_output() const { return output_; }
  void set_input(bool v) { input_ = v; }
  void set_output(bool v) { output_ = v; }

 private:
  std::string name_;
  int width_;
  bool input_ = false;
  bool output_ = false;
};

class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  const std::string& name() const { return name_; }

  // --- wires -------------------------------------------------------------
  Wire* add_wire(const std::string& name, int width);
  Wire* add_input(const std::string& name, int width);
  Wire* add_output(const std::string& name, int width);
  Wire* wire(const std::string& name) const;  ///< nullptr when absent
  const std::vector<Wire*>& wires() const { return wire_order_; }

  /// Removes wires that no cell references any more (the caller's
  /// responsibility). A cell still holding a removed wire's bit holds a
  /// dangling pointer: validate_module and flatten reject it by the pointer
  /// value alone, never reading the wire, but cannot tell it from a wire
  /// added later at the same address.
  void remove_wires(const std::vector<Wire*>& dead);

  // --- cells -------------------------------------------------------------
  Cell* add_cell(const std::string& name, CellType type);
  void remove_cells(const std::vector<Cell*>& dead);
  const std::vector<Cell*>& cells() const { return cell_order_; }

  /// Generates a fresh name with the given prefix.
  std::string uniquify(const std::string& prefix);

  // --- word-level builders (each returns the Y/Q output spec) -------------
  SigSpec make_not(const SigSpec& a, const std::string& hint = "not");
  SigSpec make_and(const SigSpec& a, const SigSpec& b, const std::string& hint = "and");
  SigSpec make_or(const SigSpec& a, const SigSpec& b, const std::string& hint = "or");
  SigSpec make_xor(const SigSpec& a, const SigSpec& b, const std::string& hint = "xor");
  SigSpec make_xnor(const SigSpec& a, const SigSpec& b, const std::string& hint = "xnor");
  SigSpec make_mux(const SigSpec& s, const SigSpec& a, const SigSpec& b,
                   const std::string& hint = "mux");
  SigSpec make_eq(const SigSpec& a, const SigSpec& b, const std::string& hint = "eq");
  SigSpec make_reduce_and(const SigSpec& a, const std::string& hint = "rand");
  SigSpec make_reduce_or(const SigSpec& a, const std::string& hint = "ror");
  SigSpec make_reduce_xor(const SigSpec& a, const std::string& hint = "rxor");
  SigSpec make_buf(const SigSpec& a, const std::string& hint = "buf");
  /// D flip-flop with reset value; returns Q.
  SigSpec make_dff(const SigSpec& d, const Const& reset, const std::string& hint = "dff");
  /// Drives an existing signal (typically an output port wire) from `src`
  /// through a Buf cell.
  void drive(const SigSpec& dst, const SigSpec& src);

 private:
  SigSpec fresh(int width, const std::string& hint);

  std::string name_;
  std::unordered_map<std::string, std::unique_ptr<Wire>> wires_;
  std::unordered_map<std::string, std::unique_ptr<Cell>> cells_;
  std::vector<Wire*> wire_order_;
  std::vector<Cell*> cell_order_;
  std::uint64_t name_counter_ = 0;
};

}  // namespace scfi::rtlil
