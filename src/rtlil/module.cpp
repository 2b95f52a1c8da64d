#include "rtlil/module.h"

#include <algorithm>

#include "base/error.h"
#include "base/strutil.h"

namespace scfi::rtlil {

Wire* Module::add_wire(const std::string& name, int width) {
  if (width <= 0) [[unlikely]] throw ScfiError("wire " + name + " must have positive width");
  const auto [it, inserted] = wires_.try_emplace(name);
  if (!inserted) [[unlikely]] throw ScfiError("duplicate wire name: " + name);
  it->second = std::make_unique<Wire>(name, width);
  wire_order_.push_back(it->second.get());
  return it->second.get();
}

Wire* Module::add_input(const std::string& name, int width) {
  Wire* w = add_wire(name, width);
  w->set_input(true);
  return w;
}

Wire* Module::add_output(const std::string& name, int width) {
  Wire* w = add_wire(name, width);
  w->set_output(true);
  return w;
}

Wire* Module::wire(const std::string& name) const {
  const auto it = wires_.find(name);
  return it == wires_.end() ? nullptr : it->second.get();
}

void Module::remove_wires(const std::vector<Wire*>& dead) {
  for (Wire* w : dead) {
    wire_order_.erase(std::remove(wire_order_.begin(), wire_order_.end(), w), wire_order_.end());
    wires_.erase(w->name());
  }
}

Cell* Module::add_cell(const std::string& name, CellType type) {
  const auto [it, inserted] = cells_.try_emplace(name);
  if (!inserted) [[unlikely]] throw ScfiError("duplicate cell name: " + name);
  it->second = std::make_unique<Cell>(name, type);
  cell_order_.push_back(it->second.get());
  return it->second.get();
}

void Module::remove_cells(const std::vector<Cell*>& dead) {
  for (Cell* c : dead) {
    cell_order_.erase(std::remove(cell_order_.begin(), cell_order_.end(), c), cell_order_.end());
    cells_.erase(c->name());
  }
}

std::string Module::uniquify(const std::string& prefix) {
  for (;;) {
    std::string cand = prefix + "_" + std::to_string(name_counter_++);
    if (wires_.count(cand) == 0 && cells_.count(cand) == 0) return cand;
  }
}

SigSpec Module::fresh(int width, const std::string& hint) {
  return SigSpec(add_wire(uniquify(hint), width));
}

namespace {
void same_width(const SigSpec& a, const SigSpec& b, const char* what) {
  if (a.width() != b.width()) [[unlikely]] {
    detail::throw_check_failed(std::string(what) + ": operand width mismatch");
  }
}
}  // namespace

SigSpec Module::make_not(const SigSpec& a, const std::string& hint) {
  SigSpec y = fresh(a.width(), hint);
  Cell* c = add_cell(uniquify(hint + "_c"), CellType::kNot);
  c->set_port("A", a);
  c->set_port("Y", y);
  return y;
}

SigSpec Module::make_and(const SigSpec& a, const SigSpec& b, const std::string& hint) {
  same_width(a, b, "$and");
  SigSpec y = fresh(a.width(), hint);
  Cell* c = add_cell(uniquify(hint + "_c"), CellType::kAnd);
  c->set_port("A", a);
  c->set_port("B", b);
  c->set_port("Y", y);
  return y;
}

SigSpec Module::make_or(const SigSpec& a, const SigSpec& b, const std::string& hint) {
  same_width(a, b, "$or");
  SigSpec y = fresh(a.width(), hint);
  Cell* c = add_cell(uniquify(hint + "_c"), CellType::kOr);
  c->set_port("A", a);
  c->set_port("B", b);
  c->set_port("Y", y);
  return y;
}

SigSpec Module::make_xor(const SigSpec& a, const SigSpec& b, const std::string& hint) {
  same_width(a, b, "$xor");
  SigSpec y = fresh(a.width(), hint);
  Cell* c = add_cell(uniquify(hint + "_c"), CellType::kXor);
  c->set_port("A", a);
  c->set_port("B", b);
  c->set_port("Y", y);
  return y;
}

SigSpec Module::make_xnor(const SigSpec& a, const SigSpec& b, const std::string& hint) {
  same_width(a, b, "$xnor");
  SigSpec y = fresh(a.width(), hint);
  Cell* c = add_cell(uniquify(hint + "_c"), CellType::kXnor);
  c->set_port("A", a);
  c->set_port("B", b);
  c->set_port("Y", y);
  return y;
}

SigSpec Module::make_mux(const SigSpec& s, const SigSpec& a, const SigSpec& b,
                         const std::string& hint) {
  same_width(a, b, "$mux");
  check(s.width() == 1, "$mux: select must be one bit");
  SigSpec y = fresh(a.width(), hint);
  Cell* c = add_cell(uniquify(hint + "_c"), CellType::kMux);
  c->set_port("S", s);
  c->set_port("A", a);
  c->set_port("B", b);
  c->set_port("Y", y);
  return y;
}

SigSpec Module::make_eq(const SigSpec& a, const SigSpec& b, const std::string& hint) {
  same_width(a, b, "$eq");
  SigSpec y = fresh(1, hint);
  Cell* c = add_cell(uniquify(hint + "_c"), CellType::kEq);
  c->set_port("A", a);
  c->set_port("B", b);
  c->set_port("Y", y);
  return y;
}

SigSpec Module::make_reduce_and(const SigSpec& a, const std::string& hint) {
  SigSpec y = fresh(1, hint);
  Cell* c = add_cell(uniquify(hint + "_c"), CellType::kReduceAnd);
  c->set_port("A", a);
  c->set_port("Y", y);
  return y;
}

SigSpec Module::make_reduce_or(const SigSpec& a, const std::string& hint) {
  SigSpec y = fresh(1, hint);
  Cell* c = add_cell(uniquify(hint + "_c"), CellType::kReduceOr);
  c->set_port("A", a);
  c->set_port("Y", y);
  return y;
}

SigSpec Module::make_reduce_xor(const SigSpec& a, const std::string& hint) {
  SigSpec y = fresh(1, hint);
  Cell* c = add_cell(uniquify(hint + "_c"), CellType::kReduceXor);
  c->set_port("A", a);
  c->set_port("Y", y);
  return y;
}

SigSpec Module::make_buf(const SigSpec& a, const std::string& hint) {
  SigSpec y = fresh(a.width(), hint);
  Cell* c = add_cell(uniquify(hint + "_c"), CellType::kBuf);
  c->set_port("A", a);
  c->set_port("Y", y);
  return y;
}

SigSpec Module::make_dff(const SigSpec& d, const Const& reset, const std::string& hint) {
  check(reset.width() == d.width(), "$dff: reset width mismatch");
  SigSpec q = fresh(d.width(), hint + "_q");
  Cell* c = add_cell(uniquify(hint + "_c"), CellType::kDff);
  c->set_port("D", d);
  c->set_port("Q", q);
  c->set_reset_value(reset);
  return q;
}

void Module::drive(const SigSpec& dst, const SigSpec& src) {
  same_width(dst, src, "drive");
  Cell* c = add_cell(uniquify("drv_c"), CellType::kBuf);
  c->set_port("A", src);
  c->set_port("Y", dst);
}

}  // namespace scfi::rtlil
