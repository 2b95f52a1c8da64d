#include "sat/cnf.h"

#include <utility>

#include "base/error.h"

namespace scfi::sat {

using rtlil::FlatOp;
using rtlil::SigBit;

CnfCopy::CnfCopy(Solver& solver, const rtlil::Module& module,
                 const std::unordered_map<SigBit, int>& bound,
                 const std::optional<CnfFault>& fault)
    : CnfCopy(solver, module, bound,
              fault ? std::vector<CnfFault>{*fault} : std::vector<CnfFault>{}) {}

CnfCopy::CnfCopy(Solver& solver, const rtlil::Module& module,
                 const std::unordered_map<SigBit, int>& bound,
                 const std::vector<CnfFault>& faults)
    : CnfCopy(solver, std::make_shared<const rtlil::FlatNetlist>(rtlil::flatten(module)), bound,
              faults) {}

CnfCopy::CnfCopy(Solver& solver, std::shared_ptr<const rtlil::FlatNetlist> flat,
                 const std::unordered_map<SigBit, int>& bound,
                 const std::vector<CnfFault>& faults)
    : solver_(&solver), flat_(std::move(flat)) {
  const int const_true = solver.new_var();
  solver.add_unit(const_true);
  const auto nets = static_cast<std::size_t>(flat_->num_nets);
  vars_.assign(nets, 0);
  vars_[0] = -const_true;
  vars_[1] = const_true;
  for (const auto& [bit, var] : bound) {
    if (!bit.is_const()) vars_[static_cast<std::size_t>(flat_->net_of(bit))] = var;
  }

  // Allocate the readers' view of every faulted net up front so the op
  // encoding below routes consumers through it.
  overrides_.assign(nets, 0);
  for (const CnfFault& f : faults) {
    check(!f.bit.is_const(), "CnfCopy: cannot fault a constant bit");
    int& fv = overrides_[static_cast<std::size_t>(flat_->net_of(f.bit))];
    check(fv == 0, "CnfCopy: duplicate fault site");
    fv = solver.new_var();
  }

  for (const FlatOp& op : flat_->ops) encode(op);

  for (const CnfFault& f : faults) {
    const std::int32_t net = flat_->net_of(f.bit);
    const int fv = overrides_[static_cast<std::size_t>(net)];
    // Ensure the faulted net has a variable even if nothing read it yet.
    const int orig = driven(net);
    if (f.selector == 0) {
      switch (f.kind) {
        case CnfFaultKind::kFlip:
          // fv == !orig
          solver.add_binary(fv, orig);
          solver.add_binary(-fv, -orig);
          break;
        case CnfFaultKind::kStuckAt0:
          solver.add_unit(-fv);
          break;
        case CnfFaultKind::kStuckAt1:
          solver.add_unit(fv);
          break;
      }
      continue;
    }
    // Gated override: selector off means pass-through (fv == orig), so the
    // same copy serves every query with exactly the selected fault active.
    const Lit sel = f.selector;
    switch (f.kind) {
      case CnfFaultKind::kFlip:
        // fv == sel XOR orig
        solver.add_ternary(-fv, sel, orig);
        solver.add_ternary(-fv, -sel, -orig);
        solver.add_ternary(fv, -sel, orig);
        solver.add_ternary(fv, sel, -orig);
        break;
      case CnfFaultKind::kStuckAt0:
        solver.add_binary(-sel, -fv);
        solver.add_ternary(sel, -fv, orig);
        solver.add_ternary(sel, fv, -orig);
        break;
      case CnfFaultKind::kStuckAt1:
        solver.add_binary(-sel, fv);
        solver.add_ternary(sel, -fv, orig);
        solver.add_ternary(sel, fv, -orig);
        break;
    }
  }
}

int CnfCopy::driven(std::int32_t net) {
  int& v = vars_[static_cast<std::size_t>(net)];
  if (v == 0) v = solver_->new_var();
  return v;
}

int CnfCopy::reader(std::int32_t net) {
  const int fv = overrides_[static_cast<std::size_t>(net)];
  return fv != 0 ? fv : driven(net);
}

int CnfCopy::emit_and(int a, int b) {
  const int y = solver_->new_var();
  solver_->add_binary(-y, a);
  solver_->add_binary(-y, b);
  solver_->add_ternary(y, -a, -b);
  return y;
}

int CnfCopy::emit_or(int a, int b) {
  const int y = solver_->new_var();
  solver_->add_binary(y, -a);
  solver_->add_binary(y, -b);
  solver_->add_ternary(-y, a, b);
  return y;
}

int CnfCopy::emit_xor(int a, int b) {
  const int y = solver_->new_var();
  solver_->add_ternary(-y, a, b);
  solver_->add_ternary(-y, -a, -b);
  solver_->add_ternary(y, -a, b);
  solver_->add_ternary(y, a, -b);
  return y;
}

int CnfCopy::emit_mux(int s, int a, int b) {
  // y = s ? b : a
  const int y = solver_->new_var();
  solver_->add_ternary(-y, s, a);
  solver_->add_ternary(y, s, -a);
  solver_->add_ternary(-y, -s, b);
  solver_->add_ternary(y, -s, -b);
  return y;
}

void CnfCopy::encode(const FlatOp& op) {
  // Unused operand slots are net 0, whose variable is the constant: reading
  // them allocates nothing.
  const int a = reader(op.a);
  const int b = reader(op.b);
  const int c = reader(op.c);
  int y = 0;
  switch (op.kind) {
    case FlatOp::Kind::kBuf: y = a; break;
    case FlatOp::Kind::kNot: y = -a; break;
    case FlatOp::Kind::kAnd: y = emit_and(a, b); break;
    case FlatOp::Kind::kOr: y = emit_or(a, b); break;
    case FlatOp::Kind::kXor: y = emit_xor(a, b); break;
    case FlatOp::Kind::kXnor: y = -emit_xor(a, b); break;
    case FlatOp::Kind::kMux: y = emit_mux(c, a, b); break;
    case FlatOp::Kind::kAoi21: y = -emit_or(emit_and(a, b), c); break;
    case FlatOp::Kind::kOai21: y = -emit_and(emit_or(a, b), c); break;
    case FlatOp::Kind::kNand: y = -emit_and(a, b); break;
    case FlatOp::Kind::kNor: y = -emit_or(a, b); break;
  }
  int& out = vars_[static_cast<std::size_t>(op.out)];
  if (out == 0) {
    out = y;
  } else {
    // Already referenced (or bound): tie with equivalence clauses.
    solver_->add_binary(-out, y);
    solver_->add_binary(out, -y);
  }
}

int CnfCopy::net_var(std::int32_t net) const {
  const int fv = overrides_[static_cast<std::size_t>(net)];
  if (fv != 0) return fv;
  const int v = vars_[static_cast<std::size_t>(net)];
  check(v != 0, "CnfCopy: bit has no variable");
  return v;
}

std::vector<int> CnfCopy::wire_vars(const std::string& wire) const {
  const rtlil::Wire* w = flat_->module->wire(wire);
  require(w != nullptr, "CnfCopy::wire_vars: no wire " + wire);
  const std::int32_t base = flat_->wire_base.at(w);
  std::vector<int> out;
  for (int i = 0; i < w->width(); ++i) out.push_back(net_var(base + i));
  return out;
}

std::vector<int> CnfCopy::ff_next_vars(const std::string& q_wire) const {
  const rtlil::Wire* w = flat_->module->wire(q_wire);
  require(w != nullptr, "CnfCopy::ff_next_vars: no wire " + q_wire);
  const std::int32_t base = flat_->wire_base.at(w);
  std::vector<int> out(static_cast<std::size_t>(w->width()), 0);
  for (const rtlil::FlatFf& ff : flat_->ffs) {
    if (ff.q >= base && ff.q < base + w->width()) {
      out[static_cast<std::size_t>(ff.q - base)] = net_var(ff.d);
    }
  }
  for (const int v : out) {
    require(v != 0, "CnfCopy::ff_next_vars: wire " + q_wire + " not fully registered");
  }
  return out;
}

}  // namespace scfi::sat
