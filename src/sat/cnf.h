// Tseitin encoding of netlists into CNF, with support for shared-input
// module copies and single-net fault overrides (the building block of the
// SYNFI fault miters). A copy encodes the bit ops of rtlil::flatten(), the
// same flat netlist the simulator evaluates, so both engines share one
// definition of every cell type; the encoder only knows the ops.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "rtlil/flatten.h"
#include "sat/solver.h"

namespace scfi::sat {

enum class CnfFaultKind { kFlip, kStuckAt0, kStuckAt1 };

struct CnfFault {
  rtlil::SigBit bit;  ///< faulted net (as its readers see it)
  CnfFaultKind kind = CnfFaultKind::kFlip;
  /// Activation literal: 0 = always-on (the classic single-fault miter).
  /// Otherwise the override is conditional — selector true injects the
  /// fault, selector false makes the net pass through unchanged. Gating
  /// many faults on fresh selectors (plus `exactly_one`) turns one encoded
  /// copy into a whole family of single-fault miters answerable via
  /// `Solver::solve(assumptions)`.
  Lit selector = 0;
};

/// One encoded copy of a flat netlist.
class CnfCopy {
 public:
  /// Encodes the ops of `flat` into `solver`, with any number of
  /// (optionally selector-gated) fault overrides on distinct bits.
  /// `bound` pre-binds wire bits to existing solver variables (use it to
  /// share inputs and state registers between copies). Flip-flops are cut:
  /// their Q bits become free variables (unless bound), their D bits are
  /// readable outputs.
  CnfCopy(Solver& solver, std::shared_ptr<const rtlil::FlatNetlist> flat,
          const std::unordered_map<rtlil::SigBit, int>& bound,
          const std::vector<CnfFault>& faults);

  /// Encodes rtlil::flatten(module), with at most one fault or with `faults`.
  CnfCopy(Solver& solver, const rtlil::Module& module,
          const std::unordered_map<rtlil::SigBit, int>& bound,
          const std::optional<CnfFault>& fault = std::nullopt);
  CnfCopy(Solver& solver, const rtlil::Module& module,
          const std::unordered_map<rtlil::SigBit, int>& bound,
          const std::vector<CnfFault>& faults);

  /// Variable carrying the value of a net of the netlist as seen by readers
  /// in this copy (i.e. after the fault override, when it targets the net).
  /// Throws when nothing in the copy reads or drives the net.
  int net_var(std::int32_t net) const;

  /// Convenience: reader variables of a whole wire, LSB first.
  std::vector<int> wire_vars(const std::string& wire) const;

  /// Reader variables of a flip-flop D pin, LSB first (the "next value").
  std::vector<int> ff_next_vars(const std::string& q_wire) const;

  Solver& solver() const { return *solver_; }

 private:
  /// Readers' view of a net (its fault override, if any); creates a free
  /// variable on demand.
  int reader(std::int32_t net);
  int driven(std::int32_t net);  ///< pre-fault view; creates on demand
  void encode(const rtlil::FlatOp& op);
  int emit_and(int a, int b);
  int emit_or(int a, int b);
  int emit_xor(int a, int b);
  int emit_mux(int s, int a, int b);

  Solver* solver_;
  std::shared_ptr<const rtlil::FlatNetlist> flat_;
  std::vector<int> vars_;       ///< driven value per net (0 = not yet allocated)
  std::vector<int> overrides_;  ///< readers' view per faulted net, else 0
};

}  // namespace scfi::sat
