// Flattening of a module into bit operations: the one netlist form both
// fault engines read. The simulator (sim/netlist_sim.h) evaluates the ops
// 64 x lane_words lanes at a time; the CNF encoder (sat/cnf.h) gives each
// op its Tseitin clauses. Cell semantics (which op a word-level or gate
// cell becomes, and the balanced trees of eq and reduce cells) therefore
// live only here, and so do a flat netlist's fan-in cones and slices and
// the one structural check of a module (validate_module).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "rtlil/validate.h"

namespace scfi::rtlil {

/// One bit operation. Unused operand slots point at net 0 (constant 0).
struct FlatOp {
  enum class Kind : std::uint8_t {
    kBuf, kNot, kAnd, kOr, kXor, kXnor, kMux, kAoi21, kOai21, kNand, kNor
  };
  Kind kind;
  std::int32_t out;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;  ///< S for mux (out = c ? b : a), C for AOI/OAI
};

/// One flip-flop bit: Q takes D at the clock edge; `reset` is its reset value.
struct FlatFf {
  std::int32_t d;
  std::int32_t q;
  bool reset;
};

struct FlatNetlist {
  /// The flattened module: wire names resolve through it.
  const Module* module = nullptr;
  /// Nets 0 and 1 are the constants; wire w owns [wire_base[w],
  /// wire_base[w] + width); nets past the wires are tree temporaries.
  std::int32_t num_nets = 2;
  std::unordered_map<const Wire*, std::int32_t> wire_base;
  /// Combinational ops in topological order; every non-input,
  /// non-register net is the output of exactly one op.
  std::vector<FlatOp> ops;
  /// Every flip-flop bit, in cell order.
  std::vector<FlatFf> ffs;

  /// Net of a bit: 0/1 for constants. Throws LogicBug for a wire of
  /// another module.
  std::int32_t net_of(const SigBit& bit) const;
};

/// Flattens `module`: checks it as validate_module does, then emits its
/// combinational cells in dependency order and its flip-flops in cell order.
FlatNetlist flatten(const Module& module);

/// Fan-in cone of `roots`, closed over flip-flops: one flag per net, set
/// for every root, every operand of a flagged op output and the D of every
/// flagged flip-flop Q, to a fixpoint, so a fault on an unflagged net never
/// changes a root. O(ops + nets); net 0 may be flagged (unused operands).
std::vector<char> fanin_cone(const FlatNetlist& flat, const std::vector<std::int32_t>& roots);

/// `flat`'s ops whose output and flip-flops whose Q is flagged in `cone`,
/// in order, over `flat`'s net numbering. Sliced to a fanin_cone(), the
/// cone nets settle and latch as in `flat` under any stimulus and faults.
FlatNetlist slice(const FlatNetlist& flat, const std::vector<char>& cone);

}  // namespace scfi::rtlil
