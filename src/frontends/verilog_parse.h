// Structural Verilog-2001 front door: parser + elaborator into the RTLIL
// netlist IR — the read-side complement of backends/verilog.cpp.
//
// Supported subset (the writer's output plus common synthesized-netlist
// idioms):
//   * `module`/`endmodule` with ANSI (`module m (input wire [3:0] a, ...)`)
//     or non-ANSI (`module m (a, b); input [3:0] a; ...`) port styles
//   * `wire`/`reg` declarations with `[msb:lsb]` ranges (lsb need not be 0)
//   * continuous `assign` with bitwise (`~ & | ^`), reduction (`&a |a ^a`),
//     logical-not (`!`), equality (`==`), and ternary (`s ? b : a`)
//     expressions over identifiers, bit-/part-selects, concatenations and
//     sized/based constants
//   * primitive gate instantiations (`and`/`nand`/`or`/`nor`/`xor`/`xnor`
//     with 2+ inputs, `buf`/`not` with 1+ outputs)
//   * single-clock always-block DFFs: `always @(posedge clk [or negedge
//     rst]) [begin] if (!rst) q <= <const>; else q <= d; [end]` with any
//     number of nonblocking target pairs; reset optional
//   * `//`, `/* */` comments, `(* attribute *)` skipping, `\`-escaped
//     identifiers
//
// Elaboration policy: the netlist IR keeps clock and reset implicit (every
// kDff is posedge-clocked with an async active-low reset applied by the
// simulator), so the clock/reset nets named in sensitivity lists are
// consumed during elaboration and dropped from the module — they may not
// feed any logic. This input comes from outside the program, so every
// elaborated module passes `rtlil::validate_module` (flatten's structural
// pass) on load. Every malformed input raises ScfiError.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "rtlil/design.h"

namespace scfi::frontends {

// --- AST (exposed for the parser unit tests; most callers want
// read_verilog below) -------------------------------------------------------

namespace ast {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Expression tree node. `op` holds the operator spelling for kUnary
/// ('~', '!', '&', '|', '^') and kBinary ('&', '|', '^', '=' for ==).
struct Expr {
  enum class Kind : std::uint8_t {
    kId,       ///< name
    kConst,    ///< width (-1 = unsized decimal) + bits/value
    kUnary,    ///< op, args[0]
    kBinary,   ///< op, args[0], args[1]
    kTernary,  ///< args[0] ? args[1] : args[2]
    kConcat,   ///< args, MSB-first as written
    kSelect,   ///< args[0] = base id, [msb:lsb] (bit-select: msb == lsb)
  };
  Kind kind = Kind::kId;
  int line = 0;
  std::string name;             // kId
  int width = -1;               // kConst: -1 = unsized decimal
  std::uint64_t value = 0;      // kConst, unsized
  std::vector<bool> bits;       // kConst, sized (LSB first)
  char op = 0;                  // kUnary/kBinary
  int msb = 0, lsb = 0;         // kSelect
  std::vector<ExprPtr> args;
};

enum class Dir : std::uint8_t { kNone, kInput, kOutput };

/// One declared net (port or internal). `msb < lsb` never occurs (rejected
/// at parse time); scalar nets have msb == lsb == 0.
struct Net {
  std::string name;
  Dir dir = Dir::kNone;
  bool is_reg = false;
  bool has_range = false;
  int msb = 0, lsb = 0;
  int line = 0;

  int width() const { return msb - lsb + 1; }
};

struct Assign {
  ExprPtr lhs;
  ExprPtr rhs;
  int line = 0;
};

struct GateInst {
  std::string prim;  ///< and/nand/or/nor/xor/xnor/buf/not
  std::string name;  ///< optional instance name ("" when omitted)
  std::vector<ExprPtr> terminals;
  int line = 0;
};

/// One `q <= expr;` nonblocking assignment inside an always block.
struct NbAssign {
  ExprPtr lhs;
  ExprPtr rhs;
  int line = 0;
};

struct AlwaysFf {
  std::string clock;                  ///< posedge net
  std::string reset;                  ///< negedge net; "" = no async reset
  std::vector<NbAssign> reset_assigns;  ///< `if (!reset)` branch
  std::vector<NbAssign> data_assigns;   ///< else branch (or whole body)
  int line = 0;
};

struct Module {
  std::string name;
  std::vector<std::string> port_order;  ///< header order
  std::vector<Net> nets;                ///< declaration order
  std::vector<Assign> assigns;
  std::vector<GateInst> gates;
  std::vector<AlwaysFf> always_ffs;
  int line = 0;
};

struct File {
  std::vector<Module> modules;
};

}  // namespace ast

/// Parses Verilog text into the AST (no elaboration). Throws ScfiError on
/// any syntax error, naming `filename` and the line.
ast::File parse_verilog(const std::string& text, const std::string& filename = "<verilog>");

/// Elaborates one parsed module into `design` (module name = AST name).
/// Runs rtlil::validate_module on the result. Throws ScfiError on semantic
/// errors (unknown nets, width mismatches, multi-clock always blocks,
/// clock/reset nets feeding logic, duplicate module names, ...).
rtlil::Module& elaborate(const ast::Module& module, rtlil::Design& design,
                         const std::string& filename = "<verilog>");

/// Parse + elaborate every module in `text` into `design` (file order).
/// Returns the elaborated modules. The one-call front door:
///   rtlil::Design d;
///   frontends::read_verilog(text, d, "netlist.v");
std::vector<rtlil::Module*> read_verilog(const std::string& text, rtlil::Design& design,
                                         const std::string& filename = "<verilog>");

/// Reads and ingests a `.v` file from disk (ScfiError when unreadable).
std::vector<rtlil::Module*> read_verilog_file(const std::string& path, rtlil::Design& design);

}  // namespace scfi::frontends
