#include "frontends/verilog_parse.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "base/error.h"
#include "frontends/verilog_lexer.h"
#include "rtlil/validate.h"

namespace scfi::frontends {
namespace {

using ast::Dir;
using ast::Expr;
using ast::ExprPtr;
using rtlil::CellType;
using rtlil::Const;
using rtlil::SigBit;
using rtlil::SigSpec;

/// Hard cap on declared/constant widths so a bogus `[99999999:0]` range is
/// a clean parse error, not an allocation storm.
constexpr int kMaxWidth = 1 << 16;

// --- number literals --------------------------------------------------------

int base_bits(char base) {
  switch (base) {
    case 'b':
    case 'B':
      return 1;
    case 'o':
    case 'O':
      return 3;
    case 'h':
    case 'H':
      return 4;
    default:
      return 0;  // decimal
  }
}

int digit_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Interprets a number token ("13", "4'b01_01", "8'hFF", "'b101") into an
/// AST constant. Sized literals carry explicit bits (LSB first); a plain
/// decimal is unsized (width -1) and sized by its context during
/// elaboration. Unsized *based* literals self-size to their digits.
Expr parse_number(const VerilogLexer& lex, const Token& tok) {
  Expr e;
  e.kind = Expr::Kind::kConst;
  e.line = tok.line;
  const std::string& text = tok.text;
  const std::size_t quote = text.find('\'');
  if (quote == std::string::npos) {
    // Plain decimal, unsized.
    std::uint64_t value = 0;
    for (char c : text) {
      if (c == '_') continue;
      const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
      if (value > (UINT64_MAX - digit) / 10) lex.fail("decimal literal overflows", tok.line);
      value = value * 10 + digit;
    }
    e.width = -1;
    e.value = value;
    return e;
  }

  int size = -1;  // -1 = unsized based literal
  if (quote > 0) {
    long declared = 0;
    for (std::size_t i = 0; i < quote; ++i) {
      if (text[i] == '_') continue;
      declared = declared * 10 + (text[i] - '0');
      if (declared > kMaxWidth) lex.fail("literal width too large: " + text, tok.line);
    }
    if (declared <= 0) lex.fail("literal width must be positive: " + text, tok.line);
    size = static_cast<int>(declared);
  }
  const char base = text[quote + 1];
  const int bits_per_digit = base_bits(base);
  const std::string digits = text.substr(quote + 2);

  std::vector<bool> bits;  // LSB first
  if (bits_per_digit == 0) {
    // Based decimal.
    std::uint64_t value = 0;
    for (char c : digits) {
      if (c == '_') continue;
      const int d = digit_value(c);
      if (d < 0 || d > 9) lex.fail("malformed decimal literal: " + text, tok.line);
      if (value > (UINT64_MAX - static_cast<std::uint64_t>(d)) / 10) {
        lex.fail("decimal literal overflows", tok.line);
      }
      value = value * 10 + static_cast<std::uint64_t>(d);
    }
    if (size < 0) lex.fail("unsized 'd literal needs an explicit width: " + text, tok.line);
    for (int i = 0; i < size && i < 64; ++i) bits.push_back((value >> i) & 1);
    if (size > 64) bits.resize(static_cast<std::size_t>(size), false);
    if (size < 64 && (value >> size) != 0) {
      lex.fail("literal value does not fit its width: " + text, tok.line);
    }
  } else {
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
      if (*it == '_') continue;
      if (*it == 'x' || *it == 'X' || *it == 'z' || *it == 'Z') {
        lex.fail("x/z literals are not supported (two-valued netlists): " + text, tok.line);
      }
      const int d = digit_value(*it);
      if (d < 0 || d >= (1 << bits_per_digit)) {
        lex.fail("malformed based literal: " + text, tok.line);
      }
      for (int b = 0; b < bits_per_digit; ++b) bits.push_back((d >> b) & 1);
    }
    if (size < 0) size = std::max<int>(1, static_cast<int>(bits.size()));
    if (static_cast<int>(bits.size()) > size) {
      // Verilog truncates silently; only excess *zero* bits are dropped here
      // so a value can never change meaning behind the caller's back.
      for (std::size_t i = static_cast<std::size_t>(size); i < bits.size(); ++i) {
        if (bits[i]) lex.fail("literal value does not fit its width: " + text, tok.line);
      }
    }
    bits.resize(static_cast<std::size_t>(size), false);
  }
  e.width = size;
  e.bits = std::move(bits);
  return e;
}

// --- parser -----------------------------------------------------------------

class Parser {
 public:
  Parser(const std::string& text, const std::string& filename) : lex_(text, filename) {}

  ast::File parse_file() {
    ast::File file;
    while (!lex_.at_eof()) {
      const Token& t = lex_.peek();
      if (t.is_keyword("module")) {
        file.modules.push_back(parse_module());
      } else if (t.is_keyword("endmodule")) {
        lex_.fail("unbalanced endmodule (no open module)");
      } else {
        lex_.fail("expected 'module', got '" + t.text + "'");
      }
    }
    return file;
  }

 private:
  Token expect_punct(std::string_view p) {
    const Token t = lex_.next();
    if (!t.is_punct(p)) {
      lex_.fail("expected '" + std::string(p) + "', got '" + t.text + "'", t.line);
    }
    return t;
  }

  Token expect_id() {
    const Token t = lex_.next();
    if (t.kind != TokKind::kId) lex_.fail("expected identifier, got '" + t.text + "'", t.line);
    return t;
  }

  int expect_index() {
    const Token t = lex_.next();
    if (t.kind != TokKind::kNumber) {
      lex_.fail("expected a constant index, got '" + t.text + "'", t.line);
    }
    const Expr e = parse_number(lex_, t);
    std::uint64_t value = e.value;
    if (e.width >= 0) {
      value = 0;
      for (std::size_t i = 0; i < e.bits.size() && i < 64; ++i) {
        if (e.bits[i]) value |= 1ULL << i;
      }
    }
    if (value > static_cast<std::uint64_t>(kMaxWidth)) lex_.fail("index too large", t.line);
    return static_cast<int>(value);
  }

  /// `[msb:lsb]` (or nothing). Rejects ascending ranges.
  bool try_parse_range(int& msb, int& lsb) {
    if (!lex_.peek().is_punct("[")) return false;
    const Token open = lex_.next();
    msb = expect_index();
    expect_punct(":");
    lsb = expect_index();
    expect_punct("]");
    if (msb < lsb) lex_.fail("ascending ranges ([lsb:msb]) are not supported", open.line);
    if (msb - lsb + 1 > kMaxWidth) lex_.fail("range width too large", open.line);
    return true;
  }

  static bool is_dir_keyword(const Token& t) {
    return t.is_keyword("input") || t.is_keyword("output") || t.is_keyword("inout");
  }

  static bool is_gate_keyword(const Token& t) {
    return t.is_keyword("and") || t.is_keyword("nand") || t.is_keyword("or") ||
           t.is_keyword("nor") || t.is_keyword("xor") || t.is_keyword("xnor") ||
           t.is_keyword("buf") || t.is_keyword("not");
  }

  ast::Module parse_module() {
    ast::Module m;
    m.line = lex_.next().line;  // 'module'
    m.name = expect_id().text;
    if (lex_.peek().is_punct("(")) {
      lex_.next();
      if (!lex_.peek().is_punct(")")) {
        if (is_dir_keyword(lex_.peek())) {
          parse_ansi_ports(m);
        } else {
          parse_port_name_list(m);
        }
      }
      expect_punct(")");
    }
    expect_punct(";");
    while (true) {
      const Token& t = lex_.peek();
      if (t.kind == TokKind::kEof) {
        lex_.fail("unexpected end of file inside module " + m.name + " (missing endmodule)",
                  t.line);
      }
      if (t.is_keyword("endmodule")) {
        lex_.next();
        break;
      }
      parse_module_item(m);
    }
    return m;
  }

  void parse_ansi_ports(ast::Module& m) {
    Dir dir = Dir::kNone;
    bool is_reg = false;
    bool has_range = false;
    int msb = 0, lsb = 0;
    while (true) {
      const Token& t = lex_.peek();
      if (is_dir_keyword(t)) {
        if (t.is_keyword("inout")) lex_.fail("inout ports are not supported");
        dir = t.is_keyword("input") ? Dir::kInput : Dir::kOutput;
        lex_.next();
        is_reg = false;
        if (lex_.peek().is_keyword("wire")) {
          lex_.next();
        } else if (lex_.peek().is_keyword("reg")) {
          is_reg = true;
          lex_.next();
        }
        has_range = try_parse_range(msb, lsb);
      }
      const Token name = expect_id();
      ast::Net net;
      net.name = name.text;
      net.dir = dir;
      net.is_reg = is_reg;
      net.has_range = has_range;
      net.msb = has_range ? msb : 0;
      net.lsb = has_range ? lsb : 0;
      net.line = name.line;
      if (net.dir == Dir::kNone) lex_.fail("ANSI port " + net.name + " has no direction");
      m.nets.push_back(net);
      m.port_order.push_back(name.text);
      if (!lex_.peek().is_punct(",")) break;
      lex_.next();
    }
  }

  void parse_port_name_list(ast::Module& m) {
    while (true) {
      m.port_order.push_back(expect_id().text);
      if (!lex_.peek().is_punct(",")) break;
      lex_.next();
    }
  }

  void parse_module_item(ast::Module& m) {
    const Token& t = lex_.peek();
    if (is_dir_keyword(t) || t.is_keyword("wire") || t.is_keyword("reg")) {
      parse_net_decl(m);
    } else if (t.is_keyword("assign")) {
      parse_assign(m);
    } else if (t.is_keyword("always")) {
      parse_always(m);
    } else if (is_gate_keyword(t)) {
      parse_gate(m);
    } else if (t.is_keyword("parameter") || t.is_keyword("localparam") ||
               t.is_keyword("defparam")) {
      lex_.fail("parameters are not supported (flatten/deparameterize the netlist first)");
    } else if (t.is_keyword("initial") || t.is_keyword("function") || t.is_keyword("task") ||
               t.is_keyword("generate")) {
      lex_.fail("'" + t.text + "' blocks are not supported in structural netlists");
    } else if (t.kind == TokKind::kId && lex_.peek(1).kind == TokKind::kId) {
      lex_.fail("hierarchical instantiation of '" + t.text +
                "' is not supported (the IR is flat; flatten the design first)");
    } else {
      lex_.fail("unexpected '" + t.text + "' in module body");
    }
  }

  void parse_net_decl(ast::Module& m) {
    const Token head = lex_.next();
    Dir dir = Dir::kNone;
    bool is_reg = false;
    if (head.is_keyword("inout")) lex_.fail("inout ports are not supported", head.line);
    if (head.is_keyword("input")) dir = Dir::kInput;
    if (head.is_keyword("output")) dir = Dir::kOutput;
    if (head.is_keyword("reg")) is_reg = true;
    if (dir != Dir::kNone) {
      if (lex_.peek().is_keyword("wire")) {
        lex_.next();
      } else if (lex_.peek().is_keyword("reg")) {
        is_reg = true;
        lex_.next();
      }
    }
    int msb = 0, lsb = 0;
    const bool has_range = try_parse_range(msb, lsb);
    while (true) {
      const Token name = expect_id();
      if (lex_.peek().is_punct("=")) {
        lex_.fail("net initializers are not supported (reset values come from always blocks)");
      }
      ast::Net net;
      net.name = name.text;
      net.dir = dir;
      net.is_reg = is_reg;
      net.has_range = has_range;
      net.msb = has_range ? msb : 0;
      net.lsb = has_range ? lsb : 0;
      net.line = name.line;
      m.nets.push_back(net);
      if (lex_.peek().is_punct(",")) {
        lex_.next();
        continue;
      }
      break;
    }
    expect_punct(";");
  }

  void parse_assign(ast::Module& m) {
    lex_.next();  // 'assign'
    while (true) {
      ast::Assign a;
      a.lhs = parse_expr();
      a.line = a.lhs->line;
      expect_punct("=");
      a.rhs = parse_expr();
      m.assigns.push_back(std::move(a));
      if (lex_.peek().is_punct(",")) {
        lex_.next();
        continue;
      }
      break;
    }
    expect_punct(";");
  }

  void parse_gate(ast::Module& m) {
    const Token prim = lex_.next();
    while (true) {
      ast::GateInst g;
      g.prim = prim.text;
      g.line = prim.line;
      if (lex_.peek().kind == TokKind::kId) g.name = lex_.next().text;
      expect_punct("(");
      while (true) {
        g.terminals.push_back(parse_expr());
        if (lex_.peek().is_punct(",")) {
          lex_.next();
          continue;
        }
        break;
      }
      expect_punct(")");
      const std::size_t min_terms = (g.prim == "buf" || g.prim == "not") ? 2 : 3;
      if (g.terminals.size() < min_terms) {
        lex_.fail("primitive '" + g.prim + "' needs at least " + std::to_string(min_terms) +
                      " terminals",
                  g.line);
      }
      m.gates.push_back(std::move(g));
      if (lex_.peek().is_punct(",")) {
        lex_.next();
        continue;
      }
      break;
    }
    expect_punct(";");
  }

  // --- always blocks --------------------------------------------------------

  /// Minimal statement tree, flattened into AlwaysFf right after parsing.
  struct Stmt {
    enum class Kind { kBlock, kIf, kNba } kind;
    std::vector<Stmt> body;       // kBlock
    ExprPtr cond;                 // kIf
    std::vector<Stmt> then_body;  // kIf
    std::vector<Stmt> else_body;  // kIf
    ast::NbAssign nba;            // kNba
    int line = 0;
  };

  Stmt parse_stmt() {
    Stmt s;
    const Token& t = lex_.peek();
    s.line = t.line;
    if (t.is_keyword("begin")) {
      lex_.next();
      s.kind = Stmt::Kind::kBlock;
      while (!lex_.peek().is_keyword("end")) {
        if (lex_.peek().kind == TokKind::kEof) lex_.fail("unterminated begin/end block", s.line);
        s.body.push_back(parse_stmt());
      }
      lex_.next();  // 'end'
      return s;
    }
    if (t.is_keyword("if")) {
      lex_.next();
      s.kind = Stmt::Kind::kIf;
      expect_punct("(");
      s.cond = parse_expr();
      expect_punct(")");
      s.then_body.push_back(parse_stmt());
      if (lex_.peek().is_keyword("else")) {
        lex_.next();
        s.else_body.push_back(parse_stmt());
      }
      return s;
    }
    // Nonblocking assignment.
    s.kind = Stmt::Kind::kNba;
    s.nba.lhs = parse_expr();
    s.nba.line = s.nba.lhs->line;
    expect_punct("<=");
    s.nba.rhs = parse_expr();
    expect_punct(";");
    return s;
  }

  /// Collects the nonblocking assignments of a branch, unwrapping begin/end;
  /// nested control flow is out of the structural subset.
  void flatten_nbas(std::vector<Stmt>& stmts, std::vector<ast::NbAssign>& out) {
    for (Stmt& s : stmts) {
      switch (s.kind) {
        case Stmt::Kind::kBlock:
          flatten_nbas(s.body, out);
          break;
        case Stmt::Kind::kNba:
          out.push_back(std::move(s.nba));
          break;
        case Stmt::Kind::kIf:
          lex_.fail("nested if inside an always block is not supported "
                    "(only the async-reset pattern)",
                    s.line);
      }
    }
  }

  /// True when `cond` is `!rst`, `~rst`, or `rst == 0`-style for `rst`.
  static bool is_reset_cond(const Expr& cond, const std::string& rst) {
    if (cond.kind == Expr::Kind::kUnary && (cond.op == '!' || cond.op == '~')) {
      const Expr& a = *cond.args[0];
      return a.kind == Expr::Kind::kId && a.name == rst;
    }
    if (cond.kind == Expr::Kind::kBinary && cond.op == '=') {
      const Expr& a = *cond.args[0];
      const Expr& b = *cond.args[1];
      const auto is_zero = [](const Expr& e) {
        if (e.kind != Expr::Kind::kConst) return false;
        if (e.width < 0) return e.value == 0;
        return std::none_of(e.bits.begin(), e.bits.end(), [](bool bit) { return bit; });
      };
      return a.kind == Expr::Kind::kId && a.name == rst && is_zero(b);
    }
    return false;
  }

  void parse_always(ast::Module& m) {
    ast::AlwaysFf ff;
    ff.line = lex_.next().line;  // 'always'
    expect_punct("@");
    expect_punct("(");
    while (true) {
      const Token edge = lex_.next();
      const bool posedge = edge.is_keyword("posedge");
      if (!posedge && !edge.is_keyword("negedge")) {
        lex_.fail("expected posedge/negedge in sensitivity list (combinational always "
                  "blocks are not supported; use assign)",
                  edge.line);
      }
      const Token sig = expect_id();
      if (posedge) {
        if (!ff.clock.empty()) lex_.fail("multiple posedge clocks in one always block", sig.line);
        ff.clock = sig.text;
      } else {
        if (!ff.reset.empty()) lex_.fail("multiple negedge resets in one always block", sig.line);
        ff.reset = sig.text;
      }
      if (lex_.peek().is_keyword("or") || lex_.peek().is_punct(",")) {
        lex_.next();
        continue;
      }
      break;
    }
    expect_punct(")");
    if (ff.clock.empty()) lex_.fail("always block has no posedge clock", ff.line);

    Stmt body = parse_stmt();
    std::vector<Stmt> top;
    top.push_back(std::move(body));
    // Unwrap a single begin/end around the whole body.
    while (top.size() == 1 && top.front().kind == Stmt::Kind::kBlock) {
      std::vector<Stmt> inner = std::move(top.front().body);
      top = std::move(inner);
    }
    if (!ff.reset.empty()) {
      if (top.size() != 1 || top.front().kind != Stmt::Kind::kIf) {
        lex_.fail("async-reset always block must be a single if (!rst) ... else ...", ff.line);
      }
      Stmt& branch = top.front();
      if (!is_reset_cond(*branch.cond, ff.reset)) {
        lex_.fail("reset condition must test the negedge signal (e.g. if (!" + ff.reset + "))",
                  branch.line);
      }
      if (branch.else_body.empty()) {
        lex_.fail("async-reset always block needs an else branch with the data assignments",
                  branch.line);
      }
      flatten_nbas(branch.then_body, ff.reset_assigns);
      flatten_nbas(branch.else_body, ff.data_assigns);
    } else {
      flatten_nbas(top, ff.data_assigns);
    }
    if (ff.data_assigns.empty()) lex_.fail("always block assigns nothing", ff.line);
    m.always_ffs.push_back(std::move(ff));
  }

  // --- expressions ----------------------------------------------------------
  // Precedence (low to high): ?: | ^ & ==/!= unary primary.

  ExprPtr parse_expr() {
    ExprPtr cond = parse_bitor();
    if (!lex_.peek().is_punct("?")) return cond;
    const int line = lex_.next().line;
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::kTernary;
    e->line = line;
    e->args.push_back(std::move(cond));
    e->args.push_back(parse_expr());
    expect_punct(":");
    e->args.push_back(parse_expr());
    return e;
  }

  ExprPtr parse_binary_chain(std::string_view punct, char op, ExprPtr (Parser::*sub)()) {
    ExprPtr lhs = (this->*sub)();
    while (lex_.peek().is_punct(punct)) {
      const int line = lex_.next().line;
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kBinary;
      e->op = op;
      e->line = line;
      e->args.push_back(std::move(lhs));
      e->args.push_back((this->*sub)());
      lhs = std::move(e);
    }
    return lhs;
  }

  ExprPtr parse_bitor() { return parse_binary_chain("|", '|', &Parser::parse_bitxor); }
  ExprPtr parse_bitxor() { return parse_binary_chain("^", '^', &Parser::parse_bitand); }
  ExprPtr parse_bitand() { return parse_binary_chain("&", '&', &Parser::parse_equality); }

  ExprPtr parse_equality() {
    ExprPtr lhs = parse_unary();
    while (lex_.peek().is_punct("==") || lex_.peek().is_punct("!=")) {
      const bool negated = lex_.peek().is_punct("!=");
      const int line = lex_.next().line;
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kBinary;
      e->op = '=';
      e->line = line;
      e->args.push_back(std::move(lhs));
      e->args.push_back(parse_unary());
      if (negated) {
        auto n = std::make_unique<Expr>();
        n->kind = Expr::Kind::kUnary;
        n->op = '!';
        n->line = line;
        n->args.push_back(std::move(e));
        lhs = std::move(n);
      } else {
        lhs = std::move(e);
      }
    }
    return lhs;
  }

  ExprPtr parse_unary() {
    const Token& t = lex_.peek();
    if (t.is_punct("~") || t.is_punct("!") || t.is_punct("&") || t.is_punct("|") ||
        t.is_punct("^")) {
      const Token op = lex_.next();
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kUnary;
      e->op = op.text[0];
      e->line = op.line;
      e->args.push_back(parse_unary());
      return e;
    }
    return parse_primary();
  }

  ExprPtr parse_primary() {
    const Token& t = lex_.peek();
    if (t.is_punct("(")) {
      lex_.next();
      ExprPtr e = parse_expr();
      expect_punct(")");
      return e;
    }
    if (t.kind == TokKind::kNumber) {
      const Token num = lex_.next();
      return std::make_unique<Expr>(parse_number(lex_, num));
    }
    if (t.is_punct("{")) return parse_concat();
    if (t.kind == TokKind::kId) {
      const Token id = lex_.next();
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kId;
      e->name = id.text;
      e->line = id.line;
      if (!lex_.peek().is_punct("[")) return e;
      lex_.next();
      auto sel = std::make_unique<Expr>();
      sel->kind = Expr::Kind::kSelect;
      sel->line = id.line;
      sel->msb = expect_index();
      sel->lsb = sel->msb;
      if (lex_.peek().is_punct(":")) {
        lex_.next();
        sel->lsb = expect_index();
        if (sel->msb < sel->lsb) lex_.fail("ascending part-select is not supported", id.line);
      }
      expect_punct("]");
      sel->args.push_back(std::move(e));
      return sel;
    }
    lex_.fail("expected an expression, got '" + t.text + "'", t.line);
  }

  /// `{a, b, c}` or replication `{4{expr, ...}}`. Replications reuse the
  /// kConcat node with `value` = repeat count.
  ExprPtr parse_concat() {
    const Token open = lex_.next();  // '{'
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::kConcat;
    e->value = 1;
    e->line = open.line;
    ExprPtr first = parse_expr();
    if (lex_.peek().is_punct("{")) {
      if (first->kind != Expr::Kind::kConst) {
        lex_.fail("replication count must be a constant", open.line);
      }
      std::uint64_t count = first->value;
      if (first->width >= 0) {
        count = 0;
        for (std::size_t i = 0; i < first->bits.size() && i < 64; ++i) {
          if (first->bits[i]) count |= 1ULL << i;
        }
      }
      if (count == 0 || count > static_cast<std::uint64_t>(kMaxWidth)) {
        lex_.fail("replication count out of range", open.line);
      }
      e->value = count;
      lex_.next();  // inner '{'
      while (true) {
        e->args.push_back(parse_expr());
        if (lex_.peek().is_punct(",")) {
          lex_.next();
          continue;
        }
        break;
      }
      expect_punct("}");
      expect_punct("}");
      return e;
    }
    e->args.push_back(std::move(first));
    while (lex_.peek().is_punct(",")) {
      lex_.next();
      e->args.push_back(parse_expr());
    }
    expect_punct("}");
    return e;
  }

  VerilogLexer lex_;
};

// --- elaborator -------------------------------------------------------------

class Elaborator {
 public:
  Elaborator(const ast::Module& m, rtlil::Design& design, const std::string& filename)
      : m_(m), design_(design), filename_(filename) {}

  rtlil::Module& run() {
    identify_clocks();
    collect_nets();
    require(design_.module(m_.name) == nullptr,
            err_prefix(m_.line) + "duplicate module " + m_.name);
    mod_ = design_.add_module(m_.name);
    create_wires();
    for (const ast::Assign& a : m_.assigns) lower_assign(a);
    for (const ast::GateInst& g : m_.gates) lower_gate(g);
    for (const ast::AlwaysFf& ff : m_.always_ffs) lower_always(ff);
    prune_vestigial_clock_ports();
    rtlil::validate_module(*mod_);  // the post-load gate
    return *mod_;
  }

 private:
  struct NetInfo {
    ast::Net decl;
    rtlil::Wire* wire = nullptr;
    bool clocklike = false;  ///< consumed as a clock/reset; no wire created
  };

  std::string err_prefix(int line) const {
    return "verilog: " + filename_ + ":" + std::to_string(line) + ": ";
  }

  [[noreturn]] void fail(int line, const std::string& msg) const {
    throw ScfiError(err_prefix(line) + msg);
  }

  void identify_clocks() {
    for (const ast::AlwaysFf& ff : m_.always_ffs) {
      if (clock_.empty()) {
        clock_ = ff.clock;
      } else if (clock_ != ff.clock) {
        fail(ff.line, "multiple clock nets (" + clock_ + ", " + ff.clock +
                          "); the IR is single-clock");
      }
      if (ff.reset.empty()) continue;
      if (reset_.empty()) {
        reset_ = ff.reset;
      } else if (reset_ != ff.reset) {
        fail(ff.line, "multiple reset nets (" + reset_ + ", " + ff.reset + ")");
      }
    }
    if (!reset_.empty() && reset_ == clock_) {
      fail(m_.line, "net " + clock_ + " is used as both clock and reset");
    }
  }

  /// Merges the (possibly repeated) declarations of each net — the non-ANSI
  /// `output [1:0] y; reg [1:0] y;` idiom — and checks consistency.
  void collect_nets() {
    for (const ast::Net& decl : m_.nets) {
      auto [it, inserted] = nets_.try_emplace(decl.name);
      NetInfo& info = it->second;
      if (inserted) {
        info.decl = decl;
        decl_order_.push_back(decl.name);
        continue;
      }
      ast::Net& have = info.decl;
      if (decl.dir != Dir::kNone) {
        if (have.dir != Dir::kNone && have.dir != decl.dir) {
          fail(decl.line, "net " + decl.name + " declared both input and output");
        }
        have.dir = decl.dir;
      }
      have.is_reg = have.is_reg || decl.is_reg;
      if (decl.has_range) {
        if (have.has_range && (have.msb != decl.msb || have.lsb != decl.lsb)) {
          fail(decl.line, "net " + decl.name + " redeclared with a different range");
        }
        have.has_range = true;
        have.msb = decl.msb;
        have.lsb = decl.lsb;
      }
    }
    // Header ports must end up with a direction.
    for (const std::string& port : m_.port_order) {
      const auto it = nets_.find(port);
      if (it == nets_.end() || it->second.decl.dir == Dir::kNone) {
        fail(m_.line, "port " + port + " has no input/output declaration");
      }
    }
    for (const std::string& name : {clock_, reset_}) {
      if (name.empty()) continue;
      const auto it = nets_.find(name);
      if (it == nets_.end()) fail(m_.line, "clock/reset net " + name + " is not declared");
      if (it->second.decl.dir != Dir::kInput) {
        fail(it->second.decl.line, "clock/reset net " + name + " must be an input port");
      }
      it->second.clocklike = true;
    }
  }

  /// Port wires first (header order), then internal nets in declaration
  /// order, so module.wires() ordering — which downstream passes use for
  /// deterministic iteration — mirrors the source. Clock/reset nets get no
  /// wire: the IR keeps them implicit.
  void create_wires() {
    std::set<std::string> created;
    const auto create = [&](const std::string& name) {
      NetInfo& info = nets_.at(name);
      if (info.clocklike || !created.insert(name).second) return;
      const ast::Net& d = info.decl;
      switch (d.dir) {
        case Dir::kInput:
          info.wire = mod_->add_input(name, d.width());
          break;
        case Dir::kOutput:
          info.wire = mod_->add_output(name, d.width());
          break;
        case Dir::kNone:
          info.wire = mod_->add_wire(name, d.width());
          break;
      }
    };
    for (const std::string& port : m_.port_order) create(port);
    for (const std::string& name : decl_order_) create(name);
  }

  NetInfo& resolve(const std::string& name, int line) {
    const auto it = nets_.find(name);
    if (it == nets_.end()) fail(line, "unknown net " + name);
    if (it->second.clocklike) {
      fail(line, "clock/reset net " + name +
                     " may only appear in sensitivity lists and reset conditions");
    }
    return it->second;
  }

  // --- signal lowering ------------------------------------------------------

  SigSpec lower_lvalue(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kId:
        return SigSpec(resolve(e.name, e.line).wire);
      case Expr::Kind::kSelect: {
        const Expr& base = *e.args[0];
        if (base.kind != Expr::Kind::kId) fail(e.line, "invalid assignment target");
        const NetInfo& info = resolve(base.name, e.line);
        return extract_select(info, e);
      }
      case Expr::Kind::kConcat: {
        if (e.value != 1) fail(e.line, "replication is not a valid assignment target");
        SigSpec out;  // source order is MSB first; SigSpec is LSB first
        for (auto it = e.args.rbegin(); it != e.args.rend(); ++it) {
          out.append(lower_lvalue(**it));
        }
        return out;
      }
      default:
        fail(e.line, "invalid assignment target");
    }
  }

  SigSpec extract_select(const NetInfo& info, const Expr& sel) {
    const ast::Net& d = info.decl;
    if (sel.msb > d.msb || sel.lsb < d.lsb) {
      fail(sel.line, "select [" + std::to_string(sel.msb) + ":" + std::to_string(sel.lsb) +
                         "] out of range for " + d.name + "[" + std::to_string(d.msb) + ":" +
                         std::to_string(d.lsb) + "]");
    }
    return SigSpec(info.wire).extract(sel.lsb - d.lsb, sel.msb - sel.lsb + 1);
  }

  /// Lowers an rvalue; `ctx_width` (0 = self-determined) sizes unsized
  /// constants and zero-extends narrower constant operands.
  SigSpec lower_rvalue(const Expr& e, int ctx_width) {
    switch (e.kind) {
      case Expr::Kind::kId:
        return SigSpec(resolve(e.name, e.line).wire);
      case Expr::Kind::kSelect: {
        const Expr& base = *e.args[0];
        if (base.kind != Expr::Kind::kId) fail(e.line, "select base must be an identifier");
        return extract_select(resolve(base.name, e.line), e);
      }
      case Expr::Kind::kConst:
        return lower_const(e, ctx_width);
      case Expr::Kind::kConcat: {
        SigSpec one;
        for (auto it = e.args.rbegin(); it != e.args.rend(); ++it) {
          one.append(lower_rvalue(**it, 0));  // concat parts are self-determined
        }
        if (one.width() == 0) fail(e.line, "empty concatenation");
        SigSpec out;
        for (std::uint64_t r = 0; r < e.value; ++r) out.append(one);
        return out;
      }
      case Expr::Kind::kUnary:
      case Expr::Kind::kBinary:
      case Expr::Kind::kTernary:
        return lower_operator(e, ctx_width, SigSpec());
    }
    unreachable("lower_rvalue: bad expr kind");
  }

  SigSpec lower_const(const Expr& e, int ctx_width) {
    if (e.width < 0) {
      if (ctx_width <= 0) {
        fail(e.line, "unsized constant needs a sized context (add an explicit width, "
                     "e.g. 4'd" + std::to_string(e.value) + ")");
      }
      if (ctx_width < 64 && (e.value >> ctx_width) != 0) {
        fail(e.line, "constant " + std::to_string(e.value) + " does not fit " +
                         std::to_string(ctx_width) + " bits");
      }
      std::vector<bool> bits;
      for (int i = 0; i < ctx_width; ++i) {
        bits.push_back(i < 64 && ((e.value >> i) & 1));
      }
      return SigSpec(Const(std::move(bits)));
    }
    std::vector<bool> bits = e.bits;
    if (ctx_width > static_cast<int>(bits.size())) {
      bits.resize(static_cast<std::size_t>(ctx_width), false);  // zero-extend
    }
    return SigSpec(Const(std::move(bits)));
  }

  /// Width reconciliation for binary operands: zero-extends a narrower
  /// fully-constant side; anything else must match exactly.
  void reconcile(SigSpec& a, SigSpec& b, int line, const char* what) {
    if (a.width() == b.width()) return;
    SigSpec& narrow = a.width() < b.width() ? a : b;
    const SigSpec& wide = a.width() < b.width() ? b : a;
    if (narrow.is_fully_const()) {
      SigSpec extended = narrow;
      for (int i = narrow.width(); i < wide.width(); ++i) extended.append(SigBit(false));
      narrow = extended;
      return;
    }
    fail(line, std::string(what) + ": operand widths differ (" + std::to_string(a.width()) +
                   " vs " + std::to_string(b.width()) +
                   "); pad explicitly with a concatenation");
  }

  // Cell emitters with an optional caller-provided output (so `assign y =
  // a & b` drives y directly instead of a fresh wire plus a buffer).
  SigSpec out_or_fresh(const SigSpec& sink, int width, const char* hint, int line) {
    if (sink.width() > 0) {
      if (sink.width() != width) {
        fail(line, "width mismatch: target is " + std::to_string(sink.width()) +
                       " bits but the expression yields " + std::to_string(width));
      }
      return sink;
    }
    return SigSpec(mod_->add_wire(mod_->uniquify(hint), width));
  }

  SigSpec emit1(CellType type, const SigSpec& a, const SigSpec& sink, int y_width,
                const char* hint, int line) {
    const SigSpec y = out_or_fresh(sink, y_width, hint, line);
    rtlil::Cell* c = mod_->add_cell(mod_->uniquify(std::string(hint) + "_c"), type);
    c->set_port("A", a);
    c->set_port("Y", y);
    return y;
  }

  SigSpec emit2(CellType type, const SigSpec& a, const SigSpec& b, const SigSpec& sink,
                int y_width, const char* hint, int line) {
    const SigSpec y = out_or_fresh(sink, y_width, hint, line);
    rtlil::Cell* c = mod_->add_cell(mod_->uniquify(std::string(hint) + "_c"), type);
    c->set_port("A", a);
    c->set_port("B", b);
    c->set_port("Y", y);
    return y;
  }

  /// Lowers an operator node, optionally straight into `sink` (empty = fresh
  /// wire). `ctx_width` sizes the operands of width-preserving operators.
  SigSpec lower_operator(const Expr& e, int ctx_width, const SigSpec& sink) {
    switch (e.kind) {
      case Expr::Kind::kUnary: {
        if (e.op == '~') {
          SigSpec a = lower_rvalue(*e.args[0], ctx_width);
          return emit1(CellType::kNot, a, sink, a.width(), "vnot", e.line);
        }
        if (e.op == '!') {
          SigSpec a = lower_rvalue(*e.args[0], 0);
          if (a.width() == 1) return emit1(CellType::kNot, a, sink, 1, "vlnot", e.line);
          const SigSpec any = emit1(CellType::kReduceOr, a, SigSpec(), 1, "vlnor", e.line);
          return emit1(CellType::kNot, any, sink, 1, "vlnot", e.line);
        }
        // Reductions.
        SigSpec a = lower_rvalue(*e.args[0], 0);
        const CellType type = e.op == '&'   ? CellType::kReduceAnd
                              : e.op == '|' ? CellType::kReduceOr
                                            : CellType::kReduceXor;
        return emit1(type, a, sink, 1, "vred", e.line);
      }
      case Expr::Kind::kBinary: {
        if (e.op == '=') {
          SigSpec a = lower_rvalue(*e.args[0], 0);
          SigSpec b = lower_rvalue(*e.args[1], a.width());
          reconcile(a, b, e.line, "==");
          return emit2(CellType::kEq, a, b, sink, 1, "veq", e.line);
        }
        SigSpec a = lower_rvalue(*e.args[0], ctx_width);
        SigSpec b = lower_rvalue(*e.args[1], ctx_width > 0 ? ctx_width : a.width());
        reconcile(a, b, e.line, "bitwise operator");
        const CellType type = e.op == '&'   ? CellType::kAnd
                              : e.op == '|' ? CellType::kOr
                                            : CellType::kXor;
        return emit2(type, a, b, sink, a.width(), "vbin", e.line);
      }
      case Expr::Kind::kTernary: {
        SigSpec s = lower_rvalue(*e.args[0], 0);
        if (s.width() != 1) {
          fail(e.line, "ternary condition must be 1 bit (reduce it explicitly)");
        }
        SigSpec t = lower_rvalue(*e.args[1], ctx_width);
        SigSpec f = lower_rvalue(*e.args[2], ctx_width > 0 ? ctx_width : t.width());
        reconcile(t, f, e.line, "ternary");
        // kMux: Y = S ? B : A.
        const SigSpec y = out_or_fresh(sink, t.width(), "vmux", e.line);
        rtlil::Cell* c = mod_->add_cell(mod_->uniquify("vmux_c"), CellType::kMux);
        c->set_port("S", s);
        c->set_port("A", f);
        c->set_port("B", t);
        c->set_port("Y", y);
        return y;
      }
      default:
        unreachable("lower_operator: not an operator");
    }
  }

  void lower_assign(const ast::Assign& a) {
    const SigSpec lhs = lower_lvalue(*a.lhs);
    const Expr& rhs = *a.rhs;
    if (rhs.kind == Expr::Kind::kUnary || rhs.kind == Expr::Kind::kBinary ||
        rhs.kind == Expr::Kind::kTernary) {
      const SigSpec y = lower_operator(rhs, lhs.width(), lhs);
      if (y.width() != lhs.width()) {
        fail(a.line, "assign width mismatch: lhs " + std::to_string(lhs.width()) + " vs rhs " +
                         std::to_string(y.width()));
      }
      return;
    }
    SigSpec value = lower_rvalue(rhs, lhs.width());
    if (value.width() != lhs.width()) {
      if (value.is_fully_const() && value.width() < lhs.width()) {
        for (int i = value.width(); i < lhs.width(); ++i) value.append(SigBit(false));
      } else {
        fail(a.line, "assign width mismatch: lhs " + std::to_string(lhs.width()) + " vs rhs " +
                         std::to_string(value.width()));
      }
    }
    mod_->drive(lhs, value);
  }

  void lower_gate(const ast::GateInst& g) {
    // Terminal 0 is the output (buf/not: all but the last are outputs).
    std::vector<SigSpec> terms;
    terms.reserve(g.terminals.size());
    for (std::size_t i = 0; i < g.terminals.size(); ++i) {
      const bool is_output =
          (g.prim == "buf" || g.prim == "not") ? i + 1 < g.terminals.size() : i == 0;
      SigSpec t = is_output ? lower_lvalue(*g.terminals[i]) : lower_rvalue(*g.terminals[i], 1);
      if (t.width() != 1) {
        fail(g.line, "primitive '" + g.prim + "' terminals must be 1 bit");
      }
      terms.push_back(std::move(t));
    }
    if (g.prim == "buf" || g.prim == "not") {
      const SigSpec& in = terms.back();
      const CellType type = g.prim == "buf" ? CellType::kGateBuf : CellType::kGateInv;
      for (std::size_t i = 0; i + 1 < terms.size(); ++i) {
        emit1(type, in, terms[i], 1, "vgate", g.line);
      }
      return;
    }
    const CellType base = (g.prim == "and" || g.prim == "nand")  ? CellType::kGateAnd2
                          : (g.prim == "or" || g.prim == "nor")  ? CellType::kGateOr2
                                                                 : CellType::kGateXor2;
    const CellType final_type = g.prim == "nand"   ? CellType::kGateNand2
                                : g.prim == "nor"  ? CellType::kGateNor2
                                : g.prim == "xnor" ? CellType::kGateXnor2
                                                   : base;
    // Fold inputs left to right; the last 2-input stage uses the (possibly
    // inverting) primitive type and drives the output terminal directly.
    SigSpec acc = terms[1];
    for (std::size_t i = 2; i + 1 < terms.size(); ++i) {
      acc = emit2(base, acc, terms[i], SigSpec(), 1, "vgate", g.line);
    }
    emit2(final_type, acc, terms.back(), terms[0], 1, "vgate", g.line);
  }

  void lower_always(const ast::AlwaysFf& ff) {
    // Pair every data assignment with its reset constant by lowered target.
    std::vector<std::pair<SigSpec, Const>> resets;
    for (const ast::NbAssign& r : ff.reset_assigns) {
      const SigSpec q = lower_lvalue(*r.lhs);
      const SigSpec value = lower_rvalue(*r.rhs, q.width());
      if (!value.is_fully_const()) {
        fail(r.line, "reset value must be a constant");
      }
      if (value.width() != q.width()) {
        fail(r.line, "reset width mismatch for register");
      }
      std::vector<bool> bits;
      for (const SigBit& b : value.bits()) bits.push_back(b.const_value());
      resets.emplace_back(q, Const(std::move(bits)));
    }
    std::vector<bool> reset_used(resets.size(), false);
    for (const ast::NbAssign& d : ff.data_assigns) {
      const SigSpec q = lower_lvalue(*d.lhs);
      const SigSpec next = lower_rvalue(*d.rhs, q.width());
      if (next.width() != q.width()) {
        fail(d.line, "register width mismatch: target " + std::to_string(q.width()) +
                         " vs expression " + std::to_string(next.width()));
      }
      Const reset = Const(std::vector<bool>(static_cast<std::size_t>(q.width()), false));
      if (!ff.reset_assigns.empty()) {
        bool found = false;
        for (std::size_t i = 0; i < resets.size(); ++i) {
          if (resets[i].first == q) {
            reset = resets[i].second;
            reset_used[i] = true;
            found = true;
            break;
          }
        }
        if (!found) {
          fail(d.line, "register has no assignment in the reset branch");
        }
      }
      rtlil::Cell* cell = mod_->add_cell(mod_->uniquify("vff"), CellType::kDff);
      cell->set_port("D", next);
      cell->set_port("Q", q);
      cell->set_reset_value(std::move(reset));
    }
    for (std::size_t i = 0; i < reset_used.size(); ++i) {
      if (!reset_used[i]) {
        fail(ff.reset_assigns[i].line,
             "register is reset but never assigned in the data branch");
      }
    }
  }

  /// The writer emits clock/reset ports even for combinational modules
  /// (conventionally clk/rst_n, or the scfi_-prefixed fallbacks when those
  /// names are taken); when no always block claimed them, drop them if they
  /// ended up as completely unreferenced input wires.
  void prune_vestigial_clock_ports() {
    std::set<const rtlil::Wire*> referenced;
    for (const rtlil::Cell* cell : mod_->cells()) {
      for (const auto& [port, sig] : cell->ports()) {
        for (const SigBit& bit : sig.bits()) {
          if (!bit.is_const()) referenced.insert(bit.wire);
        }
      }
    }
    const auto conventional = [](const std::string& name) {
      return name == "clk" || name == "rst_n" || name == "scfi_clk" || name == "scfi_rst_n";
    };
    std::vector<rtlil::Wire*> dead;
    for (rtlil::Wire* w : mod_->wires()) {
      if (w->is_input() && referenced.count(w) == 0 && conventional(w->name())) {
        dead.push_back(w);
      }
    }
    mod_->remove_wires(dead);
  }

  const ast::Module& m_;
  rtlil::Design& design_;
  const std::string& filename_;
  rtlil::Module* mod_ = nullptr;
  std::map<std::string, NetInfo> nets_;
  std::vector<std::string> decl_order_;
  std::string clock_;
  std::string reset_;
};

}  // namespace

ast::File parse_verilog(const std::string& text, const std::string& filename) {
  Parser parser(text, filename);
  return parser.parse_file();
}

rtlil::Module& elaborate(const ast::Module& module, rtlil::Design& design,
                         const std::string& filename) {
  Elaborator elab(module, design, filename);
  return elab.run();
}

std::vector<rtlil::Module*> read_verilog(const std::string& text, rtlil::Design& design,
                                         const std::string& filename) {
  const ast::File file = parse_verilog(text, filename);
  require(!file.modules.empty(), "verilog: " + filename + ": no modules found");
  std::vector<rtlil::Module*> modules;
  modules.reserve(file.modules.size());
  for (const ast::Module& m : file.modules) {
    modules.push_back(&elaborate(m, design, filename));
  }
  return modules;
}

std::vector<rtlil::Module*> read_verilog_file(const std::string& path, rtlil::Design& design) {
  std::ifstream in(path);
  require(static_cast<bool>(in), "verilog: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return read_verilog(buffer.str(), design, path);
}

}  // namespace scfi::frontends
