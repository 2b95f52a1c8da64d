// Tokenizer for the structural Verilog-2001 netlist subset (see
// verilog_parse.h for the grammar). Handles `//` and `/* */` comments,
// `(* attribute *)` skipping, `\`-escaped identifiers, and sized/based
// numeric literals. Every malformed input raises ScfiError carrying the
// file name and line number — never a bare std:: exception.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace scfi::frontends {

enum class TokKind : std::uint8_t {
  kId,      ///< identifier; `escaped` distinguishes `\foo ` from `foo`
  kNumber,  ///< literal text, e.g. "13", "4'b0101", "8'hFF"
  kPunct,   ///< operator/punctuation, e.g. "(", "<=", "=="
  kEof,
};

struct Token {
  TokKind kind = TokKind::kEof;
  std::string text;
  int line = 0;
  bool escaped = false;  ///< kId only: written as a `\`-escaped identifier

  /// Punctuation match. Inline over a string_view so that a literal's
  /// length is known where it is called: a mismatch is a length or a byte
  /// compare, with no strlen.
  bool is_punct(std::string_view p) const { return kind == TokKind::kPunct && text == p; }
  /// Unescaped keyword/identifier match (an escaped `\wire ` is NOT the
  /// keyword `wire`).
  bool is_keyword(const char* kw) const;
};

/// Tokenizes the whole input up front (netlists are small relative to the
/// elaborated module) and serves peek/next with unlimited lookahead.
class VerilogLexer {
 public:
  VerilogLexer(std::string_view text, std::string filename);

  const Token& peek(int ahead = 0) const;
  Token next();
  bool at_eof() const { return peek().kind == TokKind::kEof; }

  /// Throws ScfiError "<file>:<line>: <msg>". Uses the current token's line
  /// when `line` is 0.
  [[noreturn]] void fail(const std::string& msg, int line = 0) const;

  const std::string& filename() const { return filename_; }

 private:
  void tokenize(std::string_view text);

  std::string filename_;
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

/// True when `name` needs `\`-escaping to be a legal Verilog identifier:
/// empty, leading digit/$, a character outside [A-Za-z0-9_$], or a reserved
/// word. Shared with backends/verilog.cpp so writer and reader agree.
bool verilog_needs_escape(const std::string& name);

}  // namespace scfi::frontends
