#include "frontends/verilog_lexer.h"

#include <cctype>
#include <cstring>
#include <unordered_set>

#include "base/error.h"

namespace scfi::frontends {
namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$';
}

bool space_char(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' || c == '\v';
}

/// Verilog-2001 reserved words that can plausibly collide with netlist
/// names. Escaping a non-reserved word is always legal, so the list errs on
/// the generous side rather than aiming for completeness.
const std::unordered_set<std::string>& reserved_words() {
  static const std::unordered_set<std::string> kWords = {
      "always",   "and",       "assign",   "begin",    "buf",      "case",
      "casex",    "casez",     "default",  "defparam", "else",     "end",
      "endcase",  "endfunction", "endmodule", "endtask", "for",    "function",
      "generate", "endgenerate", "genvar",  "if",       "inout",   "initial",
      "input",    "integer",   "localparam", "module",  "nand",    "negedge",
      "nor",      "not",       "or",       "output",   "parameter", "posedge",
      "real",     "reg",       "repeat",   "signed",   "supply0",  "supply1",
      "task",     "tri",       "tri0",     "tri1",     "wand",     "while",
      "wire",     "wor",       "xnor",     "xor",
  };
  return kWords;
}

}  // namespace

bool verilog_needs_escape(const std::string& name) {
  if (name.empty()) return true;
  if (!ident_start(name[0])) return true;  // leading digit, '$', or other
  for (char c : name) {
    if (!ident_char(c)) return true;
  }
  return reserved_words().count(name) != 0;
}

bool Token::is_keyword(const char* kw) const {
  return kind == TokKind::kId && !escaped && text == kw;
}

VerilogLexer::VerilogLexer(std::string_view text, std::string filename)
    : filename_(std::move(filename)) {
  tokenize(text);
}

const Token& VerilogLexer::peek(int ahead) const {
  const std::size_t i = pos_ + static_cast<std::size_t>(ahead);
  return i < tokens_.size() ? tokens_[i] : tokens_.back();  // last is kEof
}

Token VerilogLexer::next() {
  Token t = peek();
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return t;
}

void VerilogLexer::fail(const std::string& msg, int line) const {
  if (line == 0) line = peek().line;
  throw ScfiError("verilog: " + filename_ + ":" + std::to_string(line) + ": " + msg);
}

void VerilogLexer::tokenize(std::string_view text) {
  std::size_t i = 0;
  int line = 1;
  const std::size_t n = text.size();
  const auto raise = [&](const std::string& msg) {
    throw ScfiError("verilog: " + filename_ + ":" + std::to_string(line) + ": " + msg);
  };
  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (space_char(c)) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      while (i < n && text[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      const int start_line = line;
      i += 2;
      for (;; ++i) {
        if (i + 1 >= n) {
          line = start_line;
          raise("unterminated /* comment");
        }
        if (text[i] == '\n') ++line;
        if (text[i] == '*' && text[i + 1] == '/') break;
      }
      i += 2;
      continue;
    }
    // Attribute instances `(* ... *)` carry synthesis hints we do not model;
    // skip them wholesale (string values containing `*)` are out of scope).
    if (c == '(' && i + 1 < n && text[i + 1] == '*') {
      const int start_line = line;
      i += 2;
      for (;; ++i) {
        if (i + 1 >= n) {
          line = start_line;
          raise("unterminated (* attribute");
        }
        if (text[i] == '\n') ++line;
        if (text[i] == '*' && text[i + 1] == ')') break;
      }
      i += 2;
      continue;
    }
    // Escaped identifier: `\` up to the next whitespace.
    if (c == '\\') {
      const std::size_t start = ++i;
      while (i < n && !space_char(text[i])) ++i;
      if (i == start) raise("empty \\-escaped identifier");
      Token t;
      t.kind = TokKind::kId;
      t.text = std::string(text.substr(start, i - start));
      t.line = line;
      t.escaped = true;
      tokens_.push_back(std::move(t));
      continue;
    }
    if (ident_start(c)) {
      const std::size_t start = i;
      while (i < n && ident_char(text[i])) ++i;
      Token t;
      t.kind = TokKind::kId;
      t.text = std::string(text.substr(start, i - start));
      t.line = line;
      tokens_.push_back(std::move(t));
      continue;
    }
    // Number: [size]'<base><digits> or a plain decimal run. The parser
    // interprets the text; the lexer only delimits it.
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '\'') {
      const std::size_t start = i;
      while (i < n && (std::isdigit(static_cast<unsigned char>(text[i])) || text[i] == '_')) ++i;
      if (i < n && text[i] == '\'') {
        ++i;
        if (i >= n || std::strchr("bBdDhHoO", text[i]) == nullptr) {
          raise("malformed based literal (expected b/d/h/o after ')");
        }
        ++i;
        const std::size_t digits = i;
        while (i < n && (std::isalnum(static_cast<unsigned char>(text[i])) || text[i] == '_')) {
          ++i;
        }
        if (i == digits) raise("based literal has no digits");
      }
      Token t;
      t.kind = TokKind::kNumber;
      t.text = std::string(text.substr(start, i - start));
      t.line = line;
      tokens_.push_back(std::move(t));
      continue;
    }
    // Punctuation; two-char operators first.
    Token t;
    t.kind = TokKind::kPunct;
    t.line = line;
    if (i + 1 < n && ((c == '<' && text[i + 1] == '=') || (c == '=' && text[i + 1] == '=') ||
                      (c == '!' && text[i + 1] == '=') || (c == '&' && text[i + 1] == '&') ||
                      (c == '|' && text[i + 1] == '|'))) {
      t.text = std::string(text.substr(i, 2));
      i += 2;
    } else if (std::strchr("()[]{};,:.?~!&|^=@#*+-<>", c) != nullptr) {
      t.text = std::string(1, c);
      ++i;
    } else {
      raise(std::string("unexpected character '") + c + "'");
    }
    tokens_.push_back(std::move(t));
  }
  Token eof;
  eof.kind = TokKind::kEof;
  eof.text = "<eof>";
  eof.line = line;
  tokens_.push_back(std::move(eof));
}

}  // namespace scfi::frontends
