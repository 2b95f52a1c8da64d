#include "fsm/kiss2.h"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "base/error.h"
#include "base/strutil.h"

namespace scfi::fsm {
namespace {

/// Parses a `.i`/`.o` count. std::stoi would let malformed or overflowing
/// counts escape as std::invalid_argument/std::out_of_range and silently
/// accept trailing junk ("12abc" -> 12); this consumes the whole token or
/// throws ScfiError carrying the offending line.
int parse_count(const std::string& token, const std::string& line) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(token.c_str(), &end, 10);
  require(end != token.c_str() && *end == '\0' && errno != ERANGE && value >= 0 &&
              value <= INT_MAX,
          "kiss2: malformed count in directive: " + line);
  return static_cast<int>(value);
}

/// Handles a `.i`/`.o` (re)declaration: the first declaration wins, an exact
/// duplicate is tolerated, and a contradictory redeclaration — or any
/// redeclaration once transitions have started (the widths are already
/// baked into the generated port names) — is rejected.
void declare_count(int& declared, int value, bool transitions_started,
                   const std::string& line) {
  require(!transitions_started || declared < 0,
          "kiss2: .i/.o redeclared after transitions: " + line);
  require(declared < 0 || declared == value,
          "kiss2: contradictory .i/.o redeclaration: " + line);
  declared = value;
}

}  // namespace

Fsm parse_kiss2(const std::string& text, const std::string& name) {
  Fsm fsm;
  fsm.name = name;
  int declared_inputs = -1;
  int declared_outputs = -1;
  std::string reset_name;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    // trim() also strips the '\r' a CRLF file leaves behind after getline.
    const std::string stripped = trim(line.substr(0, line.find('#')));
    if (stripped.empty()) continue;
    const std::vector<std::string> tok = split(stripped);
    if (tok[0] == ".e" || tok[0] == ".end") {
      break;  // end of description: trailing text is NOT parsed as transitions
    }
    if (tok[0] == ".i") {
      require(tok.size() == 2, "kiss2: malformed .i");
      declare_count(declared_inputs, parse_count(tok[1], stripped),
                    !fsm.transitions.empty(), stripped);
    } else if (tok[0] == ".o") {
      require(tok.size() == 2, "kiss2: malformed .o");
      declare_count(declared_outputs, parse_count(tok[1], stripped),
                    !fsm.transitions.empty(), stripped);
    } else if (tok[0] == ".r") {
      require(tok.size() == 2, "kiss2: malformed .r");
      reset_name = tok[1];
    } else if (tok[0] == ".s" || tok[0] == ".p") {
      continue;  // state/product counts are recomputed
    } else {
      require(tok.size() == 4, "kiss2: transition line needs 4 fields: " + stripped);
      require(declared_inputs >= 0 && declared_outputs >= 0,
              "kiss2: .i/.o must precede transitions");
      // Width checks come BEFORE the port names are generated so an absurd
      // declared count never materializes millions of name strings.
      require(tok[0].size() == static_cast<std::size_t>(declared_inputs),
              "kiss2: input pattern width mismatch: " + stripped);
      require(tok[3].size() == static_cast<std::size_t>(declared_outputs),
              "kiss2: output pattern width mismatch: " + stripped);
      if (fsm.inputs.empty() && fsm.outputs.empty()) {
        for (int i = 0; i < declared_inputs; ++i) fsm.inputs.push_back("x" + std::to_string(i));
        for (int i = 0; i < declared_outputs; ++i) fsm.outputs.push_back("y" + std::to_string(i));
      }
      fsm.add_transition(tok[1], tok[0], tok[2], tok[3]);
    }
  }
  require(!fsm.states.empty(), "kiss2: no transitions found");
  if (!reset_name.empty()) {
    const int r = fsm.state_index(reset_name);
    require(r >= 0, "kiss2: reset state " + reset_name + " never used");
    fsm.reset_state = r;
  }
  fsm.check();
  return fsm;
}

std::string write_kiss2(const Fsm& fsm) {
  std::ostringstream out;
  out << ".i " << fsm.num_inputs() << "\n";
  out << ".o " << fsm.num_outputs() << "\n";
  out << ".p " << fsm.transitions.size() << "\n";
  out << ".s " << fsm.num_states() << "\n";
  out << ".r " << fsm.states[static_cast<std::size_t>(fsm.reset_state)] << "\n";
  for (const Transition& t : fsm.transitions) {
    out << t.guard << " " << fsm.states[static_cast<std::size_t>(t.from)] << " "
        << fsm.states[static_cast<std::size_t>(t.to)] << " "
        << (t.output.empty() ? std::string(fsm.outputs.size(), '-') : t.output) << "\n";
  }
  out << ".e\n";
  return out.str();
}

Fsm parse_kiss2_file(const std::string& path, const std::string& name) {
  std::ifstream in(path);
  require(static_cast<bool>(in), "kiss2: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_kiss2(buffer.str(), name);
}

}  // namespace scfi::fsm
