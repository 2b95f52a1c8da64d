// KISS2 reader/writer — the standard interchange format for FSM benchmarks
// (LGSynth/MCNC). Lets the SCFI flow consume third-party state machines.
#pragma once

#include <string>

#include "fsm/fsm.h"

namespace scfi::fsm {

/// Parses KISS2 text. Supported directives: .i .o .s .p .r and .e/.end
/// (which terminates parsing — trailing text is ignored); transitions are
/// `<input-pattern> <from> <to> <output-pattern>`. Input names are
/// generated as x0..x{n-1}, outputs as y0..y{m-1}. CRLF input is accepted.
/// Every malformed input — bad/overflowing `.i`/`.o` counts, contradictory
/// redeclarations, width mismatches, an unused `.r` state — raises
/// ScfiError naming the offending line (never a bare std:: exception).
Fsm parse_kiss2(const std::string& text, const std::string& name = "kiss2");

/// parse_kiss2 over the contents of the file at `path`; throws ScfiError when
/// the file cannot be read.
Fsm parse_kiss2_file(const std::string& path, const std::string& name);

/// Serializes an FSM to KISS2 text.
std::string write_kiss2(const Fsm& fsm);

}  // namespace scfi::fsm
