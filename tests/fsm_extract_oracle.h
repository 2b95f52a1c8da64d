// Test support: the scalar reference of fsm/extract's recovery.
//
// The product's recover() settles 64 input combinations per eval(), one per
// lane, and compacts (care, value) bit-word cubes. This reference answers the
// same question the slow, obvious way: one combination per eval() on a
// simulator reset before every combination (so every input it does not
// drive is 0 and every other register holds its reset value), and the
// '0'/'1'/'-' string-guard cube compaction with the same merge order. The
// machine it recovers must equal the product's byte for byte.
#pragma once

#include <string>
#include <vector>

#include "fsm/extract.h"
#include "rtlil/module.h"

namespace scfi::test {

/// Recovers the machine held in `state_wire` over the named input and
/// output bits ("w" for a one-bit wire, "w[i]" for bit i of a wider one),
/// in the given order. Throws ScfiError with the product's texts when the
/// bounds in `options` are exceeded.
fsm::ExtractedFsm scalar_recover(const rtlil::Module& module, const std::string& state_wire,
                                 const std::vector<std::string>& inputs,
                                 const std::vector<std::string>& outputs,
                                 const fsm::ExtractOptions& options = {});

}  // namespace scfi::test
