// Test support: the per-(site, edge) SAT rebuild oracle of SYNFI.
//
// The product's SAT back-end asks edge-major queries by assumptions on one
// selector-gated miter per (region, fault kind, k). This oracle answers the
// same question the slow, obvious way: a fresh solver and a fresh
// exploitability miter (synfi/exploit_miter.h) over the variant's whole,
// unsliced netlist for every (site, edge) pair, with the site's fault always
// on. For k > 1 every other region site, inside the state/alert cone or
// not, is a gated override and an exactly-(k - 1) counter over those gates
// is asserted, so the query is "does some exactly-k fault set including this
// site break this edge?" — the participation question the product counts.
// Its report must equal Analyzer::run's with the same config bit for bit.
#pragma once

#include "fsm/compile.h"
#include "fsm/fsm.h"
#include "synfi/synfi.h"

namespace scfi::test {

/// The rebuild oracle's report for `config` (the backend field is ignored).
/// Edges are shared between `config.threads` participants through
/// WorkShare, like the product's; the report does not depend on the split.
synfi::SynfiReport sat_rebuild_oracle(const fsm::Fsm& fsm, const fsm::CompiledFsm& variant,
                                      const synfi::SynfiConfig& config);

}  // namespace scfi::test
