#include "synfi_oracle.h"

#include <mutex>
#include <vector>

#include "base/error.h"
#include "base/parallel.h"
#include "sat/miter.h"
#include "sat/solver.h"
#include "synfi/exploit_miter.h"

namespace scfi::test {
namespace {

void push_equals(std::vector<sat::Lit>& lits, const std::vector<int>& vars, std::uint64_t value) {
  for (std::size_t i = 0; i < vars.size(); ++i) {
    lits.push_back(((value >> i) & 1) ? vars[i] : -vars[i]);
  }
}

/// Per-participant counters; they merge as sums.
struct Tally {
  std::int64_t injections = 0;
  std::int64_t exploitable = 0;
  std::int64_t detected = 0;
  std::int64_t stalls = 0;
};

/// One (site, edge) query on a fresh miter: counts it into `out` and marks
/// the site in `hit` when it is exploitable.
void query(const sim::VariantNetlist& net, const std::vector<rtlil::SigBit>& sites,
           std::size_t site, std::uint64_t from_code, std::uint64_t symbol_code,
           const synfi::SynfiConfig& config, std::vector<char>& hit, Tally& out) {
  const sat::CnfFaultKind kind = synfi::cnf_fault_kind(config.kind);
  sat::Solver solver;
  std::vector<sat::Lit> others;
  const auto participation = [&] {
    std::vector<sat::CnfFault> faults;
    for (std::size_t t = 0; t < sites.size(); ++t) {
      if (t == site) {
        faults.push_back(sat::CnfFault{sites[t], kind});
      } else if (config.faults_k > 1) {
        const sat::Lit sel = solver.new_var();
        others.push_back(sel);
        faults.push_back(sat::CnfFault{sites[t], kind, sel});
      }
    }
    return faults;
  };
  const auto exactly_k_minus_one = [&] {
    if (config.faults_k == 1) return;
    const sat::CardinalityCounter counter(solver, others, config.faults_k - 1);
    for (const sat::Lit lit : counter.assume_exactly(config.faults_k - 1)) solver.add_unit(lit);
  };
  const synfi::ExploitMiter miter =
      synfi::encode_exploit_miter(solver, *net.variant, net.full, config.kind, participation,
                                  exactly_k_minus_one);

  std::vector<sat::Lit> stimulus;
  push_equals(stimulus, miter.svars, from_code);
  if (!config.free_symbol) push_equals(stimulus, miter.xvars, symbol_code);
  for (const sat::Lit lit : stimulus) solver.add_unit(lit);

  ++out.injections;
  if (solver.solve() != sat::Result::kSat) {
    ++out.detected;
    return;
  }
  ++out.exploitable;
  hit[site] = 1;
  // A stall: some undetected model keeps the old state.
  std::vector<sat::Lit> stall;
  push_equals(stall, miter.fn, from_code);
  if (solver.solve(stall) == sat::Result::kSat) ++out.stalls;
}

}  // namespace

synfi::SynfiReport sat_rebuild_oracle(const fsm::Fsm& fsm, const fsm::CompiledFsm& variant,
                                      const synfi::SynfiConfig& config) {
  const sim::VariantNetlist net(variant);
  const std::vector<rtlil::SigBit> sites =
      synfi::region_sites(net, config.wire_prefix, config.include_inputs, config.target);
  require(!sites.empty(), "sat_rebuild_oracle: empty fault region");
  const std::vector<fsm::CfgEdge> edges = fsm.cfg_edges();
  synfi::SynfiReport report;
  report.faults_k = config.faults_k;
  report.sites = static_cast<std::int64_t>(sites.size());
  if (static_cast<std::size_t>(config.faults_k) > sites.size() || edges.empty()) return report;

  Tally total;
  std::vector<char> site_hit(sites.size(), 0);
  std::mutex merge_mutex;
  WorkShare::run(edges.size(), 1, config.threads, [&](WorkShare::Claim& claim) {
    Tally out;
    std::vector<char> hit(sites.size(), 0);
    for (UnitRange r = claim.next(1); !r.empty(); r = claim.next(1)) {
      for (std::uint64_t e = r.begin; e < r.end; ++e) {
        const fsm::CfgEdge& edge = edges[static_cast<std::size_t>(e)];
        const std::uint64_t from_code = variant.state_codes[static_cast<std::size_t>(edge.from)];
        const std::uint64_t symbol_code = variant.symbol_codes.at(edge.symbol);
        for (std::size_t s = 0; s < sites.size(); ++s) {
          query(net, sites, s, from_code, symbol_code, config, hit, out);
        }
      }
    }
    const std::lock_guard<std::mutex> lock(merge_mutex);
    total.injections += out.injections;
    total.exploitable += out.exploitable;
    total.detected += out.detected;
    total.stalls += out.stalls;
    for (std::size_t s = 0; s < sites.size(); ++s) site_hit[s] |= hit[s];
  });
  report.injections = total.injections;
  report.exploitable = total.exploitable;
  report.detected = total.detected;
  report.stalls = total.stalls;
  for (std::size_t s = 0; s < sites.size(); ++s) {
    if (site_hit[s]) report.exploitable_sites.push_back(synfi::site_name(sites[s]));
  }
  return report;
}

}  // namespace scfi::test
