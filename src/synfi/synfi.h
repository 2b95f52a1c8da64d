// Pre-silicon fault analysis in the style of SYNFI (paper §6.4).
//
// For every fault location inside a region of the hardened netlist and every
// valid state transition, the analysis decides whether k concurrent induced
// faults (k = 1 is the paper's single-fault model) let the attacker reach a
// *valid but wrong* next state without raising the alert — the
// exploitability criterion of the paper. Two back-ends are provided:
//   * exhaustive simulation (complete here, because all valid stimuli of the
//     one-cycle property are enumerated). Jobs are (site combination, edge)
//     pairs — a single fault is a 1-combination — streamed in lexicographic
//     combination order and packed `lanes` at a time into the bit-parallel
//     simulator (up to 64 x lane_words = 512 lanes per pass via multi-word
//     SoA lane blocks). Each lane carries its own state/symbol stimulus; a
//     combination's edges fill a contiguous run of lanes (a segment, which
//     may continue in the next batch), and each of its faults is injected
//     once into the whole segment. Outcomes are classified word-parallel
//     against the expected, old and error codewords and the alert word, and
//     an exploitable lane credits the sites of its segment.
//     Only observable sites are simulated. A net is live (observable) when it
//     lies in the combinational fan-in of the alert, of the state register's
//     D pins, or of the D pin of any flip-flop whose Q is itself live,
//     iterated to a fixpoint (rtlil::fanin_cone). A fault on a dead net can
//     never reach the alert or the latched state, so an injection's outcome
//     is that of its live faults alone. The Analyzer slices its netlist to
//     the cone once (sim::VariantNetlist), and its simulators run only the
//     slice's ops and registers. With L live and D dead region sites and E
//     edges, a run simulates layer m — all C(L, m) x E live m-combinations —
//     for every m from min(k, L) down to max(0, k - D), and counts each layer
//     C(D, k - m) times over; m = 0 is the fault-free batch, simulated once
//     per Analyzer. The counters, including injections = C(L + D, k) x E, are
//     exactly the full enumeration's. A dead site is exploitable when some
//     layer with m < k has an exploitable job — any dead site completes it
//     into an exploitable injection — so every dead site is credited
//     together. D = 0 (e.g. the econd_ region) is the plain enumeration; the
//     cone is bit-level, so even mds_ has dead sites (diffusion-word bits the
//     state register never reads). A skip-cycle fault stalls the flip-flop
//     whose Q it hits and is a no-op on any other net, so a skip site is
//     live only when it is the Q of a flip-flop in the cone
//     (sim::VariantNetlist::live, the rule the campaign executor shares).
//   * a SAT back-end (CDCL solver) that additionally supports leaving the
//     control symbol unconstrained. By default it builds ONE golden +
//     selector-gated-faulty miter per (region, fault kind, k) over the same
//     cone slice — every fault override conditioned on a fresh selector
//     literal, one per live region site, under `exactly_one` for k = 1 and
//     a cardinality counter for k > 1 — and asks edge-major, via
//     `solve(assumptions)`, sharing the CNF and learned clauses across all
//     queries: "does a fault set with a site not yet found break this
//     edge?" Each kSat model names its fault set; its new sites are
//     exploitable on the edge and are excluded before the edge is asked
//     again, and the first kUnsat proves every remaining live site safe. A
//     site counts as exploitable when some exactly-k fault set including it
//     breaks the edge. Its dead sites change nothing, so for k > 1 the live
//     queries bound the live part m of the set to max(1, k - D) <= m <= k,
//     and all D dead sites share one verdict: exploitable when some live set
//     with max(1, k - D) <= m <= k - 1 breaks the edge (one more query, plus
//     one for their stalls). At k = 1 a dead site is never exploitable. An
//     edge thus costs one call plus two per exploitable site (the second
//     decides the stall) at k = 1, at most that plus two for k > 1, and none
//     when the region has no live site — instead of one call per (site,
//     edge). This is the one SAT path; the miter is synfi/exploit_miter.h's
//     property, and the per-(site, edge) rebuild oracle it is tested
//     against, which encodes the unsliced netlist and gates every region
//     site, lives with the tests (tests/synfi_oracle.h).
//
// A run's units — combination ranks for the exhaustive back-end, edges for
// SAT — are shared through base/parallel.h's WorkShare: the calling thread
// owns the range and helpers (`threads` - 1 of them, or the idle threads of
// an enclosing sweep) steal halves of it. Counters merge as plain sums and
// exploitable sites as a full-region bitmap emitted in site order, so every
// report — all counters and the `exploitable_sites` order — is
// bit-identical for every lanes/threads combination and every split.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fsm/compile.h"
#include "sim/fault.h"
#include "sim/netlist_sim.h"

namespace scfi {
class CancelToken;
}

namespace scfi::sim {
struct VariantNetlist;
}

namespace scfi::synfi {

enum class Backend { kExhaustiveSim, kSat };

struct SynfiConfig {
  /// Only fault bits of wires whose name starts with this prefix
  /// ("" = every combinational net). "mds_" selects the diffusion layer,
  /// matching the paper's experiment.
  std::string wire_prefix = "mds_";
  Backend backend = Backend::kExhaustiveSim;
  sim::FaultKind kind = sim::FaultKind::kTransientFlip;
  /// Concurrent faults per injection: 1 reproduces the classic single-fault
  /// sweep. The exhaustive back-end reports C(sites, k) x edges injections,
  /// simulating the observable layers over lazily streamed site
  /// combinations; for k > 1 the SAT back-end decides,
  /// per (site, edge), whether some exactly-k fault set including the site
  /// breaks the edge, enumerating the exploitable sites of each edge over
  /// one cardinality-constrained miter. This is how the paper's distance
  /// claim is measured directly: an encoding with minimum distance d must
  /// show no exploitable outcome for any k < d.
  int faults_k = 1;
  /// Restrict the fault region to one target class of the paper (§3.1):
  /// kStateRegister faults the state register Q bits themselves (the class
  /// the encoding distance argument protects), kControlInputs the module
  /// inputs, kLogic the combinational prefix region. kAny keeps the classic
  /// prefix region (plus inputs when include_inputs is set).
  sim::FaultTarget target = sim::FaultTarget::kAny;
  /// SAT back-end only: leave the encoded control symbol unconstrained
  /// (any bus value, not just valid codewords).
  bool free_symbol = false;
  /// Also inject into module input bits (FT2 / common-mode faults). Only
  /// meaningful with an empty or matching wire_prefix.
  bool include_inputs = false;
  /// Exhaustive back-end: (combination, edge) injection jobs per simulator pass
  /// (1..sim::kMaxLanes = 64*lane_words). 1 reproduces the scalar
  /// one-job-per-pass path; widths past 64 select a multi-word lane block,
  /// subject to the SCFI_LANE_WORDS_CAP runtime clamp.
  int lanes = sim::kNumLanes;
  /// Worker threads: the caller plus `threads` - 1 helpers share the
  /// combination ranks (exhaustive) or the edges (SAT); <= 1 = inline.
  /// Ignored when the calling thread has a current WorkBoard (a sweep
  /// worker): that board's idle threads help instead. The report is
  /// bit-identical for every lanes/threads combination.
  int threads = 1;
  /// Optional cooperative stop signal, polled once per simulator batch /
  /// SAT edge query: when it fires, workers throw CancelledError at the next
  /// check point instead of being killed. Execution knob like
  /// lanes/threads — never part of a job identity — and must outlive the
  /// run() call. nullptr = never cancelled.
  const CancelToken* cancel = nullptr;
};

struct SynfiReport {
  int faults_k = 1;              ///< concurrent faults per injection
  std::int64_t sites = 0;        ///< fault locations analyzed
  std::int64_t injections = 0;   ///< sites x transitions (paper: 7644)
  std::int64_t exploitable = 0;  ///< undetected control-flow hijacks (paper: 32)
  std::int64_t detected = 0;     ///< alert raised or ERROR state entered
  std::int64_t masked = 0;       ///< no architectural effect
  /// Exploitable injections that merely kept the old state. The SAT
  /// back-end counts an exploitable (site, edge) as a stall when *some*
  /// undetected model with that site keeps the old state (a second
  /// `solve(assumptions)` pass), which is deterministic regardless of solver
  /// state or query order.
  std::int64_t stalls = 0;
  std::vector<std::string> exploitable_sites;

  double exploitable_pct() const {
    return injections > 0 ? 100.0 * static_cast<double>(exploitable) /
                                static_cast<double>(injections)
                          : 0.0;
  }

  bool operator==(const SynfiReport& other) const = default;
};

/// Stateful analysis engine bound to ONE compiled variant. Construction and
/// the first `run()` pay the fixed costs — edge table, simulator contexts
/// (with their aligned stimulus), per-region site enumeration, and (for the
/// SAT back-end) the selector-gated solver — and every further
/// `run()` re-queries the cached state, so a many-region / many-fault-kind
/// sweep over one variant no longer rebuilds the Simulator or CNF per call.
/// A run's participants check simulator contexts out of a free list; the
/// cache keeps one whole-region SAT context per (region, kind, k) — the
/// owner's — while helpers build their own and drop them when the run ends.
/// New SAT contexts are warm-started from the variable activities and
/// phases an earlier context of the same variant learned.
///
/// Every `run()` report is bit-identical to a fresh `analyze()` call with
/// the same config (cached simulators/solvers can only change speed, never a
/// verdict). `fsm` and `variant` must outlive the Analyzer. The object is
/// not thread-safe — use one Analyzer per calling thread; `run()` itself
/// fans out across `config.threads` workers internally.
class Analyzer {
 public:
  Analyzer(const fsm::Fsm& fsm, const fsm::CompiledFsm& variant);
  /// Over `net`, which the caller may share with sim::run_campaign.
  Analyzer(const fsm::Fsm& fsm, std::shared_ptr<const sim::VariantNetlist> net);
  ~Analyzer();
  Analyzer(const Analyzer&) = delete;
  Analyzer& operator=(const Analyzer&) = delete;

  SynfiReport run(const SynfiConfig& config = {});

  const fsm::CompiledFsm& variant() const;
  /// Cache diagnostics (tests/benches): idle simulator contexts and cached
  /// incremental SAT contexts.
  std::size_t cached_simulators() const;
  std::size_t cached_sat_shards() const;
  /// SAT solve() calls of the last run() (0 for the exhaustive back-end),
  /// summed over its participants, including a run that threw.
  std::uint64_t last_sat_solves() const;
  /// Fault-injected (combination, edge) jobs the last exhaustive run()
  /// simulated — the sum of C(L, m) x E over its layers m >= 1 (the
  /// fault-free batch is not counted) — and the L observable sites of its
  /// region. Both 0 after a SAT run.
  std::uint64_t last_simulated_injections() const;
  std::size_t last_observable_sites() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Analyzes `variant` (a symbol-encoded compiled FSM) against `fsm`'s CFG.
/// One-shot convenience wrapper over `Analyzer` — construction cost is paid
/// per call; sweeps touching one variant more than once should hold an
/// Analyzer instead.
SynfiReport analyze(const fsm::Fsm& fsm, const fsm::CompiledFsm& variant,
                    const SynfiConfig& config = {});

/// Measured protection degree of a variant: the smallest k in
/// [1, config.faults_k] whose k-fault sweep finds an exploitable outcome, or
/// 0 when none does. `report` must be `analyzer.run(config)` — it answers
/// k = config.faults_k, so only the smaller k are run here (none at all for
/// faults_k = 1). The paper's claim for an encoding with minimum distance d
/// is degree == d (and 0 when faults_k < d); an unprotected variant
/// measures 1.
int measured_protection_degree(Analyzer& analyzer, const SynfiConfig& config,
                               const SynfiReport& report);

/// Lane-count heuristic for a module (ROADMAP item 3): the widest supported
/// lane block whose faulty-eval working set (~7 streamed words per net) still
/// fits a 128 KiB L2 budget, capped at 256 lanes — BENCH_sim.json records
/// that small modules peak at 128–256 lanes and regress at 512
/// (`synfi_best_lanes`). Callers that accept lanes = 0 as "auto" resolve it
/// through this before handing the count to an engine; explicit lane counts
/// are never second-guessed.
int auto_lanes(const rtlil::Module& module);

}  // namespace scfi::synfi
