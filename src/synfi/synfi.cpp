#include "synfi/synfi.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <map>
#include <mutex>
#include <tuple>
#include <unordered_map>

#include "base/error.h"
#include "base/parallel.h"
#include "base/retry.h"
#include "base/strutil.h"
#include "sat/cnf.h"
#include "sat/miter.h"

namespace scfi::synfi {
namespace {

using fsm::CfgEdge;
using fsm::CompiledFsm;
using fsm::Fsm;
using rtlil::SigBit;

std::string format_site(const SigBit& site) {
  return site.wire->name() + "[" + std::to_string(site.offset) + "]";
}

std::vector<SigBit> enumerate_region(const rtlil::Module& module, const std::string& prefix,
                                     bool include_inputs, sim::FaultTarget target,
                                     const std::string& state_wire) {
  std::vector<SigBit> sites;
  // FT1: the state register Q bits themselves — the class the encoding
  // distance protects. These are FF-driven, so the combinational walk below
  // would skip them; resolve the state wire directly instead.
  if (target == sim::FaultTarget::kStateRegister) {
    const rtlil::Wire* w = module.wire(state_wire);
    check(w != nullptr, "synfi: variant has no state wire '" + state_wire + "'");
    for (int i = 0; i < w->width(); ++i) sites.emplace_back(w, i);
    return sites;
  }
  const rtlil::NetlistIndex index(module);
  for (const rtlil::Wire* w : module.wires()) {
    if (!prefix.empty() && !starts_with(w->name(), prefix)) continue;
    if (w->is_input()) {
      if (target == sim::FaultTarget::kControlInputs ||
          (target == sim::FaultTarget::kAny && include_inputs)) {
        for (int i = 0; i < w->width(); ++i) sites.emplace_back(w, i);
      }
      continue;
    }
    if (target == sim::FaultTarget::kControlInputs) continue;
    for (int i = 0; i < w->width(); ++i) {
      const SigBit bit(w, i);
      const rtlil::Cell* driver = index.driver(bit);
      if (driver == nullptr || rtlil::is_ff(driver->type())) continue;
      sites.push_back(bit);
    }
  }
  return sites;
}

sat::CnfFaultKind to_cnf_kind(sim::FaultKind kind) {
  require(kind != sim::FaultKind::kSkipCycle,
          "synfi: the SAT backend cannot model skip-cycle (clock-glitch) faults; "
          "use the exhaustive simulation backend");
  switch (kind) {
    case sim::FaultKind::kStuckAt0: return sat::CnfFaultKind::kStuckAt0;
    case sim::FaultKind::kStuckAt1: return sat::CnfFaultKind::kStuckAt1;
    default: return sat::CnfFaultKind::kFlip;
  }
}

// --- lazy combination streaming ---------------------------------------------
//
// Exhaustive jobs are (combination, edge) pairs in combo-major lexicographic
// order; a single fault is a 1-combination. Shards claim contiguous *rank*
// ranges, unrank their first combination once, and then step with the O(k)
// lexicographic successor — no shard ever materialises the C(n, k)
// combination list.

std::uint64_t binomial(std::size_t n, std::size_t k) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  std::uint64_t r = 1;
  for (std::size_t i = 1; i <= k; ++i) {
    const std::uint64_t num = n - k + i;
    // r * num / i is exact at every step (it equals C(n-k+i, i)).
    check(r <= std::numeric_limits<std::uint64_t>::max() / num,
          "synfi: combination count overflows 64 bits");
    r = r * num / i;
  }
  return r;
}

/// Lexicographic combination of `rank` (0-based) among C(n, k).
std::vector<std::size_t> unrank_combination(std::uint64_t rank, std::size_t n,
                                            std::size_t k) {
  std::vector<std::size_t> c(k);
  std::size_t x = 0;
  for (std::size_t i = 0; i < k; ++i) {
    while (true) {
      const std::uint64_t block = binomial(n - x - 1, k - i - 1);
      if (rank < block) break;
      rank -= block;
      ++x;
    }
    c[i] = x++;
  }
  return c;
}

/// Advances to the lexicographic successor; false when `c` was the last one.
bool next_combination(std::vector<std::size_t>& c, std::size_t n) {
  const std::size_t k = c.size();
  for (std::size_t i = k; i-- > 0;) {
    if (c[i] < n - k + i) {
      ++c[i];
      for (std::size_t j = i + 1; j < k; ++j) c[j] = c[j - 1] + 1;
      return true;
    }
  }
  return false;
}

/// Loop-invariant per-edge stimulus, resolved once per Analyzer and shared
/// by both back-ends: symbol codeword plus from/to state indices (no map
/// lookups inside the query loops).
struct EdgeTable {
  std::vector<std::uint64_t> code;   ///< encoded control symbol per edge
  std::vector<std::uint64_t> from_code;
  std::vector<std::int32_t> from;    ///< state index per edge
  std::vector<std::int32_t> to;
  std::size_t size() const { return code.size(); }
};

EdgeTable build_edge_table(const CompiledFsm& variant, const std::vector<CfgEdge>& edges) {
  EdgeTable table;
  table.code.reserve(edges.size());
  table.from_code.reserve(edges.size());
  table.from.reserve(edges.size());
  table.to.reserve(edges.size());
  for (const CfgEdge& edge : edges) {
    table.code.push_back(variant.symbol_codes.at(edge.symbol));
    table.from_code.push_back(variant.state_codes[static_cast<std::size_t>(edge.from)]);
    table.from.push_back(edge.from);
    table.to.push_back(edge.to);
  }
  return table;
}

/// Partial counters of one shard. They are plain sums, and exploitable
/// sites go into a per-shard full-region bitmap that the merge ORs and
/// emits in global site order, so the report is lanes/threads-invariant.
struct ShardReport {
  std::int64_t injections = 0;
  std::int64_t exploitable = 0;
  std::int64_t detected = 0;
  std::int64_t masked = 0;
  std::int64_t stalls = 0;
};

/// One reusable worker context of the exhaustive back-end: the compiled
/// 64-lane simulator plus the resolved interface handles. Building the
/// Simulator (netlist flattening) is the fixed cost a many-region sweep
/// amortizes, so the Analyzer keeps one context per worker slot alive
/// across run() calls. Per-job state/symbol stimulus is fully overwritten
/// every batch and outcome classification reads only the state/alert cone,
/// so carried-over simulator state cannot change any verdict (the same
/// property that makes the report lanes/threads-invariant).
struct SimContext {
  sim::Simulator simulator;
  sim::Simulator::WireHandle symbol_h;
  sim::Simulator::WireHandle state_h;
  sim::Simulator::WireHandle alert_h;

  SimContext(const CompiledFsm& variant, int lane_words)
      : simulator(*variant.module, lane_words) {
    symbol_h = simulator.input_handle(variant.symbol_input_wire);
    state_h = simulator.probe(variant.state_wire);
    if (!variant.alert_wire.empty()) alert_h = simulator.probe(variant.alert_wire);
    check(state_h.width <= 64, "synfi: state wire too wide");
  }
};

/// Per-edge-alignment stimulus. Jobs stay in (combo-major, edge-minor)
/// order, so a batch starting at job j0 always drives lane k with edge
/// (j0 + k) mod E: the per-word stimulus and per-lane from/to state indices
/// depend only on j0 mod E. Precomputed per alignment so the batch loop
/// never repacks bits or divides.
struct AlignedStimulus {
  std::vector<std::uint64_t> in_words;   ///< symbol bit x word -> lane word
  std::vector<std::uint64_t> st_words;   ///< state bit x word -> lane word
  std::vector<std::int32_t> lane_from;   ///< state index per lane
  std::vector<std::int32_t> lane_to;
};

std::vector<AlignedStimulus> build_aligned_stimulus(const EdgeTable& edges, int symbol_w,
                                                    int state_w, int W,
                                                    std::size_t total_lanes) {
  const std::size_t num_edges = edges.size();
  std::vector<AlignedStimulus> aligned(num_edges);
  for (std::size_t r = 0; r < num_edges; ++r) {
    AlignedStimulus& a = aligned[r];
    a.in_words.assign(static_cast<std::size_t>(symbol_w * W), 0);
    a.st_words.assign(static_cast<std::size_t>(state_w * W), 0);
    a.lane_from.resize(total_lanes);
    a.lane_to.resize(total_lanes);
    std::size_t e = r;
    for (std::size_t lane = 0; lane < total_lanes; ++lane) {
      const std::size_t wj = lane >> 6;
      const std::uint64_t bit = 1ULL << (lane & 63);
      const std::uint64_t code = edges.code[e];
      const std::uint64_t from_code = edges.from_code[e];
      for (int i = 0; i < symbol_w; ++i) {
        if ((code >> i) & 1) a.in_words[static_cast<std::size_t>(i * W) + wj] |= bit;
      }
      for (int i = 0; i < state_w; ++i) {
        if ((from_code >> i) & 1) a.st_words[static_cast<std::size_t>(i * W) + wj] |= bit;
      }
      a.lane_from[lane] = edges.from[e];
      a.lane_to[lane] = edges.to[e];
      if (++e == num_edges) e = 0;
    }
  }
  return aligned;
}

/// Exhaustive-simulation back-end over combination ranks [combo_begin,
/// combo_end): every job is one lexicographic site combination x one edge
/// (combo-major, edge-minor), all k faults of a combo injected into the same
/// lane, and up to `config.lanes` jobs packed into every eval/step pass —
/// 64 x lane_words jobs when the context's simulator carries a multi-word
/// lane block. Lane j carries job j's state/symbol stimulus (per-lane
/// register/input words) and a single-lane fault mask; outcomes are
/// classified word-parallel, W lane words at a time. Lanes never interact,
/// so the per-job outcome equals the scalar one-job-per-pass path bit for
/// bit. Combinations straddle the whole region, so attribution goes into a
/// caller-owned full-region bitmap.
void run_exhaustive_kfault_shard(SimContext& ctx, const CompiledFsm& variant,
                                 const std::vector<SigBit>& sites, const EdgeTable& edges,
                                 const SynfiConfig& config, std::uint64_t combo_begin,
                                 std::uint64_t combo_end, std::vector<char>& site_hit,
                                 ShardReport& out) {
  sim::Simulator& simulator = ctx.simulator;
  const sim::Simulator::WireHandle symbol_h = ctx.symbol_h;
  const sim::Simulator::WireHandle state_h = ctx.state_h;
  const sim::Simulator::WireHandle alert_h = ctx.alert_h;
  const int W = simulator.lane_words();
  const std::size_t total_lanes = static_cast<std::size_t>(W) * 64;
  const int state_w = state_h.width;
  const int symbol_w = symbol_h.width;
  const std::size_t num_states = variant.state_codes.size();
  // A code with bits beyond the register width can never match.
  const auto fits = [state_w](std::uint64_t code) {
    return state_w >= 64 || (code >> state_w) == 0;
  };
  const auto k = static_cast<std::size_t>(config.faults_k);

  std::vector<std::int32_t> site_net;
  site_net.reserve(sites.size());
  for (const SigBit& site : sites) site_net.push_back(simulator.net_index(site));

  const std::size_t num_edges = edges.size();
  const std::uint64_t num_jobs = (combo_end - combo_begin) * num_edges;
  const auto lanes = static_cast<std::size_t>(config.lanes);
  // Runtime-width lane sets: words [0, W) of a kMaxLaneWords array, so the
  // classic one-word configuration pays for exactly one word.
  using LaneWords = std::array<std::uint64_t, sim::kMaxLaneWords>;
  const auto alert_words = [&] {
    LaneWords words{};
    for (int w = 0; w < W && alert_h.valid(); ++w) {
      for (std::int32_t i = 0; i < alert_h.width; ++i) {
        words[static_cast<std::size_t>(w)] |= simulator.lane_word(alert_h.base + i, w);
      }
    }
    return words;
  };
  std::vector<std::uint64_t> state_words(static_cast<std::size_t>(state_w * W));
  std::vector<std::uint64_t> state_eq(num_states * static_cast<std::size_t>(W));
  const std::vector<AlignedStimulus> aligned =
      build_aligned_stimulus(edges, symbol_w, state_w, W, total_lanes);

  // Streamed combination bookkeeping: unrank the shard's first combination
  // once, then advance lexicographically; each lane records the sites of its
  // combo so exploitable lanes can credit every member.
  std::vector<std::size_t> combo = unrank_combination(combo_begin, sites.size(), k);
  std::vector<std::size_t> lane_sites(total_lanes * k);
  std::size_t cur_edge = 0;
  for (std::uint64_t job0 = 0; job0 < num_jobs; job0 += lanes) {
    // Cooperative cancellation at batch granularity: a fired token (sweep
    // job deadline) stops the shard here, never mid-batch.
    if (config.cancel != nullptr) config.cancel->check("synfi");
    const auto batch_jobs =
        static_cast<std::size_t>(std::min<std::uint64_t>(lanes, num_jobs - job0));
    const sim::LaneMask batch_mask = sim::LaneMask::first_n(static_cast<int>(batch_jobs));
    const AlignedStimulus& a = aligned[cur_edge];

    simulator.clear_all_faults();
    for (int i = 0; i < symbol_w; ++i) {
      for (int w = 0; w < W; ++w) {
        simulator.set_input_word(symbol_h, i, a.in_words[static_cast<std::size_t>(i * W + w)], w);
      }
    }
    for (int i = 0; i < state_w; ++i) {
      for (int w = 0; w < W; ++w) {
        simulator.set_register_word(state_h, i, a.st_words[static_cast<std::size_t>(i * W + w)],
                                    w);
      }
    }
    std::size_t e = cur_edge;
    for (std::size_t lane = 0; lane < batch_jobs; ++lane) {
      const sim::LaneMask mask = sim::LaneMask::lane(static_cast<int>(lane));
      for (std::size_t j = 0; j < k; ++j) {
        simulator.inject_net(site_net[combo[j]], config.kind, mask);
        lane_sites[lane * k + j] = combo[j];
      }
      if (++e == num_edges) {
        e = 0;
        next_combination(combo, sites.size());
      }
    }

    simulator.eval();
    const LaneWords alert_pre = alert_words();
    simulator.step();
    const LaneWords alert_post = alert_words();
    for (int i = 0; i < state_w; ++i) {
      for (int w = 0; w < W; ++w) {
        state_words[static_cast<std::size_t>(i * W + w)] =
            simulator.lane_word(state_h.base + i, w);
      }
    }

    // Word-parallel classification: equality masks of the latched state
    // against every codeword at once instead of decoding lane by lane.
    const auto code_eq = [&](std::uint64_t code, int w) {
      std::uint64_t eq = fits(code) ? batch_mask.w[static_cast<std::size_t>(w)] : 0;
      for (int i = 0; i < state_w && eq != 0; ++i) {
        const std::uint64_t sw = state_words[static_cast<std::size_t>(i * W + w)];
        eq &= ((code >> i) & 1) ? sw : ~sw;
      }
      return eq;
    };
    for (std::size_t sc = 0; sc < num_states; ++sc) {
      for (int w = 0; w < W; ++w) {
        state_eq[sc * static_cast<std::size_t>(W) + static_cast<std::size_t>(w)] =
            code_eq(variant.state_codes[sc], w);
      }
    }
    LaneWords err_eq{};
    for (int w = 0; w < W && variant.has_error_state; ++w) {
      err_eq[static_cast<std::size_t>(w)] = code_eq(variant.error_code, w);
    }
    LaneWords match_expect{};
    LaneWords match_from{};
    for (std::size_t lane = 0; lane < batch_jobs; ++lane) {
      const std::size_t wj = lane >> 6;
      const std::uint64_t bit = 1ULL << (lane & 63);
      match_expect[wj] |= state_eq[static_cast<std::size_t>(a.lane_to[lane]) *
                                       static_cast<std::size_t>(W) +
                                   wj] &
                          bit;
      match_from[wj] |= state_eq[static_cast<std::size_t>(a.lane_from[lane]) *
                                     static_cast<std::size_t>(W) +
                                 wj] &
                        bit;
    }

    out.injections += static_cast<std::int64_t>(batch_jobs);
    for (int w = 0; w < W; ++w) {
      const auto j = static_cast<std::size_t>(w);
      const std::uint64_t mask = batch_mask.w[j];
      const std::uint64_t masked = match_expect[j] & ~alert_pre[j] & mask;
      const std::uint64_t detected =
          (alert_pre[j] | alert_post[j] | err_eq[j]) & ~masked & mask;
      // Everything else is an undetected deviation: a valid-but-wrong state
      // (hijack/stall) or an undetected non-codeword (cannot happen for SCFI
      // variants) — both count as exploitable.
      const std::uint64_t expl = mask & ~masked & ~detected;

      out.masked += std::popcount(masked);
      out.detected += std::popcount(detected);
      out.exploitable += std::popcount(expl);
      out.stalls += std::popcount(expl & match_from[j]);
      for (std::uint64_t hits = expl; hits != 0; hits &= hits - 1) {
        const auto lane = (j << 6) + static_cast<std::size_t>(std::countr_zero(hits));
        for (std::size_t m = 0; m < k; ++m) site_hit[lane_sites[lane * k + m]] = 1;
      }
    }
    cur_edge = e;
  }
}

/// Interface wires of the miter, resolved once per shard construction.
struct MiterWires {
  const rtlil::Wire* symbol = nullptr;
  const rtlil::Wire* state = nullptr;
};

MiterWires resolve_interface(const rtlil::Module& module, const CompiledFsm& variant) {
  MiterWires wires;
  wires.symbol = module.wire(variant.symbol_input_wire);
  wires.state = module.wire(variant.state_wire);
  check(wires.symbol != nullptr && wires.state != nullptr, "synfi: missing interface wires");
  return wires;
}

/// Interface variables shared between the golden and faulty CNF copies.
struct MiterInterface {
  std::unordered_map<SigBit, int> bound;
  std::vector<int> xvars;
  std::vector<int> svars;
};

MiterInterface bind_interface(sat::Solver& solver, const MiterWires& wires) {
  MiterInterface iface;
  for (int i = 0; i < wires.symbol->width(); ++i) {
    const int v = solver.new_var();
    iface.bound.emplace(SigBit(wires.symbol, i), v);
    iface.xvars.push_back(v);
  }
  for (int i = 0; i < wires.state->width(); ++i) {
    const int v = solver.new_var();
    iface.bound.emplace(SigBit(wires.state, i), v);
    iface.svars.push_back(v);
  }
  return iface;
}

void push_equals(std::vector<sat::Lit>& lits, const std::vector<int>& vars,
                 std::uint64_t value) {
  for (std::size_t i = 0; i < vars.size(); ++i) {
    lits.push_back(((value >> i) & 1) ? vars[i] : -vars[i]);
  }
}

/// The exhaustive back-end's detection window spans the latch: the symbol is
/// held for one evaluation past the fault cycle and the alert is sampled
/// again (alert_post) before a run is classified, so a fault set whose wrong
/// state trips the alert one cycle later still counts as detected. Mirror
/// that here with a post-cycle copy of the module — every FF Q bit bound to
/// the faulty copy's D reader (the latched faulty state), symbol bits shared
/// with the fault cycle — and require its alert to stay low as well.
/// Stuck-at overrides persist across the clock edge exactly like the
/// simulator's persistent faults; transient flips are cleared at the end of
/// the fault cycle and do not carry over.
void add_post_cycle_alert(sat::Solver& solver, const rtlil::Module& module,
                          const CompiledFsm& variant, const MiterWires& wires,
                          const MiterInterface& iface, const sat::CnfCopy& faulty,
                          const std::vector<sat::CnfFault>& faults, sim::FaultKind kind) {
  if (variant.alert_wire.empty()) return;
  std::unordered_map<SigBit, int> bound;
  for (int i = 0; i < wires.symbol->width(); ++i) {
    bound.emplace(SigBit(wires.symbol, i), iface.xvars[static_cast<std::size_t>(i)]);
  }
  for (const rtlil::Cell* cell : module.cells()) {
    if (!rtlil::is_ff(cell->type())) continue;
    const rtlil::SigSpec& q = cell->port("Q");
    const rtlil::SigSpec& d = cell->port("D");
    for (int i = 0; i < q.width(); ++i) {
      const SigBit qb = q.bit(i);
      if (!qb.is_const()) bound.emplace(qb, faulty.reader_var(d.bit(i)));
    }
  }
  const bool persistent =
      kind == sim::FaultKind::kStuckAt0 || kind == sim::FaultKind::kStuckAt1;
  const sat::CnfCopy post(solver, module, bound,
                          persistent ? faults : std::vector<sat::CnfFault>{});
  solver.add_unit(-post.wire_vars(variant.alert_wire)[0]);
}

/// One live incremental SAT shard: the solver holds the golden copy plus a
/// faulty copy whose overrides are each gated on a fresh selector literal,
/// and the query-invariant property clauses (alert low, next-state
/// mismatch, valid faulty codeword). k = 1 shards gate only their own query
/// range, with exactly_one over the selectors; k > 1 shards gate every
/// region site under a cardinality counter. Every (site, edge) query is
/// then a solve(assumptions) call — selector (+ exactly-k) + state/symbol
/// units — so the CNF and all learned clauses are shared across the whole
/// sweep, and (held inside an Analyzer) across every later run() that
/// touches the same region and fault kind. `free_symbol` only changes the
/// assumptions, never the CNF, so one shard serves both symbol modes.
struct SatShard {
  sat::Solver solver;
  MiterInterface iface;
  std::vector<sat::Lit> selectors;
  std::size_t selector_base = 0;  ///< region index of selectors[0]
  std::vector<int> fn;            ///< faulty next-state variables
  /// k > 1 only: the Sinz counter over *all* region selectors, so "exactly
  /// k faults" is a per-query assumption set.
  std::unique_ptr<sat::CardinalityCounter> counter;
};

std::unique_ptr<SatShard> build_sat_shard(const CompiledFsm& variant,
                                          const std::vector<SigBit>& sites,
                                          sim::FaultKind kind, int faults_k,
                                          std::size_t site_begin, std::size_t site_end,
                                          const sat::Solver::WarmStart& warm) {
  const rtlil::Module& module = *variant.module;
  const MiterWires wires = resolve_interface(module, variant);
  auto shard = std::make_unique<SatShard>();
  sat::Solver& solver = shard->solver;
  shard->iface = bind_interface(solver, wires);

  const sat::CnfCopy golden(solver, module, shard->iface.bound);
  // Single-fault shards gate only their own site range (exactly_one picks
  // the queried site). k-fault shards must let the other k-1 faults land
  // anywhere in the region, so every site gets a selector regardless of the
  // shard's query range, constrained by the cardinality counter instead.
  const std::size_t sel_begin = faults_k > 1 ? 0 : site_begin;
  const std::size_t sel_end = faults_k > 1 ? sites.size() : site_end;
  shard->selector_base = sel_begin;
  std::vector<sat::CnfFault> faults;
  shard->selectors.reserve(sel_end - sel_begin);
  faults.reserve(sel_end - sel_begin);
  for (std::size_t s = sel_begin; s < sel_end; ++s) {
    const sat::Lit sel = solver.new_var();
    shard->selectors.push_back(sel);
    faults.push_back(sat::CnfFault{sites[s], to_cnf_kind(kind), sel});
  }
  const sat::CnfCopy faulty(solver, module, shard->iface.bound, faults);
  if (faults_k > 1) {
    shard->counter =
        std::make_unique<sat::CardinalityCounter>(solver, shard->selectors, faults_k);
  } else {
    sat::exactly_one(solver, shard->selectors);
  }

  const std::vector<int> gn = golden.ff_next_vars(variant.state_wire);
  shard->fn = faulty.ff_next_vars(variant.state_wire);
  if (!variant.alert_wire.empty()) {
    solver.add_unit(-faulty.wire_vars(variant.alert_wire)[0]);
  }
  add_post_cycle_alert(solver, module, variant, wires, shard->iface, faulty, faults, kind);
  solver.add_unit(sat::differ(solver, gn, shard->fn));
  solver.add_unit(sat::member_of(solver, shard->fn, variant.state_codes));

  // Seed the branching heuristic from what a sibling shard of this variant
  // already learned. Pure heuristic state: search order may change, the
  // SAT/UNSAT verdicts (and with them the report) cannot.
  if (!warm.empty()) solver.import_warm_start(warm);
  return shard;
}

/// Answers the (site, edge) queries of sites [site_begin, site_end) via
/// solve(assumptions). For k > 1 each query is a participation query: "is
/// there an exactly-k fault set *including s* with an undetected
/// valid-but-wrong next state?" — selector s plus the counter's exactly-k
/// assumptions. Counting is per (site, edge) for every k (the exhaustive
/// back-end counts per (combination, edge) instead; both agree on
/// exploitable > 0 and on the exploitable site set).
void run_sat_queries(SatShard& shard, const EdgeTable& edges, const SynfiConfig& config,
                     std::size_t site_begin, std::size_t site_end,
                     std::vector<char>& site_hit, ShardReport& out) {
  const std::vector<sat::Lit> cardinality =
      shard.counter != nullptr ? shard.counter->assume_exactly(config.faults_k)
                               : std::vector<sat::Lit>{};
  std::vector<sat::Lit> assumptions;
  for (std::size_t s = site_begin; s < site_end; ++s) {
    for (std::size_t e = 0; e < edges.size(); ++e) {
      // One check per SAT query — the batch analog for this back-end.
      if (config.cancel != nullptr) config.cancel->check("synfi");
      ++out.injections;
      assumptions.clear();
      assumptions.push_back(shard.selectors[s - shard.selector_base]);
      assumptions.insert(assumptions.end(), cardinality.begin(), cardinality.end());
      push_equals(assumptions, shard.iface.svars, edges.from_code[e]);
      if (!config.free_symbol) push_equals(assumptions, shard.iface.xvars, edges.code[e]);
      if (shard.solver.solve(assumptions) == sat::Result::kSat) {
        ++out.exploitable;
        site_hit[s] = 1;
        // Stall iff some undetected model keeps the old state: decided by a
        // second assumption query, so the count does not depend on which
        // model the solver happened to find.
        push_equals(assumptions, shard.fn, edges.from_code[e]);
        if (shard.solver.solve(assumptions) == sat::Result::kSat) ++out.stalls;
      } else {
        // Conservatively attribute UNSAT to detection/masking; the
        // simulation back-end provides the fine-grained split.
        ++out.detected;
      }
    }
  }
}

/// Reference SAT back-end: a fresh single-fault miter per (site, edge)
/// query. Kept as the baseline the incremental engine is validated and
/// benchmarked against (never cached — it IS the rebuild cost).
void run_sat_rebuild_shard(const CompiledFsm& variant, const std::vector<SigBit>& sites,
                           const EdgeTable& edges, const SynfiConfig& config,
                           std::size_t site_begin, std::size_t site_end,
                           std::vector<char>& site_hit, ShardReport& out) {
  const rtlil::Module& module = *variant.module;
  const MiterWires wires = resolve_interface(module, variant);
  for (std::size_t s = site_begin; s < site_end; ++s) {
    for (std::size_t e = 0; e < edges.size(); ++e) {
      if (config.cancel != nullptr) config.cancel->check("synfi");
      ++out.injections;
      sat::Solver solver;
      const MiterInterface iface = bind_interface(solver, wires);
      const sat::CnfCopy golden(solver, module, iface.bound);
      std::vector<sat::CnfFault> fault_set;
      if (config.faults_k == 1) {
        fault_set.push_back(sat::CnfFault{sites[s], to_cnf_kind(config.kind)});
      } else {
        // Participation query, rebuilt per call: the queried site is an
        // always-on override, every other region site a gated one, and an
        // exactly-(k-1) counter over the gates is asserted as units.
        std::vector<sat::Lit> others;
        fault_set.reserve(sites.size());
        others.reserve(sites.size() - 1);
        for (std::size_t t = 0; t < sites.size(); ++t) {
          if (t == s) {
            fault_set.push_back(sat::CnfFault{sites[t], to_cnf_kind(config.kind)});
          } else {
            const sat::Lit sel = solver.new_var();
            others.push_back(sel);
            fault_set.push_back(sat::CnfFault{sites[t], to_cnf_kind(config.kind), sel});
          }
        }
        const sat::CardinalityCounter counter(solver, others, config.faults_k - 1);
        for (const sat::Lit lit : counter.assume_exactly(config.faults_k - 1)) {
          solver.add_unit(lit);
        }
      }
      const sat::CnfCopy faulty(solver, module, iface.bound, fault_set);

      // Stimulus constraints.
      std::vector<sat::Lit> units;
      push_equals(units, iface.svars, edges.from_code[e]);
      if (!config.free_symbol) push_equals(units, iface.xvars, edges.code[e]);
      for (const sat::Lit lit : units) solver.add_unit(lit);

      const std::vector<int> gn = golden.ff_next_vars(variant.state_wire);
      const std::vector<int> fn = faulty.ff_next_vars(variant.state_wire);
      if (!variant.alert_wire.empty()) {
        solver.add_unit(-faulty.wire_vars(variant.alert_wire)[0]);
      }
      add_post_cycle_alert(solver, module, variant, wires, iface, faulty, fault_set,
                           config.kind);
      solver.add_unit(sat::differ(solver, gn, fn));
      solver.add_unit(sat::member_of(solver, fn, variant.state_codes));

      if (solver.solve() == sat::Result::kSat) {
        ++out.exploitable;
        site_hit[s] = 1;
        std::vector<sat::Lit> stall_assumptions;
        push_equals(stall_assumptions, fn, edges.from_code[e]);
        if (solver.solve(stall_assumptions) == sat::Result::kSat) ++out.stalls;
      } else {
        ++out.detected;
      }
    }
  }
}

/// Region cache key: the site list depends on (prefix, include_inputs,
/// target class).
using RegionKey = std::tuple<std::string, bool, sim::FaultTarget>;

/// Incremental SAT shard cache key: the CNF depends on the region, the fault
/// kind, the fault count (selector span + cardinality network), and the
/// shard's site range (free_symbol and the stimulus live in the
/// assumptions).
using SatShardKey = std::tuple<std::string, bool, sim::FaultTarget, sim::FaultKind, int,
                               std::size_t, std::size_t>;

}  // namespace

struct Analyzer::Impl {
  const Fsm* fsm;
  const CompiledFsm* variant;
  EdgeTable edges;

  std::map<RegionKey, std::vector<SigBit>> regions;
  /// One simulator context per worker slot, grown on demand; slot w is only
  /// ever touched by worker w of a run() call, so no locking is needed once
  /// the vector is pre-sized.
  std::vector<std::unique_ptr<SimContext>> sim_pool;
  std::map<SatShardKey, std::unique_ptr<SatShard>> sat_shards;
  std::mutex sat_mutex;
  /// Branching-heuristic snapshot shared across shards of this variant.
  sat::Solver::WarmStart warm;

  const std::vector<SigBit>& region(const std::string& prefix, bool include_inputs,
                                    sim::FaultTarget target) {
    const RegionKey key{prefix, include_inputs, target};
    const auto it = regions.find(key);
    if (it != regions.end()) return it->second;
    return regions
        .emplace(key, enumerate_region(*variant->module, prefix, include_inputs, target,
                                       variant->state_wire))
        .first->second;
  }

  SatShard& sat_shard(const std::vector<SigBit>& sites, const SynfiConfig& config,
                      std::size_t begin, std::size_t end) {
    const SatShardKey key{config.wire_prefix, config.include_inputs, config.target,
                          config.kind,        config.faults_k,       begin,
                          end};
    {
      const std::lock_guard<std::mutex> lock(sat_mutex);
      const auto it = sat_shards.find(key);
      if (it != sat_shards.end()) return *it->second;
    }
    // Shard ranges are disjoint per worker, so no two workers ever build the
    // same key — construction can happen outside the lock.
    sat::Solver::WarmStart warm_copy;
    {
      const std::lock_guard<std::mutex> lock(sat_mutex);
      warm_copy = warm;
    }
    auto shard =
        build_sat_shard(*variant, sites, config.kind, config.faults_k, begin, end, warm_copy);
    const std::lock_guard<std::mutex> lock(sat_mutex);
    return *sat_shards.emplace(key, std::move(shard)).first->second;
  }
};

Analyzer::Analyzer(const Fsm& fsm, const CompiledFsm& variant) : impl_(new Impl) {
  check(variant.module != nullptr, "synfi: variant has no module");
  require(variant.symbol_width > 0, "synfi: variant must use encoded control symbols");
  impl_->fsm = &fsm;
  impl_->variant = &variant;
  impl_->edges = build_edge_table(variant, fsm.cfg_edges());
}

Analyzer::~Analyzer() = default;

const CompiledFsm& Analyzer::variant() const { return *impl_->variant; }

std::size_t Analyzer::cached_simulators() const {
  std::size_t live = 0;
  for (const auto& ctx : impl_->sim_pool) {
    if (ctx != nullptr) ++live;
  }
  return live;
}

std::size_t Analyzer::cached_sat_shards() const { return impl_->sat_shards.size(); }

SynfiReport Analyzer::run(const SynfiConfig& user_config) {
  require(user_config.lanes >= 1 && user_config.lanes <= sim::kMaxLanes,
          format("synfi: lanes must be in [1, %d] (64 x lane_words)", sim::kMaxLanes));
  require(user_config.threads >= 1, "synfi: threads must be >= 1");
  require(user_config.faults_k >= 1, "synfi: faults_k must be >= 1");
  // SCFI_LANE_WORDS_CAP clamps the *derived* simulator width (CI portable
  // leg); lanes is an execution knob, so the report is unchanged.
  SynfiConfig config = user_config;
  config.lanes = std::min(config.lanes, 64 * sim::lane_words_cap());
  const int lane_words = sim::lane_words_for(config.lanes);
  const CompiledFsm& variant = *impl_->variant;
  const std::vector<SigBit>& sites =
      impl_->region(config.wire_prefix, config.include_inputs, config.target);
  require(!sites.empty(), "synfi: no fault sites match prefix '" + config.wire_prefix + "'");
  const EdgeTable& edges = impl_->edges;

  SynfiReport report;
  report.faults_k = config.faults_k;
  report.sites = static_cast<std::int64_t>(sites.size());
  // No k-subset of the region exists: zero injections by definition. Kept a
  // report (not an error) so a degree probe can scan past the region size of
  // a small variant without special-casing.
  if (static_cast<std::size_t>(config.faults_k) > sites.size()) return report;

  // Shards claim contiguous unit ranges: combination *ranks* for the
  // exhaustive back-end (any combination can involve any site), sites for
  // SAT. Every shard marks a full-region attribution bitmap; counters are
  // plain sums, so the merge below is the single-threaded report exactly.
  const bool exhaustive = config.backend == Backend::kExhaustiveSim;
  const std::uint64_t units =
      exhaustive ? binomial(sites.size(), static_cast<std::size_t>(config.faults_k))
                 : sites.size();
  const int workers =
      std::max(1, static_cast<int>(std::min<std::uint64_t>(config.threads, units)));
  const auto unit_bound = [&](int slot) {
    return units * static_cast<std::uint64_t>(slot) / static_cast<std::uint64_t>(workers);
  };
  if (exhaustive && impl_->sim_pool.size() < static_cast<std::size_t>(workers)) {
    impl_->sim_pool.resize(static_cast<std::size_t>(workers));
  }
  std::vector<ShardReport> partial(static_cast<std::size_t>(workers));
  std::vector<std::vector<char>> hits(static_cast<std::size_t>(workers),
                                      std::vector<char>(sites.size(), 0));
  run_shards(workers, [&](int slot) {
    const std::uint64_t begin = unit_bound(slot);
    const std::uint64_t end = unit_bound(slot + 1);
    std::vector<char>& hit = hits[static_cast<std::size_t>(slot)];
    ShardReport& out = partial[static_cast<std::size_t>(slot)];
    if (exhaustive) {
      auto& ctx = impl_->sim_pool[static_cast<std::size_t>(slot)];
      // (Re)build when absent or compiled for a different lane-block width —
      // a cached narrow simulator cannot carry a wider run's lanes.
      if (ctx == nullptr || ctx->simulator.lane_words() != lane_words) {
        ctx = std::make_unique<SimContext>(variant, lane_words);
      }
      run_exhaustive_kfault_shard(*ctx, variant, sites, edges, config, begin, end, hit, out);
    } else if (config.sat_incremental) {
      SatShard& shard = impl_->sat_shard(sites, config, begin, end);
      run_sat_queries(shard, edges, config, begin, end, hit, out);
    } else {
      run_sat_rebuild_shard(variant, sites, edges, config, begin, end, hit, out);
    }
  });

  // Refresh the warm-start snapshot from the first shard of this query so
  // the next region/kind starts from trained activities. Done after the
  // join, on the calling thread.
  if (!exhaustive && config.sat_incremental) {
    const SatShardKey key{config.wire_prefix, config.include_inputs, config.target,
                          config.kind,        config.faults_k,       0,
                          unit_bound(1)};
    const std::lock_guard<std::mutex> lock(impl_->sat_mutex);
    const auto it = impl_->sat_shards.find(key);
    if (it != impl_->sat_shards.end()) impl_->warm = it->second->solver.export_warm_start();
  }

  for (const ShardReport& p : partial) {
    report.injections += p.injections;
    report.exploitable += p.exploitable;
    report.detected += p.detected;
    report.masked += p.masked;
    report.stalls += p.stalls;
  }
  for (std::size_t s = 0; s < sites.size(); ++s) {
    for (const std::vector<char>& hit : hits) {
      if (hit[s]) {
        report.exploitable_sites.push_back(format_site(sites[s]));
        break;
      }
    }
  }
  return report;
}

SynfiReport analyze(const Fsm& fsm, const CompiledFsm& variant, const SynfiConfig& config) {
  return Analyzer(fsm, variant).run(config);
}

int measured_protection_degree(Analyzer& analyzer, const SynfiConfig& config,
                               const SynfiReport& report) {
  require(report.faults_k == config.faults_k,
          "synfi: measured_protection_degree needs the report of config.faults_k");
  for (int k = 1; k < config.faults_k; ++k) {
    SynfiConfig probe = config;
    probe.faults_k = k;
    if (analyzer.run(probe).exploitable > 0) return k;
  }
  return report.exploitable > 0 ? config.faults_k : 0;
}

int auto_lanes(const rtlil::Module& module) {
  std::size_t net_bits = 2;  // the two constant nets
  for (const rtlil::Wire* w : module.wires()) {
    net_bits += static_cast<std::size_t>(w->width());
  }
  // The faulty eval streams ~7 words per net per lane word (value + two mask
  // words, read and written); keep that working set inside a 128 KiB L2
  // budget. Small modules land on the measured 128–256 lane sweet spot and
  // big ones fall back to the portable width instead of thrashing.
  int words = 4;
  while (words > 1 && net_bits * static_cast<std::size_t>(words) * 8 * 7 > 128 * 1024) {
    words /= 2;
  }
  return words * sim::kWordLanes;
}

}  // namespace scfi::synfi
