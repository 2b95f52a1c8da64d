#include "synfi/synfi.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <tuple>

#include "base/error.h"
#include "base/parallel.h"
#include "base/retry.h"
#include "base/strutil.h"
#include "sat/cnf.h"
#include "sat/miter.h"
#include "sim/lane_classifier.h"
#include "synfi/exploit_miter.h"

namespace scfi::synfi {
namespace {

using fsm::CfgEdge;
using fsm::CompiledFsm;
using fsm::Fsm;
using rtlil::SigBit;

// --- lazy combination streaming ---------------------------------------------
//
// Exhaustive jobs are (combination, edge) pairs in combo-major lexicographic
// order; a single fault is a 1-combination. Participants claim contiguous
// *rank* ranges, unrank the first combination of a range once, and then
// step with the O(k) lexicographic successor — nobody ever materialises the
// C(n, k) combination list.

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
/// by both back-ends: symbol codeword plus the codes of the from/to states
/// (no map lookups inside the query loops).
struct EdgeTable {
  std::vector<std::uint64_t> code;  ///< encoded control symbol per edge
  std::vector<std::uint64_t> from_code;
  std::vector<std::uint64_t> to_code;
  std::size_t size() const { return code.size(); }
};

EdgeTable build_edge_table(const CompiledFsm& variant, const std::vector<CfgEdge>& edges) {
  EdgeTable table;
  table.code.reserve(edges.size());
  table.from_code.reserve(edges.size());
  table.to_code.reserve(edges.size());
  for (const CfgEdge& edge : edges) {
    table.code.push_back(variant.symbol_codes.at(edge.symbol));
    table.from_code.push_back(variant.state_codes[static_cast<std::size_t>(edge.from)]);
    table.to_code.push_back(variant.state_codes[static_cast<std::size_t>(edge.to)]);
  }
  return table;
}

/// Partial counters of one run participant. They are plain sums, and
/// exploitable sites go into a per-participant full-region bitmap that the
/// merge ORs and emits in global site order, so the report is
/// lanes/threads-invariant.
struct PartialReport {
  std::int64_t injections = 0;
  std::int64_t exploitable = 0;
  std::int64_t detected = 0;
  std::int64_t masked = 0;
  std::int64_t stalls = 0;

  /// Adds `other`'s counters `weight` times over; a weighted sum that
  /// leaves 64 bits is an error, not a wrapped count.
  void add(const PartialReport& other, std::uint64_t weight = 1) {
    const auto term = [weight](std::int64_t& into, std::int64_t count) {
      std::int64_t product = 0;
      check(!__builtin_mul_overflow(count, weight, &product) &&
                !__builtin_add_overflow(into, product, &into),
            "synfi: injection count overflows 64 bits");
    };
    term(injections, other.injections);
    term(exploitable, other.exploitable);
    term(detected, other.detected);
    term(masked, other.masked);
    term(stalls, other.stalls);
  }
};

/// The stimulus of every batch alignment. Jobs stay in (combo-major,
/// edge-minor) order, so a batch whose first job has edge e0 drives lane j
/// with edge (e0 + j) mod E: its per-word symbol stimulus, its from-state
/// stimulus and the to-state code it expects depend only on e0. Precomputed
/// so the batch loop never repacks bits or divides. `st_words` doubles as
/// the from-state code a stalled lane still holds.
struct AlignedStimulus {
  std::vector<std::uint64_t> in_words;  ///< [e0][symbol bit][word] -> lane word
  std::vector<std::uint64_t> st_words;  ///< [e0][state bit][word] -> lane word
  std::vector<std::uint64_t> to_words;  ///< [e0][state bit][word] -> lane word
};

AlignedStimulus build_aligned_stimulus(const EdgeTable& edges, int symbol_w, int state_w,
                                       int W, std::size_t total_lanes) {
  const std::size_t num_edges = edges.size();
  AlignedStimulus a;
  a.in_words.assign(num_edges * static_cast<std::size_t>(symbol_w * W), 0);
  a.st_words.assign(num_edges * static_cast<std::size_t>(state_w * W), 0);
  a.to_words.assign(num_edges * static_cast<std::size_t>(state_w * W), 0);
  for (std::size_t r = 0; r < num_edges; ++r) {
    // The word match compares the register's bits only, so a code with a
    // bit above them would match where LaneClassifier::state_eq does not.
    check(state_w >= 64 || ((edges.from_code[r] | edges.to_code[r]) >> state_w) == 0,
          "synfi: state code wider than the state register");
    std::uint64_t* in = &a.in_words[r * static_cast<std::size_t>(symbol_w * W)];
    std::uint64_t* st = &a.st_words[r * static_cast<std::size_t>(state_w * W)];
    std::uint64_t* to = &a.to_words[r * static_cast<std::size_t>(state_w * W)];
    for (std::size_t lane = 0; lane < total_lanes; ++lane) {
      const std::size_t e = (r + lane) % num_edges;
      const std::size_t wj = lane >> 6;
      const std::uint64_t bit = 1ULL << (lane & 63);
      for (int i = 0; i < symbol_w; ++i) {
        if ((edges.code[e] >> i) & 1) in[static_cast<std::size_t>(i * W) + wj] |= bit;
      }
      for (int i = 0; i < state_w; ++i) {
        if ((edges.from_code[e] >> i) & 1) st[static_cast<std::size_t>(i * W) + wj] |= bit;
        if ((edges.to_code[e] >> i) & 1) to[static_cast<std::size_t>(i * W) + wj] |= bit;
      }
    }
  }
  return a;
}

/// One reusable participant context of the exhaustive back-end: a
/// simulator of the Analyzer's sliced netlist, the resolved interface
/// handles, and the aligned stimulus for the simulator's lane width.
/// Building the Simulator (its levelized tape) and the stimulus (O(edges x
/// lanes x width)) are the fixed costs a many-region sweep amortizes, so the
/// Analyzer keeps its contexts alive across run() calls; the edge table is
/// fixed per Analyzer, so the stimulus is too. Per-job state/symbol stimulus
/// is fully overwritten every batch and outcome classification reads only
/// the state/alert cone (sim::VariantNetlist::cone), so carried-over
/// simulator state cannot change any verdict.
struct SimContext {
  sim::LaneClassifier classifier;
  sim::Simulator::WireHandle symbol_h;
  AlignedStimulus aligned;

  SimContext(const sim::VariantNetlist& net, const EdgeTable& edges, int lane_words)
      : classifier(net, lane_words) {
    symbol_h = classifier.sim.input_handle(net.variant->symbol_input_wire);
    aligned = build_aligned_stimulus(edges, symbol_h.width, classifier.state_h.width, lane_words,
                                     static_cast<std::size_t>(lane_words) * 64);
  }
};

/// The observable sites an exhaustive layer combines: their simulator nets
/// and their indices in the region (for attribution).
struct LayerSites {
  std::vector<std::int32_t> nets;
  std::vector<std::size_t> ids;
};

/// Exhaustive-simulation back-end over the combination ranks `claim` hands
/// out: every job is one lexicographic m-combination of `live` x one edge
/// (combo-major, edge-minor), and up to `config.lanes` jobs are packed into
/// every eval/step pass — 64 x lane_words jobs when the context's simulator
/// carries a multi-word lane block. Claimed ranges hold whole combinations,
/// so lane j of a batch whose first job has edge e0 always carries edge
/// (e0 + j) mod E, across range boundaries too; a claim that does not
/// continue the previous one just unranks its first combination. Lane j
/// carries job j's state/symbol stimulus (per-lane register/input words).
/// A combination's jobs fill a contiguous run of at most E lanes, a
/// *segment*; a batch may start or end inside one, so one combination can
/// span two batches. Each member net of a segment's combination is injected
/// once with the segment's lane-range mask, which leaves every lane the same
/// faults as injecting it lane by lane. Outcomes are classified W lane words
/// at a time: the latched state is matched against the expected (to) and
/// the old (from) state code of every lane by word ops over the aligned
/// stimulus. Lanes never interact, so the per-job outcome equals the scalar
/// one-job-per-pass path bit for bit. Combinations straddle the whole
/// region, so attribution goes into a caller-owned full-region bitmap: an
/// exploitable lane credits the sites of its segment. m = 0 is the
/// fault-free layer: one empty combination, so one job per edge.
void run_exhaustive(SimContext& ctx, const LayerSites& live, std::size_t m,
                    const EdgeTable& edges, const SynfiConfig& config, WorkShare::Claim& claim,
                    std::vector<char>& site_hit, PartialReport& out) {
  sim::LaneClassifier& classifier = ctx.classifier;
  sim::Simulator& simulator = classifier.sim;
  const sim::Simulator::WireHandle symbol_h = ctx.symbol_h;
  const sim::Simulator::WireHandle state_h = classifier.state_h;
  const int W = simulator.lane_words();
  const int state_w = state_h.width;
  const int symbol_w = symbol_h.width;
  const std::size_t n = live.nets.size();
  const std::size_t num_edges = edges.size();
  const auto lanes = static_cast<std::size_t>(config.lanes);
  using sim::LaneWords;
  const auto alert_words = [&] {
    LaneWords words{};
    for (int w = 0; w < W; ++w) words[static_cast<std::size_t>(w)] = classifier.alert_word(w);
    return words;
  };

  // Streamed combination bookkeeping: `combo` is combination `rank` while
  // rank < rank_end, advanced lexicographically. Per batch, segment_begin
  // holds the first lane of every segment plus the batch's end, and
  // segment_sites the m region sites of each segment, so an exploitable
  // lane can credit every member of its combination.
  std::vector<std::size_t> combo;
  std::uint64_t rank = 0;
  std::uint64_t rank_end = 0;
  std::vector<std::size_t> segment_begin;
  std::vector<std::size_t> segment_sites;
  std::size_t cur_edge = 0;
  for (bool more = true; more;) {
    // Cooperative cancellation at batch granularity: a fired token (sweep
    // job deadline) stops the participant here, never mid-batch.
    if (config.cancel != nullptr) config.cancel->check("synfi");
    const std::size_t state_at = cur_edge * static_cast<std::size_t>(state_w * W);
    const std::uint64_t* in_words =
        &ctx.aligned.in_words[cur_edge * static_cast<std::size_t>(symbol_w * W)];
    const std::uint64_t* st_words = &ctx.aligned.st_words[state_at];
    const std::uint64_t* to_words = &ctx.aligned.to_words[state_at];

    simulator.clear_all_faults();
    for (int i = 0; i < symbol_w; ++i) {
      for (int w = 0; w < W; ++w) {
        simulator.set_input_word(symbol_h, i, in_words[i * W + w], w);
      }
    }
    for (int i = 0; i < state_w; ++i) {
      for (int w = 0; w < W; ++w) {
        simulator.set_register_word(state_h, i, st_words[i * W + w], w);
      }
    }
    segment_begin.clear();
    segment_sites.clear();
    std::size_t batch_jobs = 0;
    while (batch_jobs < lanes) {
      if (rank == rank_end) {
        // Whole combinations only: claim enough to fill the batch (the last
        // one may spill into the next batch).
        const UnitRange range = claim.next((lanes - batch_jobs + num_edges - 1) / num_edges);
        if (range.empty()) {
          more = false;
          break;
        }
        if (range.begin == rank_end && !combo.empty()) {
          next_combination(combo, n);
        } else {
          combo = unrank_combination(range.begin, n, m);
        }
        rank = range.begin;
        rank_end = range.end;
      }
      // One segment: the combination's remaining edges that fit the batch.
      const std::size_t take = std::min(num_edges - cur_edge, lanes - batch_jobs);
      const sim::LaneMask mask = sim::LaneMask::range(static_cast<int>(batch_jobs),
                                                      static_cast<int>(batch_jobs + take));
      segment_begin.push_back(batch_jobs);
      for (std::size_t j = 0; j < m; ++j) {
        simulator.inject_net(live.nets[combo[j]], config.kind, mask);
        segment_sites.push_back(live.ids[combo[j]]);
      }
      batch_jobs += take;
      cur_edge += take;
      if (cur_edge == num_edges) {
        cur_edge = 0;
        if (++rank < rank_end) next_combination(combo, n);
      }
    }
    if (batch_jobs == 0) break;
    segment_begin.push_back(batch_jobs);
    const sim::LaneMask batch_mask = sim::LaneMask::first_n(static_cast<int>(batch_jobs));

    // One edge: the pre-edge settle feeds both alert_pre and the latch;
    // one more settle after it exposes the post-edge alert.
    simulator.eval();
    const LaneWords alert_pre = alert_words();
    simulator.latch();
    simulator.eval();
    const LaneWords alert_post = alert_words();
    // Word-parallel classification: the error code through the classifier,
    // the expected and the old state code against the aligned stimulus (a
    // lane holding the error code matches neither, as in state_eq).
    classifier.match_error(batch_mask.w);
    const LaneWords& err_eq = classifier.error();

    out.injections += static_cast<std::int64_t>(batch_jobs);
    std::size_t segment = 0;
    for (int w = 0; w < W; ++w) {
      const auto j = static_cast<std::size_t>(w);
      const std::uint64_t mask = batch_mask.w[j];
      std::uint64_t match_expect = mask & ~err_eq[j];
      std::uint64_t match_from = match_expect;
      for (int i = 0; i < state_w; ++i) {
        const std::uint64_t latched = classifier.state_word(i, w);
        match_expect &= ~(latched ^ to_words[i * W + w]);
        match_from &= ~(latched ^ st_words[i * W + w]);
      }
      const std::uint64_t masked = match_expect & ~alert_pre[j];
      const std::uint64_t detected =
          (alert_pre[j] | alert_post[j] | err_eq[j]) & ~masked & mask;
      // Everything else is an undetected deviation: a valid-but-wrong state
      // (hijack/stall) or an undetected non-codeword (cannot happen for SCFI
      // variants) — both count as exploitable.
      const std::uint64_t expl = mask & ~masked & ~detected;

      out.masked += std::popcount(masked);
      out.detected += std::popcount(detected);
      out.exploitable += std::popcount(expl);
      out.stalls += std::popcount(expl & match_from);
      // Hits come in lane order, so the segment index only moves forward;
      // the rest of a credited segment's hits change nothing.
      for (std::uint64_t hits = expl; hits != 0; hits &= hits - 1) {
        const auto lane = (j << 6) + static_cast<std::size_t>(std::countr_zero(hits));
        while (segment_begin[segment + 1] <= lane) ++segment;
        for (std::size_t s = 0; s < m; ++s) site_hit[segment_sites[segment * m + s]] = 1;
      }
    }
  }
}

void push_equals(std::vector<sat::Lit>& lits, const std::vector<int>& vars,
                 std::uint64_t value) {
  for (std::size_t i = 0; i < vars.size(); ++i) {
    lits.push_back(((value >> i) & 1) ? vars[i] : -vars[i]);
  }
}

/// One cached fault region: its sites and their nets.
struct Region {
  std::vector<SigBit> sites;
  std::vector<std::int32_t> nets;
};

/// One live incremental SAT context: the solver holds the exploitability
/// miter (encode_exploit_miter) over the Analyzer's sliced netlist, whose
/// faulty copy's overrides are each gated on a fresh selector literal — one
/// per live region site (VariantNetlist::live). A dead site's fault changes
/// no net of the slice, so it gets no override; run_sat_edges accounts for
/// the dead sites without one. k = 1 constrains the selectors with
/// exactly_one, k > 1 with a cardinality counter. Every query is then a
/// solve(assumptions) call — edge stimulus (+ the counter's bounds) plus
/// the exclusion of the sites already found — so the CNF and all learned
/// clauses are shared across the whole sweep, and (held inside an Analyzer)
/// across every later run() that touches the same region and fault kind.
/// `free_symbol` only changes the assumptions, never the CNF, so one context
/// serves both symbol modes.
struct SatContext {
  sat::Solver solver;
  ExploitMiter miter;
  std::vector<sat::Lit> selectors;    ///< one per live region site
  std::vector<std::size_t> live_ids;  ///< the region index of each selector
  std::vector<std::size_t> dead_ids;  ///< the region's other sites
  /// k > 1 with a live site only: the Sinz counter over the live selectors,
  /// so how many of them fire is bounded per query by assumptions.
  std::unique_ptr<sat::CardinalityCounter> counter;
};

std::unique_ptr<SatContext> build_sat_context(const sim::VariantNetlist& net,
                                              const Region& region, sim::FaultKind kind,
                                              int faults_k, const sat::Solver::WarmStart& warm) {
  const sat::CnfFaultKind cnf_kind = cnf_fault_kind(kind);
  auto ctx = std::make_unique<SatContext>();
  sat::Solver& solver = ctx->solver;
  const auto gated_faults = [&] {
    std::vector<sat::CnfFault> faults;
    for (std::size_t s = 0; s < region.sites.size(); ++s) {
      if (!net.live(region.nets[s], kind)) {
        ctx->dead_ids.push_back(s);
        continue;
      }
      const sat::Lit sel = solver.new_var();
      ctx->selectors.push_back(sel);
      ctx->live_ids.push_back(s);
      faults.push_back(sat::CnfFault{region.sites[s], cnf_kind, sel});
    }
    return faults;
  };
  const auto bound_selectors = [&] {
    if (ctx->selectors.empty()) return;
    if (faults_k > 1) {
      ctx->counter =
          std::make_unique<sat::CardinalityCounter>(solver, ctx->selectors, faults_k);
    } else {
      sat::exactly_one(solver, ctx->selectors);
    }
  };
  ctx->miter =
      encode_exploit_miter(solver, *net.variant, net.sliced, kind, gated_faults, bound_selectors);

  // Seed the branching heuristic from what an earlier context of this
  // variant already learned. Pure heuristic state: search order may change, the
  // SAT/UNSAT verdicts (and with them the report) cannot.
  if (!warm.empty()) solver.import_warm_start(warm);
  return ctx;
}

/// Adds the solve() calls a solver makes during its lifetime in scope to a
/// run-wide total, also when the participant leaves by an exception.
class SolveTally {
 public:
  SolveTally(const sat::Solver& solver, std::atomic<std::uint64_t>& total)
      : solver_(solver), total_(total), start_(solver.solves()) {}
  ~SolveTally() { total_ += solver_.solves() - start_; }
  SolveTally(const SolveTally&) = delete;
  SolveTally& operator=(const SolveTally&) = delete;

 private:
  const sat::Solver& solver_;
  std::atomic<std::uint64_t>& total_;
  const std::uint64_t start_;
};

/// Answers edges [edge_begin, edge_end) edge-major: "does some exactly-k
/// fault set with a site not yet found on this edge break it?" A dead site
/// changes nothing, so a k-set breaks the edge exactly when its m live sites
/// do, and a k-set with m live sites exists when the other k - m can be
/// dead: max(1, k - D) <= m <= k for D dead sites (m = 0 is the fault-free
/// machine, which breaks no edge). Live queries assume those bounds on the
/// counter (k = 1: exactly_one). A kSat model names its live set through
/// the true selectors; every newly true site is exploitable on the edge,
/// because its set is a witness of the per-(site, edge) participation
/// query. The found sites are then excluded and the edge asked again until
/// the first kUnsat, which proves every remaining live site safe. k = 1
/// excludes them by assuming their selectors false (the selectors sit under
/// exactly_one). For k > 1 a found site may still pair with an unfound one,
/// so the query instead requires one unfound selector through a clause
/// under a fresh activation literal, retired by a unit after the call. A
/// dead site takes one of the k slots itself, so it is exploitable exactly
/// when some live set with max(1, k - D) <= m <= k - 1 breaks the edge: one
/// more query answers that for all D dead sites at once (never at k = 1).
/// Counting stays per (site, edge), as sites x edges verdicts, so the
/// report equals the per-(site, edge) rebuild oracle's (tests/synfi_oracle.h)
/// bit for bit (the exhaustive back-end counts per (combination, edge)
/// instead; both agree on exploitable > 0 and on the exploitable site set).
void run_sat_edges(SatContext& ctx, const EdgeTable& edges, const SynfiConfig& config,
                   std::size_t edge_begin, std::size_t edge_end,
                   std::vector<char>& site_hit, PartialReport& out) {
  sat::Solver& solver = ctx.solver;
  const std::vector<sat::Lit>& selectors = ctx.selectors;
  const std::size_t num_live = selectors.size();
  const auto num_dead = static_cast<std::int64_t>(ctx.dead_ids.size());
  const std::int64_t num_sites = static_cast<std::int64_t>(num_live) + num_dead;
  if (num_live == 0) {
    // No fault set of the region changes the slice: nothing to ask.
    const auto injections = num_sites * static_cast<std::int64_t>(edge_end - edge_begin);
    out.injections += injections;
    out.detected += injections;
    return;
  }
  std::vector<sat::Lit> live_bounds;
  std::vector<sat::Lit> dead_bounds;
  if (ctx.counter != nullptr) {
    const int k = config.faults_k;
    const sat::Lit fewest =
        ctx.counter->at_least(static_cast<int>(std::max<std::int64_t>(1, k - num_dead)));
    live_bounds = ctx.counter->assume_at_most(k);
    live_bounds.insert(live_bounds.begin(), fewest);
    if (num_dead > 0) {
      dead_bounds = ctx.counter->assume_at_most(k - 1);
      dead_bounds.insert(dead_bounds.begin(), fewest);
    }
  }
  std::vector<sat::Lit> stimulus;
  std::vector<sat::Lit> base;
  std::vector<sat::Lit> assumptions;
  std::vector<sat::Lit> unfound;
  std::vector<std::size_t> fresh;
  std::vector<char> found(num_live);
  for (std::size_t e = edge_begin; e < edge_end; ++e) {
    stimulus.clear();
    push_equals(stimulus, ctx.miter.svars, edges.from_code[e]);
    if (!config.free_symbol) push_equals(stimulus, ctx.miter.xvars, edges.code[e]);
    base = live_bounds;
    base.insert(base.end(), stimulus.begin(), stimulus.end());
    std::fill(found.begin(), found.end(), 0);
    std::int64_t hits = 0;
    for (;;) {
      // One check per edge query — the batch analog for this back-end.
      if (config.cancel != nullptr) config.cancel->check("synfi");
      assumptions = base;
      sat::Lit act = 0;
      if (ctx.counter == nullptr) {
        for (std::size_t s = 0; s < num_live; ++s) {
          if (found[s]) assumptions.push_back(-selectors[s]);
        }
      } else if (hits > 0) {
        act = solver.new_var();
        unfound.assign(1, -act);
        for (std::size_t s = 0; s < num_live; ++s) {
          if (!found[s]) unfound.push_back(selectors[s]);
        }
        solver.add_clause(unfound);
        assumptions.push_back(act);
      }
      const sat::Result result = solver.solve(assumptions);
      if (act != 0) solver.add_unit(-act);
      if (result == sat::Result::kUnsat) break;

      // Read the whole model first: the stall queries below replace it.
      fresh.clear();
      for (std::size_t s = 0; s < num_live; ++s) {
        if (!found[s] && solver.value(selectors[s])) fresh.push_back(s);
      }
      check(!fresh.empty(), "synfi: SAT model selects no new fault site");
      for (const std::size_t s : fresh) {
        found[s] = 1;
        site_hit[ctx.live_ids[s]] = 1;
        ++hits;
        // Stall iff some undetected model with this site keeps the old
        // state: decided by a second assumption query, so the count does not
        // depend on which model the solver happened to find.
        assumptions.assign(1, selectors[s]);
        assumptions.insert(assumptions.end(), base.begin(), base.end());
        push_equals(assumptions, ctx.miter.fn, edges.from_code[e]);
        if (solver.solve(assumptions) == sat::Result::kSat) ++out.stalls;
      }
    }
    // The dead sites share one verdict and one stall answer per edge.
    if (!dead_bounds.empty()) {
      if (config.cancel != nullptr) config.cancel->check("synfi");
      assumptions = dead_bounds;
      assumptions.insert(assumptions.end(), stimulus.begin(), stimulus.end());
      if (solver.solve(assumptions) == sat::Result::kSat) {
        for (const std::size_t s : ctx.dead_ids) site_hit[s] = 1;
        hits += num_dead;
        push_equals(assumptions, ctx.miter.fn, edges.from_code[e]);
        if (solver.solve(assumptions) == sat::Result::kSat) out.stalls += num_dead;
      }
    }
    // UNSAT is conservatively attributed to detection/masking; the
    // simulation back-end provides the fine-grained split.
    out.injections += num_sites;
    out.exploitable += hits;
    out.detected += num_sites - hits;
  }
}

/// Region cache key: the site list depends on (prefix, include_inputs,
/// target class).
using RegionKey = std::tuple<std::string, bool, sim::FaultTarget>;

/// Incremental SAT context cache key: the CNF depends on the region, the
/// fault kind and the fault count (cardinality network); free_symbol and
/// the stimulus live in the assumptions.
using SatKey = std::tuple<std::string, bool, sim::FaultTarget, sim::FaultKind, int>;

}  // namespace

struct Analyzer::Impl {
  Impl(const Fsm& fsm, std::shared_ptr<const sim::VariantNetlist> shared)
      : shared_net(std::move(shared)),
        net(*shared_net),
        edges(build_edge_table(*net.variant, fsm.cfg_edges())) {}

  /// The variant flattened and sliced once; every context shares it.
  const std::shared_ptr<const sim::VariantNetlist> shared_net;
  const sim::VariantNetlist& net;
  EdgeTable edges;

  std::map<RegionKey, Region> regions;
  /// Idle simulator contexts: a run's participants check one out each and
  /// return it when they leave.
  std::vector<std::unique_ptr<SimContext>> free_sims;
  std::mutex sim_mutex;
  /// The fault-free layer's counters: they depend on the edges only.
  std::optional<PartialReport> fault_free;
  /// The owner's SAT context per key. Helpers build their own and drop it
  /// when they leave, so the cache holds one context per key whatever the
  /// thread count.
  std::map<SatKey, std::unique_ptr<SatContext>> sat_contexts;
  /// Branching-heuristic snapshot shared across contexts of this variant;
  /// written only between runs.
  sat::Solver::WarmStart warm;
  /// solve() calls of the last run, summed over its participants.
  std::atomic<std::uint64_t> sat_solves{0};
  /// Fault-injected jobs the last exhaustive run simulated, and the
  /// observable sites of its region.
  std::uint64_t simulated = 0;
  std::size_t observable_sites = 0;

  Region& region(const std::string& prefix, bool include_inputs, sim::FaultTarget target) {
    const RegionKey key{prefix, include_inputs, target};
    const auto it = regions.find(key);
    if (it != regions.end()) return it->second;
    Region fresh;
    fresh.sites = region_sites(net, prefix, include_inputs, target);
    for (const SigBit& site : fresh.sites) fresh.nets.push_back(net.full->net_of(site));
    return regions.emplace(key, std::move(fresh)).first->second;
  }

  /// A context for `lane_words`-word lane blocks; contexts compiled for
  /// another width are dropped — a narrow simulator cannot carry a wider
  /// run's lanes.
  std::unique_ptr<SimContext> checkout_sim(int lane_words) {
    {
      const std::lock_guard<std::mutex> lock(sim_mutex);
      while (!free_sims.empty()) {
        std::unique_ptr<SimContext> ctx = std::move(free_sims.back());
        free_sims.pop_back();
        if (ctx->classifier.sim.lane_words() == lane_words) return ctx;
      }
    }
    return std::make_unique<SimContext>(net, edges, lane_words);
  }

  void checkin_sim(std::unique_ptr<SimContext> ctx) {
    const std::lock_guard<std::mutex> lock(sim_mutex);
    free_sims.push_back(std::move(ctx));
  }

  /// Exhaustive back-end: simulates the observable layers and weights them
  /// (see the synfi.h header). Sites hit by an exploitable job are marked
  /// in `site_hit`.
  PartialReport run_exhaustive_layers(const SynfiConfig& config, Region& region,
                                      int lane_words, std::vector<char>& site_hit) {
    const std::size_t num_sites = region.sites.size();
    LayerSites live;
    for (std::size_t s = 0; s < num_sites; ++s) {
      if (!net.live(region.nets[s], config.kind)) continue;
      live.nets.push_back(region.nets[s]);
      live.ids.push_back(s);
    }
    const std::size_t k = static_cast<std::size_t>(config.faults_k);
    const std::size_t num_live = live.ids.size();
    const std::size_t num_dead = num_sites - num_live;
    observable_sites = num_live;

    const std::size_t num_edges = edges.size();
    const std::uint64_t grain = (static_cast<std::uint64_t>(config.lanes) + num_edges - 1) /
                                num_edges;
    PartialReport total;
    bool dead_hit = false;
    std::mutex merge_mutex;
    // Layer m: every m-subset of the live sites, standing for the
    // C(dead, k - m) injections that complete it with dead sites.
    const std::size_t lowest = k > num_dead ? k - num_dead : 0;
    for (std::size_t m = std::min(k, num_live) + 1; m-- > lowest;) {
      PartialReport layer;
      if (m == 0 && fault_free.has_value()) {
        layer = *fault_free;
      } else {
        const std::uint64_t combos = binomial(num_live, m);
        WorkShare::run(combos, grain, config.threads, [&](WorkShare::Claim& claim) {
          PartialReport out;
          std::vector<char> hit(num_sites, 0);
          std::unique_ptr<SimContext> ctx = checkout_sim(lane_words);
          run_exhaustive(*ctx, live, m, edges, config, claim, hit, out);
          checkin_sim(std::move(ctx));
          const std::lock_guard<std::mutex> lock(merge_mutex);
          layer.add(out);
          for (std::size_t s = 0; s < num_sites; ++s) site_hit[s] |= hit[s];
        });
        if (m == 0) {
          fault_free = layer;
        } else {
          simulated += combos * num_edges;
        }
      }
      total.add(layer, binomial(num_dead, k - m));
      // Every dead site completes such a subset into an injection with
      // the same outcome.
      if (m < k && layer.exploitable > 0) dead_hit = true;
    }
    for (std::size_t s = 0; s < num_sites && dead_hit; ++s) {
      if (!net.live(region.nets[s], config.kind)) site_hit[s] = 1;
    }
    return total;
  }

  /// SAT back-end: the run's participants share the edges.
  PartialReport run_sat(const SynfiConfig& config, const Region& region,
                        std::vector<char>& site_hit) {
    const std::size_t num_sites = region.sites.size();
    const SatKey key{config.wire_prefix, config.include_inputs, config.target, config.kind,
                     config.faults_k};
    auto it = sat_contexts.find(key);
    if (it == sat_contexts.end()) {
      it = sat_contexts
               .emplace(key, build_sat_context(net, region, config.kind, config.faults_k, warm))
               .first;
    }
    SatContext& owner_sat = *it->second;
    PartialReport total;
    std::mutex merge_mutex;
    WorkShare::run(edges.size(), 1, config.threads, [&](WorkShare::Claim& claim) {
      PartialReport out;
      std::vector<char> hit(num_sites, 0);
      std::unique_ptr<SatContext> own;
      if (!claim.owner()) {
        own = build_sat_context(net, region, config.kind, config.faults_k, warm);
      }
      SatContext& ctx = own != nullptr ? *own : owner_sat;
      const SolveTally tally(ctx.solver, sat_solves);
      for (UnitRange r = claim.next(1); !r.empty(); r = claim.next(1)) {
        run_sat_edges(ctx, edges, config, r.begin, r.end, hit, out);
      }
      const std::lock_guard<std::mutex> lock(merge_mutex);
      total.add(out);
      for (std::size_t s = 0; s < num_sites; ++s) site_hit[s] |= hit[s];
    });
    // Refresh the warm-start snapshot from the owner's context so the next
    // region/kind starts from trained activities.
    warm = owner_sat.solver.export_warm_start();
    return total;
  }
};

Analyzer::Analyzer(const Fsm& fsm, const CompiledFsm& variant)
    : Analyzer(fsm, std::make_shared<const sim::VariantNetlist>(variant)) {}

Analyzer::Analyzer(const Fsm& fsm, std::shared_ptr<const sim::VariantNetlist> net) {
  require(net->variant->symbol_width > 0, "synfi: variant must use encoded control symbols");
  impl_ = std::make_unique<Impl>(fsm, std::move(net));
}

Analyzer::~Analyzer() = default;

const CompiledFsm& Analyzer::variant() const { return *impl_->net.variant; }

std::size_t Analyzer::cached_simulators() const { return impl_->free_sims.size(); }

std::size_t Analyzer::cached_sat_shards() const { return impl_->sat_contexts.size(); }

std::uint64_t Analyzer::last_sat_solves() const { return impl_->sat_solves.load(); }

std::uint64_t Analyzer::last_simulated_injections() const { return impl_->simulated; }

std::size_t Analyzer::last_observable_sites() const { return impl_->observable_sites; }

SynfiReport Analyzer::run(const SynfiConfig& user_config) {
  require(user_config.lanes >= 1 && user_config.lanes <= sim::kMaxLanes,
          format("synfi: lanes must be in [1, %d] (64 x lane_words)", sim::kMaxLanes));
  require(user_config.threads >= 1, "synfi: threads must be >= 1");
  require(user_config.faults_k >= 1, "synfi: faults_k must be >= 1");
  impl_->sat_solves = 0;
  impl_->simulated = 0;
  impl_->observable_sites = 0;
  // SCFI_LANE_WORDS_CAP clamps the *derived* simulator width (CI portable
  // leg); lanes is an execution knob, so the report is unchanged.
  SynfiConfig config = user_config;
  config.lanes = std::min(config.lanes, 64 * sim::lane_words_cap());
  Region& region = impl_->region(config.wire_prefix, config.include_inputs, config.target);
  const std::vector<SigBit>& sites = region.sites;
  require(!sites.empty(), "synfi: no fault sites match prefix '" + config.wire_prefix + "'");

  SynfiReport report;
  report.faults_k = config.faults_k;
  report.sites = static_cast<std::int64_t>(sites.size());
  // No k-subset of the region exists (or no edge to inject on): zero
  // injections by definition. Kept a report (not an error) so a degree probe
  // can scan past the region size of a small variant without special-casing.
  if (static_cast<std::size_t>(config.faults_k) > sites.size() || impl_->edges.size() == 0) {
    return report;
  }

  // Every participant marks a full-region attribution bitmap and sums its
  // counters; both merge as sums/ORs, so any split gives the
  // single-threaded report exactly.
  std::vector<char> site_hit(sites.size(), 0);
  const PartialReport total =
      config.backend == Backend::kExhaustiveSim
          ? impl_->run_exhaustive_layers(config, region, sim::lane_words_for(config.lanes),
                                         site_hit)
          : impl_->run_sat(config, region, site_hit);
  report.injections = total.injections;
  report.exploitable = total.exploitable;
  report.detected = total.detected;
  report.masked = total.masked;
  report.stalls = total.stalls;
  for (std::size_t s = 0; s < sites.size(); ++s) {
    if (site_hit[s]) report.exploitable_sites.push_back(site_name(sites[s]));
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
