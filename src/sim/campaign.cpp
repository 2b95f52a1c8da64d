#include "sim/campaign.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <mutex>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "base/error.h"
#include "base/log.h"
#include "base/parallel.h"
#include "base/retry.h"
#include "base/rng.h"
#include "base/strutil.h"

namespace scfi::sim {
namespace {

using fsm::CfgEdge;
using fsm::CompiledFsm;
using fsm::Fsm;

/// Caches concrete raw-input assignments per CFG edge.
class RawInputPlanner {
 public:
  explicit RawInputPlanner(const Fsm& fsm) : fsm_(&fsm) {}

  const std::vector<bool>& input_for(const CfgEdge& edge) {
    const std::uint64_t key = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(edge.from))
                               << 32) |
                              static_cast<std::uint32_t>(edge.transition_index);
    const auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    std::optional<std::vector<bool>> bits;
    if (edge.transition_index >= 0) {
      bits = fsm_->concrete_input_for(edge.transition_index);
    } else {
      bits = fsm_->concrete_input_for_idle(edge.from);
    }
    check(bits.has_value(), "campaign: no concrete input for CFG edge");
    return cache_.emplace(key, std::move(*bits)).first->second;
  }

 private:
  const Fsm* fsm_;
  std::unordered_map<std::uint64_t, std::vector<bool>> cache_;
};

/// One scheduled fault: site index (into the filtered site list), cycle, and
/// an index into the spec's kind set. Single-kind specs never draw for the
/// kind, so their schedules stay bit-identical to the pre-FaultSpec planner.
struct PlannedFault {
  std::int32_t site = 0;
  std::int32_t cycle = 0;
  std::int32_t kind = 0;
};

/// CFG edge indices grouped by source state, for the stimulus walk.
std::vector<std::vector<std::int32_t>> index_edges_from(const Fsm& fsm,
                                                        const std::vector<CfgEdge>& cfg) {
  std::vector<std::vector<std::int32_t>> edges_from(static_cast<std::size_t>(fsm.num_states()));
  for (std::size_t e = 0; e < cfg.size(); ++e) {
    edges_from[static_cast<std::size_t>(cfg[e].from)].push_back(static_cast<std::int32_t>(e));
  }
  return edges_from;
}

/// Draws one run — `cycles` walk edges, `cycles`+1 golden states, and
/// `fault.k` scheduled faults — from `rng`, appending to the out vectors.
/// `pool` must be a permutation of [0, num_sites); distinct fault sites come
/// from a partial Fisher-Yates over it. The swaps are recorded in `undo` so
/// the caller can restore the pool afterwards: every run must start from the
/// identical permutation for the plan to be a pure function of
/// (seed, run_index).
void plan_one_run(const std::vector<std::vector<std::int32_t>>& edges_from,
                  const std::vector<CfgEdge>& cfg, int reset_state, std::size_t num_sites,
                  const CampaignConfig& config, Rng& rng, std::vector<std::int32_t>& pool,
                  std::vector<std::pair<std::int32_t, std::int32_t>>& undo,
                  std::vector<std::int32_t>& edges_out, std::vector<std::int32_t>& golden_out,
                  std::vector<PlannedFault>& faults_out) {
  int g = reset_state;
  golden_out.push_back(g);
  for (int t = 0; t < config.cycles; ++t) {
    const auto& options = edges_from[static_cast<std::size_t>(g)];
    const std::int32_t e = options[static_cast<std::size_t>(rng.below(options.size()))];
    edges_out.push_back(e);
    g = cfg[static_cast<std::size_t>(e)].to;
    golden_out.push_back(g);
  }
  // Distinct fault sites via partial Fisher-Yates; only when the request
  // exceeds the population do duplicates become possible (and unavoidable).
  const auto n = static_cast<std::int64_t>(num_sites);
  const std::size_t num_kinds = config.fault.kinds.size();
  for (std::int64_t f = 0; f < config.fault.k; ++f) {
    std::int32_t site = 0;
    if (f < n) {
      const std::int64_t j =
          f + static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(n - f)));
      std::swap(pool[static_cast<std::size_t>(f)], pool[static_cast<std::size_t>(j)]);
      undo.emplace_back(static_cast<std::int32_t>(f), static_cast<std::int32_t>(j));
      site = pool[static_cast<std::size_t>(f)];
    } else {
      site = static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(n)));
    }
    const auto cycle =
        static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(config.cycles)));
    // The kind draw is appended to the stream only for multi-kind specs, so
    // a single-kind spec's (seed, run) → plan mapping is unchanged.
    const std::int32_t kind =
        num_kinds > 1 ? static_cast<std::int32_t>(rng.below(num_kinds)) : 0;
    faults_out.push_back(PlannedFault{site, cycle, kind});
  }
}

/// Reverts the swaps plan_one_run recorded, restoring `pool` to the
/// permutation it held before the run, and clears `undo`.
void undo_pool_swaps(std::vector<std::int32_t>& pool,
                     std::vector<std::pair<std::int32_t, std::int32_t>>& undo) {
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
    std::swap(pool[static_cast<std::size_t>(it->first)],
              pool[static_cast<std::size_t>(it->second)]);
  }
  undo.clear();
}

/// A fully materialized campaign: per-run walks (as global CFG edge
/// indices), golden state sequences, and fault schedules, flattened
/// run-major. Only the materializing planners build one.
struct CampaignPlan {
  int runs = 0;
  int cycles = 0;
  int num_faults = 0;
  std::vector<std::int32_t> edges;   ///< runs x cycles
  std::vector<std::int32_t> golden;  ///< runs x (cycles + 1)
  std::vector<PlannedFault> faults;  ///< runs x num_faults

  std::int32_t edge_at(int run, int t) const {
    return edges[static_cast<std::size_t>(run) * static_cast<std::size_t>(cycles) +
                 static_cast<std::size_t>(t)];
  }
  std::int32_t golden_at(int run, int t) const {
    return golden[static_cast<std::size_t>(run) * static_cast<std::size_t>(cycles + 1) +
                  static_cast<std::size_t>(t)];
  }
};

CampaignPlan plan_campaign_materialized(const Fsm& fsm, const std::vector<CfgEdge>& cfg,
                                        std::size_t num_sites, const CampaignConfig& config) {
  const std::vector<std::vector<std::int32_t>> edges_from = index_edges_from(fsm, cfg);
  CampaignPlan plan;
  plan.runs = config.runs;
  plan.cycles = config.cycles;
  plan.num_faults = config.fault.k;
  plan.edges.reserve(static_cast<std::size_t>(config.runs) *
                     static_cast<std::size_t>(config.cycles));
  plan.golden.reserve(static_cast<std::size_t>(config.runs) *
                      static_cast<std::size_t>(config.cycles + 1));
  plan.faults.reserve(static_cast<std::size_t>(config.runs) *
                      static_cast<std::size_t>(config.fault.k));

  std::vector<std::int32_t> pool(num_sites);
  std::iota(pool.begin(), pool.end(), 0);

  // The streaming plan, materialized: run k is drawn from its own
  // jump-ahead stream against the pristine pool permutation, exactly as
  // the on-the-fly planner does inside the workers.
  std::vector<std::pair<std::int32_t, std::int32_t>> undo;
  for (int run = 0; run < config.runs; ++run) {
    Rng rng(config.seed, static_cast<std::uint64_t>(run));
    plan_one_run(edges_from, cfg, fsm.reset_state, num_sites, config, rng, pool, undo,
                 plan.edges, plan.golden, plan.faults);
    undo_pool_swaps(pool, undo);
  }
  return plan;
}

/// Plan access for the batch executor, backed by a materialized plan.
struct MaterializedPlanView {
  const CampaignPlan* plan = nullptr;

  void prepare_batch(int /*base_run*/, int /*batch_runs*/) {}
  std::int32_t edge_at(int run, int t) const { return plan->edge_at(run, t); }
  std::int32_t golden_at(int run, int t) const { return plan->golden_at(run, t); }
  const PlannedFault& fault_at(int run, int f) const {
    return plan->faults[static_cast<std::size_t>(run) *
                            static_cast<std::size_t>(plan->num_faults) +
                        static_cast<std::size_t>(f)];
  }
};

/// Plan access that derives each batch on demand: run k's walk and fault
/// schedule come from Rng(seed, k), so a view holds at most `lanes` runs —
/// O(lanes) memory however large the campaign — and any worker can plan any
/// batch without coordination.
class StreamingPlanView {
 public:
  StreamingPlanView(const std::vector<std::vector<std::int32_t>>& edges_from,
                    const std::vector<CfgEdge>& cfg, int reset_state, std::size_t num_sites,
                    const CampaignConfig& config)
      : edges_from_(&edges_from),
        cfg_(&cfg),
        reset_state_(reset_state),
        num_sites_(num_sites),
        config_(&config),
        pool_(num_sites) {
    std::iota(pool_.begin(), pool_.end(), 0);
    const auto lanes = static_cast<std::size_t>(config.lanes);
    edges_.reserve(lanes * static_cast<std::size_t>(config.cycles));
    golden_.reserve(lanes * static_cast<std::size_t>(config.cycles + 1));
    faults_.reserve(lanes * static_cast<std::size_t>(config.fault.k));
  }

  void prepare_batch(int base_run, int batch_runs) {
    base_run_ = base_run;
    edges_.clear();
    golden_.clear();
    faults_.clear();
    for (int lane = 0; lane < batch_runs; ++lane) {
      Rng rng(config_->seed, static_cast<std::uint64_t>(base_run + lane));
      plan_one_run(*edges_from_, *cfg_, reset_state_, num_sites_, *config_, rng, pool_, undo_,
                   edges_, golden_, faults_);
      undo_pool_swaps(pool_, undo_);
    }
  }

  std::int32_t edge_at(int run, int t) const {
    return edges_[static_cast<std::size_t>(run - base_run_) *
                      static_cast<std::size_t>(config_->cycles) +
                  static_cast<std::size_t>(t)];
  }
  std::int32_t golden_at(int run, int t) const {
    return golden_[static_cast<std::size_t>(run - base_run_) *
                       static_cast<std::size_t>(config_->cycles + 1) +
                   static_cast<std::size_t>(t)];
  }
  const PlannedFault& fault_at(int run, int f) const {
    return faults_[static_cast<std::size_t>(run - base_run_) *
                       static_cast<std::size_t>(config_->fault.k) +
                   static_cast<std::size_t>(f)];
  }

 private:
  const std::vector<std::vector<std::int32_t>>* edges_from_;
  const std::vector<CfgEdge>* cfg_;
  int reset_state_;
  std::size_t num_sites_;
  const CampaignConfig* config_;
  int base_run_ = 0;
  std::vector<std::int32_t> pool_;
  std::vector<std::pair<std::int32_t, std::int32_t>> undo_;
  std::vector<std::int32_t> edges_;
  std::vector<std::int32_t> golden_;
  std::vector<PlannedFault> faults_;
};

/// Everything the per-batch executor needs, resolved once per campaign:
/// symbol codes / raw input bits per CFG edge, packed as integers.
struct StimulusTable {
  bool encoded = false;
  std::vector<std::uint64_t> edge_code;  ///< encoded: symbol codeword per edge
  std::vector<std::uint64_t> edge_bits;  ///< raw: packed input bits per edge
  int num_inputs = 0;
};

StimulusTable build_stimulus(const Fsm& fsm, const CompiledFsm& variant,
                             const std::vector<CfgEdge>& cfg) {
  StimulusTable table;
  table.encoded = variant.symbol_width > 0;
  if (table.encoded) {
    table.edge_code.reserve(cfg.size());
    for (const CfgEdge& e : cfg) table.edge_code.push_back(variant.symbol_codes.at(e.symbol));
  } else {
    require(fsm.num_inputs() <= 64,
            format("run_campaign: raw-input (unencoded) variants pack each run's "
                   "control bits into one 64-bit stimulus word, so at most 64 "
                   "control bits are representable; this FSM has %d — use a "
                   "symbol-encoded variant",
                   fsm.num_inputs()));
    table.num_inputs = fsm.num_inputs();
    RawInputPlanner planner(fsm);
    table.edge_bits.reserve(cfg.size());
    for (const CfgEdge& e : cfg) {
      const std::vector<bool>& bits = planner.input_for(e);
      std::uint64_t packed = 0;
      for (std::size_t i = 0; i < bits.size(); ++i) {
        if (bits[i]) packed |= 1ULL << i;
      }
      table.edge_bits.push_back(packed);
    }
  }
  return table;
}

/// Executes the batches `claim` hands out on a private Simulator and
/// accumulates outcome counts. `plan` provides (and, for the streaming
/// view, derives) each batch's runs. Outcomes are per-lane and the counts
/// are plain integer sums, so sharing batches between threads cannot change
/// the aggregate result. Lane sets are runtime-width word arrays (W =
/// lane_words_for(config.lanes)) rather than full kMaxLaneWords LaneMask
/// blocks, so the classic 64-lane configuration pays for exactly one word.
template <typename PlanView>
void execute_batches(const Fsm& fsm, const CompiledFsm& variant,
                     const std::vector<FaultSite>& sites, const CampaignConfig& config,
                     const StimulusTable& stim, PlanView& plan, WorkShare::Claim& claim,
                     CampaignResult& out) {
  const int W = lane_words_for(config.lanes);
  Simulator sim(*variant.module, W);

  // Pre-resolve every name the cycle loop would otherwise look up.
  std::vector<std::int32_t> site_net;
  site_net.reserve(sites.size());
  for (const FaultSite& s : sites) site_net.push_back(sim.net_index(s.bit));
  const Simulator::WireHandle state_h = sim.probe(variant.state_wire);
  Simulator::WireHandle alert_h;
  if (!variant.alert_wire.empty()) alert_h = sim.probe(variant.alert_wire);
  Simulator::WireHandle symbol_h;
  std::vector<Simulator::WireHandle> raw_h;
  if (stim.encoded) {
    symbol_h = sim.input_handle(variant.symbol_input_wire);
  } else {
    for (const std::string& name : fsm.inputs) raw_h.push_back(sim.input_handle(name));
  }
  const int in_width = stim.encoded ? symbol_h.width : stim.num_inputs;
  check(in_width <= 64, "run_campaign: stimulus wider than one 64-bit code");
  const std::uint64_t in_mask = in_width == 64 ? ~0ULL : (1ULL << in_width) - 1;
  // Per-lane words, runtime width W: index [i * W + w].
  std::vector<std::uint64_t> in_words(static_cast<std::size_t>(in_width * W));
  // The batch's faults bucketed by cycle: cycle t injects
  // scheduled[cycle_begin[t] .. cycle_begin[t + 1]).
  struct ScheduledFault {
    std::int32_t net;
    FaultKind kind;
    int lane;
  };
  const int k = config.fault.k;
  std::vector<ScheduledFault> scheduled(static_cast<std::size_t>(config.lanes) *
                                        static_cast<std::size_t>(k));
  std::vector<int> cycle_begin(static_cast<std::size_t>(config.cycles) + 1);
  std::vector<int> cycle_fill(static_cast<std::size_t>(config.cycles));
  check(state_h.width <= 64, "run_campaign: state wire too wide");
  const int state_w = state_h.width;
  const std::size_t num_states = variant.state_codes.size();
  std::vector<std::uint64_t> state_words(static_cast<std::size_t>(state_w * W));
  std::vector<std::uint64_t> state_eq(num_states * static_cast<std::size_t>(W));
  using Lanes = std::array<std::uint64_t, kMaxLaneWords>;  // words [0, W) used

  const int lanes = config.lanes;
  for (UnitRange batch = claim.next(1); !batch.empty(); batch = claim.next(1)) {
    // Cooperative cancellation at batch granularity: a fired token (sweep
    // job deadline) stops the participant here, with no half-simulated
    // batch.
    if (config.cancel != nullptr) config.cancel->check("run_campaign");
    const int base_run = static_cast<int>(batch.begin) * lanes;
    const int batch_runs = std::min(lanes, config.runs - base_run);
    const LaneMask batch_mask = LaneMask::first_n(batch_runs);
    plan.prepare_batch(base_run, batch_runs);
    // Stable counting sort of the batch's faults by cycle, in the (lane, f)
    // order the cycle loop injects them, so a cycle touches only its own.
    std::fill(cycle_begin.begin(), cycle_begin.end(), 0);
    for (int lane = 0; lane < batch_runs; ++lane) {
      for (int f = 0; f < k; ++f) {
        ++cycle_begin[static_cast<std::size_t>(plan.fault_at(base_run + lane, f).cycle) + 1];
      }
    }
    std::partial_sum(cycle_begin.begin(), cycle_begin.end(), cycle_begin.begin());
    std::copy(cycle_begin.begin(), cycle_begin.end() - 1, cycle_fill.begin());
    for (int lane = 0; lane < batch_runs; ++lane) {
      for (int f = 0; f < k; ++f) {
        const PlannedFault& p = plan.fault_at(base_run + lane, f);
        scheduled[static_cast<std::size_t>(cycle_fill[static_cast<std::size_t>(p.cycle)]++)] =
            ScheduledFault{site_net[static_cast<std::size_t>(p.site)],
                           config.fault.kinds[static_cast<std::size_t>(p.kind)], lane};
      }
    }

    sim.reset();
    Lanes done{};      // lane terminated (detected)
    Lanes detected{};  // subset of done
    // Folds the alert wire into detected/done for lanes still running.
    const auto absorb_alerts = [&] {
      if (!alert_h.valid()) return;
      for (int w = 0; w < W; ++w) {
        std::uint64_t alert = 0;
        for (std::int32_t i = 0; i < alert_h.width; ++i) {
          alert |= sim.lane_word(alert_h.base + i, w);
        }
        const std::uint64_t newly =
            alert & batch_mask.w[static_cast<std::size_t>(w)] & ~done[static_cast<std::size_t>(w)];
        detected[static_cast<std::size_t>(w)] |= newly;
        done[static_cast<std::size_t>(w)] |= newly;
      }
    };
    const auto all_done = [&] {
      for (int w = 0; w < W; ++w) {
        if (done[static_cast<std::size_t>(w)] != batch_mask.w[static_cast<std::size_t>(w)]) {
          return false;
        }
      }
      return true;
    };
    Lanes deviated{};  // reached a valid state != golden
    Lanes invalid{};   // reached a non-codeword
    Lanes not_lag{};   // deviation beyond a missed transition
    for (int t = 0; t < config.cycles && !all_done(); ++t) {
      // Drive per-lane stimulus for this cycle.
      std::fill(in_words.begin(), in_words.end(), 0);
      for (int lane = 0; lane < batch_runs; ++lane) {
        const auto wj = static_cast<std::size_t>(lane >> 6);
        const std::uint64_t bit = 1ULL << (lane & 63);
        const std::int32_t e = plan.edge_at(base_run + lane, t);
        std::uint64_t bits = (stim.encoded ? stim.edge_code[static_cast<std::size_t>(e)]
                                           : stim.edge_bits[static_cast<std::size_t>(e)]) &
                             in_mask;
        for (; bits != 0; bits &= bits - 1) {
          in_words[static_cast<std::size_t>(std::countr_zero(bits) * W) + wj] |= bit;
        }
      }
      for (int i = 0; i < in_width; ++i) {
        for (int w = 0; w < W; ++w) {
          const std::uint64_t word = in_words[static_cast<std::size_t>(i * W + w)];
          if (stim.encoded) {
            sim.set_input_word(symbol_h, i, word, w);
          } else {
            sim.set_input_word(raw_h[static_cast<std::size_t>(i)], 0, word, w);
          }
        }
      }
      // Inject this cycle's faults, lane by lane.
      for (int i = cycle_begin[static_cast<std::size_t>(t)];
           i < cycle_begin[static_cast<std::size_t>(t) + 1]; ++i) {
        const ScheduledFault& sf = scheduled[static_cast<std::size_t>(i)];
        sim.inject_net(sf.net, sf.kind, LaneMask::lane(sf.lane));
      }
      // One settle per edge: the alert is read before the latch, and
      // classification reads only the latched state register, so the
      // post-edge settle is left to the next cycle (or the final check).
      sim.eval();
      absorb_alerts();
      sim.latch();
      // Word-parallel classification: compare the state register of all
      // lanes against every codeword at once instead of decoding per lane.
      for (int i = 0; i < state_w; ++i) {
        for (int w = 0; w < W; ++w) {
          state_words[static_cast<std::size_t>(i * W + w)] = sim.lane_word(state_h.base + i, w);
        }
      }
      // A code with bits beyond the register width can never match.
      const auto fits = [state_w](std::uint64_t code) {
        return state_w >= 64 || (code >> state_w) == 0;
      };
      Lanes live{};
      for (int w = 0; w < W; ++w) {
        live[static_cast<std::size_t>(w)] =
            batch_mask.w[static_cast<std::size_t>(w)] & ~done[static_cast<std::size_t>(w)];
      }
      if (variant.has_error_state) {
        for (int w = 0; w < W; ++w) {
          std::uint64_t err = fits(variant.error_code) ? live[static_cast<std::size_t>(w)] : 0;
          for (int i = 0; i < state_w && err != 0; ++i) {
            const std::uint64_t sw = state_words[static_cast<std::size_t>(i * W + w)];
            err &= ((variant.error_code >> i) & 1) ? sw : ~sw;
          }
          detected[static_cast<std::size_t>(w)] |= err;
          done[static_cast<std::size_t>(w)] |= err;
          live[static_cast<std::size_t>(w)] &= ~err;
        }
      }
      Lanes valid{};
      for (std::size_t s = 0; s < num_states; ++s) {
        const std::uint64_t code = variant.state_codes[s];
        for (int w = 0; w < W; ++w) {
          std::uint64_t eq = fits(code) ? live[static_cast<std::size_t>(w)] : 0;
          for (int i = 0; i < state_w && eq != 0; ++i) {
            const std::uint64_t sw = state_words[static_cast<std::size_t>(i * W + w)];
            eq &= ((code >> i) & 1) ? sw : ~sw;
          }
          state_eq[s * static_cast<std::size_t>(W) + static_cast<std::size_t>(w)] = eq;
          valid[static_cast<std::size_t>(w)] |= eq;
        }
      }
      Lanes match_expect{};
      Lanes match_prev{};
      for (int lane = 0; lane < batch_runs; ++lane) {
        const auto wj = static_cast<std::size_t>(lane >> 6);
        const std::uint64_t bit = 1ULL << (lane & 63);
        if (!(live[wj] & bit)) continue;
        match_expect[wj] |=
            state_eq[static_cast<std::size_t>(plan.golden_at(base_run + lane, t + 1)) *
                         static_cast<std::size_t>(W) +
                     wj] &
            bit;
        match_prev[wj] |=
            state_eq[static_cast<std::size_t>(plan.golden_at(base_run + lane, t)) *
                         static_cast<std::size_t>(W) +
                     wj] &
            bit;
      }
      for (int w = 0; w < W; ++w) {
        const auto j = static_cast<std::size_t>(w);
        invalid[j] |= live[j] & ~valid[j];
        not_lag[j] |= live[j] & ~valid[j];
        const std::uint64_t dev = live[j] & valid[j] & ~match_expect[j];
        deviated[j] |= dev;
        not_lag[j] |= dev & ~match_prev[j];
      }
    }
    // Final combinational alert check (covers a deviation on the last cycle).
    sim.eval();
    absorb_alerts();
    for (int w = 0; w < W; ++w) {
      const auto j = static_cast<std::size_t>(w);
      out.detected += std::popcount(detected[j]);
      const std::uint64_t live = batch_mask.w[j] & ~done[j];
      out.silent_invalid += std::popcount(live & invalid[j]);
      const std::uint64_t dev = live & ~invalid[j] & deviated[j];
      out.hijacked += std::popcount(dev & not_lag[j]);
      out.lagged += std::popcount(dev & ~not_lag[j]);
      out.masked += std::popcount(live & ~invalid[j] & ~deviated[j]);
    }
  }
}

/// Shares batches [0, num_batches) between the run's participants, giving
/// each its own plan view from `make_view`, and merges the partial counts.
template <typename ViewFactory>
void execute_all(const Fsm& fsm, const CompiledFsm& variant,
                 const std::vector<FaultSite>& sites, const CampaignConfig& config,
                 const StimulusTable& stim, int num_batches, ViewFactory make_view,
                 CampaignResult& result) {
  std::mutex merge_mutex;
  WorkShare::run(static_cast<std::uint64_t>(num_batches), 1, config.threads,
                 [&](WorkShare::Claim& claim) {
                   auto view = make_view();
                   CampaignResult p;
                   execute_batches(fsm, variant, sites, config, stim, view, claim, p);
                   const std::lock_guard<std::mutex> lock(merge_mutex);
                   result.masked += p.masked;
                   result.detected += p.detected;
                   result.hijacked += p.hijacked;
                   result.lagged += p.lagged;
                   result.silent_invalid += p.silent_invalid;
                 });
}

}  // namespace

std::int64_t planned_bytes(const CampaignConfig& config) {
  const auto runs = static_cast<std::int64_t>(config.runs);
  const auto cycles = static_cast<std::int64_t>(config.cycles);
  const std::int64_t edges = runs * cycles * static_cast<std::int64_t>(sizeof(std::int32_t));
  const std::int64_t golden =
      runs * (cycles + 1) * static_cast<std::int64_t>(sizeof(std::int32_t));
  const std::int64_t faults = runs * static_cast<std::int64_t>(config.fault.k) *
                              static_cast<std::int64_t>(sizeof(PlannedFault));
  return edges + golden + faults;
}

CampaignResult run_campaign(const Fsm& fsm, const CompiledFsm& variant,
                            const CampaignConfig& user_config) {
  check(variant.module != nullptr, "run_campaign: variant has no module");
  require(user_config.lanes >= 1 && user_config.lanes <= kMaxLanes,
          format("run_campaign: lanes must be in [1, %d] (64 x lane_words)", kMaxLanes));
  // SCFI_LANE_WORDS_CAP clamps the *derived* simulator width (the CI
  // portable leg forces 1-word blocks this way). lanes is an execution
  // knob, so shrinking it cannot change the aggregate result.
  CampaignConfig config = user_config;
  config.lanes = std::min(config.lanes, kWordLanes * lane_words_cap());
  const bool materializes = config.planner != CampaignPlanner::kStreaming;
  if (materializes && config.max_plan_bytes > 0) {
    const std::int64_t plan_bytes = planned_bytes(config);
    require(plan_bytes <= config.max_plan_bytes,
            format("run_campaign: campaign plan needs ~%lld bytes, above the "
                   "max_plan_bytes cap of %lld; use the streaming planner or "
                   "shrink runs/cycles or raise the cap",
                   static_cast<long long>(plan_bytes),
                   static_cast<long long>(config.max_plan_bytes)));
    static std::atomic<bool> warned{false};
    if (plan_bytes > config.max_plan_bytes / 2 && !warned.exchange(true)) {
      log_warn(format("run_campaign: campaign plan materializes ~%lld bytes up front "
                      "(cap %lld); plans are ~8 bytes per run-cycle plus 12 per fault "
                      "— the streaming planner needs O(lanes) instead",
                      static_cast<long long>(plan_bytes),
                      static_cast<long long>(config.max_plan_bytes)));
    }
  }
  const std::vector<FaultSite> all_sites =
      enumerate_fault_sites(*variant.module, variant.state_wire);
  const std::vector<FaultSite> sites = filter_sites(all_sites, config.fault.target);
  require(!sites.empty(), "run_campaign: no fault sites for the requested target class");

  const std::vector<CfgEdge> cfg = fsm.cfg_edges();
  const StimulusTable stim = build_stimulus(fsm, variant, cfg);

  CampaignResult result;
  result.runs = config.runs;
  // 64-bit ceil-divide: runs close to INT_MAX must not overflow the
  // rounding term (the streaming planner accepts sizes the plan cap used
  // to reject long before this line).
  const int num_batches = static_cast<int>(
      (static_cast<std::int64_t>(config.runs) + config.lanes - 1) / config.lanes);
  if (materializes) {
    const CampaignPlan plan = plan_campaign_materialized(fsm, cfg, sites.size(), config);
    execute_all(fsm, variant, sites, config, stim, num_batches,
                [&plan] { return MaterializedPlanView{&plan}; }, result);
  } else {
    const std::vector<std::vector<std::int32_t>> edges_from = index_edges_from(fsm, cfg);
    execute_all(fsm, variant, sites, config, stim, num_batches,
                [&] {
                  return StreamingPlanView(edges_from, cfg, fsm.reset_state, sites.size(),
                                           config);
                },
                result);
  }
  return result;
}

}  // namespace scfi::sim
