#include "sim/campaign.h"

#include <algorithm>
#include <bit>
#include <mutex>
#include <optional>
#include <utility>

#include "base/error.h"
#include "base/parallel.h"
#include "base/retry.h"
#include "base/strutil.h"
#include "sim/campaign_plan.h"
#include "sim/lane_classifier.h"

namespace scfi::sim {
namespace {

using fsm::CfgEdge;
using fsm::CompiledFsm;
using fsm::Fsm;

/// Everything the executor needs, resolved once per campaign:
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
    table.edge_bits.reserve(cfg.size());
    for (const CfgEdge& e : cfg) {
      const std::optional<std::vector<bool>> bits =
          e.transition_index >= 0 ? fsm.concrete_input_for(e.transition_index)
                                  : fsm.concrete_input_for_idle(e.from);
      check(bits.has_value(), "campaign: no concrete input for CFG edge");
      std::uint64_t packed = 0;
      for (std::size_t i = 0; i < bits->size(); ++i) {
        if ((*bits)[i]) packed |= 1ULL << i;
      }
      table.edge_bits.push_back(packed);
    }
  }
  return table;
}

/// A private LaneClassifier of the campaign's VariantNetlist (its sliced
/// Simulator, state register and alert), and the per-lane stimulus driver.
class Harness {
 public:
  Harness(const Fsm& fsm, const VariantNetlist& net, const StimulusTable& stim, int lane_words)
      : classifier(net, lane_words), stim_(&stim) {
    Simulator& sim = classifier.sim;
    if (stim.encoded) {
      symbol_h_ = sim.input_handle(net.variant->symbol_input_wire);
    } else {
      for (const std::string& name : fsm.inputs) raw_h_.push_back(sim.input_handle(name));
    }
    in_width_ = stim.encoded ? symbol_h_.width : stim.num_inputs;
    check(in_width_ <= 64, "run_campaign: stimulus wider than one 64-bit code");
    in_mask_ = in_width_ == 64 ? ~0ULL : (1ULL << in_width_) - 1;
    in_words_.resize(static_cast<std::size_t>(in_width_ * sim.lane_words()));
  }

  /// Drives lane i in [0, n) with the stimulus of CFG edge edge_of(i), or
  /// with zeros where edge_of(i) < 0, and every other lane with zeros.
  template <typename EdgeOf>
  void drive(int n, EdgeOf edge_of) {
    Simulator& sim = classifier.sim;
    const int W = sim.lane_words();
    std::fill(in_words_.begin(), in_words_.end(), 0);
    for (int lane = 0; lane < n; ++lane) {
      const std::int32_t edge = edge_of(lane);
      if (edge < 0) continue;
      const auto wj = static_cast<std::size_t>(lane >> 6);
      const std::uint64_t bit = 1ULL << (lane & 63);
      const auto e = static_cast<std::size_t>(edge);
      std::uint64_t bits = (stim_->encoded ? stim_->edge_code[e] : stim_->edge_bits[e]) & in_mask_;
      for (; bits != 0; bits &= bits - 1) {
        in_words_[static_cast<std::size_t>(std::countr_zero(bits) * W) + wj] |= bit;
      }
    }
    for (int i = 0; i < in_width_; ++i) {
      for (int w = 0; w < W; ++w) {
        const std::uint64_t word = in_words_[static_cast<std::size_t>(i * W + w)];
        if (stim_->encoded) {
          sim.set_input_word(symbol_h_, i, word, w);
        } else {
          sim.set_input_word(raw_h_[static_cast<std::size_t>(i)], 0, word, w);
        }
      }
    }
  }

  LaneClassifier classifier;

 private:
  const StimulusTable* stim_;
  Simulator::WireHandle symbol_h_;
  std::vector<Simulator::WireHandle> raw_h_;
  int in_width_ = 0;
  std::uint64_t in_mask_ = 0;
  std::vector<std::uint64_t> in_words_;  ///< per-lane words, index [i * W + w]
};

/// Which runs a campaign must simulate, and where a simulated run starts.
/// A fault is live when it can change the state register or the alert
/// (VariantNetlist::live): a stuck-at or flip on a net in their fan-in cone,
/// closed over flip-flops, or a skip on the Q of a flip-flop in that cone.
/// Any other fault can never change either, in its cycle or any later one,
/// so a run whose faults are all dead behaves exactly like the fault-free
/// run of its walk. When the fault-free proof below
/// holds (`exact`), that run never deviates and is classified by its last
/// edge alone: `detected` when the executor's final check, the post-edge
/// settle with the last stimulus still driven, raises the alert, `masked`
/// otherwise. The same proof lets a simulated run skip its fault-free
/// prefix: up to its earliest fault cycle c it raises no alert and latches
/// its golden states, so it starts at c with the cone registers at the
/// valuation of golden state c.
struct Observability {
  bool exact = false;  ///< false: every run is simulated from reset
  /// live[site * kinds + kind]: a fault of fault.kinds[kind] on the site is
  /// live.
  std::vector<char> live;
  std::vector<char> final_alert;  ///< per CFG edge
  /// valuation[s * R + r]: the value of cone register r (in
  /// Simulator::register_nets() order, R of them) in reachable FSM state s;
  /// -1 in an unreachable one.
  std::vector<signed char> valuation;

  bool must_simulate(const PlannedFault* faults, std::size_t k, std::size_t kinds) const {
    if (!exact) return true;
    for (std::size_t f = 0; f < k; ++f) {
      const auto site = static_cast<std::size_t>(faults[f].site);
      if (live[site * kinds + static_cast<std::size_t>(faults[f].kind)] != 0) return true;
    }
    return false;
  }
};

/// Builds the campaign's Observability on `h` in one fault-free multi-lane
/// pass (one per sim.num_lanes() reachable edges):
/// lane j drives the BFS path from reset to the source of reachable CFG
/// edge e_j, then e_j, then holds e_j's stimulus for one more settle, whose
/// alert is final_alert[e_j]. The table and the start valuations are exact
/// for every walk only if the cone's registers are a function of the FSM
/// state: the pass checks that every reachable state shows one valuation of
/// them in every lane, that no step raises the alert and that every step
/// latches its golden successor. Each reachable edge is then checked from
/// its source's one valuation, so by induction every walk from reset
/// matches it. Returns an Observability that is not `exact` (prune nothing,
/// start every run at reset) when a check fails.
Observability observe(Harness& h, const Fsm& fsm, const VariantNetlist& net,
                      const std::vector<CfgEdge>& cfg, const WalkTables& walk,
                      const std::vector<FaultSite>& sites, const std::vector<FaultKind>& kinds) {
  const CompiledFsm& variant = *net.variant;
  Simulator& sim = h.classifier.sim;
  const int lanes = sim.num_lanes();

  Observability obs;
  obs.live.reserve(sites.size() * kinds.size());
  for (const FaultSite& s : sites) {
    const std::int32_t site_net = sim.net_index(s.bit);
    for (const FaultKind kind : kinds) obs.live.push_back(net.live(site_net, kind));
  }
  // The simulator is sliced to the cone, so these are the cone's registers.
  const std::vector<std::int32_t> regs = sim.register_nets();

  // BFS from reset: the edge that first reaches each state, and the
  // reachable CFG edges in visiting order.
  const auto num_states = static_cast<std::size_t>(fsm.num_states());
  std::vector<std::int32_t> parent(num_states, -1);
  std::vector<char> seen(num_states, 0);
  std::vector<std::int32_t> queue{fsm.reset_state};
  std::vector<std::int32_t> reachable;
  seen[static_cast<std::size_t>(fsm.reset_state)] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto s = static_cast<std::size_t>(queue[head]);
    for (std::int32_t i = walk.offset[s]; i < walk.offset[s + 1]; ++i) {
      const std::int32_t e = walk.edge[static_cast<std::size_t>(i)];
      reachable.push_back(e);
      const auto to = static_cast<std::size_t>(walk.to[static_cast<std::size_t>(e)]);
      if (seen[to] == 0) {
        seen[to] = 1;
        parent[to] = e;
        queue.push_back(static_cast<std::int32_t>(to));
      }
    }
  }

  std::vector<signed char>& valuation = obs.valuation;
  valuation.assign(num_states * regs.size(), -1);
  obs.final_alert.assign(cfg.size(), 0);
  std::vector<std::vector<std::int32_t>> paths;
  for (std::size_t first = 0; first < reachable.size(); first += static_cast<std::size_t>(lanes)) {
    const int n = static_cast<int>(
        std::min(reachable.size() - first, static_cast<std::size_t>(lanes)));
    paths.assign(static_cast<std::size_t>(n), {});
    std::size_t longest = 0;
    for (int j = 0; j < n; ++j) {
      std::vector<std::int32_t>& path = paths[static_cast<std::size_t>(j)];
      const std::int32_t e = reachable[first + static_cast<std::size_t>(j)];
      path.push_back(e);
      for (std::int32_t p = parent[static_cast<std::size_t>(cfg[static_cast<std::size_t>(e)].from)];
           p >= 0; p = parent[static_cast<std::size_t>(cfg[static_cast<std::size_t>(p)].from)]) {
        path.push_back(p);
      }
      std::reverse(path.begin(), path.end());
      longest = std::max(longest, path.size());
    }
    sim.reset();
    for (std::size_t t = 0; t <= longest; ++t) {
      // The registers of every lane still on its path (t == size: just
      // after its last edge) against their state's valuation.
      for (int j = 0; j < n; ++j) {
        const std::vector<std::int32_t>& path = paths[static_cast<std::size_t>(j)];
        if (t > path.size()) continue;
        const std::size_t s = t == 0 ? static_cast<std::size_t>(fsm.reset_state)
                                     : static_cast<std::size_t>(walk.to[static_cast<std::size_t>(
                                           path[t - 1])]);
        for (std::size_t r = 0; r < regs.size(); ++r) {
          const auto v = static_cast<signed char>((sim.lane_word(regs[r], j >> 6) >> (j & 63)) & 1);
          signed char& known = valuation[s * regs.size() + r];
          if (known < 0) known = v;
          if (known != v) return {};
        }
      }
      h.drive(n, [&](int j) {
        const std::vector<std::int32_t>& path = paths[static_cast<std::size_t>(j)];
        return path[std::min(t, path.size() - 1)];
      });
      sim.eval();
      for (int j = 0; j < n; ++j) {
        const std::vector<std::int32_t>& path = paths[static_cast<std::size_t>(j)];
        const bool alert =
            h.classifier.alert_h.valid() && sim.get_lane(h.classifier.alert_h, j) != 0;
        if (t < path.size() && alert) return {};
        if (t == path.size()) obs.final_alert[static_cast<std::size_t>(path.back())] = alert;
      }
      if (t == longest) break;
      sim.latch();
      for (int j = 0; j < n; ++j) {
        const std::vector<std::int32_t>& path = paths[static_cast<std::size_t>(j)];
        if (t >= path.size()) continue;
        const auto to = static_cast<std::size_t>(walk.to[static_cast<std::size_t>(path[t])]);
        const std::uint64_t state = sim.get_lane(h.classifier.state_h, j);
        if (state != variant.state_codes[to] ||
            (variant.has_error_state && state == variant.error_code)) {
          return {};
        }
      }
    }
  }
  obs.exact = true;
  return obs;
}

/// A participant's executor: its private Harness and a pool of `lanes`
/// lanes, each carrying one run at its own cycle. add() starts a run in a
/// free lane, stepping the pool first when none is free, and flush() steps
/// until every lane is free again. A run starts at its earliest fault cycle
/// c with its lane's registers at the valuation of golden state c (at cycle
/// 0 with the reset values when the Observability proof failed) and retires
/// as soon as its outcome is fixed: on an alert or the error code
/// (detected), or after its own final check. Outcomes are per lane and the
/// counts are plain integer sums, so how runs share lanes, steps and
/// threads cannot change the aggregate result. Lane sets are runtime-width
/// word arrays (W = lane_words_for(lanes)) rather than full kMaxLaneWords
/// LaneMask blocks, so the classic 64-lane configuration pays for exactly
/// one word.
class LanePool {
 public:
  LanePool(Harness harness, const std::vector<FaultSite>& sites, const Observability& obs,
           const WalkTables& walk, std::int32_t reset_state, const CampaignConfig& config)
      : config_(&config),
        obs_(&obs),
        to_(walk.to.data()),
        reset_state_(reset_state),
        h_(std::move(harness)),
        rows_(config, static_cast<std::size_t>(config.lanes)),
        cursor_(static_cast<std::size_t>(config.lanes), 0) {
    Simulator& sim = h_.classifier.sim;
    site_net_.reserve(sites.size());
    for (const FaultSite& s : sites) site_net_.push_back(sim.net_index(s.bit));
    sim.reset();
    for (const std::int32_t net : sim.register_nets()) {
      regs_.push_back(Simulator::WireHandle{net, 1});
      reset_values_.push_back(static_cast<signed char>(sim.lane_word(net) & 1));
    }
    start_bits_.resize(regs_.size() * static_cast<std::size_t>(sim.lane_words()));
    for (int lane = config.lanes - 1; lane >= 0; --lane) free_.push_back(lane);
  }

  /// Starts run `run` of `plans` in a free lane, stepping until one is.
  void add(const RunPlans& plans, std::size_t run) {
    while (free_.empty()) step();
    const int lane = free_.back();
    free_.pop_back();
    rows_.copy_run(plans, run, static_cast<std::size_t>(lane));
    start(lane);
    ++counts.simulated;
  }

  /// Steps until every started run has retired.
  void flush() {
    while (free_.size() < static_cast<std::size_t>(config_->lanes)) step();
  }

  CampaignResult counts;

 private:
  void start(int lane);
  void step();
  void retire(int lane);

  /// The golden state of row `row` at cycle t.
  std::int32_t golden(std::size_t row, std::int32_t t) const {
    return t == 0 ? reset_state_ : to_[rows_.walk(row)[t - 1]];
  }

  const CampaignConfig* config_;
  const Observability* obs_;
  const std::int32_t* to_;  ///< WalkTables::to
  std::int32_t reset_state_;
  Harness h_;
  RunPlans rows_;  ///< row `lane`: the run that lane carries
  std::vector<std::int32_t> site_net_;
  std::vector<Simulator::WireHandle> regs_;  ///< the cone registers, one bit each
  std::vector<signed char> reset_values_;    ///< per register
  std::vector<int> free_;                    ///< lanes carrying no run
  /// Per lane: the cycle its next step simulates; `cycles` = its final check.
  std::vector<std::int32_t> cursor_;
  LaneWords busy_{};     // lane carries a run
  LaneWords final_{};    // the lane's next step is its final check
  LaneWords started_{};  // started since the last step: registers still to set
  /// start_bits_[r * W + w]: register r's start value in the started lanes.
  std::vector<std::uint64_t> start_bits_;
  LaneWords deviated_{};  // reached a valid state != golden
  LaneWords invalid_{};   // reached a non-codeword
  LaneWords not_lag_{};   // deviation beyond a missed transition
};

void LanePool::start(int lane) {
  const auto row = static_cast<std::size_t>(lane);
  const PlannedFault* faults = rows_.faults_of(row);
  std::int32_t cycle = 0;
  const signed char* values = reset_values_.data();
  if (obs_->exact && config_->fault.k > 0) {
    cycle = std::min_element(faults, faults + config_->fault.k,
                             [](const PlannedFault& a, const PlannedFault& b) {
                               return a.cycle < b.cycle;
                             })->cycle;
    values = obs_->valuation.data() + static_cast<std::size_t>(golden(row, cycle)) * regs_.size();
  }
  cursor_[row] = cycle;
  const auto wj = static_cast<std::size_t>(lane >> 6);
  const std::uint64_t bit = 1ULL << (lane & 63);
  busy_[wj] |= bit;
  started_[wj] |= bit;
  deviated_[wj] &= ~bit;
  invalid_[wj] &= ~bit;
  not_lag_[wj] &= ~bit;
  const auto W = static_cast<std::size_t>(h_.classifier.sim.lane_words());
  for (std::size_t r = 0; r < regs_.size(); ++r) {
    if (values[r] == 1) start_bits_[r * W + wj] |= bit;
  }
}

void LanePool::retire(int lane) {
  // Transient flips and skips end with the latch of their cycle; a stuck
  // fault stays until it is cleared here, before the lane's next run.
  const PlannedFault* faults = rows_.faults_of(static_cast<std::size_t>(lane));
  for (int f = 0; f < config_->fault.k; ++f) {
    const FaultKind kind = config_->fault.kinds[static_cast<std::size_t>(faults[f].kind)];
    if (kind == FaultKind::kStuckAt0 || kind == FaultKind::kStuckAt1) {
      h_.classifier.sim.inject_net(site_net_[static_cast<std::size_t>(faults[f].site)],
                                   FaultKind::kNone, LaneMask::lane(lane));
    }
  }
  free_.push_back(lane);
}

void LanePool::step() {
  const CampaignConfig& config = *config_;
  LaneClassifier& classifier = h_.classifier;
  Simulator& sim = classifier.sim;
  const int W = sim.lane_words();
  const int k = config.fault.k;
  const std::int32_t cycles = config.cycles;
  const auto for_each_lane = [](std::uint64_t bits, int w, auto fn) {
    for (; bits != 0; bits &= bits - 1) fn(w * 64 + std::countr_zero(bits));
  };
  for (int w = 0; w < W; ++w) {
    const auto j = static_cast<std::size_t>(w);
    if (started_[j] == 0) continue;
    for (std::size_t r = 0; r < regs_.size(); ++r) {
      std::uint64_t& bits = start_bits_[r * static_cast<std::size_t>(W) + j];
      sim.set_register_lanes(regs_[r], 0, started_[j], bits, w);
      bits = 0;
    }
    started_[j] = 0;
  }
  // Every lane drives its own edge (a final check its last one again) and
  // gets the faults due at its cursor; free lanes drive zeros.
  h_.drive(config.lanes, [&](int lane) -> std::int32_t {
    const auto row = static_cast<std::size_t>(lane);
    if (!((busy_[row >> 6] >> (lane & 63)) & 1)) return -1;
    return rows_.walk(row)[std::min(cursor_[row], cycles - 1)];
  });
  for (int w = 0; w < W; ++w) {
    const auto j = static_cast<std::size_t>(w);
    for_each_lane(busy_[j] & ~final_[j], w, [&](int lane) {
      const auto row = static_cast<std::size_t>(lane);
      const PlannedFault* faults = rows_.faults_of(row);
      for (int f = 0; f < k; ++f) {
        if (faults[f].cycle != cursor_[row]) continue;
        sim.inject_net(site_net_[static_cast<std::size_t>(faults[f].site)],
                       config.fault.kinds[static_cast<std::size_t>(faults[f].kind)],
                       LaneMask::lane(lane));
      }
    });
  }
  // One settle per step: the alert is read before the latch, and
  // classification reads only the latched state register, so the post-edge
  // settle is left to the lane's next step (or its final check).
  sim.eval();
  ++counts.evals;
  LaneWords detected{};
  if (classifier.alert_h.valid()) {
    for (int w = 0; w < W; ++w) {
      const auto j = static_cast<std::size_t>(w);
      detected[j] = classifier.alert_word(w) & busy_[j];
    }
  }
  sim.latch();
  // Word-parallel classification of the lanes that simulated a cycle: a
  // lane latched to the error code is detected, the rest are compared
  // against their golden states.
  LaneWords live{};
  for (int w = 0; w < W; ++w) {
    const auto j = static_cast<std::size_t>(w);
    live[j] = busy_[j] & ~final_[j] & ~detected[j];
  }
  classifier.match(live);
  const LaneWords& valid = classifier.valid();
  for (int w = 0; w < W; ++w) {
    const auto j = static_cast<std::size_t>(w);
    detected[j] |= classifier.error()[j];
    live[j] &= ~classifier.error()[j];
    std::uint64_t match_expect = 0;
    std::uint64_t match_prev = 0;
    for_each_lane(live[j], w, [&](int lane) {
      const auto row = static_cast<std::size_t>(lane);
      const std::uint64_t bit = 1ULL << (lane & 63);
      const std::int32_t t = cursor_[row];
      const auto expect = static_cast<std::size_t>(to_[rows_.walk(row)[t]]);
      match_expect |= classifier.state_eq(expect, j) & bit;
      match_prev |= classifier.state_eq(static_cast<std::size_t>(golden(row, t)), j) & bit;
    });
    invalid_[j] |= live[j] & ~valid[j];
    not_lag_[j] |= live[j] & ~valid[j];
    const std::uint64_t dev = live[j] & valid[j] & ~match_expect;
    deviated_[j] |= dev;
    not_lag_[j] |= dev & ~match_prev;
    // Retire the detected lanes and the final checks; the rest advance.
    counts.detected += std::popcount(detected[j]);
    const std::uint64_t checked = final_[j] & ~detected[j];
    counts.silent_invalid += std::popcount(checked & invalid_[j]);
    const std::uint64_t checked_dev = checked & ~invalid_[j] & deviated_[j];
    counts.hijacked += std::popcount(checked_dev & not_lag_[j]);
    counts.lagged += std::popcount(checked_dev & ~not_lag_[j]);
    counts.masked += std::popcount(checked & ~invalid_[j] & ~deviated_[j]);
    const std::uint64_t retired = detected[j] | final_[j];
    for_each_lane(retired, w, [&](int lane) { retire(lane); });
    busy_[j] &= ~retired;
    final_[j] &= ~retired;
    for_each_lane(live[j], w, [&](int lane) {
      if (++cursor_[static_cast<std::size_t>(lane)] == cycles) final_[j] |= 1ULL << (lane & 63);
    });
  }
}

/// Shares the campaign's units (`lanes` consecutive runs each) between the
/// run's participants and merges their counts. Each participant plans every
/// unit it claims into a buffer of `lanes` rows, so it holds O(lanes) plan
/// memory however large the campaign, counts the runs Observability lets it
/// skip, and starts the rest on its own LanePool, so live runs from several
/// units share its steps. The owner simulates on `owner_harness`,
/// which observe() already built; helpers build their own.
void execute_all(const Fsm& fsm, const VariantNetlist& net, const std::vector<FaultSite>& sites,
                 const CampaignConfig& config, const StimulusTable& stim, const WalkTables& walk,
                 Harness& owner_harness, const Observability& obs, CampaignResult& result) {
  const std::int64_t num_units =
      (static_cast<std::int64_t>(config.runs) + config.lanes - 1) / config.lanes;
  const auto k = static_cast<std::size_t>(config.fault.k);
  const std::size_t kinds = config.fault.kinds.size();
  const std::size_t last = static_cast<std::size_t>(config.cycles) - 1;
  std::mutex merge_mutex;
  WorkShare::run(static_cast<std::uint64_t>(num_units), 1, config.threads,
                 [&](WorkShare::Claim& claim) {
                   RunPlanner planner(walk, fsm.reset_state, sites.size(), config);
                   RunPlans plans(config, static_cast<std::size_t>(config.lanes));
                   LanePool executor(
                       claim.owner() ? std::move(owner_harness)
                                     : Harness(fsm, net, stim, lane_words_for(config.lanes)),
                       sites, obs, walk, fsm.reset_state, config);
                   CampaignResult& p = executor.counts;
                   for (UnitRange unit = claim.next(1); !unit.empty(); unit = claim.next(1)) {
                     // Cooperative cancellation at unit granularity: a fired
                     // token (sweep job deadline) stops the participant here.
                     if (config.cancel != nullptr) config.cancel->check("run_campaign");
                     const std::int64_t base = static_cast<std::int64_t>(unit.begin) * config.lanes;
                     const int n = static_cast<int>(
                         std::min<std::int64_t>(config.lanes, config.runs - base));
                     planner.plan_runs(base, n, plans);
                     for (std::size_t r = 0; r < static_cast<std::size_t>(n); ++r) {
                       if (obs.must_simulate(plans.faults_of(r), k, kinds)) {
                         executor.add(plans, r);
                       } else if (obs.final_alert[static_cast<std::size_t>(
                                      plans.walk(r)[last])] != 0) {
                         ++p.detected;
                       } else {
                         ++p.masked;
                       }
                     }
                   }
                   executor.flush();
                   const std::lock_guard<std::mutex> lock(merge_mutex);
                   result.masked += p.masked;
                   result.detected += p.detected;
                   result.hijacked += p.hijacked;
                   result.lagged += p.lagged;
                   result.silent_invalid += p.silent_invalid;
                   result.simulated += p.simulated;
                   result.evals += p.evals;
                 });
}

}  // namespace

CampaignResult run_campaign(const Fsm& fsm, const CompiledFsm& variant,
                            const CampaignConfig& config) {
  return run_campaign(fsm, VariantNetlist(variant), config);
}

CampaignResult run_campaign(const Fsm& fsm, const VariantNetlist& net,
                            const CampaignConfig& user_config) {
  const CompiledFsm& variant = *net.variant;
  require(user_config.lanes >= 1 && user_config.lanes <= kMaxLanes,
          format("run_campaign: lanes must be in [1, %d] (64 x lane_words)", kMaxLanes));
  require(user_config.runs >= 0, "run_campaign: runs must be >= 0");
  require(user_config.cycles >= 1, "run_campaign: cycles must be >= 1");
  require(user_config.fault.k >= 0, "run_campaign: fault.k must be >= 0");
  require(!user_config.fault.kinds.empty(), "run_campaign: fault.kinds must not be empty");
  require(user_config.threads >= 1, "run_campaign: threads must be >= 1");
  // SCFI_LANE_WORDS_CAP clamps the *derived* simulator width (the CI
  // portable leg forces 1-word blocks this way). lanes is an execution
  // knob, so shrinking it cannot change the aggregate result.
  CampaignConfig config = user_config;
  config.lanes = std::min(config.lanes, kWordLanes * lane_words_cap());
  const std::vector<FaultSite> all_sites =
      enumerate_fault_sites(*variant.module, variant.state_wire);
  const std::vector<FaultSite> sites = filter_sites(all_sites, config.fault.target);
  require(!sites.empty(), "run_campaign: no fault sites for the requested target class");

  const std::vector<CfgEdge> cfg = fsm.cfg_edges();
  const StimulusTable stim = build_stimulus(fsm, variant, cfg);
  const WalkTables walk(fsm, cfg);
  Harness harness(fsm, net, stim, lane_words_for(config.lanes));
  const Observability obs = observe(harness, fsm, net, cfg, walk, sites, config.fault.kinds);

  CampaignResult result;
  result.runs = config.runs;
  execute_all(fsm, net, sites, config, stim, walk, harness, obs, result);
  return result;
}

}  // namespace scfi::sim
