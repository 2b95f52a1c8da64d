#include "sim/campaign.h"

#include <algorithm>
#include <array>
#include <bit>
#include <mutex>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "base/error.h"
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

/// The CFG as flat walk tables: state s leaves by edge[offset[s] ..
/// offset[s + 1]) (CFG edge indices in CFG order), and CFG edge e enters
/// state to[e].
struct WalkTables {
  std::vector<std::int32_t> offset;
  std::vector<std::int32_t> edge;
  std::vector<std::int32_t> to;

  WalkTables(const Fsm& fsm, const std::vector<CfgEdge>& cfg)
      : offset(static_cast<std::size_t>(fsm.num_states()) + 1, 0) {
    for (const CfgEdge& e : cfg) ++offset[static_cast<std::size_t>(e.from) + 1];
    std::partial_sum(offset.begin(), offset.end(), offset.begin());
    edge.resize(cfg.size());
    std::vector<std::int32_t> fill(offset.begin(), offset.end() - 1);
    for (std::size_t e = 0; e < cfg.size(); ++e) {
      edge[static_cast<std::size_t>(fill[static_cast<std::size_t>(cfg[e].from)]++)] =
          static_cast<std::int32_t>(e);
      to.push_back(cfg[e].to);
    }
  }
};

/// Plans of consecutive runs, run-major: run r walks CFG edges walk(r)[0 ..
/// cycles), visits golden states golden(r)[0 .. cycles] and schedules faults
/// faults(r)[0 .. k). A planned unit and an executor batch are both one of
/// these.
struct RunPlans {
  std::size_t cycles = 0;
  std::size_t k = 0;
  std::vector<std::int32_t> edges;
  std::vector<std::int32_t> golden;
  std::vector<PlannedFault> faults;

  RunPlans(const CampaignConfig& config, std::size_t runs)
      : cycles(static_cast<std::size_t>(config.cycles)),
        k(static_cast<std::size_t>(config.fault.k)),
        edges(runs * cycles),
        golden(runs * (cycles + 1)),
        faults(runs * k) {}

  std::int32_t* walk(std::size_t run) { return edges.data() + run * cycles; }
  const std::int32_t* walk(std::size_t run) const { return edges.data() + run * cycles; }
  std::int32_t* golden_of(std::size_t run) { return golden.data() + run * (cycles + 1); }
  const std::int32_t* golden_of(std::size_t run) const {
    return golden.data() + run * (cycles + 1);
  }
  PlannedFault* faults_of(std::size_t run) { return faults.data() + run * k; }
  const PlannedFault* faults_of(std::size_t run) const { return faults.data() + run * k; }

  /// Copies run `from_run` of `from` into row `to_run`.
  void copy_run(const RunPlans& from, std::size_t from_run, std::size_t to_run) {
    std::copy_n(from.walk(from_run), cycles, walk(to_run));
    std::copy_n(from.golden_of(from_run), cycles + 1, golden_of(to_run));
    std::copy_n(from.faults_of(from_run), k, faults_of(to_run));
  }
};

/// Draws run plans. Run r's walk and then its `fault.k` faults come from its
/// own stream Rng(seed, r), so a plan is a pure function of (seed, r)
/// however runs are grouped.
class RunPlanner {
 public:
  RunPlanner(const WalkTables& walk, int reset_state, std::size_t num_sites,
             const CampaignConfig& config)
      : walk_(&walk), reset_state_(reset_state), config_(&config), pool_(num_sites) {
    std::iota(pool_.begin(), pool_.end(), 0);
  }

  /// Plans runs [base, base + n) into rows [0, n) of `out`. The n
  /// walks advance side by side, one cycle of every walk before the next
  /// cycle, so their dependent draw -> edge -> state chains overlap instead
  /// of running back to back. Distinct fault sites come from a partial
  /// Fisher-Yates over the site pool, undone after every run so each run
  /// starts from the identical permutation.
  void plan_runs(std::int64_t base, int n, RunPlans& out) {
    const auto count = static_cast<std::size_t>(n);
    rngs_.clear();
    for (std::size_t i = 0; i < count; ++i) {
      rngs_.emplace_back(config_->seed, static_cast<std::uint64_t>(base) + i);
    }
    state_.assign(count, reset_state_);
    for (std::size_t i = 0; i < count; ++i) out.golden_of(i)[0] = reset_state_;
    const std::int32_t* offset = walk_->offset.data();
    const std::int32_t* edge = walk_->edge.data();
    const std::int32_t* to = walk_->to.data();
    for (std::size_t t = 0; t < out.cycles; ++t) {
      for (std::size_t i = 0; i < count; ++i) {
        const auto s = static_cast<std::size_t>(state_[i]);
        const auto options = static_cast<std::uint64_t>(offset[s + 1] - offset[s]);
        const std::int32_t e =
            edge[static_cast<std::size_t>(offset[s]) + rngs_[i].below(options)];
        state_[i] = to[static_cast<std::size_t>(e)];
        out.walk(i)[t] = e;
        out.golden_of(i)[t + 1] = state_[i];
      }
    }
    const auto sites = static_cast<std::int64_t>(pool_.size());
    const std::size_t num_kinds = config_->fault.kinds.size();
    for (std::size_t i = 0; i < count; ++i) {
      Rng& rng = rngs_[i];
      PlannedFault* faults = out.faults_of(i);
      for (std::int64_t f = 0; f < config_->fault.k; ++f) {
        // Only a request beyond the population can repeat a site.
        std::int32_t site = 0;
        if (f < sites) {
          const std::int64_t j =
              f + static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(sites - f)));
          std::swap(pool_[static_cast<std::size_t>(f)], pool_[static_cast<std::size_t>(j)]);
          undo_.emplace_back(f, j);
          site = pool_[static_cast<std::size_t>(f)];
        } else {
          site = static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(sites)));
        }
        const auto cycle =
            static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(config_->cycles)));
        // The kind draw is appended to the stream only for multi-kind specs,
        // so a single-kind spec's (seed, run) -> plan mapping is unchanged.
        const std::int32_t kind =
            num_kinds > 1 ? static_cast<std::int32_t>(rng.below(num_kinds)) : 0;
        faults[f] = PlannedFault{site, cycle, kind};
      }
      for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
        std::swap(pool_[static_cast<std::size_t>(it->first)],
                  pool_[static_cast<std::size_t>(it->second)]);
      }
      undo_.clear();
    }
  }

 private:
  const WalkTables* walk_;
  std::int32_t reset_state_;
  const CampaignConfig* config_;
  std::vector<std::int32_t> pool_;
  std::vector<std::pair<std::int64_t, std::int64_t>> undo_;
  std::vector<Rng> rngs_;
  std::vector<std::int32_t> state_;
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

/// A private Simulator of the variant with the campaign's wires resolved,
/// and the per-lane stimulus driver.
class Harness {
 public:
  Harness(const Fsm& fsm, const CompiledFsm& variant, const StimulusTable& stim, int lane_words)
      : sim(*variant.module, lane_words), stim_(&stim) {
    state_h = sim.probe(variant.state_wire);
    if (!variant.alert_wire.empty()) alert_h = sim.probe(variant.alert_wire);
    if (stim.encoded) {
      symbol_h_ = sim.input_handle(variant.symbol_input_wire);
    } else {
      for (const std::string& name : fsm.inputs) raw_h_.push_back(sim.input_handle(name));
    }
    in_width_ = stim.encoded ? symbol_h_.width : stim.num_inputs;
    check(in_width_ <= 64, "run_campaign: stimulus wider than one 64-bit code");
    check(state_h.width <= 64, "run_campaign: state wire too wide");
    in_mask_ = in_width_ == 64 ? ~0ULL : (1ULL << in_width_) - 1;
    in_words_.resize(static_cast<std::size_t>(in_width_ * sim.lane_words()));
  }

  /// Drives lane i in [0, n) with the stimulus of CFG edge edge_of(i), and
  /// every other lane with zeros.
  template <typename EdgeOf>
  void drive(int n, EdgeOf edge_of) {
    const int W = sim.lane_words();
    std::fill(in_words_.begin(), in_words_.end(), 0);
    for (int lane = 0; lane < n; ++lane) {
      const auto wj = static_cast<std::size_t>(lane >> 6);
      const std::uint64_t bit = 1ULL << (lane & 63);
      const auto e = static_cast<std::size_t>(edge_of(lane));
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

  /// Lane word `w` of the alert (any alert bit set); 0 without an alert.
  std::uint64_t alert_word(int w) const {
    std::uint64_t alert = 0;
    for (std::int32_t i = 0; i < alert_h.width; ++i) alert |= sim.lane_word(alert_h.base + i, w);
    return alert;
  }

  Simulator sim;
  Simulator::WireHandle state_h;
  Simulator::WireHandle alert_h;

 private:
  const StimulusTable* stim_;
  Simulator::WireHandle symbol_h_;
  std::vector<Simulator::WireHandle> raw_h_;
  int in_width_ = 0;
  std::uint64_t in_mask_ = 0;
  std::vector<std::uint64_t> in_words_;  ///< per-lane words, index [i * W + w]
};

/// Which runs a campaign must simulate. A site is live when its net lies in
/// the fan-in cone of the state register and the alert, closed over
/// flip-flops (Simulator::fanin_cone): a fault anywhere else can never
/// change either, in its cycle or any later one. A run whose faults all sit
/// on dead sites, none of them a skip (which acts at a flip-flop, not
/// through the cone), therefore behaves exactly like the fault-free run of
/// its walk. That run never deviates and, when the fault-free table below
/// is exact, is classified by its last edge alone: `detected` when the
/// executor's final check, the post-edge settle with the last stimulus
/// still driven, raises the alert, `masked` otherwise.
struct Observability {
  std::vector<char> live_site;    ///< per site; empty = every run is simulated
  std::vector<char> final_alert;  ///< per CFG edge

  bool must_simulate(const PlannedFault* faults, std::size_t k,
                     const std::vector<FaultKind>& kinds) const {
    if (live_site.empty()) return true;
    for (std::size_t f = 0; f < k; ++f) {
      if (live_site[static_cast<std::size_t>(faults[f].site)] != 0 ||
          kinds[static_cast<std::size_t>(faults[f].kind)] == FaultKind::kSkipCycle) {
        return true;
      }
    }
    return false;
  }
};

/// Builds the campaign's Observability on `h` in one fault-free multi-lane
/// pass (one per sim.num_lanes() reachable edges):
/// lane j drives the BFS path from reset to the source of reachable CFG
/// edge e_j, then e_j, then holds e_j's stimulus for one more settle, whose
/// alert is final_alert[e_j]. The table is exact for every walk only if the
/// cone's registers are a function of the FSM state: the pass checks that
/// every reachable state shows one valuation of them in every lane, that
/// no step raises the alert and that every step latches its golden
/// successor. Each reachable edge is then checked from its source's one
/// valuation, so by induction every walk from reset matches it. Returns an
/// empty Observability (prune nothing) when a check fails or nothing is
/// prunable.
Observability observe(Harness& h, const Fsm& fsm, const CompiledFsm& variant,
                      const std::vector<CfgEdge>& cfg, const WalkTables& walk,
                      const std::vector<FaultSite>& sites, const CampaignConfig& config) {
  const bool prunable_kind =
      std::any_of(config.fault.kinds.begin(), config.fault.kinds.end(),
                  [](FaultKind kind) { return kind != FaultKind::kSkipCycle; });
  if (config.cycles < 1 || !prunable_kind) return {};
  Simulator& sim = h.sim;
  const int lanes = sim.num_lanes();

  std::vector<std::int32_t> roots;
  for (std::int32_t i = 0; i < h.state_h.width; ++i) roots.push_back(h.state_h.base + i);
  for (std::int32_t i = 0; i < h.alert_h.width; ++i) roots.push_back(h.alert_h.base + i);
  const std::vector<char> cone = sim.fanin_cone(roots);
  Observability obs;
  obs.live_site.reserve(sites.size());
  for (const FaultSite& s : sites) {
    obs.live_site.push_back(cone[static_cast<std::size_t>(sim.net_index(s.bit))]);
  }
  if (std::all_of(obs.live_site.begin(), obs.live_site.end(), [](char c) { return c != 0; })) {
    return {};
  }
  std::vector<std::int32_t> regs;
  for (const std::int32_t q : sim.register_nets()) {
    if (cone[static_cast<std::size_t>(q)] != 0) regs.push_back(q);
  }

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

  // valuation[s * regs + r]: register r's value in state s; -1 = not seen.
  std::vector<signed char> valuation(num_states * regs.size(), -1);
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
        const bool alert = h.alert_h.valid() && sim.get_lane(h.alert_h, j) != 0;
        if (t < path.size() && alert) return {};
        if (t == path.size()) obs.final_alert[static_cast<std::size_t>(path.back())] = alert;
      }
      if (t == longest) break;
      sim.latch();
      for (int j = 0; j < n; ++j) {
        const std::vector<std::int32_t>& path = paths[static_cast<std::size_t>(j)];
        if (t >= path.size()) continue;
        const auto to = static_cast<std::size_t>(walk.to[static_cast<std::size_t>(path[t])]);
        const std::uint64_t state = sim.get_lane(h.state_h, j);
        if (state != variant.state_codes[to] ||
            (variant.has_error_state && state == variant.error_code)) {
          return {};
        }
      }
    }
  }
  return obs;
}

/// A participant's executor: its private Harness and a batch of up to
/// `lanes` runs that it fills run by run and simulates whenever the batch
/// is full (and once more, by flush(), for the rest). Outcomes are per-lane
/// and the counts are plain integer sums, so how runs are packed into
/// batches and shared between threads cannot change the aggregate result.
/// Lane sets are runtime-width word arrays (W = lane_words_for(lanes))
/// rather than full kMaxLaneWords LaneMask blocks, so the classic 64-lane
/// configuration pays for exactly one word.
class BatchExecutor {
 public:
  BatchExecutor(Harness harness, const CompiledFsm& variant, const std::vector<FaultSite>& sites,
                const CampaignConfig& config)
      : variant_(&variant),
        config_(&config),
        h_(std::move(harness)),
        batch_(config, static_cast<std::size_t>(config.lanes)),
        scheduled_(static_cast<std::size_t>(config.lanes) *
                   static_cast<std::size_t>(config.fault.k)),
        cycle_begin_(static_cast<std::size_t>(config.cycles) + 1),
        cycle_fill_(static_cast<std::size_t>(config.cycles)) {
    site_net_.reserve(sites.size());
    for (const FaultSite& s : sites) site_net_.push_back(h_.sim.net_index(s.bit));
    const auto W = static_cast<std::size_t>(h_.sim.lane_words());
    state_words_.resize(static_cast<std::size_t>(h_.state_h.width) * W);
    state_eq_.resize(variant.state_codes.size() * W);
  }

  /// Queues run `run` of `plans`, simulating the batch once it is full.
  void add(const RunPlans& plans, std::size_t run) {
    batch_.copy_run(plans, run, static_cast<std::size_t>(filled_));
    if (++filled_ == config_->lanes) flush();
  }

  /// Simulates the queued runs, if any.
  void flush() {
    if (filled_ == 0) return;
    simulate();
    counts.simulated += filled_;
    filled_ = 0;
  }

  CampaignResult counts;

 private:
  using Lanes = std::array<std::uint64_t, kMaxLaneWords>;  // words [0, W) used

  void simulate();

  const CompiledFsm* variant_;
  const CampaignConfig* config_;
  Harness h_;
  RunPlans batch_;
  int filled_ = 0;
  std::vector<std::int32_t> site_net_;
  /// The batch's faults bucketed by cycle: cycle t injects
  /// scheduled_[cycle_begin_[t] .. cycle_begin_[t + 1]).
  struct ScheduledFault {
    std::int32_t net;
    FaultKind kind;
    int lane;
  };
  std::vector<ScheduledFault> scheduled_;
  std::vector<int> cycle_begin_;
  std::vector<int> cycle_fill_;
  std::vector<std::uint64_t> state_words_;  ///< state bit i, word w: [i * W + w]
  std::vector<std::uint64_t> state_eq_;     ///< state s, word w: [s * W + w]
};

void BatchExecutor::simulate() {
  const CompiledFsm& variant = *variant_;
  const CampaignConfig& config = *config_;
  Simulator& sim = h_.sim;
  const int W = sim.lane_words();
  const int k = config.fault.k;
  const int batch_runs = filled_;
  const LaneMask batch_mask = LaneMask::first_n(batch_runs);
  // Stable counting sort of the batch's faults by cycle, in the (lane, f)
  // order the cycle loop injects them, so a cycle touches only its own.
  std::fill(cycle_begin_.begin(), cycle_begin_.end(), 0);
  for (int lane = 0; lane < batch_runs; ++lane) {
    const PlannedFault* faults = batch_.faults_of(static_cast<std::size_t>(lane));
    for (int f = 0; f < k; ++f) ++cycle_begin_[static_cast<std::size_t>(faults[f].cycle) + 1];
  }
  std::partial_sum(cycle_begin_.begin(), cycle_begin_.end(), cycle_begin_.begin());
  std::copy_n(cycle_begin_.begin(), cycle_fill_.size(), cycle_fill_.begin());
  for (int lane = 0; lane < batch_runs; ++lane) {
    const PlannedFault* faults = batch_.faults_of(static_cast<std::size_t>(lane));
    for (int f = 0; f < k; ++f) {
      const PlannedFault& p = faults[f];
      scheduled_[static_cast<std::size_t>(cycle_fill_[static_cast<std::size_t>(p.cycle)]++)] =
          ScheduledFault{site_net_[static_cast<std::size_t>(p.site)],
                         config.fault.kinds[static_cast<std::size_t>(p.kind)], lane};
    }
  }

  sim.reset();
  Lanes done{};      // lane terminated (detected)
  Lanes detected{};  // subset of done
  // Folds the alert wire into detected/done for lanes still running.
  const auto absorb_alerts = [&] {
    if (!h_.alert_h.valid()) return;
    for (int w = 0; w < W; ++w) {
      const auto j = static_cast<std::size_t>(w);
      const std::uint64_t newly = h_.alert_word(w) & batch_mask.w[j] & ~done[j];
      detected[j] |= newly;
      done[j] |= newly;
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
  const int state_w = h_.state_h.width;
  const std::size_t num_states = variant.state_codes.size();
  const auto cycles = static_cast<std::size_t>(config.cycles);
  Lanes deviated{};  // reached a valid state != golden
  Lanes invalid{};   // reached a non-codeword
  Lanes not_lag{};   // deviation beyond a missed transition
  for (std::size_t t = 0; t < cycles && !all_done(); ++t) {
    h_.drive(batch_runs, [&](int lane) { return batch_.walk(static_cast<std::size_t>(lane))[t]; });
    // Inject this cycle's faults, lane by lane.
    for (int i = cycle_begin_[t]; i < cycle_begin_[t + 1]; ++i) {
      const ScheduledFault& sf = scheduled_[static_cast<std::size_t>(i)];
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
        state_words_[static_cast<std::size_t>(i * W + w)] = sim.lane_word(h_.state_h.base + i, w);
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
          const std::uint64_t sw = state_words_[static_cast<std::size_t>(i * W + w)];
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
          const std::uint64_t sw = state_words_[static_cast<std::size_t>(i * W + w)];
          eq &= ((code >> i) & 1) ? sw : ~sw;
        }
        state_eq_[s * static_cast<std::size_t>(W) + static_cast<std::size_t>(w)] = eq;
        valid[static_cast<std::size_t>(w)] |= eq;
      }
    }
    Lanes match_expect{};
    Lanes match_prev{};
    for (int lane = 0; lane < batch_runs; ++lane) {
      const auto wj = static_cast<std::size_t>(lane >> 6);
      const std::uint64_t bit = 1ULL << (lane & 63);
      if (!(live[wj] & bit)) continue;
      const std::int32_t* golden = batch_.golden_of(static_cast<std::size_t>(lane));
      match_expect[wj] |=
          state_eq_[static_cast<std::size_t>(golden[t + 1]) * static_cast<std::size_t>(W) + wj] &
          bit;
      match_prev[wj] |=
          state_eq_[static_cast<std::size_t>(golden[t]) * static_cast<std::size_t>(W) + wj] & bit;
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
    counts.detected += std::popcount(detected[j]);
    const std::uint64_t live = batch_mask.w[j] & ~done[j];
    counts.silent_invalid += std::popcount(live & invalid[j]);
    const std::uint64_t dev = live & ~invalid[j] & deviated[j];
    counts.hijacked += std::popcount(dev & not_lag[j]);
    counts.lagged += std::popcount(dev & ~not_lag[j]);
    counts.masked += std::popcount(live & ~invalid[j] & ~deviated[j]);
  }
}

/// Shares the campaign's units (`lanes` consecutive runs each) between the
/// run's participants and merges their counts. Each participant plans every
/// unit it claims into a buffer of `lanes` rows, so it holds O(lanes) plan
/// memory however large the campaign, counts the runs Observability lets it
/// skip, and queues the rest on its own BatchExecutor, so live runs from
/// several units share a batch. The owner simulates on `owner_harness`,
/// which observe() already built; helpers build their own.
void execute_all(const Fsm& fsm, const CompiledFsm& variant, const std::vector<FaultSite>& sites,
                 const CampaignConfig& config, const StimulusTable& stim, const WalkTables& walk,
                 Harness& owner_harness, const Observability& obs, CampaignResult& result) {
  const std::int64_t num_units =
      (static_cast<std::int64_t>(config.runs) + config.lanes - 1) / config.lanes;
  const auto k = static_cast<std::size_t>(config.fault.k);
  const std::size_t last = static_cast<std::size_t>(config.cycles) - 1;
  std::mutex merge_mutex;
  WorkShare::run(static_cast<std::uint64_t>(num_units), 1, config.threads,
                 [&](WorkShare::Claim& claim) {
                   RunPlanner planner(walk, fsm.reset_state, sites.size(), config);
                   RunPlans plans(config, static_cast<std::size_t>(config.lanes));
                   BatchExecutor executor(
                       claim.owner() ? std::move(owner_harness)
                                     : Harness(fsm, variant, stim, lane_words_for(config.lanes)),
                       variant, sites, config);
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
                       if (obs.must_simulate(plans.faults_of(r), k, config.fault.kinds)) {
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
                 });
}

}  // namespace

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
  const std::vector<FaultSite> all_sites =
      enumerate_fault_sites(*variant.module, variant.state_wire);
  const std::vector<FaultSite> sites = filter_sites(all_sites, config.fault.target);
  require(!sites.empty(), "run_campaign: no fault sites for the requested target class");

  const std::vector<CfgEdge> cfg = fsm.cfg_edges();
  const StimulusTable stim = build_stimulus(fsm, variant, cfg);
  const WalkTables walk(fsm, cfg);
  Harness harness(fsm, variant, stim, lane_words_for(config.lanes));
  const Observability obs = observe(harness, fsm, variant, cfg, walk, sites, config);

  CampaignResult result;
  result.runs = config.runs;
  execute_all(fsm, variant, sites, config, stim, walk, harness, obs, result);
  return result;
}

}  // namespace scfi::sim
