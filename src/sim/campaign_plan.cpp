#include "sim/campaign_plan.h"

#include <algorithm>
#include <numeric>

#include "base/error.h"
#include "base/simd_clones.h"

namespace scfi::sim {
namespace {

constexpr std::size_t G = RunPlanner::kGroup;
constexpr std::size_t S = RngGroup::kStreams;
static_assert(G == 2 * S, "a group is two RngGroups");
using Word = RngGroup::Word;

/// Steps the walks of G runs side by side: `cycles` draws of every stream
/// of `groups` (run i is stream i % S of groups[i / S]), each walk from the
/// Row `reset`; run i's walk goes to walks[i * cycles .. (i + 1) * cycles).
/// Returns bit i set when run i drew a raw value below `replan_below` (at
/// most 2^63): only the other runs' walks and streams are those of
/// below(Bound).
SCFI_SIMD_CLONES
std::uint32_t walk_group(RngGroup (&groups)[2], const RunPlanner::Row* reset,
                         std::uint64_t replan_below, std::size_t cycles, std::int32_t* walks) {
  RngGroup rng[2] = {groups[0], groups[1]};  // locals the compiler keeps in registers
  const Word floor = Word{} + replan_below;
  // Bit 63 of (r - floor) & ~r is set exactly when r < floor <= 2^63 (the
  // borrow of r - floor), without the 64-bit unsigned compare that SSE2
  // and AVX2 lack.
  Word low[2] = {};
  const RunPlanner::Row* state[G];
  std::fill_n(state, G, reset);
  Word r[2];
  for (std::size_t t = 0; t < cycles; ++t) {
#pragma GCC unroll 2
    for (std::size_t w = 0; w < 2; ++w) {
      rng[w].next(r[w]);
      low[w] |= (r[w] - floor) & ~r[w];
    }
#pragma GCC unroll 8
    for (std::size_t i = 0; i < G; ++i) {
      const RunPlanner::Slot& slot = state[i]->slots[state[i]->degree.reduce(r[i / S][i % S])];
      walks[i * cycles + t] = slot.edge;
      state[i] = slot.to;
    }
  }
  groups[0] = rng[0];
  groups[1] = rng[1];
  std::uint32_t replan = 0;
  for (std::size_t i = 0; i < G; ++i) {
    replan |= static_cast<std::uint32_t>(low[i / S][i % S] >> 63) << i;
  }
  return replan;
}

}  // namespace

WalkTables::WalkTables(const fsm::Fsm& fsm, const std::vector<fsm::CfgEdge>& cfg)
    : offset(static_cast<std::size_t>(fsm.num_states()) + 1, 0) {
  for (const fsm::CfgEdge& e : cfg) ++offset[static_cast<std::size_t>(e.from) + 1];
  std::partial_sum(offset.begin(), offset.end(), offset.begin());
  edge.resize(cfg.size());
  std::vector<std::int32_t> fill(offset.begin(), offset.end() - 1);
  for (std::size_t e = 0; e < cfg.size(); ++e) {
    edge[static_cast<std::size_t>(fill[static_cast<std::size_t>(cfg[e].from)]++)] =
        static_cast<std::int32_t>(e);
    to.push_back(cfg[e].to);
  }
}

RunPlanner::RunPlanner(const WalkTables& walk, int reset_state, std::size_t num_sites,
                       const CampaignConfig& config)
    : seed_(config.seed),
      draw_kind_(config.fault.kinds.size() > 1),
      pool_(num_sites),
      cycle_bound_(static_cast<std::uint64_t>(config.cycles)),
      kind_bound_(config.fault.kinds.size()) {
  std::iota(pool_.begin(), pool_.end(), 0);
  const std::size_t states = walk.offset.size() - 1;
  for (std::size_t s = 0; s < states; ++s) {
    const auto degree = static_cast<std::uint64_t>(walk.offset[s + 1] - walk.offset[s]);
    rows_.push_back(Row{Rng::Bound(degree), nullptr});
    min_replan_below_ = std::max(min_replan_below_, rows_.back().degree.threshold());
  }
  replan_below_ = min_replan_below_;
  slots_.resize(2 * walk.edge.size());
  for (std::size_t s = 0; s < states; ++s) {
    const auto first = static_cast<std::size_t>(walk.offset[s]);
    const auto degree = static_cast<std::size_t>(walk.offset[s + 1]) - first;
    Slot* slots = slots_.data() + 2 * first;
    for (std::size_t j = 0; j < degree; ++j) {
      const std::int32_t e = walk.edge[first + j];
      const auto to = static_cast<std::size_t>(walk.to[static_cast<std::size_t>(e)]);
      slots[j] = slots[degree + j] = Slot{&rows_[to], e};
    }
    rows_[s].slots = slots;
  }
  reset_row_ = &rows_[static_cast<std::size_t>(reset_state)];
  // Fault f draws its site among the sites - f not yet taken, or among all
  // of them once f is beyond the population.
  for (std::size_t f = 0; f < static_cast<std::size_t>(config.fault.k); ++f) {
    site_bound_.emplace_back(f < num_sites ? num_sites - f : num_sites);
  }
}

void RunPlanner::set_replan_below(std::uint64_t threshold) {
  check(threshold >= min_replan_below_ && threshold <= (1ULL << 63),
        "RunPlanner: a replan threshold must lie between the largest out-degree "
        "threshold and 2^63");
  replan_below_ = threshold;
}

void RunPlanner::plan_runs(std::int64_t base, int n, RunPlans& out) {
  const auto count = static_cast<std::size_t>(n);
  const auto first = static_cast<std::uint64_t>(base);
  std::size_t i = 0;
  for (; i + G <= count; i += G) {
    RngGroup groups[2] = {RngGroup(seed_, first + i), RngGroup(seed_, first + i + S)};
    const std::uint32_t replan =
        walk_group(groups, reset_row_, replan_below_, out.cycles, out.walk(i));
    for (std::size_t j = 0; j < G; ++j) {
      if ((replan >> j) & 1U) {
        plan_run(first + i + j, i + j, out);
        ++replanned_;
      } else {
        Rng rng = groups[j / S].stream(j % S);
        plan_faults(rng, out.faults_of(i + j));
      }
    }
  }
  for (; i < count; ++i) plan_run(first + i, i, out);
}

void RunPlanner::plan_run(std::uint64_t run, std::size_t row, RunPlans& out) {
  Rng rng(seed_, run);
  std::int32_t* walk = out.walk(row);
  const Row* state = reset_row_;
  for (std::size_t t = 0; t < out.cycles; ++t) {
    const Slot& slot = state->slots[rng.below(state->degree)];
    walk[t] = slot.edge;
    state = slot.to;
  }
  plan_faults(rng, out.faults_of(row));
}

void RunPlanner::plan_faults(Rng& rng, PlannedFault* faults) {
  const std::size_t sites = pool_.size();
  for (std::size_t f = 0; f < site_bound_.size(); ++f) {
    // Only a request beyond the population can repeat a site.
    std::int32_t site = 0;
    if (f < sites) {
      const std::size_t j = f + rng.below(site_bound_[f]);
      std::swap(pool_[f], pool_[j]);
      undo_.emplace_back(f, j);
      site = pool_[f];
    } else {
      site = static_cast<std::int32_t>(rng.below(site_bound_[f]));
    }
    const auto cycle = static_cast<std::int32_t>(rng.below(cycle_bound_));
    // The kind draw is appended to the stream only for multi-kind specs, so
    // a single-kind spec's (seed, run) -> plan mapping is unchanged.
    const std::int32_t kind = draw_kind_ ? static_cast<std::int32_t>(rng.below(kind_bound_)) : 0;
    faults[f] = PlannedFault{site, cycle, kind};
  }
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    std::swap(pool_[it->first], pool_[it->second]);
  }
  undo_.clear();
}

}  // namespace scfi::sim
