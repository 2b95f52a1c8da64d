// Campaign planning: each run's control-flow walk and fault schedule, drawn
// from the run's own jump-ahead stream Rng(seed, run) — first `cycles` walk
// draws, then per fault a site, a cycle and (multi-kind specs only) a kind.
// A plan is a pure function of (seed, run), however runs are grouped into
// units, lanes or threads. run_campaign (sim/campaign.cpp) is the one user;
// the tests drive the planner directly against a scalar reference.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "fsm/fsm.h"
#include "sim/campaign.h"

namespace scfi::sim {

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

  WalkTables(const fsm::Fsm& fsm, const std::vector<fsm::CfgEdge>& cfg);
};

/// Plans of consecutive runs, run-major: run r walks CFG edges walk(r)[0 ..
/// cycles) and schedules faults faults(r)[0 .. k). Its golden state at
/// cycle t is the reset state at t = 0 and WalkTables::to[walk(r)[t - 1]]
/// after that. A planned unit and a lane pool's rows (one per lane) are
/// both one of these.
struct RunPlans {
  std::size_t cycles = 0;
  std::size_t k = 0;
  std::vector<std::int32_t> edges;
  std::vector<PlannedFault> faults;

  RunPlans(const CampaignConfig& config, std::size_t runs)
      : cycles(static_cast<std::size_t>(config.cycles)),
        k(static_cast<std::size_t>(config.fault.k)),
        edges(runs * cycles),
        faults(runs * k) {}

  std::int32_t* walk(std::size_t run) { return edges.data() + run * cycles; }
  const std::int32_t* walk(std::size_t run) const { return edges.data() + run * cycles; }
  PlannedFault* faults_of(std::size_t run) { return faults.data() + run * k; }
  const PlannedFault* faults_of(std::size_t run) const { return faults.data() + run * k; }

  /// Copies run `from_run` of `from` into row `to_run`.
  void copy_run(const RunPlans& from, std::size_t from_run, std::size_t to_run) {
    std::copy_n(from.walk(from_run), cycles, walk(to_run));
    std::copy_n(from.faults_of(from_run), k, faults_of(to_run));
  }
};

/// Draws run plans, every draw against a bound prepared once per planner
/// (Rng::Bound: one per FSM state's out-degree, one per fault index's site
/// count, one for the cycle and one for the kind), so planning divides
/// nothing per draw and draws exactly what Rng::below(d) would.
///
/// Walks are planned kGroup runs at a time. The group's streams step
/// together in RngGroups, and its kGroup walk chains (draw -> slot -> next
/// Row) run side by side over one packed Row per FSM state, each run's walk
/// written contiguously. A walk draw is rejected only below its own
/// bound's threshold, and every such threshold is at most the largest one
/// among the out-degrees (about cycles x max degree / 2^64 of walks ever
/// see such a draw), so a run that drew nothing below that largest
/// threshold consumed exactly one next() per cycle: its walk is what
/// below(degree) gives, and its fault draws continue from its stream. A run
/// that did draw below it, and the last n mod kGroup runs of a unit, are
/// planned one at a time with below(Bound) from a fresh stream.
class RunPlanner {
 public:
  /// Runs whose walks step together: two RngGroups, so two independent
  /// vector chains and eight scalar walk chains overlap.
  static constexpr std::size_t kGroup = 2 * RngGroup::kStreams;

  struct Slot;
  /// Per FSM state: the bound of its out-degree d, and its 2d Slots: out-edge
  /// j (in WalkTables order) at slots[j] and again at slots[d + j], so
  /// Rng::Bound::reduce() of a draw indexes them without a correction.
  struct Row {
    Rng::Bound degree;
    const Slot* slots = nullptr;
  };
  /// One out-edge of a state: its CFG edge and the Row of the state it
  /// enters.
  struct Slot {
    const Row* to = nullptr;
    std::int32_t edge = 0;
  };

  RunPlanner(const WalkTables& walk, int reset_state, std::size_t num_sites,
             const CampaignConfig& config);
  RunPlanner(const RunPlanner&) = delete;  // rows and slots point into each other
  RunPlanner& operator=(const RunPlanner&) = delete;

  /// Plans runs [base, base + n) into rows [0, n) of `out`. Distinct fault
  /// sites come from a partial Fisher-Yates over the site pool, undone after
  /// every run so each run starts from the identical permutation.
  void plan_runs(std::int64_t base, int n, RunPlans& out);

  /// Replans every grouped run that drew a raw walk value below `threshold`
  /// on the one-run path. The default is the largest out-degree threshold;
  /// a larger one, up to 2^63, only replans more runs (tests force that path
  /// this way). Anything else is rejected as a LogicBug.
  void set_replan_below(std::uint64_t threshold);
  /// Grouped runs replanned on the one-run path so far.
  std::int64_t replanned_runs() const { return replanned_; }

 private:
  /// Plans run `run` alone into row `row` of `out`.
  void plan_run(std::uint64_t run, std::size_t row, RunPlans& out);
  /// Draws one run's faults, continuing its stream after the walk.
  void plan_faults(Rng& rng, PlannedFault* faults);

  std::uint64_t seed_;
  bool draw_kind_;
  std::vector<Row> rows_;
  std::vector<Slot> slots_;
  const Row* reset_row_;
  std::uint64_t min_replan_below_ = 0;
  std::uint64_t replan_below_ = 0;
  std::int64_t replanned_ = 0;
  std::vector<std::int32_t> pool_;
  Rng::Bound cycle_bound_;
  Rng::Bound kind_bound_;
  std::vector<Rng::Bound> site_bound_;  ///< per fault index
  std::vector<std::pair<std::size_t, std::size_t>> undo_;
};

}  // namespace scfi::sim
