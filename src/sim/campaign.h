// Monte-Carlo fault-injection campaigns over compiled FSM variants.
//
// Each run replays a random-but-valid control-flow walk on the device under
// test while injecting a configurable number of faults, then classifies the
// outcome against the golden (fault-free, symbol-level) execution:
//
//   masked          — state sequence identical to golden, no alert
//   detected        — alert raised, or terminal ERROR state entered
//   hijacked        — a *valid* state different from golden was reached with
//                     no prior detection (the attacker's success criterion)
//   lagged          — undetected deviation where the FSM merely missed a
//                     transition (still in the previous golden state)
//   silent_invalid  — register holds a non-codeword, never detected
//                     (impossible for SCFI, common for unprotected FSMs)
//
// Execution is two-phase. The planner derives every run's walk and fault
// schedule from a jump-ahead RNG stream keyed by hash(seed, run_index):
// workers plan their own units on the fly with O(lanes) memory, so
// arbitrary-size campaigns run under a constant footprint and the plan for
// run k never depends on runs 0..k-1. Execution runs each participant's
// runs in a pool of `lanes` lanes of the bit-parallel simulator (one lane
// per run, up to 512 lanes via multi-word lane blocks) and shares units of
// `lanes` runs between the calling thread and its helpers (`threads` - 1,
// or an enclosing sweep's idle threads). Each lane carries its own run at
// its own cycle: every step drives each lane's own edge, injects the faults
// due at its cycle, settles, absorbs the alert, latches and classifies. A
// lane retires as soon as its run's outcome is fixed — on an alert or the
// error code, or after its final check (the post-edge settle with its last
// edge still driven) — and takes the next run. Because each run's plan is a
// pure function of (seed, run_index) and per-run outcomes are independent,
// the aggregate CampaignResult is bit-identical for every combination of
// `lanes` and `threads`. Planning (sim/campaign_plan.h) walks eight runs at
// a time: their xoshiro streams step together in vector words (RngGroup,
// cloned per ISA like the simulator's tape) and their eight walks run side
// by side over one packed row per FSM state. Every draw is against a bound
// the planner prepares once per campaign (one per FSM state's out-degree,
// one per fault index's site count, one for the cycle and one for the kind;
// Rng::Bound), so planning divides nothing per draw and draws exactly what
// Rng::below(d) would: a grouped run that drew a value some out-degree could
// reject, and a unit's last lanes mod 8 runs, are planned alone. A plan row
// holds only the run's walk and its faults: its golden state at cycle t is
// the reset state at t = 0 and the target of its edge t - 1 after that.
//
// Only runs with a live fault are simulated, and each from its first fault.
// A stuck-at or flip is live when its net is in the fan-in cone of the state
// register and the alert, closed over flip-flops, and a skip when its net is
// the Q of a flip-flop in that cone (a skip anywhere else is a no-op); a run
// whose faults are all dead acts like its fault-free walk. One fault-free
// pass per campaign records, for every reachable CFG edge, whether the
// final alert check fires after it, and the cone registers' value in every
// reachable state, and proves both exact for every walk (the cone's
// registers are a function of the FSM state, no step raises the alert,
// every step latches its golden successor). A run with only dead faults
// then counts as detected or masked from its last edge alone, and a live
// run starts at its earliest fault cycle c with its lane's registers at the
// value of golden state c. If the proof fails, every run is simulated from
// reset at cycle 0. Live runs from all the units a participant claims share
// its lane pool.
#pragma once

#include <cstdint>

#include "fsm/compile.h"
#include "sim/fault.h"
#include "sim/netlist_sim.h"

namespace scfi {
class CancelToken;
}

namespace scfi::sim {

struct VariantNetlist;

/// How run plans (walks + fault schedules) are produced. kStreaming, the one
/// planner, draws run k's plan from the jump-ahead stream Rng(seed, k) inside
/// the executing worker, one unit at a time. The enum and
/// CampaignConfig::planner remain only because the sweep benchmark harness
/// (perfbench/src/sweep_bench.cpp) sets them.
enum class CampaignPlanner {
  kStreaming,
};

/// Campaign parameters. Raw-input (unencoded) variants support at most 64
/// control bits; symbol-encoded variants are unrestricted.
struct CampaignConfig {
  int runs = 1000;
  int cycles = 24;        ///< length of each control-flow walk
  /// The adversary: fault count per run (`fault.k`), target-class filter,
  /// and the kind set schedules draw from. The default FaultSpec is the
  /// historical single-transient-flip-anywhere attacker, and single-kind
  /// specs draw bit-identical schedules to the pre-FaultSpec planner.
  FaultSpec fault;
  std::uint64_t seed = 1;
  CampaignPlanner planner = CampaignPlanner::kStreaming;
  /// Lanes of each participant's simulator pool, one run in flight per
  /// lane (1..kMaxLanes = 64*lane_words); 1 = scalar. Widths past 64 select
  /// a multi-word SoA lane block (lane_words in {2, 4, 8}), subject to the
  /// SCFI_LANE_WORDS_CAP runtime clamp.
  int lanes = kNumLanes;
  /// Worker threads sharing units of `lanes` runs (1 = inline); ignored
  /// under a current WorkBoard, whose idle threads help instead.
  int threads = 1;
  /// Optional cooperative stop signal, polled once per claimed unit of
  /// `lanes` runs: when it fires, workers throw CancelledError at the next
  /// unit boundary instead of being killed mid-simulation. Execution knob like
  /// lanes/threads — never part of a job identity — and must outlive the
  /// run_campaign call. nullptr = never cancelled.
  const CancelToken* cancel = nullptr;
};

struct CampaignResult {
  int runs = 0;
  int masked = 0;
  int detected = 0;
  int hijacked = 0;
  int lagged = 0;
  int silent_invalid = 0;
  /// Diagnostic, not part of the result: the runs the executor simulated.
  /// The rest had every fault on a site outside the fan-in cone of the state
  /// register and the alert and were counted from their walk's fault-free
  /// outcome. Neither compared by operator== nor stored.
  int simulated = 0;
  /// Diagnostic, not part of the result: the settles (eval() calls) the
  /// executor ran, one per step of a participant's lane pool. Neither
  /// compared by operator== nor stored.
  std::int64_t evals = 0;

  /// Runs where the fault had any architectural effect.
  int effective() const { return detected + hijacked + lagged + silent_invalid; }
  /// Attacker success probability over all runs.
  double hijack_rate() const { return runs > 0 ? static_cast<double>(hijacked) / runs : 0.0; }
  /// Detection rate among effective faults.
  double detection_rate() const {
    return effective() > 0 ? static_cast<double>(detected) / effective() : 1.0;
  }

  bool operator==(const CampaignResult& other) const {
    return runs == other.runs && masked == other.masked && detected == other.detected &&
           hijacked == other.hijacked && lagged == other.lagged &&
           silent_invalid == other.silent_invalid;
  }
};

/// Runs the campaign on `variant` (any of the three compiled forms). Throws
/// ScfiError up front when a knob is out of range: runs < 0, cycles < 1,
/// fault.k < 0 (k = 0 is a fault-free campaign), empty fault.kinds,
/// threads < 1, or lanes outside [1, kMaxLanes].
CampaignResult run_campaign(const fsm::Fsm& fsm, const fsm::CompiledFsm& variant,
                            const CampaignConfig& config);
/// The same over `net`, which the caller may share across campaigns.
CampaignResult run_campaign(const fsm::Fsm& fsm, const VariantNetlist& net,
                            const CampaignConfig& config);

}  // namespace scfi::sim
