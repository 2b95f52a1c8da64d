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
// workers plan their own batches on the fly with O(lanes) memory, so
// arbitrary-size campaigns run under a constant footprint and the plan for
// run k never depends on runs 0..k-1. Execution packs `lanes` runs into the
// bit-parallel simulator (one lane per run, up to 512 lanes via multi-word
// lane blocks) and shares units of `lanes` runs between the calling thread
// and its helpers (`threads` - 1, or an enclosing sweep's idle threads).
// Because each run's plan is a pure function of (seed, run_index) and per-run outcomes are independent, the
// aggregate CampaignResult is bit-identical for every combination of
// `lanes` and `threads`. Planning steps a unit's walks side by side, one
// cycle of every walk at a time, so their dependent RNG draws overlap.
//
// Only runs with a live fault are simulated. A site is live when its net is
// in the fan-in cone of the state register and the alert, closed over
// flip-flops; a run whose faults are all on other sites, none a skip, acts
// like its fault-free walk. One fault-free pass per campaign records, for
// every reachable CFG edge, whether the final alert check fires after it,
// and proves that table exact for every walk (the cone's registers are a
// function of the FSM state, no step raises the alert, every step latches
// its golden successor). Such a run then counts as detected or masked from
// its last edge alone; if the proof fails, every run is simulated. Live
// runs are packed densely into a participant's batches, across the units
// it claims.
#pragma once

#include <cstdint>

#include "fsm/compile.h"
#include "sim/fault.h"
#include "sim/netlist_sim.h"

namespace scfi {
class CancelToken;
}

namespace scfi::sim {

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
  /// Runs per simulator batch (1..kMaxLanes = 64*lane_words); 1 = scalar.
  /// Widths past 64 select a multi-word SoA lane block (lane_words in
  /// {2, 4, 8}), subject to the SCFI_LANE_WORDS_CAP runtime clamp.
  int lanes = kNumLanes;
  /// Worker threads sharing batches (<=1 = inline); ignored under a
  /// current WorkBoard, whose idle threads help instead.
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

/// Runs the campaign on `variant` (any of the three compiled forms).
CampaignResult run_campaign(const fsm::Fsm& fsm, const fsm::CompiledFsm& variant,
                            const CampaignConfig& config);

}  // namespace scfi::sim
