// Seeded generator for the corpus_matrix workload: small random control
// machines sized like the MCNC benchmarks, written once as KISS2 and once as
// a structural Verilog netlist, so each form enters the sweep through its own
// front door (Kiss2CorpusSource / VerilogCorpusSource).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fsm/fsm.h"

namespace perfbench {

/// Corpus shape recorded next to every corpus_matrix result, so the numbers
/// name the input they measured.
struct CorpusShape {
  int machines = 0;
  int states = 0;       ///< summed over machines
  int transitions = 0;  ///< summed over machines
};

/// `count` machines named m00, m01, ... Machine i has a size fixed by i
/// (3..30 states, growing with the cube of i so most machines are small,
/// as in MCNC; 2..8 inputs; 1..4 outputs), and so are the transition count
/// of each state and the fixed-literal count of each guard, so corpora of
/// different seeds carry comparable work; the seed draws the targets, which
/// inputs decide each guard, the literal values and the outputs. Every state is reachable from
/// the reset state and the guards leaving a state are disjoint cubes, so
/// priority order never matters and the netlist form is equivalent.
std::vector<scfi::fsm::Fsm> generate_machines(std::uint64_t seed, int count);

/// The machine as a hand-written-style structural netlist in the idiom of
/// bench/corpus-verilog/seq_ctrl.v: non-ANSI ports, an equality decode per
/// state, primitive gates per transition guard, a chained-ternary next-state
/// assign, and an async active-low reset register. Outputs are the OR of the
/// transitions that raise them (0 on the implicit idle self-loop).
std::string structural_verilog(const scfi::fsm::Fsm& fsm);

/// Writes `<kiss2_dir>/<name>.kiss2` and `<verilog_dir>/<name>.v` for every
/// machine (directories are created) and returns the corpus shape.
CorpusShape write_corpus(const std::vector<scfi::fsm::Fsm>& machines,
                         const std::string& kiss2_dir, const std::string& verilog_dir);

}  // namespace perfbench
