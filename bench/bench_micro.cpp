// Micro-benchmarks (google-benchmark): throughput of the core substrates —
// MDS evaluation, netlist simulation, SCFI hardening, SAT solving.
#include <benchmark/benchmark.h>

#include "core/harden.h"
#include "fsm/compile.h"
#include "mds/registry.h"
#include "ot/zoo.h"
#include "rtlil/design.h"
#include "sat/cnf.h"
#include "sim/campaign.h"
#include "sim/netlist_sim.h"
#include "synfi/synfi.h"
#include "synth/lower.h"
#include "synth/opt.h"

namespace {

scfi::fsm::Fsm bench_fsm() {
  scfi::fsm::Fsm f;
  f.name = "bench";
  f.inputs = {"a", "b", "c"};
  f.outputs = {"o"};
  f.add_transition("IDLE", "1--", "CFG", "0");
  f.add_transition("CFG", "-1-", "ARM", "0");
  f.add_transition("CFG", "-0-", "IDLE", "0");
  f.add_transition("ARM", "--1", "FIRE", "1");
  f.add_transition("FIRE", "0--", "ARM", "0");
  f.add_transition("FIRE", "1--", "IDLE", "0");
  return f;
}

void BM_MdsEval(benchmark::State& state) {
  const scfi::mds::Construction& c = scfi::mds::default_construction();
  std::vector<std::uint8_t> in{0x12, 0x34, 0x56, 0x78};
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.slp.eval(in));
    in[0] ^= 1;
  }
}
BENCHMARK(BM_MdsEval);

void BM_MdsBitMatrixMul(benchmark::State& state) {
  const scfi::mds::Construction& c = scfi::mds::default_construction();
  scfi::gf2::BitVec x(32);
  x.set(3, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.bit_matrix.mul(x));
  }
}
BENCHMARK(BM_MdsBitMatrixMul);

void BM_SimulatorStep(benchmark::State& state) {
  scfi::rtlil::Design d;
  const scfi::fsm::Fsm f = bench_fsm();
  scfi::core::ScfiConfig config;
  const scfi::fsm::CompiledFsm c = scfi::core::scfi_harden(f, d, config);
  scfi::sim::Simulator s(*c.module);
  const std::uint64_t sym = c.symbol_codes.begin()->second;
  s.set_input(c.symbol_input_wire, sym);
  for (auto _ : state) {
    s.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorStep);

void BM_SimulatorStepGateLevel(benchmark::State& state) {
  scfi::rtlil::Design d;
  const scfi::fsm::Fsm f = bench_fsm();
  scfi::core::ScfiConfig config;
  const scfi::fsm::CompiledFsm c = scfi::core::scfi_harden(f, d, config);
  scfi::synth::lower_to_gates(*c.module);
  scfi::synth::optimize(*c.module);
  scfi::sim::Simulator s(*c.module);
  s.set_input(c.symbol_input_wire, c.symbol_codes.begin()->second);
  for (auto _ : state) {
    s.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorStepGateLevel);

void BM_SimulatorStepBatched(benchmark::State& state) {
  // Same netlist as BM_SimulatorStep, but with 64 x `words` lanes carrying
  // *distinct* stimulus, re-driven every cycle — the realistic batched
  // workload, counted as one sim per lane per step. Arg = lane_words (the
  // lane-block width, 1..8 -> 64..512 lanes). Stimulus is pre-packed into
  // rotated per-word drive patterns so the measured loop pays the same
  // word-granular drive cost the campaign/SYNFI executors pay, not a
  // per-lane scatter.
  scfi::rtlil::Design d;
  const scfi::fsm::Fsm f = bench_fsm();
  scfi::core::ScfiConfig config;
  const scfi::fsm::CompiledFsm c = scfi::core::scfi_harden(f, d, config);
  const int words = static_cast<int>(state.range(0));
  scfi::sim::Simulator s(*c.module, words);
  const scfi::sim::Simulator::WireHandle symbol_h = s.input_handle(c.symbol_input_wire);
  std::vector<std::uint64_t> codes;
  for (const auto& [sym, code] : c.symbol_codes) codes.push_back(code);
  // packs[rot][bit * words + w]: 64-lane word driving symbol bit `bit` in
  // lane-block word `w`, with lane L carrying codes[(rot + L) % codes].
  const std::size_t width = static_cast<std::size_t>(symbol_h.width);
  const std::size_t stride = width * static_cast<std::size_t>(words);
  std::vector<std::vector<std::uint64_t>> packs(codes.size());
  for (std::size_t rot = 0; rot < codes.size(); ++rot) {
    packs[rot].assign(stride, 0);
    for (int lane = 0; lane < s.num_lanes(); ++lane) {
      const std::uint64_t code =
          codes[(rot + static_cast<std::size_t>(lane)) % codes.size()];
      for (std::size_t bit = 0; bit < width; ++bit) {
        if ((code >> bit) & 1) {
          packs[rot][bit * static_cast<std::size_t>(words) +
                     static_cast<std::size_t>(lane >> 6)] |= 1ULL << (lane & 63);
        }
      }
    }
  }
  std::size_t rot = 0;
  for (auto _ : state) {
    const std::vector<std::uint64_t>& pack = packs[rot];
    for (std::size_t bit = 0; bit < width; ++bit) {
      for (int w = 0; w < words; ++w) {
        s.set_input_word(symbol_h, static_cast<int>(bit),
                         pack[bit * static_cast<std::size_t>(words) +
                              static_cast<std::size_t>(w)],
                         w);
      }
    }
    rot = (rot + 1) % packs.size();
    s.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          s.num_lanes());
}
BENCHMARK(BM_SimulatorStepBatched)->ArgName("words")->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_Campaign(benchmark::State& state) {
  // Monte-Carlo campaign throughput (runs/s) on the SCFI-hardened
  // controller; Arg = lanes per batch (1 = scalar path, 64 = one-word
  // bit-parallel, 256/512 = multi-word lane blocks).
  scfi::rtlil::Design d;
  const scfi::fsm::Fsm f = bench_fsm();
  scfi::core::ScfiConfig sc;
  sc.protection_level = 3;
  const scfi::fsm::CompiledFsm c = scfi::core::scfi_harden(f, d, sc);
  scfi::sim::CampaignConfig config;
  config.runs = 1024;
  config.cycles = 16;
  config.fault.k = 2;
  config.seed = 12345;
  config.lanes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scfi::sim::run_campaign(f, c, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * config.runs);
}
BENCHMARK(BM_Campaign)->Arg(1)->Arg(64)->Arg(256)->Arg(512);

void BM_CampaignPlanner(benchmark::State& state) {
  // The streaming planner (per-unit jump-ahead RNG) at 64 lanes on a
  // 16-cycle, two-fault campaign. Arg 0 keeps the recorded run name
  // (BM_CampaignPlanner/0) comparable across BENCH_sim.json snapshots.
  scfi::rtlil::Design d;
  const scfi::fsm::Fsm f = bench_fsm();
  scfi::core::ScfiConfig sc;
  sc.protection_level = 3;
  const scfi::fsm::CompiledFsm c = scfi::core::scfi_harden(f, d, sc);
  scfi::sim::CampaignConfig config;
  config.runs = 4096;
  config.cycles = 16;
  config.fault.k = 2;
  config.seed = 12345;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scfi::sim::run_campaign(f, c, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * config.runs);
}
BENCHMARK(BM_CampaignPlanner)->Arg(0);

void BM_CampaignUnprotected(benchmark::State& state) {
  scfi::rtlil::Design d;
  const scfi::fsm::Fsm f = bench_fsm();
  const scfi::fsm::CompiledFsm c = scfi::fsm::compile_unprotected(f, d);
  scfi::sim::CampaignConfig config;
  config.runs = 1024;
  config.cycles = 16;
  config.fault.k = 2;
  config.seed = 12345;
  config.lanes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(scfi::sim::run_campaign(f, c, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * config.runs);
}
BENCHMARK(BM_CampaignUnprotected)->Arg(1)->Arg(64);

void BM_SynfiInjection(benchmark::State& state) {
  // SYNFI exhaustive transient sweep (injections/s) over the i2c_fsm MDS
  // region at each lane-block width; Arg = lanes per simulator pass
  // (64 = one word, 512 = the full 8-word block).
  const scfi::ot::OtEntry entry = scfi::ot::ot_entry("i2c_fsm");
  scfi::rtlil::Design d;
  const scfi::fsm::CompiledFsm c =
      scfi::ot::build_ot_variant(entry, d, scfi::ot::Variant::kScfi, 2, "i2c_fsm_bm");
  scfi::synfi::Analyzer analyzer(entry.fsm, c);
  scfi::synfi::SynfiConfig config;
  config.lanes = static_cast<int>(state.range(0));
  std::int64_t injections = 0;
  for (auto _ : state) {
    const scfi::synfi::SynfiReport r = analyzer.run(config);
    injections = r.injections;
    benchmark::DoNotOptimize(injections);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * injections);
}
BENCHMARK(BM_SynfiInjection)->ArgName("lanes")->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_SynfiSatQueries(benchmark::State& state) {
  // Incremental-SAT SYNFI (site, edge) verdicts/s over otbn_controller's
  // whole logic on one thread. The Analyzer is kept warm: its cached SAT
  // context, with every clause learned so far, answers each iteration's edge
  // queries, so the loop measures the solver's query cost, not the miter
  // build. Items stay sites x edges verdicts, whatever the query count.
  const scfi::ot::OtEntry entry = scfi::ot::ot_entry("otbn_controller");
  scfi::rtlil::Design d;
  const scfi::fsm::CompiledFsm c =
      scfi::ot::build_ot_variant(entry, d, scfi::ot::Variant::kScfi, 2, "otbn_controller_bm");
  scfi::synfi::Analyzer analyzer(entry.fsm, c);
  scfi::synfi::SynfiConfig config;
  config.backend = scfi::synfi::Backend::kSat;
  config.wire_prefix = "";
  config.threads = 1;
  benchmark::DoNotOptimize(analyzer.run(config).injections);  // build the SAT context
  std::int64_t queries = 0;
  for (auto _ : state) {
    const scfi::synfi::SynfiReport r = analyzer.run(config);
    queries = r.injections;
    benchmark::DoNotOptimize(queries);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * queries);
}
BENCHMARK(BM_SynfiSatQueries)->Unit(benchmark::kMillisecond);

void BM_ScfiHardenPass(benchmark::State& state) {
  const scfi::fsm::Fsm f = bench_fsm();
  std::uint64_t counter = 0;
  for (auto _ : state) {
    scfi::rtlil::Design d;
    scfi::core::ScfiConfig config;
    config.protection_level = static_cast<int>(2 + (counter++ % 3));
    benchmark::DoNotOptimize(scfi::core::scfi_harden(f, d, config));
  }
}
BENCHMARK(BM_ScfiHardenPass);

void BM_SynthesizeAdcCtrl(benchmark::State& state) {
  const scfi::ot::OtEntry entry = scfi::ot::ot_entry("adc_ctrl_fsm");
  for (auto _ : state) {
    scfi::rtlil::Design d;
    auto c = scfi::ot::build_ot_variant(entry, d, scfi::ot::Variant::kUnprotected, 2, "m");
    benchmark::DoNotOptimize(scfi::ot::synthesize_area(*c.module).total_ge);
  }
}
BENCHMARK(BM_SynthesizeAdcCtrl);

void BM_SatNextStateQuery(benchmark::State& state) {
  scfi::rtlil::Design d;
  const scfi::fsm::Fsm f = bench_fsm();
  const scfi::fsm::CompiledFsm c = scfi::fsm::compile_unprotected(f, d);
  for (auto _ : state) {
    scfi::sat::Solver solver;
    scfi::sat::CnfCopy copy(solver, *c.module, {});
    const auto next = copy.ff_next_vars(c.state_wire);
    solver.add_unit(next[0]);
    benchmark::DoNotOptimize(solver.solve());
  }
}
BENCHMARK(BM_SatNextStateQuery);

}  // namespace

BENCHMARK_MAIN();
