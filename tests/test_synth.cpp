#include <gtest/gtest.h>

#include "base/error.h"
#include "base/rng.h"
#include "fsm/compile.h"
#include "ot/zoo.h"
#include "rtlil/design.h"
#include "rtlil/validate.h"
#include "sim/netlist_sim.h"
#include "synth/lower.h"
#include "synth/opt.h"
#include "synth/sizing.h"
#include "synth/sta.h"
#include "synth/stat.h"
#include "synth/techlib.h"
#include "test_helpers.h"

namespace scfi::synth {
namespace {

using rtlil::CellType;
using rtlil::Const;
using rtlil::Design;
using rtlil::Module;
using rtlil::SigSpec;

/// Builds a little mixed design: y = (a ^ b) when |a| else (a & b), plus a
/// registered copy.
Module* build_sample(Design& d, const std::string& name) {
  Module* m = d.add_module(name);
  rtlil::Wire* a = m->add_input("a", 8);
  rtlil::Wire* b = m->add_input("b", 8);
  rtlil::Wire* y = m->add_output("y", 8);
  rtlil::Wire* q = m->add_output("q", 8);
  const SigSpec sum = m->make_xor(SigSpec(a), SigSpec(b));
  const SigSpec prod = m->make_and(SigSpec(a), SigSpec(b));
  const SigSpec sel = m->make_reduce_or(SigSpec(a));
  const SigSpec out = m->make_mux(sel, prod, sum);
  m->drive(SigSpec(y), out);
  const SigSpec reg = m->make_dff(out, Const::from_uint(0, 8));
  m->drive(SigSpec(q), reg);
  return m;
}

/// Random-input equivalence between two modules with identical interfaces.
void expect_equivalent(const Module& golden, const Module& other, int trials, std::uint64_t seed) {
  sim::Simulator sg(golden);
  sim::Simulator so(other);
  Rng rng(seed);
  for (int t = 0; t < trials; ++t) {
    for (const rtlil::Wire* w : golden.wires()) {
      if (!w->is_input()) continue;
      const std::uint64_t v = rng.next() & ((w->width() >= 64) ? ~0ULL : ((1ULL << w->width()) - 1));
      sg.set_input(w->name(), v);
      so.set_input(w->name(), v);
    }
    sg.step();
    so.step();
    for (const rtlil::Wire* w : golden.wires()) {
      if (!w->is_output()) continue;
      EXPECT_EQ(sg.get(w->name()), so.get(w->name())) << "output " << w->name();
    }
  }
}

TEST(Lower, ProducesGateLevel) {
  Design d;
  Module* m = build_sample(d, "m");
  EXPECT_FALSE(is_gate_level(*m));
  lower_to_gates(*m);
  EXPECT_TRUE(is_gate_level(*m));
  EXPECT_NO_THROW(rtlil::validate_module(*m));
}

TEST(Lower, PreservesBehaviour) {
  Design d;
  Module* word = build_sample(d, "word");
  Module* gate = build_sample(d, "gate");
  lower_to_gates(*gate);
  expect_equivalent(*word, *gate, 200, 42);
}

TEST(Opt, PreservesBehaviour) {
  Design d;
  Module* word = build_sample(d, "word");
  Module* gate = build_sample(d, "gate");
  lower_to_gates(*gate);
  optimize(*gate);
  EXPECT_NO_THROW(rtlil::validate_module(*gate));
  expect_equivalent(*word, *gate, 200, 43);
}

TEST(Opt, FoldsConstants) {
  Design d;
  Module* m = d.add_module("m");
  rtlil::Wire* y = m->add_output("y", 1);
  // y = (1 & 1) ^ 0  -> constant 1
  const SigSpec one(rtlil::SigBit(true));
  const SigSpec zero(rtlil::SigBit(false));
  const SigSpec t = m->make_and(one, one);
  m->drive(SigSpec(y), m->make_xor(t, zero));
  lower_to_gates(*m);
  optimize(*m);
  sim::Simulator s(*m);
  s.eval();
  EXPECT_EQ(s.get("y"), 1u);
  // Everything but the port driver should be gone.
  EXPECT_LE(m->cells().size(), 1u);
}

TEST(Opt, SharesDuplicates) {
  Design d;
  Module* m = d.add_module("m");
  rtlil::Wire* a = m->add_input("a", 1);
  rtlil::Wire* b = m->add_input("b", 1);
  rtlil::Wire* y0 = m->add_output("y0", 1);
  rtlil::Wire* y1 = m->add_output("y1", 1);
  m->drive(SigSpec(y0), m->make_xor(SigSpec(a), SigSpec(b)));
  m->drive(SigSpec(y1), m->make_xor(SigSpec(b), SigSpec(a)));  // commuted duplicate
  lower_to_gates(*m);
  const OptStats stats = optimize(*m);
  EXPECT_GE(stats.shared, 1);
  int xor_count = 0;
  for (const rtlil::Cell* c : m->cells()) xor_count += (c->type() == CellType::kGateXor2);
  EXPECT_EQ(xor_count, 1);
}

TEST(Opt, RemovesDeadLogic) {
  Design d;
  Module* m = d.add_module("m");
  rtlil::Wire* a = m->add_input("a", 4);
  rtlil::Wire* y = m->add_output("y", 1);
  m->make_xor(SigSpec(a), SigSpec(a));  // dead
  m->drive(SigSpec(y), m->make_reduce_or(SigSpec(a)));
  lower_to_gates(*m);
  const OptStats stats = optimize(*m);
  EXPECT_GT(stats.total(), 0);
  expect_equivalent(*m, *m, 1, 1);  // still simulates
}

TEST(Stat, CountsAreas) {
  Design d;
  Module* m = build_sample(d, "m");
  lower_to_gates(*m);
  optimize(*m);
  const AreaReport report = area_report(*m);
  EXPECT_GT(report.total_ge, 0.0);
  EXPECT_EQ(report.ffs, 8);
  EXPECT_GT(report.histogram.at("DFF"), 0);
}

TEST(Stat, RejectsWordLevel) {
  Design d;
  Module* m = build_sample(d, "m");
  EXPECT_THROW(area_report(*m), scfi::ScfiError);
}

TEST(Sta, PositiveCriticalPath) {
  Design d;
  Module* m = build_sample(d, "m");
  lower_to_gates(*m);
  optimize(*m);
  const TimingReport t = analyze_timing(*m);
  EXPECT_GT(t.min_period_ps, 0.0);
  EXPECT_FALSE(t.critical_path.empty());
  EXPECT_GT(t.max_freq_mhz, 0.0);
}

TEST(Sta, DeeperLogicIsSlower) {
  Design d;
  Module* shallow = d.add_module("shallow");
  {
    rtlil::Wire* a = shallow->add_input("a", 1);
    rtlil::Wire* y = shallow->add_output("y", 1);
    shallow->drive(SigSpec(y), shallow->make_not(SigSpec(a)));
  }
  Module* deep = d.add_module("deep");
  {
    rtlil::Wire* a = deep->add_input("a", 1);
    rtlil::Wire* y = deep->add_output("y", 1);
    SigSpec s(a);
    for (int i = 0; i < 12; ++i) s = deep->make_not(s);
    deep->drive(SigSpec(y), s);
  }
  lower_to_gates(*shallow);
  lower_to_gates(*deep);
  EXPECT_LT(analyze_timing(*shallow).min_period_ps, analyze_timing(*deep).min_period_ps);
}

/// The critical path's cell names, source to sink, space-separated.
std::string path_names(const TimingReport& t) {
  std::string names;
  for (const rtlil::Cell* cell : t.critical_path) {
    names += (names.empty() ? "" : " ") + cell->name();
  }
  return names;
}

TEST(Sta, TimingIsPinned) {
  // Lowered and optimized SCFI level-2 zoo variants (datapath included):
  // the period is pinned to the last bit and, on the shorter paths, every
  // cell of the critical path.
  struct Pin {
    const char* module;
    double min_period_ps;
    const char* path;  ///< nullptr: not pinned
  };
  const Pin pins[] = {
      {"adc_ctrl_fsm", 6944.1999999999998,
       "g_612 g_652 g_654 g_655 g_1068 g_1212 g_1392 g_1393 g_1421 g_1422 g_1423 g_1424 g_1425 "
       "g_1432 g_1559 g_1617"},
      {"aes_control", 4420.2000000000007, "g_391 g_397 g_400 g_484 g_667 g_668 g_674 g_691"},
      {"i2c_fsm", 8410.1999999999989,
       "g_1067 g_1075 g_1204 g_1440 g_1779 g_2061 g_2062 g_2063 g_2064 g_2065 g_2066 g_2067 "
       "g_2068 g_2081 g_2122 g_2138"},
      {"ibex_controller", 4740.2000000000007,
       "g_305 g_332 g_370 g_371 g_617 g_862 g_871 g_872 g_873 g_878 g_963"},
      {"ibex_lsu", 12684.999999999998, nullptr},
      {"otbn_controller", 22590.20000000003, nullptr},
      {"pwrmgr_fsm", 3993.6000000000004,
       "g_393 g_401 g_403 g_404 g_546 g_588 g_598 g_604 g_605 g_624 g_651 g_692 g_693 g_770 "
       "g_772 g_774"},
  };
  for (const Pin& pin : pins) {
    Design d;
    const fsm::CompiledFsm c =
        ot::build_ot_variant(ot::ot_entry(pin.module), d, ot::Variant::kScfi, 2, "m");
    lower_to_gates(*c.module);
    optimize(*c.module);
    const TimingReport t = analyze_timing(*c.module);
    EXPECT_EQ(t.min_period_ps, pin.min_period_ps) << pin.module;
    EXPECT_EQ(t.max_freq_mhz, 1e6 / pin.min_period_ps) << pin.module;
    if (pin.path != nullptr) {
      EXPECT_EQ(path_names(t), pin.path) << pin.module;
    }
  }
}

TEST(Sizing, UpsizingMeetsLooseTarget) {
  Design d;
  Module* m = build_sample(d, "m");
  lower_to_gates(*m);
  optimize(*m);
  const double relaxed = analyze_timing(*m).min_period_ps * 2.0;
  const SizingResult r = size_for_period(*m, relaxed);
  EXPECT_TRUE(r.met);
  EXPECT_EQ(r.upsized, 0);
}

TEST(Sizing, TighterTargetCostsArea) {
  Design d;
  Module* m = build_sample(d, "m");
  lower_to_gates(*m);
  optimize(*m);
  const SizingResult loose = size_for_period(*m, 1e9);
  const double min_period = min_achievable_period(*m);
  const SizingResult tight = size_for_period(*m, min_period * 1.02);
  EXPECT_TRUE(tight.met);
  EXPECT_GE(tight.area_ge, loose.area_ge);
  EXPECT_LE(tight.achieved_period_ps, min_period * 1.02);
}

TEST(Sizing, ResultIsPinned) {
  // One fixed target: the sample meets it after one upsize, the paper's
  // Figure 2 machine after 39.
  Design d;
  Module* sample = build_sample(d, "m");
  const fsm::CompiledFsm fig2 = fsm::compile_unprotected(test::paper_fsm(), d);
  struct Pin {
    Module* module;
    int upsized;
    double achieved_period_ps;
    double area_ge;
  };
  const Pin pins[] = {{sample, 1, 1282.1400000000001, 108.48199999999997},
                      {fig2.module, 39, 1296.2840000000003, 73.362000000000023}};
  for (const Pin& pin : pins) {
    lower_to_gates(*pin.module);
    optimize(*pin.module);
    const SizingResult r = size_for_period(*pin.module, 1300.0);
    EXPECT_TRUE(r.met) << pin.module->name();
    EXPECT_EQ(r.upsized, pin.upsized) << pin.module->name();
    EXPECT_EQ(r.achieved_period_ps, pin.achieved_period_ps) << pin.module->name();
    EXPECT_EQ(r.area_ge, pin.area_ge) << pin.module->name();
  }
}

TEST(Techlib, DriveMonotonicity) {
  const GateInfo& g = techlib_gate(CellType::kGateNand2);
  EXPECT_LT(g.drive[0].area_ge, g.drive[1].area_ge);
  EXPECT_LT(g.drive[1].area_ge, g.drive[2].area_ge);
  EXPECT_GT(g.drive[0].slope_ps, g.drive[1].slope_ps);
  EXPECT_GT(g.drive[1].slope_ps, g.drive[2].slope_ps);
}

}  // namespace
}  // namespace scfi::synth
