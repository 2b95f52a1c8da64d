// Lane-parallel simulation: equivalence of the 64-lane bit-parallel engine
// with independent scalar simulations, and invariance of campaign results
// under the lanes/threads execution knobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "base/error.h"
#include "base/rng.h"
#include "core/harden.h"
#include "fsm/compile.h"
#include "fsm/kiss2.h"
#include "kiss2_corpus.h"
#include "ot/zoo.h"
#include "rtlil/design.h"
#include "sim/campaign.h"
#include "sim/fault.h"
#include "sim/lane_classifier.h"
#include "sim/netlist_sim.h"
#include "test_helpers.h"

namespace scfi::sim {
namespace {

struct LaneFault {
  std::size_t site = 0;
  int cycle = 0;
  FaultKind kind = FaultKind::kTransientFlip;
};

FaultKind random_kind(Rng& rng) {
  switch (rng.below(3)) {
    case 0: return FaultKind::kStuckAt0;
    case 1: return FaultKind::kStuckAt1;
    default: return FaultKind::kTransientFlip;
  }
}

/// Runs every KISS2 corpus machine through the hardened flow twice — once
/// with 64 lanes carrying independent walks and faults, once as 64 separate
/// scalar simulations — and demands identical per-lane, per-cycle state and
/// alert trajectories.
TEST(SimParallel, LanesMatchScalarReplayOnCorpus) {
  constexpr int kCycles = 20;
  constexpr int kFaultsPerLane = 2;
  for (std::size_t bench = 0; bench < test::kKiss2Corpus.size(); ++bench) {
    const fsm::Fsm f = fsm::parse_kiss2(std::string(test::kKiss2Corpus[bench].text),
                                        std::string(test::kKiss2Corpus[bench].name));
    rtlil::Design d;
    core::ScfiConfig config;
    config.protection_level = 2;
    const fsm::CompiledFsm c = core::scfi_harden(f, d, config);
    const std::vector<FaultSite> sites = enumerate_fault_sites(*c.module, c.state_wire);
    ASSERT_FALSE(sites.empty());
    std::vector<std::uint64_t> codes;
    for (const auto& [symbol, code] : c.symbol_codes) codes.push_back(code);

    // Per-lane stimulus and fault schedules.
    Rng rng(0xC0DE + bench);
    std::vector<std::vector<std::uint64_t>> lane_inputs(kNumLanes);
    std::vector<std::vector<LaneFault>> lane_faults(kNumLanes);
    for (int lane = 0; lane < kNumLanes; ++lane) {
      for (int t = 0; t < kCycles; ++t) {
        lane_inputs[static_cast<std::size_t>(lane)].push_back(rng.pick(codes));
      }
      for (int k = 0; k < kFaultsPerLane; ++k) {
        lane_faults[static_cast<std::size_t>(lane)].push_back(
            LaneFault{static_cast<std::size_t>(rng.below(sites.size())),
                      static_cast<int>(rng.below(kCycles)), random_kind(rng)});
      }
    }

    // Batched pass: all 64 lanes in one simulator.
    Simulator batched(*c.module);
    const Simulator::WireHandle symbol_h = batched.input_handle(c.symbol_input_wire);
    const Simulator::WireHandle state_h = batched.probe(c.state_wire);
    const Simulator::WireHandle alert_h = batched.probe(c.alert_wire);
    std::vector<std::int32_t> site_net;
    for (const FaultSite& s : sites) site_net.push_back(batched.net_index(s.bit));
    std::vector<std::vector<std::uint64_t>> got_state(kNumLanes);
    std::vector<std::vector<std::uint64_t>> got_alert(kNumLanes);
    for (int t = 0; t < kCycles; ++t) {
      for (int lane = 0; lane < kNumLanes; ++lane) {
        batched.set_input_lane(symbol_h, lane,
                               lane_inputs[static_cast<std::size_t>(lane)][static_cast<std::size_t>(t)]);
        for (const LaneFault& lf : lane_faults[static_cast<std::size_t>(lane)]) {
          if (lf.cycle == t) {
            batched.inject_net(site_net[lf.site], lf.kind, 1ULL << lane);
          }
        }
      }
      batched.eval();
      for (int lane = 0; lane < kNumLanes; ++lane) {
        got_alert[static_cast<std::size_t>(lane)].push_back(batched.get_lane(alert_h, lane));
      }
      batched.step();
      for (int lane = 0; lane < kNumLanes; ++lane) {
        got_state[static_cast<std::size_t>(lane)].push_back(batched.get_lane(state_h, lane));
      }
    }

    // Scalar replay: one fresh single-context simulator per lane.
    for (int lane = 0; lane < kNumLanes; ++lane) {
      Simulator scalar(*c.module);
      const Simulator::WireHandle sym = scalar.input_handle(c.symbol_input_wire);
      const Simulator::WireHandle st = scalar.probe(c.state_wire);
      const Simulator::WireHandle al = scalar.probe(c.alert_wire);
      for (int t = 0; t < kCycles; ++t) {
        scalar.set_input(sym, lane_inputs[static_cast<std::size_t>(lane)][static_cast<std::size_t>(t)]);
        for (const LaneFault& lf : lane_faults[static_cast<std::size_t>(lane)]) {
          if (lf.cycle == t) scalar.inject(sites[lf.site].bit, lf.kind);
        }
        scalar.eval();
        ASSERT_EQ(scalar.get(al), got_alert[static_cast<std::size_t>(lane)][static_cast<std::size_t>(t)])
            << f.name << " lane " << lane << " cycle " << t;
        scalar.step();
        ASSERT_EQ(scalar.get(st), got_state[static_cast<std::size_t>(lane)][static_cast<std::size_t>(t)])
            << f.name << " lane " << lane << " cycle " << t;
      }
    }
  }
}

TEST(SimParallel, StuckFaultsAreLaneLocal) {
  rtlil::Design d;
  rtlil::Module* m = d.add_module("m");
  rtlil::Wire* a = m->add_input("a", 1);
  rtlil::Wire* y = m->add_output("y", 1);
  m->drive(rtlil::SigSpec(y), m->make_buf(rtlil::SigSpec(a)));
  Simulator s(*m);
  const Simulator::WireHandle ah = s.input_handle("a");
  const Simulator::WireHandle yh = s.probe("y");
  s.set_input(ah, 1);  // all lanes high
  s.inject(rtlil::SigBit(a, 0), FaultKind::kStuckAt0, 1ULL << 3);
  s.eval();
  EXPECT_EQ(s.get_lane(yh, 3), 0u);
  EXPECT_EQ(s.get_lane(yh, 0), 1u);
  EXPECT_EQ(s.get_lane(yh, 63), 1u);
  // A transient in another lane expires after one step; the stuck lane stays.
  s.inject(rtlil::SigBit(a, 0), FaultKind::kTransientFlip, 1ULL << 5);
  s.eval();
  EXPECT_EQ(s.get_lane(yh, 5), 0u);
  s.step();
  EXPECT_EQ(s.get_lane(yh, 5), 1u);
  EXPECT_EQ(s.get_lane(yh, 3), 0u);
}

TEST(SimParallel, WideLaneFaultsAreLaneLocal) {
  // StuckFaultsAreLaneLocal past word 0: lanes of different block words
  // carry independent faults, and a transient in word 7 expires on step()
  // without touching a stuck lane in word 1.
  rtlil::Design d;
  rtlil::Module* m = d.add_module("m_wide");
  rtlil::Wire* a = m->add_input("a", 1);
  rtlil::Wire* y = m->add_output("y", 1);
  m->drive(rtlil::SigSpec(y), m->make_buf(rtlil::SigSpec(a)));
  Simulator s(*m, /*lane_words=*/8);
  ASSERT_EQ(s.num_lanes(), kMaxLanes);
  const Simulator::WireHandle ah = s.input_handle("a");
  const Simulator::WireHandle yh = s.probe("y");
  s.set_input(ah, 1);  // all 512 lanes high
  s.inject(rtlil::SigBit(a, 0), FaultKind::kStuckAt0, LaneMask::lane(100));
  s.eval();
  EXPECT_EQ(s.get_lane(yh, 100), 0u);
  EXPECT_EQ(s.get_lane(yh, 99), 1u);
  EXPECT_EQ(s.get_lane(yh, 0), 1u);
  EXPECT_EQ(s.get_lane(yh, 511), 1u);
  s.inject(rtlil::SigBit(a, 0), FaultKind::kTransientFlip, LaneMask::lane(500));
  s.eval();
  EXPECT_EQ(s.get_lane(yh, 500), 0u);
  s.step();
  EXPECT_EQ(s.get_lane(yh, 500), 1u);
  EXPECT_EQ(s.get_lane(yh, 100), 0u);
}

TEST(SimParallel, TransientInjectionsCoalescePerNet) {
  // Repeated transient injections on one net within a cycle must merge into
  // one pending entry (step()'s clear pass is O(distinct nets)), and the
  // merged mask must clear both lanes on the next step.
  rtlil::Design d;
  rtlil::Module* m = d.add_module("m_coalesce");
  rtlil::Wire* a = m->add_input("a", 1);
  rtlil::Wire* b = m->add_input("b", 1);
  rtlil::Wire* y = m->add_output("y", 2);
  m->drive(rtlil::SigSpec(rtlil::SigBit(y, 0)), m->make_buf(rtlil::SigSpec(a)));
  m->drive(rtlil::SigSpec(rtlil::SigBit(y, 1)), m->make_buf(rtlil::SigSpec(b)));
  Simulator s(*m, /*lane_words=*/2);
  const Simulator::WireHandle yh = s.probe("y");
  s.set_input(s.input_handle("a"), 1);
  s.set_input(s.input_handle("b"), 1);
  EXPECT_EQ(s.pending_transient_nets(), 0);
  s.inject(rtlil::SigBit(a, 0), FaultKind::kTransientFlip, LaneMask::lane(3));
  s.inject(rtlil::SigBit(a, 0), FaultKind::kTransientFlip, LaneMask::lane(70));
  s.inject(rtlil::SigBit(a, 0), FaultKind::kTransientFlip, LaneMask::lane(3));
  EXPECT_EQ(s.pending_transient_nets(), 1);  // coalesced, not 3 entries
  s.inject(rtlil::SigBit(b, 0), FaultKind::kTransientFlip, LaneMask::lane(9));
  EXPECT_EQ(s.pending_transient_nets(), 2);  // distinct net, new entry
  s.eval();
  EXPECT_EQ(s.get_lane(yh, 3), 0b10u);
  EXPECT_EQ(s.get_lane(yh, 70), 0b10u);
  EXPECT_EQ(s.get_lane(yh, 9), 0b01u);
  EXPECT_EQ(s.get_lane(yh, 0), 0b11u);
  s.step();
  EXPECT_EQ(s.pending_transient_nets(), 0);
  for (const int lane : {3, 70, 9, 0}) {
    EXPECT_EQ(s.get_lane(yh, lane), 0b11u) << "lane " << lane;
  }
  // clear_all_faults must also reset the coalescing slots, so a fresh
  // injection on the same net starts a fresh entry.
  s.inject(rtlil::SigBit(a, 0), FaultKind::kTransientFlip, LaneMask::lane(1));
  s.clear_all_faults();
  EXPECT_EQ(s.pending_transient_nets(), 0);
  s.inject(rtlil::SigBit(a, 0), FaultKind::kTransientFlip, LaneMask::lane(2));
  EXPECT_EQ(s.pending_transient_nets(), 1);
  s.step();
  EXPECT_EQ(s.get_lane(yh, 2), 0b11u);
}

TEST(SimParallel, SegmentedEvalMatchesReferenceTapeOnZoo) {
  // The kind-segmented levelized tape (eval) against the original-order
  // switch-per-op tape (eval_reference): identical fault-corrected values
  // on every net of every zoo module, at every lane-block width, with
  // random per-lane stimulus and armed faults. This is the differential
  // oracle for the (level, kind) stable-sort reordering and the no-fault
  // fast path.
  for (const ot::OtEntry& entry : ot::ot_zoo()) {
    rtlil::Design d;
    const fsm::CompiledFsm c =
        ot::build_ot_variant(entry, d, ot::Variant::kScfi, 2, entry.name + "_segeval");
    const std::vector<FaultSite> sites = enumerate_fault_sites(*c.module, c.state_wire);
    ASSERT_FALSE(sites.empty());
    std::vector<std::uint64_t> codes;
    for (const auto& [symbol, code] : c.symbol_codes) codes.push_back(code);

    for (const int lane_words : {1, 2, 4, 8}) {
      Simulator sim(*c.module, lane_words);
      const Simulator::WireHandle symbol_h = sim.input_handle(c.symbol_input_wire);
      Rng rng(0x5E6 + static_cast<std::uint64_t>(lane_words));
      // Random per-word symbol stimulus (valid codewords in lane 0 are not
      // required: the oracle property holds for arbitrary bit soup).
      for (int i = 0; i < symbol_h.width; ++i) {
        for (int w = 0; w < lane_words; ++w) {
          sim.set_input_word(symbol_h, i, rng.next(), w);
        }
      }

      const auto snapshot = [&] {
        std::vector<std::uint64_t> all;
        all.reserve(static_cast<std::size_t>(sim.num_nets() * lane_words));
        for (const rtlil::Wire* wire : c.module->wires()) {
          const Simulator::WireHandle h = sim.probe(wire->name());
          for (std::int32_t i = 0; i < h.width; ++i) {
            for (int w = 0; w < lane_words; ++w) all.push_back(sim.lane_word(h.base + i, w));
          }
        }
        return all;
      };

      // No-fault fast path vs reference.
      sim.eval();
      const std::vector<std::uint64_t> segmented = snapshot();
      sim.eval_reference();
      EXPECT_EQ(segmented, snapshot()) << entry.name << " W=" << lane_words << " no-fault";

      // Armed faults (masked loads) vs reference.
      for (int k = 0; k < 6; ++k) {
        const FaultSite& site = sites[static_cast<std::size_t>(rng.below(sites.size()))];
        sim.inject(site.bit, random_kind(rng),
                   LaneMask::lane(static_cast<int>(rng.below(
                       static_cast<std::uint64_t>(sim.num_lanes())))));
      }
      sim.eval();
      const std::vector<std::uint64_t> faulty = snapshot();
      sim.eval_reference();
      EXPECT_EQ(faulty, snapshot()) << entry.name << " W=" << lane_words << " faulty";
    }
  }
}

TEST(SimLatch, EvalLatchEvalAndStepMatchAnEdgeOracle) {
  // latch() and step() against a clock-edge model that never calls
  // latch(). The model tracks every injected fault per net and lane (the
  // last injection on a lane wins; flips and skips last one edge) and the
  // raw stored value of every flip-flop bit. At an edge it computes the new
  // raw Q from the settled, fault-masked D words, keeping the old raw Q in
  // skip-cycle lanes. Right after latch() every Q word must read as the
  // model's raw Q under the surviving stuck-at faults; after the next
  // eval() every net word must equal an oracle simulator loaded with the
  // model's raw Q, the same inputs and only the stuck-at faults, then
  // settled. A third simulator runs step() on the same stimulus and must
  // match that oracle too. Covers every zoo module in all three variants
  // at every lane-block width, with random per-lane flip, stuck-at and
  // skip faults, half of them on register outputs, plus one skip paired
  // with a read fault on the same Q net every cycle.
  const std::pair<ot::Variant, const char*> variants[] = {
      {ot::Variant::kScfi, "scfi"},
      {ot::Variant::kUnprotected, "unprotected"},
      {ot::Variant::kRedundancy, "redundancy"}};
  const FaultKind kinds[] = {FaultKind::kTransientFlip, FaultKind::kStuckAt0,
                             FaultKind::kStuckAt1, FaultKind::kSkipCycle};
  struct FfBit {
    rtlil::SigBit d;
    rtlil::SigBit q;
  };
  for (const ot::OtEntry& entry : ot::ot_zoo()) {
    for (const auto& [variant, variant_name] : variants) {
      rtlil::Design d;
      const fsm::CompiledFsm c =
          ot::build_ot_variant(entry, d, variant, 2, entry.name + "_latch");
      const std::vector<FaultSite> sites = enumerate_fault_sites(*c.module, c.state_wire);
      ASSERT_FALSE(sites.empty());
      std::vector<FfBit> ffs;
      for (const rtlil::Cell* cell : c.module->cells()) {
        if (!rtlil::is_ff(cell->type())) continue;
        for (int i = 0; i < cell->port("Q").width(); ++i) {
          ffs.push_back({cell->port("D").bit(i), cell->port("Q").bit(i)});
        }
      }
      ASSERT_FALSE(ffs.empty());
      for (const int lane_words : {1, 2, 4, 8}) {
        const auto words = static_cast<std::size_t>(lane_words);
        Simulator split(*c.module, lane_words);
        Simulator stepped(*c.module, lane_words);
        Simulator oracle(*c.module, lane_words);
        const auto num_nets = static_cast<std::size_t>(split.num_nets());
        std::vector<Simulator::WireHandle> inputs;
        for (const rtlil::Wire* wire : c.module->wires()) {
          if (wire->is_input()) inputs.push_back(split.input_handle(wire->name()));
        }
        std::vector<std::int32_t> q_net(ffs.size());
        std::vector<Simulator::WireHandle> q_wire(ffs.size());
        std::vector<std::int32_t> ff_of_q(num_nets, -1);
        for (std::size_t i = 0; i < ffs.size(); ++i) {
          q_net[i] = split.net_index(ffs[i].q);
          q_wire[i] = split.probe(ffs[i].q.wire->name());
          ff_of_q[static_cast<std::size_t>(q_net[i])] = static_cast<std::int32_t>(i);
        }
        // Model state, net * words + word (ff * words + word for the FFs).
        std::vector<std::uint64_t> stuck0(num_nets * words), stuck1(num_nets * words),
            flip(num_nets * words), skip(ffs.size() * words), raw_q(ffs.size() * words);
        for (std::size_t i = 0; i < ffs.size(); ++i) {
          for (std::size_t w = 0; w < words; ++w) {
            raw_q[i * words + w] = split.lane_word(q_net[i], static_cast<int>(w));
          }
        }
        const auto observed = [&](std::size_t net, std::size_t w, std::uint64_t raw) {
          const std::size_t i = net * words + w;
          return ((raw ^ flip[i]) & ~(stuck0[i] | stuck1[i])) | stuck1[i];
        };
        Rng rng(0x1A7C4 + static_cast<std::uint64_t>(lane_words));
        const std::string where =
            entry.name + " " + variant_name + " W=" + std::to_string(lane_words);
        std::vector<std::uint64_t> input_words;
        for (int cycle = 0; cycle < 12; ++cycle) {
          input_words.clear();
          for (const Simulator::WireHandle& h : inputs) {
            for (int i = 0; i < h.width; ++i) {
              for (int w = 0; w < lane_words; ++w) {
                const std::uint64_t word = rng.next();
                input_words.push_back(word);
                split.set_input_word(h, i, word, w);
                stepped.set_input_word(h, i, word, w);
              }
            }
          }
          if (cycle % 5 == 4) {
            split.clear_all_faults();
            stepped.clear_all_faults();
            for (auto* v : {&stuck0, &stuck1, &flip, &skip}) std::fill(v->begin(), v->end(), 0);
          }
          const auto inject = [&](const rtlil::SigBit& bit, FaultKind kind) {
            LaneMask lanes;
            for (std::size_t w = 0; w < words; ++w) lanes.w[w] = rng.next() & rng.next();
            split.inject(bit, kind, lanes);
            stepped.inject(bit, kind, lanes);
            const auto net = static_cast<std::size_t>(split.net_index(bit));
            for (std::size_t w = 0; w < words; ++w) {
              const std::uint64_t l = lanes.w[w];
              if (kind == FaultKind::kSkipCycle) {
                // A skip on a non-register net is a documented no-op.
                if (ff_of_q[net] >= 0) {
                  skip[static_cast<std::size_t>(ff_of_q[net]) * words + w] |= l;
                }
                continue;
              }
              const std::size_t i = net * words + w;
              stuck0[i] &= ~l;
              stuck1[i] &= ~l;
              flip[i] &= ~l;
              if (kind == FaultKind::kStuckAt0) stuck0[i] |= l;
              if (kind == FaultKind::kStuckAt1) stuck1[i] |= l;
              if (kind == FaultKind::kTransientFlip) flip[i] |= l;
            }
          };
          for (int f = static_cast<int>(rng.below(6)); f > 0; --f) {
            const FaultKind kind = kinds[rng.below(4)];
            inject(rng.below(2) == 0 ? ffs[rng.below(ffs.size())].q
                                     : sites[static_cast<std::size_t>(rng.below(sites.size()))].bit,
                   kind);
          }
          // A skip and a read fault on the same Q net, in either order: the
          // skipped lanes keep the raw stored value, not the faulted reading.
          const rtlil::SigBit q = ffs[rng.below(ffs.size())].q;
          const FaultKind read_fault = kinds[rng.below(3)];
          if (rng.below(2) == 0) {
            inject(q, FaultKind::kSkipCycle);
            inject(q, read_fault);
          } else {
            inject(q, read_fault);
            inject(q, FaultKind::kSkipCycle);
          }

          // The edge: settle, read the fault-masked D words, latch.
          split.eval();
          std::vector<std::uint64_t> next_q(ffs.size() * words);
          for (std::size_t i = 0; i < ffs.size(); ++i) {
            for (std::size_t w = 0; w < words; ++w) {
              const std::uint64_t dw =
                  ffs[i].d.is_const()
                      ? (ffs[i].d.const_value() ? ~0ULL : 0)
                      : split.lane_word(split.net_index(ffs[i].d), static_cast<int>(w));
              const std::uint64_t s = skip[i * words + w];
              next_q[i * words + w] = (dw & ~s) | (raw_q[i * words + w] & s);
            }
          }
          split.latch();
          raw_q = next_q;
          std::fill(flip.begin(), flip.end(), 0);
          std::fill(skip.begin(), skip.end(), 0);
          for (std::size_t i = 0; i < ffs.size(); ++i) {
            for (std::size_t w = 0; w < words; ++w) {
              ASSERT_EQ(split.lane_word(q_net[i], static_cast<int>(w)),
                        observed(static_cast<std::size_t>(q_net[i]), w, raw_q[i * words + w]))
                  << where << " cycle " << cycle << " ff bit " << i << " word " << w
                  << " after latch()";
            }
          }
          EXPECT_EQ(split.pending_transient_nets(), 0) << where;
          EXPECT_EQ(split.pending_skip_ffs(), 0) << where;
          split.eval();
          stepped.step();

          // The oracle: model state loaded directly, then one settle.
          std::size_t next_input = 0;
          for (const Simulator::WireHandle& h : inputs) {
            for (int i = 0; i < h.width; ++i) {
              for (int w = 0; w < lane_words; ++w) {
                oracle.set_input_word(h, i, input_words[next_input++], w);
              }
            }
          }
          for (std::size_t i = 0; i < ffs.size(); ++i) {
            const int bit = ffs[i].q.offset;
            for (std::size_t w = 0; w < words; ++w) {
              oracle.set_register_word(q_wire[i], bit, raw_q[i * words + w], static_cast<int>(w));
            }
          }
          oracle.clear_all_faults();
          for (std::size_t net = 2; net < num_nets; ++net) {
            LaneMask s0, s1;
            for (std::size_t w = 0; w < words; ++w) {
              s0.w[w] = stuck0[net * words + w];
              s1.w[w] = stuck1[net * words + w];
            }
            const auto n = static_cast<std::int32_t>(net);
            if (s0.any()) oracle.inject_net(n, FaultKind::kStuckAt0, s0);
            if (s1.any()) oracle.inject_net(n, FaultKind::kStuckAt1, s1);
          }
          oracle.eval();
          for (std::int32_t net = 0; net < split.num_nets(); ++net) {
            for (int w = 0; w < lane_words; ++w) {
              ASSERT_EQ(split.lane_word(net, w), oracle.lane_word(net, w))
                  << where << " cycle " << cycle << " net " << net << " word " << w
                  << " eval(); latch(); eval();";
              ASSERT_EQ(stepped.lane_word(net, w), oracle.lane_word(net, w))
                  << where << " cycle " << cycle << " net " << net << " word " << w
                  << " step()";
            }
          }
        }
      }
    }
  }
}

TEST(SimLatch, LatchAfterAnUnsettledMutatorThrows) {
  // latch() copies the settled D values, so every mutator since the last
  // eval() — and a previous latch() — must make it refuse; an eval()
  // re-arms it.
  rtlil::Design d;
  const ot::OtEntry entry = ot::ot_entry("pwrmgr_fsm");
  const fsm::CompiledFsm c =
      ot::build_ot_variant(entry, d, ot::Variant::kScfi, 2, "pwrmgr_latch_guard");
  Simulator sim(*c.module, 2);
  const Simulator::WireHandle in = sim.input_handle(c.symbol_input_wire);
  const Simulator::WireHandle state = sim.probe(c.state_wire);
  const std::vector<FaultSite> sites = enumerate_fault_sites(*c.module, c.state_wire);
  ASSERT_FALSE(sites.empty());
  const rtlil::SigBit site = sites.front().bit;
  const rtlil::SigBit state_bit(c.module->wire(c.state_wire), 0);
  const std::vector<std::pair<const char*, std::function<void()>>> mutators = {
      {"set_input(name)", [&] { sim.set_input(c.symbol_input_wire, 1); }},
      {"set_input(handle)", [&] { sim.set_input(in, 1); }},
      {"set_input_lane", [&] { sim.set_input_lane(in, 70, 1); }},
      {"set_input_word", [&] { sim.set_input_word(in, 0, ~0ULL, 1); }},
      {"set_register(handle)", [&] { sim.set_register(state, 0); }},
      {"set_register_word", [&] { sim.set_register_word(state, 0, ~0ULL, 1); }},
      {"inject", [&] { sim.inject(site, FaultKind::kTransientFlip); }},
      {"inject_net(skip)",
       [&] { sim.inject_net(sim.net_index(state_bit), FaultKind::kSkipCycle, LaneMask(1)); }},
      {"clear_fault", [&] { sim.clear_fault(site); }},
      {"clear_all_faults", [&] { sim.clear_all_faults(); }},
      {"latch", [&] { sim.latch(); }},
  };
  for (const auto& [name, mutate] : mutators) {
    sim.eval();
    mutate();
    EXPECT_THROW(sim.latch(), LogicBug) << name;
    sim.eval();
    EXPECT_NO_THROW(sim.latch()) << name;
  }
  // Settling mutators and reset() leave the netlist latchable.
  sim.set_register(c.state_wire, 0);
  EXPECT_NO_THROW(sim.latch());
  sim.reset();
  EXPECT_NO_THROW(sim.latch());
  sim.step();
  EXPECT_NO_THROW(sim.latch());
}

TEST(SimLatch, SetRegisterLanesWritesOnlyItsLanes) {
  // The campaign's lane pool starts a run in one lane of a word whose other
  // lanes are mid-run: the write must leave their stored bits, stuck lanes
  // included, as they were, and like every mutator it unsettles.
  rtlil::Design d;
  const ot::OtEntry entry = ot::ot_entry("pwrmgr_fsm");
  const fsm::CompiledFsm c =
      ot::build_ot_variant(entry, d, ot::Variant::kScfi, 2, "pwrmgr_register_lanes");
  Simulator sim(*c.module, 2);
  const Simulator::WireHandle state = sim.probe(c.state_wire);
  const std::int32_t bit0 = state.base;
  const std::uint64_t word0 = sim.lane_word(bit0, 0);
  sim.set_register_word(state, 0, 0xF0F0ULL, 1);
  sim.inject_net(bit0, FaultKind::kStuckAt0, LaneMask::lane(64 + 12));
  sim.eval();
  sim.set_register_lanes(state, 0, 0x00FFULL, 0x0A0AULL, 1);
  EXPECT_THROW(sim.latch(), LogicBug);
  sim.inject_net(bit0, FaultKind::kNone, LaneMask::lane(64 + 12));
  EXPECT_EQ(sim.lane_word(bit0, 1), 0xF00AULL);
  EXPECT_EQ(sim.lane_word(bit0, 0), word0);
}

TEST(SimParallel, CampaignInvariantUnderLanesAndThreads) {
  const fsm::Fsm f = test::synfi_fsm();
  rtlil::Design d;
  const fsm::CompiledFsm plain = fsm::compile_unprotected(f, d);
  core::ScfiConfig sc;
  sc.protection_level = 3;
  const fsm::CompiledFsm hardened = core::scfi_harden(f, d, sc);
  for (const fsm::CompiledFsm* variant : {&plain, &hardened}) {
    for (const FaultKind kind : {FaultKind::kTransientFlip, FaultKind::kStuckAt1}) {
      CampaignConfig base;
      base.runs = 200;
      base.cycles = 12;
      base.fault.k = 2;
      base.fault.kinds = {kind};
      base.seed = 99;
      base.lanes = 1;
      const CampaignResult scalar = run_campaign(f, *variant, base);
      // All four lane-block widths (1/2/4/8 words -> 64/128/256/512
      // lanes) plus ragged shapes, against the scalar reference.
      for (const int lanes : {7, 64, 100, 128, 256, 512}) {
        CampaignConfig cfg = base;
        cfg.lanes = lanes;
        EXPECT_EQ(run_campaign(f, *variant, cfg), scalar) << "lanes=" << lanes;
      }
      for (const int lanes : {64, 512}) {
        CampaignConfig threaded = base;
        threaded.lanes = lanes;
        threaded.threads = 4;
        EXPECT_EQ(run_campaign(f, *variant, threaded), scalar)
            << "lanes=" << lanes << " threads=4";
      }
    }
  }
}

TEST(SimParallel, CampaignSeedIsDeterministic) {
  const fsm::Fsm f = test::paper_fsm();
  rtlil::Design d;
  const fsm::CompiledFsm plain = fsm::compile_unprotected(f, d);
  CampaignConfig cfg;
  cfg.runs = 150;
  cfg.cycles = 10;
  cfg.fault.k = 3;
  cfg.seed = 7;
  cfg.threads = 3;
  const CampaignResult first = run_campaign(f, plain, cfg);
  const CampaignResult second = run_campaign(f, plain, cfg);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.runs, cfg.runs);
  EXPECT_EQ(first.masked + first.detected + first.hijacked + first.lagged +
                first.silent_invalid,
            cfg.runs);
  cfg.seed = 8;
  EXPECT_NE(run_campaign(f, plain, cfg), first);
}

TEST(SimParallel, DistinctFaultSitesWhenPopulationSuffices) {
  // FT1 on the unprotected paper FSM has exactly state_width sites; ask for
  // all of them and verify classification still accounts every run (the old
  // rejection sampler could silently double-fault one site, which showed up
  // as biased masking; here we only require the draw machinery to accept
  // fault.k == population).
  const fsm::Fsm f = test::paper_fsm();
  rtlil::Design d;
  const fsm::CompiledFsm plain = fsm::compile_unprotected(f, d);
  CampaignConfig cfg;
  cfg.runs = 100;
  cfg.cycles = 8;
  cfg.fault.target = FaultTarget::kStateRegister;
  cfg.fault.k = plain.state_width;  // == site population for FT1
  cfg.seed = 3;
  const CampaignResult r = run_campaign(f, plain, cfg);
  EXPECT_EQ(r.masked + r.detected + r.hijacked + r.lagged + r.silent_invalid, cfg.runs);
  // With every state-register bit flipped in each run, no run can be masked
  // unless every flip lands after the walk's effect horizon; the overwhelming
  // majority must be effective.
  EXPECT_GT(r.effective(), 0);
}

TEST(SimParallel, OverCapCampaignRunsWithStreamingPlanner) {
  // A large campaign runs to completion with the streaming planner and
  // stays bit-identical across lane/thread packings while accounting every
  // run.
  const fsm::Fsm f = test::paper_fsm();
  rtlil::Design d;
  const fsm::CompiledFsm plain = fsm::compile_unprotected(f, d);

  CampaignConfig cfg;
  cfg.runs = 300'000;
  cfg.cycles = 3;
  cfg.fault.k = 1;
  cfg.seed = 11;
  const CampaignResult r = run_campaign(f, plain, cfg);
  EXPECT_EQ(r.runs, cfg.runs);
  EXPECT_EQ(r.masked + r.detected + r.hijacked + r.lagged + r.silent_invalid, cfg.runs);

  CampaignConfig threaded = cfg;
  threaded.lanes = 7;
  threaded.threads = 4;
  EXPECT_EQ(run_campaign(f, plain, threaded), r);
}

TEST(SimParallel, LaneClassifierMatchesCodesInTheGivenLanes) {
  // The codeword match both fault engines classify with, against a
  // per-lane decode. The variant's code table is doctored: a code whose
  // low bits equal state 0's but with a bit above the register width (it
  // must never match), and a state code equal to the error code (its lanes
  // must show up as error lanes only).
  const fsm::Fsm f = test::toggle_fsm();
  rtlil::Design d;
  core::ScfiConfig config;
  config.protection_level = 2;
  fsm::CompiledFsm c = core::scfi_harden(f, d, config);
  ASSERT_TRUE(c.has_error_state);
  const int width = c.module->wire(c.state_wire)->width();
  ASSERT_LT(width, 63);
  const std::uint64_t s0 = c.state_codes[0];
  const std::uint64_t s1 = c.state_codes[1];
  c.state_codes = {s0, s1, (1ULL << width) | s0, c.error_code};
  std::uint64_t junk = 1;  // in range, neither a state code nor the error code
  while (junk == s0 || junk == s1 || junk == c.error_code) ++junk;
  ASSERT_LT(junk, 1ULL << width);
  const std::uint64_t values[] = {s0, s1, c.error_code, junk};

  const VariantNetlist net(c);
  for (const int lane_words : {1, 8}) {
    LaneClassifier classifier(net, lane_words);
    const int lanes = 64 * lane_words;
    const auto value_of = [&](int lane) { return values[(lane * 7 + lane / 5) % 4]; };
    const auto in_set = [](int lane) { return lane % 3 != 0; };
    LaneWords set{};
    for (int lane = 0; lane < lanes; ++lane) {
      if (in_set(lane)) set[static_cast<std::size_t>(lane >> 6)] |= 1ULL << (lane & 63);
    }
    for (int i = 0; i < width; ++i) {
      for (int w = 0; w < lane_words; ++w) {
        std::uint64_t word = 0;
        for (int j = 0; j < 64; ++j) word |= ((value_of(w * 64 + j) >> i) & 1) << j;
        classifier.sim.set_register_word(classifier.state_h, i, word, w);
      }
    }
    classifier.match(set);
    for (int lane = 0; lane < lanes; ++lane) {
      const auto w = static_cast<std::size_t>(lane >> 6);
      const auto bit = [&](std::uint64_t word) { return ((word >> (lane & 63)) & 1) != 0; };
      const bool live = in_set(lane);
      const std::uint64_t v = value_of(lane);
      const std::string where =
          "lane_words=" + std::to_string(lane_words) + " lane=" + std::to_string(lane);
      EXPECT_EQ(bit(classifier.error()[w]), live && v == c.error_code) << where;
      EXPECT_EQ(bit(classifier.state_eq(0, w)), live && v == s0) << where;
      EXPECT_EQ(bit(classifier.state_eq(1, w)), live && v == s1) << where;
      EXPECT_FALSE(bit(classifier.state_eq(2, w))) << where;
      EXPECT_FALSE(bit(classifier.state_eq(3, w))) << where;
      EXPECT_EQ(bit(classifier.valid()[w]), live && (v == s0 || v == s1)) << where;
    }
  }
}

TEST(SimSlice, ConeNetsMatchUnslicedSimulator) {
  // The simulator both fault engines run is sliced to the state/alert cone
  // (LaneClassifier's constructor). Against an unsliced Simulator of the
  // same variant, under the same random per-lane symbols, states and
  // faults of every kind — on live nets, dead nets and dead flip-flops —
  // every cone net must agree lane for lane after every settle and latch.
  constexpr FaultKind kKinds[] = {FaultKind::kTransientFlip, FaultKind::kStuckAt0,
                                  FaultKind::kStuckAt1, FaultKind::kSkipCycle};
  constexpr int kCycles = 6;
  constexpr int kFaultsPerCycle = 8;
  std::size_t dead_ffs_seen = 0;
  for (const ot::OtEntry& entry : ot::ot_zoo()) {
    for (const ot::Variant variant :
         {ot::Variant::kScfi, ot::Variant::kUnprotected, ot::Variant::kRedundancy}) {
      rtlil::Design d;
      const fsm::CompiledFsm c =
          ot::build_ot_variant(entry, d, variant, 2, entry.name + "_slice");
      const VariantNetlist net(c);
      for (const int lane_words : {1, 2, 4, 8}) {
        const std::string where = entry.name + " variant=" +
                                  std::to_string(static_cast<int>(variant)) +
                                  " W=" + std::to_string(lane_words);
        LaneClassifier classifier(net, lane_words);
        Simulator& sliced = classifier.sim;
        Simulator full(*c.module, lane_words);
        const std::vector<char>& cone = classifier.observable_nets();
        std::vector<std::int32_t> live_nets;
        std::vector<std::int32_t> dead_nets;
        for (std::int32_t net = 2; net < full.num_nets(); ++net) {
          (cone[static_cast<std::size_t>(net)] != 0 ? live_nets : dead_nets).push_back(net);
        }
        const std::vector<std::int32_t> all_regs = full.register_nets();
        std::vector<std::int32_t> live_regs;
        std::vector<std::int32_t> dead_regs;
        for (const std::int32_t q : all_regs) {
          (cone[static_cast<std::size_t>(q)] != 0 ? live_regs : dead_regs).push_back(q);
        }
        EXPECT_EQ(sliced.register_nets(), live_regs) << where;
        dead_ffs_seen += dead_regs.size();

        Rng rng(0x511CE + static_cast<std::uint64_t>(lane_words));
        // Per-lane words ([bit * W + word]) of a `width`-bit value: random
        // bits, with about half the lanes overwritten by one of `codes`.
        const auto lane_values = [&](int width, const std::vector<std::uint64_t>& codes) {
          std::vector<std::uint64_t> words(static_cast<std::size_t>(width * lane_words));
          for (std::uint64_t& word : words) word = rng.next();
          for (int lane = 0; lane < 64 * lane_words && !codes.empty(); ++lane) {
            if (rng.below(2) == 0) continue;
            const std::uint64_t code = rng.pick(codes);
            const std::uint64_t bit = 1ULL << (lane & 63);
            for (int i = 0; i < std::min(width, 64); ++i) {
              std::uint64_t& word = words[static_cast<std::size_t>(i * lane_words + (lane >> 6))];
              word = ((code >> i) & 1) != 0 ? word | bit : word & ~bit;
            }
          }
          return words;
        };
        std::vector<std::uint64_t> symbol_codes;
        for (const auto& [symbol, code] : c.symbol_codes) symbol_codes.push_back(code);
        const Simulator::WireHandle state_h = full.probe(c.state_wire);
        const std::vector<std::uint64_t> state = lane_values(state_h.width, c.state_codes);
        for (int i = 0; i < state_h.width; ++i) {
          for (int w = 0; w < lane_words; ++w) {
            const std::uint64_t word = state[static_cast<std::size_t>(i * lane_words + w)];
            sliced.set_register_word(state_h, i, word, w);
            full.set_register_word(state_h, i, word, w);
          }
        }
        const auto first_mismatch = [&]() -> std::int32_t {
          for (const std::int32_t net : live_nets) {
            for (int w = 0; w < lane_words; ++w) {
              if (sliced.lane_word(net, w) != full.lane_word(net, w)) return net;
            }
          }
          return -1;
        };

        for (int t = 0; t < kCycles; ++t) {
          for (const rtlil::Wire* wire : c.module->wires()) {
            if (!wire->is_input()) continue;
            const Simulator::WireHandle h = full.input_handle(wire->name());
            const std::vector<std::uint64_t> in = lane_values(
                h.width, wire->name() == c.symbol_input_wire ? symbol_codes
                                                             : std::vector<std::uint64_t>{});
            for (int i = 0; i < h.width; ++i) {
              for (int w = 0; w < lane_words; ++w) {
                const std::uint64_t word = in[static_cast<std::size_t>(i * lane_words + w)];
                sliced.set_input_word(h, i, word, w);
                full.set_input_word(h, i, word, w);
              }
            }
          }
          // A skip on a dead flip-flop arms nothing on the sliced simulator.
          for (const std::int32_t q : dead_regs) {
            const LaneMask lanes = LaneMask::lane(
                static_cast<int>(rng.below(static_cast<std::uint64_t>(sliced.num_lanes()))));
            sliced.inject_net(q, FaultKind::kSkipCycle, lanes);
            full.inject_net(q, FaultKind::kSkipCycle, lanes);
          }
          EXPECT_EQ(sliced.pending_skip_ffs(), 0) << where << " t=" << t;
          EXPECT_EQ(full.pending_skip_ffs(), static_cast<int>(dead_regs.size()))
              << where << " t=" << t;
          for (int f = 0; f < kFaultsPerCycle; ++f) {
            const FaultKind kind = kKinds[rng.below(4)];
            const std::vector<std::int32_t>& pool =
                kind == FaultKind::kSkipCycle
                    ? (rng.below(2) == 0 && !dead_regs.empty() ? dead_regs : all_regs)
                    : (rng.below(2) == 0 && !dead_nets.empty() ? dead_nets : live_nets);
            if (pool.empty()) continue;
            const std::int32_t net = rng.pick(pool);
            const LaneMask lanes = LaneMask::lane(
                static_cast<int>(rng.below(static_cast<std::uint64_t>(sliced.num_lanes()))));
            sliced.inject_net(net, kind, lanes);
            full.inject_net(net, kind, lanes);
          }
          sliced.eval();
          full.eval();
          EXPECT_EQ(first_mismatch(), -1) << where << " t=" << t << " settled";
          sliced.latch();
          full.latch();
          EXPECT_EQ(first_mismatch(), -1) << where << " t=" << t << " latched";
        }
      }
    }
  }
  // The dead flip-flop cases above are not vacuous.
  EXPECT_GT(dead_ffs_seen, 0u);
}

TEST(CampaignKnobs, InvalidConfigThrows) {
  const ot::OtEntry entry = ot::ot_entry("adc_ctrl_fsm");
  rtlil::Design d;
  const fsm::CompiledFsm c =
      ot::build_ot_variant(entry, d, ot::Variant::kScfi, 2, entry.name + "_knobs");
  CampaignConfig base;
  base.runs = 100;
  base.lanes = 64;
  struct Case {
    const char* what;
    std::function<void(CampaignConfig&)> edit;
  };
  const std::vector<Case> invalid = {
      {"empty kinds", [](CampaignConfig& cfg) { cfg.fault.kinds.clear(); }},
      {"cycles = 0", [](CampaignConfig& cfg) { cfg.cycles = 0; }},
      {"cycles = -3", [](CampaignConfig& cfg) { cfg.cycles = -3; }},
      {"k = -1", [](CampaignConfig& cfg) { cfg.fault.k = -1; }},
      {"runs = -1", [](CampaignConfig& cfg) { cfg.runs = -1; }},
      {"threads = 0", [](CampaignConfig& cfg) { cfg.threads = 0; }},
      {"lanes = 0", [](CampaignConfig& cfg) { cfg.lanes = 0; }},
  };
  for (const Case& bad : invalid) {
    CampaignConfig cfg = base;
    bad.edit(cfg);
    EXPECT_THROW(run_campaign(entry.fsm, c, cfg), ScfiError) << bad.what;
  }
  // The boundaries stay legal: zero-fault and zero-run campaigns.
  CampaignConfig fault_free = base;
  fault_free.fault.k = 0;
  EXPECT_EQ(run_campaign(entry.fsm, c, fault_free).runs, 100);
  CampaignConfig empty = base;
  empty.runs = 0;
  EXPECT_EQ(run_campaign(entry.fsm, c, empty).runs, 0);
}

}  // namespace
}  // namespace scfi::sim
