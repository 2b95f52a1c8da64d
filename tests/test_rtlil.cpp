#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "base/error.h"
#include "rtlil/design.h"
#include "rtlil/flatten.h"
#include "rtlil/validate.h"

namespace scfi::rtlil {
namespace {

TEST(Const, RoundTrip) {
  const Const c = Const::from_uint(0b1010, 6);
  EXPECT_EQ(c.width(), 6);
  EXPECT_EQ(c.to_uint(), 0b1010u);
  EXPECT_EQ(c.to_string(), "001010");
}

TEST(SigSpec, FromWireAndExtract) {
  Design d;
  Module* m = d.add_module("m");
  Wire* w = m->add_wire("w", 8);
  const SigSpec s(w);
  EXPECT_EQ(s.width(), 8);
  const SigSpec mid = s.extract(2, 3);
  EXPECT_EQ(mid.width(), 3);
  EXPECT_EQ(mid.bit(0).offset, 2);
}

TEST(SigSpec, ConcatOrder) {
  const SigSpec lo(Const::from_uint(0b01, 2));
  const SigSpec hi(Const::from_uint(0b1, 1));
  const SigSpec all = concat({lo, hi});
  EXPECT_EQ(all.width(), 3);
  EXPECT_EQ(all.const_to_uint(), 0b101u);
}

TEST(SigSpec, FullyConst) {
  const SigSpec c(Const::from_uint(5, 3));
  EXPECT_TRUE(c.is_fully_const());
  EXPECT_EQ(c.const_to_uint(), 5u);
}

TEST(Module, DuplicateWireRejected) {
  Design d;
  Module* m = d.add_module("m");
  m->add_wire("w", 1);
  EXPECT_THROW(m->add_wire("w", 2), ScfiError);
}

TEST(Module, UniquifyAvoidsCollisions) {
  Design d;
  Module* m = d.add_module("m");
  const std::string a = m->uniquify("x");
  m->add_wire(a, 1);
  const std::string b = m->uniquify("x");
  EXPECT_NE(a, b);
}

TEST(Module, BuildersProduceValidNetlist) {
  Design d;
  Module* m = d.add_module("m");
  Wire* a = m->add_input("a", 4);
  Wire* b = m->add_input("b", 4);
  Wire* y = m->add_output("y", 4);
  const SigSpec sum = m->make_xor(SigSpec(a), SigSpec(b));
  const SigSpec sel = m->make_reduce_or(SigSpec(a));
  const SigSpec out = m->make_mux(sel, sum, m->make_and(SigSpec(a), SigSpec(b)));
  m->drive(SigSpec(y), out);
  EXPECT_NO_THROW(validate_module(*m));
}

TEST(Validate, WidthMismatchRejected) {
  Design d;
  Module* m = d.add_module("m");
  Wire* a = m->add_input("a", 2);
  Wire* y = m->add_wire("y", 3);
  Cell* c = m->add_cell("bad", CellType::kNot);
  c->set_port("A", SigSpec(a));
  c->set_port("Y", SigSpec(y));
  EXPECT_THROW(validate_module(*m), ScfiError);
}

TEST(Validate, DoubleDriverRejected) {
  Design d;
  Module* m = d.add_module("m");
  Wire* a = m->add_input("a", 1);
  Wire* y = m->add_wire("y", 1);
  for (int i = 0; i < 2; ++i) {
    Cell* c = m->add_cell("c" + std::to_string(i), CellType::kBuf);
    c->set_port("A", SigSpec(a));
    c->set_port("Y", SigSpec(y));
  }
  EXPECT_THROW(validate_module(*m), ScfiError);
}

TEST(Validate, DrivingInputRejected) {
  Design d;
  Module* m = d.add_module("m");
  Wire* a = m->add_input("a", 1);
  Cell* c = m->add_cell("c", CellType::kBuf);
  c->set_port("A", SigSpec(SigBit(true)));
  c->set_port("Y", SigSpec(a));
  EXPECT_THROW(validate_module(*m), ScfiError);
}

TEST(Validate, CombinationalLoopRejected) {
  Design d;
  Module* m = d.add_module("m");
  Wire* x = m->add_wire("x", 1);
  Wire* y = m->add_wire("y", 1);
  Cell* c1 = m->add_cell("c1", CellType::kNot);
  c1->set_port("A", SigSpec(x));
  c1->set_port("Y", SigSpec(y));
  Cell* c2 = m->add_cell("c2", CellType::kNot);
  c2->set_port("A", SigSpec(y));
  c2->set_port("Y", SigSpec(x));
  EXPECT_THROW(validate_module(*m), ScfiError);
}

TEST(Validate, FfBreaksLoop) {
  Design d;
  Module* m = d.add_module("m");
  Wire* x = m->add_wire("x", 1);
  Wire* y = m->add_wire("y", 1);
  Cell* inv = m->add_cell("inv", CellType::kNot);
  inv->set_port("A", SigSpec(x));
  inv->set_port("Y", SigSpec(y));
  Cell* ff = m->add_cell("ff", CellType::kDff);
  ff->set_port("D", SigSpec(y));
  ff->set_port("Q", SigSpec(x));
  ff->set_reset_value(Const::from_uint(0, 1));
  EXPECT_NO_THROW(validate_module(*m));
}

/// The message of the `E` that `fn` throws, or "" when it throws none.
template <typename E, typename Fn>
std::string error_text(Fn fn) {
  try {
    fn();
  } catch (const E& e) {
    return e.what();
  }
  return "";
}

TEST(Validate, MissingPortTextIsPinned) {
  const Cell c("inv0", CellType::kNot);
  EXPECT_FALSE(c.has_port("A"));
  EXPECT_EQ(error_text<LogicBug>([&] { (void)c.port("A"); }),
            "internal check failed: cell inv0 has no port A");
}

TEST(Validate, DuplicateAndWidthTextsArePinned) {
  Design d;
  Module* m = d.add_module("m");
  m->add_wire("w", 1);
  m->add_cell("c", CellType::kBuf);
  EXPECT_EQ(error_text<ScfiError>([&] { m->add_wire("w", 2); }), "duplicate wire name: w");
  EXPECT_EQ(error_text<ScfiError>([&] { m->add_cell("c", CellType::kNot); }),
            "duplicate cell name: c");
  EXPECT_EQ(error_text<ScfiError>([&] { d.add_module("m"); }), "duplicate module name: m");
  EXPECT_EQ(error_text<ScfiError>([&] { m->add_wire("z", 0); }),
            "wire z must have positive width");
  EXPECT_EQ(error_text<ScfiError>([&] { m->add_input("n", -1); }),
            "wire n must have positive width");
}

TEST(Validate, DriverTextsArePinned) {
  {
    Design d;
    Module* m = d.add_module("m");
    Wire* a = m->add_input("a", 1);
    Cell* c = m->add_cell("k", CellType::kBuf);
    c->set_port("A", SigSpec(a));
    c->set_port("Y", SigSpec(SigBit(true)));
    EXPECT_EQ(error_text<ScfiError>([&] { validate_module(*m); }),
              "cell k drives a constant bit");
  }
  {
    Design d;
    Module* m = d.add_module("m");
    Wire* a = m->add_input("a", 1);
    Cell* c = m->add_cell("c", CellType::kBuf);
    c->set_port("A", SigSpec(SigBit(true)));
    c->set_port("Y", SigSpec(a));
    EXPECT_EQ(error_text<ScfiError>([&] { validate_module(*m); }),
              "cell c drives input wire a");
  }
  {
    Design d;
    Module* m = d.add_module("m");
    Wire* a = m->add_input("a", 1);
    Wire* y = m->add_wire("y", 1);
    for (int i = 0; i < 2; ++i) {
      Cell* c = m->add_cell("c" + std::to_string(i), CellType::kBuf);
      c->set_port("A", SigSpec(a));
      c->set_port("Y", SigSpec(y));
    }
    EXPECT_EQ(error_text<ScfiError>([&] { validate_module(*m); }),
              "multiple drivers on wire y (cells c0, c1)");
  }
}

TEST(NetlistIndex, DriversAndReaders) {
  Design d;
  Module* m = d.add_module("m");
  Wire* a = m->add_input("a", 1);
  Wire* y = m->add_output("y", 1);
  const SigSpec n = m->make_not(SigSpec(a));
  m->drive(SigSpec(y), n);
  const NetlistIndex index(*m);
  EXPECT_EQ(index.driver(SigBit(a, 0)), nullptr);
  EXPECT_NE(index.driver(n.bit(0)), nullptr);
  EXPECT_EQ(index.readers(SigBit(a, 0)).size(), 1u);
  EXPECT_EQ(index.topo_comb().size(), 2u);
}

/// A hand-built module: y = !q1 is the root. q1 latches d1 = q2 ^ in, and
/// q2 latches d2 = !q2, so q2 reaches y only through q1's D. dq latches
/// dd = in & dq and feeds nothing live (a dead flip-flop with a dead op),
/// and u = in | q1 reads live nets but is read by nothing (a dead op).
struct FlattenFixture {
  Design d;
  Module* m = d.add_module("m");
  Wire* in = m->add_input("in", 1);
  Wire* q1 = m->add_wire("q1", 1);
  Wire* q2 = m->add_wire("q2", 1);
  Wire* d1 = m->add_wire("d1", 1);
  Wire* d2 = m->add_wire("d2", 1);
  Wire* dq = m->add_wire("dq", 1);
  Wire* dd = m->add_wire("dd", 1);
  Wire* u = m->add_wire("u", 1);
  Wire* y = m->add_output("y", 1);

  FlattenFixture() {
    gate("g_y", CellType::kNot, {{"A", q1}, {"Y", y}});
    gate("g_u", CellType::kOr, {{"A", in}, {"B", q1}, {"Y", u}});
    gate("g_d1", CellType::kXor, {{"A", q2}, {"B", in}, {"Y", d1}});
    gate("g_d2", CellType::kNot, {{"A", q2}, {"Y", d2}});
    gate("g_dd", CellType::kAnd, {{"A", in}, {"B", dq}, {"Y", dd}});
    flip_flop("ff1", d1, q1);
    flip_flop("ff_dead", dd, dq);
    flip_flop("ff2", d2, q2);
    flat = flatten(*m);
  }
  void gate(const std::string& name, CellType type,
            std::initializer_list<std::pair<const char*, Wire*>> ports) {
    Cell* c = m->add_cell(name, type);
    for (const auto& [port, wire] : ports) c->set_port(port, SigSpec(wire));
  }
  void flip_flop(const std::string& name, Wire* dw, Wire* qw) {
    Cell* ff = m->add_cell(name, CellType::kDff);
    ff->set_port("D", SigSpec(dw));
    ff->set_port("Q", SigSpec(qw));
    ff->set_reset_value(Const::from_uint(0, 1));
  }
  std::int32_t net(const Wire* w) const { return flat.net_of(SigBit(w, 0)); }

  FlatNetlist flat;
};

TEST(Flatten, ConeReachesFlipFlopThroughAnotherFlipFlopsD) {
  const FlattenFixture f;
  const std::vector<char> cone = fanin_cone(f.flat, {f.net(f.y)});
  ASSERT_EQ(cone.size(), static_cast<std::size_t>(f.flat.num_nets));
  for (const Wire* w : {f.y, f.q1, f.d1, f.in, f.q2, f.d2}) {
    EXPECT_NE(cone[static_cast<std::size_t>(f.net(w))], 0) << w->name();
  }
}

TEST(Flatten, ConeSkipsDeadFlipFlopAndDeadOp) {
  const FlattenFixture f;
  const std::vector<char> cone = fanin_cone(f.flat, {f.net(f.y)});
  for (const Wire* w : {f.dq, f.dd, f.u}) {
    EXPECT_EQ(cone[static_cast<std::size_t>(f.net(w))], 0) << w->name();
  }
  // Rooted at the dead flip-flop instead, the cone is its own loop and input.
  const std::vector<char> dead = fanin_cone(f.flat, {f.net(f.dq)});
  for (const Wire* w : {f.dq, f.dd, f.in}) {
    EXPECT_NE(dead[static_cast<std::size_t>(f.net(w))], 0) << w->name();
  }
  for (const Wire* w : {f.y, f.q1, f.q2, f.u}) {
    EXPECT_EQ(dead[static_cast<std::size_t>(f.net(w))], 0) << w->name();
  }
}

TEST(Flatten, SliceKeepsNumberingAndLiveOpsInOrder) {
  const FlattenFixture f;
  const std::vector<char> cone = fanin_cone(f.flat, {f.net(f.y)});
  const FlatNetlist sliced = slice(f.flat, cone);
  EXPECT_EQ(sliced.module, f.m);
  EXPECT_EQ(sliced.num_nets, f.flat.num_nets);
  EXPECT_EQ(sliced.wire_base, f.flat.wire_base);
  std::vector<std::int32_t> live_outs;
  for (const FlatOp& op : f.flat.ops) {
    if (cone[static_cast<std::size_t>(op.out)] != 0) live_outs.push_back(op.out);
  }
  ASSERT_EQ(live_outs.size(), 3u);  // y, d1, d2
  ASSERT_EQ(sliced.ops.size(), live_outs.size());
  std::size_t kept = 0;
  for (const FlatOp& op : f.flat.ops) {
    if (cone[static_cast<std::size_t>(op.out)] == 0) continue;
    const FlatOp& s = sliced.ops[kept++];
    EXPECT_EQ(s.kind, op.kind);
    EXPECT_EQ(s.out, op.out);
    EXPECT_EQ(s.a, op.a);
    EXPECT_EQ(s.b, op.b);
    EXPECT_EQ(s.c, op.c);
  }
  // The live flip-flops, in cell order; the dead one is gone.
  ASSERT_EQ(sliced.ffs.size(), 2u);
  EXPECT_EQ(sliced.ffs[0].q, f.net(f.q1));
  EXPECT_EQ(sliced.ffs[0].d, f.net(f.d1));
  EXPECT_EQ(sliced.ffs[1].q, f.net(f.q2));
  EXPECT_EQ(sliced.ffs[1].d, f.net(f.d2));
}

TEST(Design, ModuleLifecycle) {
  Design d;
  d.add_module("a");
  d.add_module("b");
  EXPECT_THROW(d.add_module("a"), ScfiError);
  EXPECT_EQ(d.modules().size(), 2u);
  d.remove_module("a");
  EXPECT_EQ(d.module("a"), nullptr);
  EXPECT_NE(d.module("b"), nullptr);
}

}  // namespace
}  // namespace scfi::rtlil
