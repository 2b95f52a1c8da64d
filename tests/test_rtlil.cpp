#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <initializer_list>
#include <iterator>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/error.h"
#include "base/rng.h"
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

TEST(Validate, CellLevelLoopIsRejected) {
  // Bit by bit there is no loop: y0 = in, w = !y0, y1 = w. But the sort
  // orders cells, and wide waits for narrow's output while narrow waits
  // for wide's bit 0.
  Design d;
  Module* m = d.add_module("m");
  Wire* in = m->add_input("in", 1);
  Wire* y = m->add_output("y", 2);
  Wire* w = m->add_wire("w", 1);
  Cell* wide = m->add_cell("wide", CellType::kBuf);
  wide->set_port("A", SigSpec(std::vector<SigBit>{SigBit(in, 0), SigBit(w, 0)}));
  wide->set_port("Y", SigSpec(y));
  Cell* narrow = m->add_cell("narrow", CellType::kNot);
  narrow->set_port("A", SigSpec(SigBit(y, 0)));
  narrow->set_port("Y", SigSpec(w));
  EXPECT_EQ(error_text<ScfiError>([&] { validate_module(*m); }),
            "module m: combinational loop detected");
  EXPECT_EQ(error_text<ScfiError>([&] { (void)flatten(*m); }),
            "module m: combinational loop detected");
}

TEST(Validate, ForeignWireRejected) {
  Design d;
  Module* other = d.add_module("o");
  Wire* a = other->add_input("a", 1);
  Module* m = d.add_module("m");
  Wire* y = m->add_output("y", 1);
  Cell* inv = m->add_cell("inv", CellType::kNot);
  inv->set_port("A", SigSpec(a));
  inv->set_port("Y", SigSpec(y));
  const std::string reads = "cell inv port A: bit is not on a wire of module m";
  EXPECT_EQ(error_text<ScfiError>([&] { validate_module(*m); }), reads);
  EXPECT_EQ(error_text<ScfiError>([&] { (void)flatten(*m); }), reads);

  // Driving another module's wire is caught the same way.
  Wire* b = other->add_wire("b", 1);
  Wire* x = m->add_input("x", 1);
  inv->set_port("A", SigSpec(x));
  inv->set_port("Y", SigSpec(b));
  EXPECT_EQ(error_text<ScfiError>([&] { validate_module(*m); }),
            "cell inv port Y: bit is not on a wire of module m");

  // So is a wire removed while a cell still reads it; the message never
  // reads the dangling wire.
  Wire* t = m->add_wire("t", 1);
  inv->set_port("Y", SigSpec(y));
  Cell* buf = m->add_cell("buf", CellType::kBuf);
  buf->set_port("A", SigSpec(t));
  buf->set_port("Y", SigSpec(m->add_wire("u", 1)));
  inv->set_port("A", SigSpec(x));
  EXPECT_NO_THROW(validate_module(*m));
  m->remove_wires({t});
  EXPECT_EQ(error_text<ScfiError>([&] { validate_module(*m); }),
            "cell buf port A: bit is not on a wire of module m");
}

/// The checks validate_module made before they moved into flatten's pass,
/// kept as the reference for the order in which the first failure is
/// reported: per cell in cell order its port widths, then per driven bit a
/// constant, a driven input and a second driver; then a combinational
/// loop in a Kahn sort at cell granularity. "" when the module passes.
std::string reference_check(const Module& module) {
  const auto widths = [](const Cell& cell) {
    const auto fail = [&cell](const std::string& msg) {
      throw ScfiError("cell " + cell.name() + " (" + cell_type_name(cell.type()) + "): " + msg);
    };
    const auto need = [&](const std::string& port) -> const SigSpec& {
      if (!cell.has_port(port)) fail("missing port " + port);
      return cell.port(port);
    };
    const SigSpec& y = need(output_port(cell.type()));
    switch (cell.type()) {
      case CellType::kNot:
      case CellType::kBuf:
        if (need("A").width() != y.width()) fail("A/Y width mismatch");
        break;
      case CellType::kAnd:
      case CellType::kOr:
      case CellType::kXor:
      case CellType::kXnor:
        if (need("A").width() != y.width() || need("B").width() != y.width()) {
          fail("A/B/Y width mismatch");
        }
        break;
      case CellType::kMux:
        if (need("A").width() != y.width() || need("B").width() != y.width()) {
          fail("A/B/Y width mismatch");
        }
        if (need("S").width() != 1) fail("S must be 1 bit");
        break;
      case CellType::kEq:
        if (need("A").width() != need("B").width()) fail("A/B width mismatch");
        if (y.width() != 1) fail("Y must be 1 bit");
        break;
      case CellType::kReduceAnd:
      case CellType::kReduceOr:
      case CellType::kReduceXor:
        need("A");
        if (y.width() != 1) fail("Y must be 1 bit");
        break;
      case CellType::kDff:
        if (need("D").width() != y.width()) fail("D/Q width mismatch");
        if (cell.reset_value().width() != y.width()) fail("reset width mismatch");
        break;
      case CellType::kGateDff:
        if (need("D").width() != 1 || y.width() != 1) fail("gate DFF must be 1 bit");
        if (cell.reset_value().width() != 1) fail("reset width mismatch");
        break;
      default:
        for (const std::string& p : input_ports(cell.type())) {
          if (need(p).width() != 1) fail("port " + p + " must be 1 bit");
        }
        if (y.width() != 1) fail("Y must be 1 bit");
        break;
    }
  };
  try {
    std::unordered_map<SigBit, const Cell*> driver;
    std::unordered_map<SigBit, std::vector<const Cell*>> readers;
    for (const Cell* cell : module.cells()) {
      widths(*cell);
      for (const SigBit& bit : cell->port(output_port(cell->type())).bits()) {
        if (bit.is_const()) throw ScfiError("cell " + cell->name() + " drives a constant bit");
        if (bit.wire->is_input()) {
          throw ScfiError("cell " + cell->name() + " drives input wire " + bit.wire->name());
        }
        const auto [it, inserted] = driver.emplace(bit, cell);
        if (!inserted) {
          throw ScfiError("multiple drivers on wire " + bit.wire->name() + " (cells " +
                          it->second->name() + ", " + cell->name() + ")");
        }
      }
      for (const std::string& p : input_ports(cell->type())) {
        for (const SigBit& bit : cell->port(p).bits()) {
          if (!bit.is_const()) readers[bit].push_back(cell);
        }
      }
    }
    std::unordered_map<const Cell*, int> pending;
    std::deque<const Cell*> ready;
    std::size_t comb = 0;
    for (const Cell* cell : module.cells()) {
      if (is_ff(cell->type())) continue;
      ++comb;
      int deps = 0;
      for (const std::string& p : input_ports(cell->type())) {
        for (const SigBit& bit : cell->port(p).bits()) {
          const auto it = bit.is_const() ? driver.end() : driver.find(bit);
          if (it != driver.end() && !is_ff(it->second->type())) ++deps;
        }
      }
      pending[cell] = deps;
      if (deps == 0) ready.push_back(cell);
    }
    std::size_t sorted = 0;
    while (!ready.empty()) {
      const Cell* cell = ready.front();
      ready.pop_front();
      ++sorted;
      for (const SigBit& bit : cell->port(output_port(cell->type())).bits()) {
        const auto it = readers.find(bit);
        if (it == readers.end()) continue;
        for (const Cell* reader : it->second) {
          if (!is_ff(reader->type()) && --pending[reader] == 0) ready.push_back(reader);
        }
      }
    }
    if (sorted != comb) {
      throw ScfiError("module " + module.name() + ": combinational loop detected");
    }
  } catch (const ScfiError& e) {
    return e.what();
  }
  return "";
}

/// A random valid module: every combinational cell reads inputs, constants,
/// flip-flop outputs and earlier cells' outputs, and drives a fresh wire.
void random_module(Module& m, Rng& rng) {
  static constexpr CellType kComb[] = {
      CellType::kNot,       CellType::kBuf,       CellType::kAnd,       CellType::kOr,
      CellType::kXor,       CellType::kXnor,      CellType::kMux,       CellType::kEq,
      CellType::kReduceAnd, CellType::kReduceOr,  CellType::kReduceXor, CellType::kGateInv,
      CellType::kGateNand2, CellType::kGateXor2,  CellType::kGateMux2,  CellType::kGateAoi21};
  std::vector<SigBit> pool;
  const auto add_bits = [&pool](const Wire* w) {
    for (int i = 0; i < w->width(); ++i) pool.emplace_back(w, i);
  };
  const auto width = [&rng] { return 1 + static_cast<int>(rng.below(3)); };
  const auto pick = [&](int n) {
    std::vector<SigBit> bits;
    for (int i = 0; i < n; ++i) {
      bits.push_back(rng.below(8) == 0 ? SigBit(rng.below(2) == 1)
                                       : pool[rng.below(pool.size())]);
    }
    return SigSpec(std::move(bits));
  };
  for (int i = 0; i < 3; ++i) add_bits(m.add_input("in" + std::to_string(i), width()));
  std::vector<Cell*> ffs;
  for (int i = 0; i < 2; ++i) {
    const int n = width();
    Cell* ff = m.add_cell("ff" + std::to_string(i), i == 0 ? CellType::kDff : CellType::kGateDff);
    const Wire* q = m.add_wire("q" + std::to_string(i), i == 0 ? n : 1);
    ff->set_port("Q", SigSpec(q));
    ff->set_reset_value(Const::from_uint(0, q->width()));
    add_bits(q);
    ffs.push_back(ff);
  }
  const int cells = 4 + static_cast<int>(rng.below(8));
  for (int i = 0; i < cells; ++i) {
    const CellType type = kComb[rng.below(std::size(kComb))];
    const bool one_bit = is_gate(type);
    const bool reduce = type == CellType::kEq || type == CellType::kReduceAnd ||
                        type == CellType::kReduceOr || type == CellType::kReduceXor;
    const int n = one_bit ? 1 : width();
    Cell* cell = m.add_cell("c" + std::to_string(i), type);
    for (const std::string& p : input_ports(type)) cell->set_port(p, pick(p == "S" ? 1 : n));
    const Wire* y = m.add_wire("y" + std::to_string(i), reduce ? 1 : n);
    cell->set_port("Y", SigSpec(y));
    add_bits(y);
  }
  for (Cell* ff : ffs) ff->set_port("D", pick(ff->port("Q").width()));
  Wire* out = m.add_output("out", 1);
  m.drive(SigSpec(out), SigSpec(pool.back()));
}

/// One injected defect: a width change, a missing port, a driven constant,
/// a driven input, a second driver, or a combinational cell made to read a
/// later (or its own) combinational output, which may close a loop.
void inject_defect(Module& m, Rng& rng) {
  const std::vector<Cell*>& cells = m.cells();
  Cell* cell = cells[rng.below(cells.size())];
  if (cell->ports().empty()) return;
  const auto port_of = [&](const Cell* c) {
    std::vector<std::string> ports;
    for (const auto& [name, sig] : c->ports()) ports.push_back(name);
    return ports[rng.below(ports.size())];
  };
  const auto replace_bit = [&](Cell* c, const std::string& port, SigBit bit) {
    std::vector<SigBit> bits = c->port(port).bits();
    bits[rng.below(bits.size())] = bit;
    c->set_port(port, SigSpec(std::move(bits)));
  };
  const std::string out = output_port(cell->type());
  const Wire* input = m.wire("in0");
  switch (rng.below(6)) {
    case 0: {
      const std::string port = port_of(cell);
      std::vector<SigBit> bits = cell->port(port).bits();
      if (bits.size() > 1 && rng.below(2) == 0) {
        bits.pop_back();
      } else {
        bits.push_back(SigBit(false));
      }
      cell->set_port(port, SigSpec(std::move(bits)));
      break;
    }
    case 1:
      cell->unset_port(port_of(cell));
      break;
    case 2:
      if (cell->has_port(out)) replace_bit(cell, out, SigBit(true));
      break;
    case 3:
      if (cell->has_port(out)) replace_bit(cell, out, SigBit(input, 0));
      break;
    case 4: {
      const Cell* other = cells[rng.below(cells.size())];
      if (cell->has_port(out) && other->has_port(output_port(other->type())) &&
          !other->port(output_port(other->type())).empty()) {
        replace_bit(cell, out, other->port(output_port(other->type())).bit(0));
      }
      break;
    }
    default: {
      const auto at = static_cast<std::size_t>(std::find(cells.begin(), cells.end(), cell) -
                                               cells.begin());
      const Cell* later = cells[at + rng.below(cells.size() - at)];
      const std::string in = port_of(cell);
      if (in != out && !is_ff(cell->type()) && later->has_port(output_port(later->type())) &&
          !later->port(output_port(later->type())).empty() && !cell->port(in).empty()) {
        replace_bit(cell, in, later->port(output_port(later->type())).bit(0));
      }
      break;
    }
  }
}

TEST(Flatten, ChecksMatchReference) {
  Rng rng(0xf1a77e2);
  std::map<std::string, int> seen;  // modules per kind of first failure
  for (int trial = 0; trial < 600; ++trial) {
    Design d;
    Module* m = d.add_module("m" + std::to_string(trial));
    random_module(*m, rng);
    const int defects = 1 + static_cast<int>(rng.below(3));
    for (int i = 0; i < defects; ++i) inject_defect(*m, rng);
    const std::string expected = reference_check(*m);
    EXPECT_EQ(error_text<ScfiError>([&] { (void)flatten(*m); }), expected) << "trial " << trial;
    EXPECT_EQ(error_text<ScfiError>([&] { validate_module(*m); }), expected) << "trial " << trial;
    const char* kind = "width";
    for (const char* k : {"loop", "multiple drivers", "drives input", "drives a constant",
                          "missing port"}) {
      if (expected.find(k) != std::string::npos) kind = k;
    }
    ++seen[expected.empty() ? "ok" : kind];
  }
  // Every kind of first failure occurs, so the order among them is pinned.
  for (const char* kind : {"ok", "width", "loop", "multiple drivers", "drives input",
                           "drives a constant", "missing port"}) {
    EXPECT_GT(seen[kind], 0) << kind;
  }
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
