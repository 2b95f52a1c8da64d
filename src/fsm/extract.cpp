#include "fsm/extract.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "base/error.h"
#include "rtlil/validate.h"
#include "sim/netlist_sim.h"

namespace scfi::fsm {
namespace {

using rtlil::Cell;
using rtlil::NetlistIndex;
using rtlil::SigBit;
using rtlil::Wire;

/// Combinational fan-in cone of a set of bits: the flip-flop output wires
/// and primary-input bits it transitively depends on.
struct Cone {
  std::set<const Wire*> ff_wires;
  std::unordered_set<SigBit> input_bits;
};

void trace_cone(const NetlistIndex& index, const rtlil::SigSpec& start, Cone& cone) {
  std::vector<SigBit> stack;
  std::unordered_set<SigBit> visited;
  for (const SigBit& b : start.bits()) stack.push_back(b);
  while (!stack.empty()) {
    const SigBit bit = stack.back();
    stack.pop_back();
    if (bit.is_const() || !visited.insert(bit).second) continue;
    Cell* driver = index.driver(bit);
    if (driver == nullptr) {
      // validate_module guarantees inputs are never driven; an undriven
      // non-input bit is a floating net and contributes nothing.
      if (bit.wire->is_input()) cone.input_bits.insert(bit);
      continue;
    }
    if (rtlil::is_ff(driver->type())) {
      cone.ff_wires.insert(bit.wire);
      continue;
    }
    for (const std::string& port : rtlil::input_ports(driver->type())) {
      for (const SigBit& b : driver->port(port).bits()) stack.push_back(b);
    }
  }
}

/// Candidate state registers with the flip-flop cells that drive them.
struct Candidate {
  const Wire* wire = nullptr;
  std::vector<Cell*> ffs;
};

std::vector<Candidate> find_candidates(const rtlil::Module& module, const NetlistIndex& index) {
  std::vector<Candidate> out;
  for (const Wire* w : module.wires()) {
    if (w->width() < 1 || w->width() > 64) continue;
    // Every bit must come out of a flip-flop.
    std::set<Cell*> ff_cells;
    bool all_ff = true;
    for (int off = 0; off < w->width() && all_ff; ++off) {
      Cell* driver = index.driver(SigBit(w, off));
      if (driver == nullptr || !rtlil::is_ff(driver->type())) {
        all_ff = false;
        break;
      }
      ff_cells.insert(driver);
    }
    if (!all_ff) continue;
    // The register must be drivable independently: none of its flip-flops
    // may latch bits of another wire (concat Q targets span registers).
    bool self_owned = true;
    for (const Cell* cell : ff_cells) {
      for (const SigBit& q : cell->port("Q").bits()) {
        if (q.is_const() || q.wire != w) self_owned = false;
      }
    }
    if (!self_owned) continue;
    // Self-feeding and self-contained: the next-state cone's flip-flop
    // support is exactly this wire.
    Cone cone;
    for (const Cell* cell : ff_cells) trace_cone(index, cell->port("D"), cone);
    if (cone.ff_wires.size() != 1 || *cone.ff_wires.begin() != w) continue;
    Candidate c;
    c.wire = w;
    c.ffs.assign(ff_cells.begin(), ff_cells.end());
    out.push_back(std::move(c));
  }
  return out;
}

std::string bit_name(const SigBit& bit) {
  if (bit.wire->width() == 1) return bit.wire->name();
  return bit.wire->name() + "[" + std::to_string(bit.offset) + "]";
}

StateEncoding classify(const std::vector<std::uint64_t>& codes) {
  std::set<std::uint64_t> set(codes.begin(), codes.end());
  bool binary = true;
  for (std::uint64_t i = 0; i < codes.size(); ++i) binary = binary && set.count(i) != 0;
  if (binary) return StateEncoding::kBinary;
  const bool one_hot = std::all_of(codes.begin(), codes.end(), [](std::uint64_t c) {
    return c != 0 && (c & (c - 1)) == 0;
  });
  if (one_hot) return StateEncoding::kOneHot;
  return StateEncoding::kOther;
}

/// One recovered (input-cube) -> (next state, outputs) row.
struct Cube {
  std::string guard;
  std::uint64_t next = 0;
  std::string output;
};

/// Merges cubes that differ in exactly one determined position and agree on
/// (next, output) until no merge applies — adjacent-implicant compaction
/// (Quine-McCluskey restricted to exact unions). The resulting guards of one
/// state partition the input space, so priority order never matters.
///
/// Each step merges the first mergeable pair (i, j) in index order into i.
/// The scan then resumes instead of restarting: only cube i changed, so the
/// next first pair is (a, i) for the smallest earlier a that now pairs with
/// i (merged into a, which then changes in turn), else the first pair in
/// the changed cube's row; the rows scanned before it pair with nothing
/// else, so once that row is done the scan goes on where it had stopped.
/// Guards stay pairwise distinct (they start as distinct minterms), so a
/// cube's partners are found by looking up its guard with one determined
/// position flipped.
void compact_cubes(std::vector<Cube>& cubes) {
  const std::size_t n = cubes.size();
  std::unordered_map<std::string, std::size_t> by_guard;  // live cubes only
  for (std::size_t c = 0; c < n; ++c) by_guard.emplace(cubes[c].guard, c);
  std::vector<bool> live(n, true);
  // The smallest index in [lo, hi) of a cube mergeable with cube c, or n.
  const auto partner = [&](std::size_t c, std::size_t lo, std::size_t hi) {
    std::size_t best = n;
    std::string guard = cubes[c].guard;
    for (char& bit : guard) {
      if (bit == '-') continue;
      const char was = bit;
      bit = was == '0' ? '1' : '0';
      const auto it = by_guard.find(guard);
      bit = was;
      if (it == by_guard.end() || it->second < lo || it->second >= std::min(hi, best)) continue;
      const Cube& other = cubes[it->second];
      if (other.next == cubes[c].next && other.output == cubes[c].output) best = it->second;
    }
    return best;
  };
  // Merges cube `from` into cube `into`: their one differing position
  // becomes '-'.
  const auto merge = [&](std::size_t into, std::size_t from) {
    std::string& guard = cubes[into].guard;
    by_guard.erase(guard);
    by_guard.erase(cubes[from].guard);
    live[from] = false;
    for (std::size_t k = 0; k < guard.size(); ++k) {
      if (guard[k] != cubes[from].guard[k]) guard[k] = '-';
    }
    by_guard.emplace(guard, into);
  };
  std::size_t scanned = 0;  // rows below pair with nothing but cube i
  for (std::size_t i = 0; i < n;) {
    const std::size_t j = partner(i, i + 1, n);
    if (j == n) {
      for (i = std::max(i + 1, scanned); i < n && !live[i];) ++i;
      scanned = i;
      continue;
    }
    merge(i, j);
    for (std::size_t a; (a = partner(i, 0, i)) != n; i = a) merge(a, i);
  }
  std::size_t kept = 0;
  for (std::size_t c = 0; c < n; ++c) {
    if (!live[c]) continue;
    if (kept != c) cubes[kept] = std::move(cubes[c]);
    ++kept;
  }
  cubes.resize(kept);
}

/// Every bit of the module's input (`inputs`) or output ports that `keep`
/// accepts, in module wire order, then bit offset.
template <typename Keep>
std::vector<SigBit> port_bits(const rtlil::Module& module, bool inputs, Keep keep) {
  std::vector<SigBit> out;
  for (const Wire* w : module.wires()) {
    if (inputs ? !w->is_input() : !w->is_output()) continue;
    for (int off = 0; off < w->width(); ++off) {
      if (keep(SigBit(w, off))) out.emplace_back(w, off);
    }
  }
  return out;
}

/// Recovers the machine of `cand` by exhaustive simulation: BFS from the
/// reset code over every combination of `in_bits` (the other inputs stay 0),
/// observing `out_bits`, then per-state cube compaction.
ExtractedFsm recover(const rtlil::Module& module, const Candidate& cand,
                     const std::vector<SigBit>& in_bits, const std::vector<SigBit>& out_bits,
                     const ExtractOptions& options) {
  const std::string where = "fsm extract: " + module.name() + "." + cand.wire->name() + ": ";
  sim::Simulator sim(module);
  struct InputBit {
    sim::Simulator::WireHandle handle;
    int offset = 0;
  };
  std::vector<InputBit> input_bits;
  std::vector<std::string> input_names;
  for (const SigBit& bit : in_bits) {
    input_bits.push_back(InputBit{sim.input_handle(bit.wire->name()), bit.offset});
    input_names.push_back(bit_name(bit));
  }
  std::vector<std::string> output_names;
  for (const SigBit& bit : out_bits) output_names.push_back(bit_name(bit));
  const int n = static_cast<int>(input_bits.size());
  require(n <= options.max_inputs,
          where + std::to_string(n) + " input bits exceed the exhaustive bound of " +
              std::to_string(options.max_inputs));

  const sim::Simulator::WireHandle state_h = sim.probe(cand.wire->name());
  sim.reset();  // zeroes every input; irrelevant ones stay 0 throughout
  const std::uint64_t reset_code = sim.get(state_h);

  // BFS over reachable codes.
  std::vector<std::uint64_t> order{reset_code};
  std::map<std::uint64_t, int> index_of{{reset_code, 0}};
  std::map<std::uint64_t, std::vector<Cube>> rows;
  std::deque<std::uint64_t> queue{reset_code};
  while (!queue.empty()) {
    const std::uint64_t code = queue.front();
    queue.pop_front();
    std::vector<Cube>& cubes = rows[code];
    for (std::uint64_t combo = 0; combo < (1ULL << n); ++combo) {
      for (int i = 0; i < n; ++i) {
        const InputBit& in = input_bits[static_cast<std::size_t>(i)];
        sim.set_input_word(in.handle, in.offset, ((combo >> i) & 1) ? ~0ULL : 0ULL);
      }
      sim.set_register(state_h, code);
      sim.eval();
      std::string out_pattern(out_bits.size(), '0');
      for (std::size_t i = 0; i < out_bits.size(); ++i) {
        if (sim.get_bit(out_bits[i])) out_pattern[i] = '1';
      }
      sim.latch();
      const std::uint64_t next = sim.get(state_h);
      if (index_of.count(next) == 0) {
        require(static_cast<int>(order.size()) < options.max_states,
                where + "more than " + std::to_string(options.max_states) +
                    " reachable states (runaway register, not an FSM?)");
        index_of[next] = static_cast<int>(order.size());
        order.push_back(next);
        queue.push_back(next);
      }
      std::string guard(static_cast<std::size_t>(n), '0');
      for (int i = 0; i < n; ++i) {
        if ((combo >> i) & 1) guard[static_cast<std::size_t>(i)] = '1';
      }
      cubes.push_back(Cube{std::move(guard), next, std::move(out_pattern)});
    }
    compact_cubes(cubes);
  }

  ExtractedFsm out;
  out.state_wire = cand.wire->name();
  out.state_codes = order;
  out.encoding = classify(order);
  out.fsm.name = module.name() + "." + cand.wire->name();
  out.fsm.inputs = input_names;
  out.fsm.outputs = output_names;
  for (const std::uint64_t code : order) out.fsm.add_state("s" + std::to_string(code));
  out.fsm.reset_state = 0;
  for (const std::uint64_t code : order) {
    std::vector<Cube>& cubes = rows[code];
    // Self-loops last; the quiet catch-all stay becomes the implicit idle.
    std::stable_sort(cubes.begin(), cubes.end(), [code](const Cube& a, const Cube& b) {
      return (a.next != code) > (b.next != code);
    });
    for (const Cube& cube : cubes) {
      const bool all_dash = cube.guard.find_first_not_of('-') == std::string::npos;
      const bool quiet_output = cube.output.find('1') == std::string::npos;
      if (cube.next == code && all_dash && quiet_output) continue;
      out.fsm.add_transition("s" + std::to_string(code), cube.guard,
                             "s" + std::to_string(cube.next), cube.output);
    }
  }
  out.fsm.check();
  return out;
}

/// Discovery's bits for `cand`: the outputs whose cone holds this register
/// and no other state, and the inputs that reach its next-state cone or one
/// of those outputs.
ExtractedFsm discover(const rtlil::Module& module, const NetlistIndex& index,
                      const Candidate& cand, const ExtractOptions& options) {
  Cone state_cone;
  for (const Cell* cell : cand.ffs) trace_cone(index, cell->port("D"), state_cone);
  std::unordered_set<SigBit> relevant = state_cone.input_bits;
  std::vector<SigBit> outputs;
  if (options.capture_outputs) {
    outputs = port_bits(module, false, [&](const SigBit& bit) {
      Cone cone;
      trace_cone(index, rtlil::SigSpec(bit), cone);
      if (cone.ff_wires.size() != 1 || *cone.ff_wires.begin() != cand.wire) return false;
      relevant.insert(cone.input_bits.begin(), cone.input_bits.end());
      return true;
    });
  }
  const std::vector<SigBit> inputs =
      port_bits(module, true, [&](const SigBit& bit) { return relevant.count(bit) != 0; });
  return recover(module, cand, inputs, outputs, options);
}

}  // namespace

const char* encoding_name(StateEncoding encoding) {
  switch (encoding) {
    case StateEncoding::kBinary:
      return "binary";
    case StateEncoding::kOneHot:
      return "one-hot";
    case StateEncoding::kOther:
      return "other";
  }
  unreachable("encoding_name: bad encoding");
}

std::vector<std::string> find_state_registers(const rtlil::Module& module) {
  const NetlistIndex index(module);
  std::vector<std::string> out;
  for (const Candidate& c : find_candidates(module, index)) {
    out.push_back(c.wire->name());
  }
  return out;
}

std::vector<ExtractedFsm> extract_fsms(const rtlil::Module& module,
                                       const ExtractOptions& options) {
  const NetlistIndex index(module);
  std::vector<ExtractedFsm> out;
  for (const Candidate& c : find_candidates(module, index)) {
    out.push_back(discover(module, index, c, options));
  }
  return out;
}

ExtractedFsm extract_fsm(const rtlil::Module& module, const std::string& state_wire,
                         const ExtractOptions& options) {
  const std::string where = "fsm extract: " + module.name() + "." + state_wire + ": ";
  require(module.wire(state_wire) != nullptr, where + "no such wire");
  const NetlistIndex index(module);
  for (const Candidate& c : find_candidates(module, index)) {
    if (c.wire->name() != state_wire) continue;
    const auto every = [](const SigBit&) { return true; };
    return recover(module, c, port_bits(module, true, every),
                   options.capture_outputs ? port_bits(module, false, every)
                                           : std::vector<SigBit>{},
                   options);
  }
  throw ScfiError(where + "not a self-contained state register (its next state must "
                          "depend on no flip-flop outside it)");
}

}  // namespace scfi::fsm
