#include "fsm/extract.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
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

ExtractedFsm recover(const rtlil::Module& module, const NetlistIndex& index,
                     const Candidate& cand, const ExtractOptions& options) {
  const std::string where = "fsm extract: " + module.name() + "." + cand.wire->name() + ": ";

  // Cone-relevant inputs: the next-state cone plus the cones of every
  // captured output. Outputs are captured when they depend on this register
  // and nothing else that holds state.
  Cone state_cone;
  for (const Cell* cell : cand.ffs) trace_cone(index, cell->port("D"), state_cone);
  std::unordered_set<SigBit> relevant = state_cone.input_bits;

  std::vector<SigBit> output_bits;
  std::vector<std::string> output_names;
  if (options.capture_outputs) {
    for (const Wire* w : module.wires()) {
      if (!w->is_output()) continue;
      for (int off = 0; off < w->width(); ++off) {
        const SigBit bit(w, off);
        Cone cone;
        trace_cone(index, rtlil::SigSpec(bit), cone);
        if (cone.ff_wires.empty()) continue;  // input-only / constant outputs
        if (cone.ff_wires.size() != 1 || *cone.ff_wires.begin() != cand.wire) continue;
        output_bits.push_back(bit);
        output_names.push_back(bit_name(bit));
        relevant.insert(cone.input_bits.begin(), cone.input_bits.end());
      }
    }
  }

  // Deterministic input order: module wire order, then bit offset.
  sim::Simulator sim(module);
  struct InputBit {
    sim::Simulator::WireHandle handle;
    int offset = 0;
  };
  std::vector<InputBit> input_bits;
  std::vector<std::string> input_names;
  for (const Wire* w : module.wires()) {
    if (!w->is_input()) continue;
    const sim::Simulator::WireHandle h = sim.input_handle(w->name());
    for (int off = 0; off < w->width(); ++off) {
      if (relevant.count(SigBit(w, off)) == 0) continue;
      input_bits.push_back(InputBit{h, off});
      input_names.push_back(bit_name(SigBit(w, off)));
    }
  }
  const int n = static_cast<int>(input_bits.size());
  require(n <= options.max_inputs,
          where + std::to_string(n) + " cone-relevant inputs exceed the exhaustive bound of " +
              std::to_string(options.max_inputs));

  const sim::Simulator::WireHandle state_h = sim.probe(cand.wire->name());
  sim.reset();  // zeroes every input; irrelevant ones stay 0 throughout
  const std::uint64_t reset_code = sim.get(state_h);

  // BFS over reachable codes.
  std::vector<std::uint64_t> order{reset_code};
  std::map<std::uint64_t, int> index_of{{reset_code, 0}};
  std::map<std::uint64_t, std::vector<ExtractCube>> rows;
  std::deque<std::uint64_t> queue{reset_code};
  while (!queue.empty()) {
    const std::uint64_t code = queue.front();
    queue.pop_front();
    std::vector<ExtractCube>& cubes = rows[code];
    for (std::uint64_t combo = 0; combo < (1ULL << n); ++combo) {
      for (int i = 0; i < n; ++i) {
        const InputBit& in = input_bits[static_cast<std::size_t>(i)];
        sim.set_input_word(in.handle, in.offset, ((combo >> i) & 1) ? ~0ULL : 0ULL);
      }
      sim.set_register(state_h, code);
      sim.eval();
      std::string out_pattern(output_bits.size(), '0');
      for (std::size_t i = 0; i < output_bits.size(); ++i) {
        if (sim.get_bit(output_bits[i])) out_pattern[i] = '1';
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
      cubes.push_back(ExtractCube{std::move(guard), next, std::move(out_pattern)});
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
    std::vector<ExtractCube>& cubes = rows[code];
    // Self-loops last; the quiet catch-all stay becomes the implicit idle.
    std::stable_sort(cubes.begin(), cubes.end(), [code](const ExtractCube& a,
                                                        const ExtractCube& b) {
      return (a.next != code) > (b.next != code);
    });
    for (const ExtractCube& cube : cubes) {
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

void compact_cubes(std::vector<ExtractCube>& cubes) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < cubes.size() && !changed; ++i) {
      for (std::size_t j = i + 1; j < cubes.size() && !changed; ++j) {
        if (cubes[i].next != cubes[j].next || cubes[i].output != cubes[j].output) continue;
        const std::string& a = cubes[i].guard;
        const std::string& b = cubes[j].guard;
        int diff = -1;
        bool mergeable = true;
        for (std::size_t k = 0; k < a.size(); ++k) {
          if (a[k] == b[k]) continue;
          if (a[k] == '-' || b[k] == '-' || diff >= 0) {
            mergeable = false;
            break;
          }
          diff = static_cast<int>(k);
        }
        if (!mergeable || diff < 0) continue;
        cubes[i].guard[static_cast<std::size_t>(diff)] = '-';
        cubes.erase(cubes.begin() + static_cast<std::ptrdiff_t>(j));
        changed = true;
      }
    }
  }
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
    out.push_back(recover(module, index, c, options));
  }
  return out;
}

}  // namespace scfi::fsm
