#include "fsm/extract.h"

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <unordered_map>

#include "base/error.h"
#include "rtlil/flatten.h"
#include "sim/netlist_sim.h"

namespace scfi::fsm {
namespace {

using rtlil::FlatNetlist;
using rtlil::SigBit;
using rtlil::Wire;

/// One module's flat netlist (rtlil::flatten, the netlist the simulator
/// runs) with the per-net structure extraction reads: the op driving each
/// net, whether a flip-flop latches it, and the wire that owns it.
class ModuleScan {
 public:
  explicit ModuleScan(const rtlil::Module& module)
      : flat(std::make_shared<const FlatNetlist>(rtlil::flatten(module))) {
    const auto nets = static_cast<std::size_t>(flat->num_nets);
    producer_.assign(nets, -1);
    q_ff_.assign(nets, -1);
    owner_.assign(nets, -1);
    seen_.assign(nets, 0);
    for (std::size_t i = 0; i < flat->ops.size(); ++i) {
      producer_[static_cast<std::size_t>(flat->ops[i].out)] = static_cast<std::int32_t>(i);
    }
    for (std::size_t i = 0; i < flat->ffs.size(); ++i) {
      q_ff_[static_cast<std::size_t>(flat->ffs[i].q)] = static_cast<std::int32_t>(i);
    }
    const std::vector<Wire*>& wires = module.wires();
    base_.reserve(wires.size());
    for (std::size_t w = 0; w < wires.size(); ++w) {
      const std::int32_t base = flat->wire_base.at(wires[w]);
      base_.push_back(base);
      for (int off = 0; off < wires[w]->width(); ++off) {
        owner_[static_cast<std::size_t>(base + off)] = static_cast<std::int32_t>(w);
      }
    }
  }

  const rtlil::Module& module() const { return *flat->module; }
  /// First net of wire `w` (an index into module().wires()).
  std::int32_t base(std::size_t w) const { return base_[w]; }
  /// The flip-flop latching `net`, or null.
  const rtlil::FlatFf* ff_of(std::int32_t net) const {
    const std::int32_t i = q_ff_[static_cast<std::size_t>(net)];
    return i < 0 ? nullptr : &flat->ffs[static_cast<std::size_t>(i)];
  }
  /// Index of the wire owning `net`; -1 for constants and tree temporaries.
  std::int32_t owner(std::int32_t net) const { return owner_[static_cast<std::size_t>(net)]; }
  bool is_input(std::int32_t net) const {
    const std::int32_t w = owner(net);
    return w >= 0 && module().wires()[static_cast<std::size_t>(w)]->is_input();
  }

  /// Traces the combinational fan-in cone of `roots`, stopping at
  /// flip-flop outputs. Returns whether the flip-flops it reaches are all
  /// bits of wire `self` and there is at least one; the input-port nets it
  /// reaches are appended to `inputs` (the trace stops early, and leaves
  /// `inputs` partial, when it meets another register).
  bool trace(std::span<const std::int32_t> roots, std::int32_t self,
             std::vector<std::int32_t>& inputs) {
    ++stamp_;
    stack_.assign(roots.begin(), roots.end());
    bool reaches_self = false;
    while (!stack_.empty()) {
      const std::int32_t net = stack_.back();
      stack_.pop_back();
      // Nets 0/1 are the constants (and every unused operand slot).
      if (net < 2 || seen_[static_cast<std::size_t>(net)] == stamp_) continue;
      seen_[static_cast<std::size_t>(net)] = stamp_;
      if (const std::int32_t op = producer_[static_cast<std::size_t>(net)]; op >= 0) {
        const rtlil::FlatOp& o = flat->ops[static_cast<std::size_t>(op)];
        stack_.insert(stack_.end(), {o.a, o.b, o.c});
      } else if (q_ff_[static_cast<std::size_t>(net)] >= 0) {
        if (owner(net) != self) return false;
        reaches_self = true;
      } else if (is_input(net)) {
        // Validation guarantees inputs are never driven; an undriven
        // non-input net is floating and contributes nothing.
        inputs.push_back(net);
      }
    }
    return reaches_self;
  }

  std::shared_ptr<const FlatNetlist> flat;

 private:
  std::vector<std::int32_t> base_;
  std::vector<std::int32_t> producer_;
  std::vector<std::int32_t> q_ff_;
  std::vector<std::int32_t> owner_;
  std::vector<std::uint32_t> seen_;  ///< == stamp_: visited by the current trace
  std::uint32_t stamp_ = 0;
  std::vector<std::int32_t> stack_;
};

/// A candidate state register: its wire (and index in module wire order)
/// and the next-state (D) net of each bit.
struct Candidate {
  const Wire* wire = nullptr;
  std::int32_t index = 0;
  std::vector<std::int32_t> next;
};

std::vector<Candidate> find_candidates(ModuleScan& scan) {
  const rtlil::Module& module = scan.module();
  const std::vector<Wire*>& wires = module.wires();
  // A register must be drivable independently: none of its flip-flop cells
  // may latch bits of another wire too (concat Q targets span registers).
  std::vector<char> shared(wires.size(), 0);
  for (const rtlil::Cell* cell : module.cells()) {
    if (!rtlil::is_ff(cell->type())) continue;
    const std::vector<SigBit>& q = cell->port("Q").bits();
    const bool one_wire = std::all_of(q.begin(), q.end(), [&](const SigBit& b) {
      return b.wire == q.front().wire;
    });
    if (one_wire) continue;
    for (const SigBit& b : q) {
      if (const std::int32_t w = scan.owner(scan.flat->net_of(b)); w >= 0) {
        shared[static_cast<std::size_t>(w)] = 1;
      }
    }
  }
  std::vector<Candidate> out;
  std::vector<std::int32_t> inputs;
  for (std::size_t w = 0; w < wires.size(); ++w) {
    const int width = wires[w]->width();
    if (width > 64 || shared[w] != 0) continue;
    // Every bit must come out of a flip-flop.
    Candidate c{wires[w], static_cast<std::int32_t>(w), {}};
    for (int off = 0; off < width; ++off) {
      const rtlil::FlatFf* ff = scan.ff_of(scan.base(w) + off);
      if (ff == nullptr) break;
      c.next.push_back(ff->d);
    }
    if (static_cast<int>(c.next.size()) != width) continue;
    // Self-feeding and self-contained: the next-state cone's flip-flop
    // support is exactly this wire.
    inputs.clear();
    if (!scan.trace(c.next, c.index, inputs)) continue;
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

/// One recovered (input cube) -> (next state, outputs) row. Input bit i is
/// bit i of the words: determined where `care` is set, with its value in
/// `value` (0 wherever care is clear).
struct Cube {
  std::uint64_t care = 0;
  std::uint64_t value = 0;
  std::uint64_t next = 0;
  std::uint32_t output = 0;  ///< index of the output pattern
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
///
/// `cubes` must start as the minterms in combination order (cube c is
/// combination c). A merge keeps the lower index, which is the smaller
/// minterm, so a live cube's index stays its smallest combination: its
/// `value`. The partner of a live cube across determined position b is
/// therefore the cube at index value ^ b, when that one is live with the
/// same care mask.
void compact_cubes(std::vector<Cube>& cubes) {
  const std::size_t n = cubes.size();
  std::vector<bool> live(n, true);
  // The smallest index in [lo, hi) of a cube mergeable with cube c, or n.
  const auto partner = [&](std::size_t c, std::size_t lo, std::size_t hi) {
    std::size_t best = n;
    const Cube& cube = cubes[c];
    for (std::uint64_t rest = cube.care; rest != 0; rest &= rest - 1) {
      const auto k = static_cast<std::size_t>(cube.value ^ (rest & -rest));
      if (k < lo || k >= std::min(hi, best) || !live[k]) continue;
      const Cube& other = cubes[k];
      if (other.care == cube.care && other.next == cube.next && other.output == cube.output) {
        best = k;
      }
    }
    return best;
  };
  // Merges cube `from` into the lower cube `into`: their one differing
  // position becomes a don't-care (it is 0 in `into`'s value already).
  const auto merge = [&](std::size_t into, std::size_t from) {
    live[from] = false;
    cubes[into].care &= ~(cubes[into].value ^ cubes[from].value);
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
    if (live[c]) cubes[kept++] = cubes[c];
  }
  cubes.resize(kept);
}

/// The KISS2 guard of `cube` over `n` inputs: '0'/'1' where determined,
/// '-' elsewhere.
std::string guard_string(const Cube& cube, int n) {
  std::string guard(static_cast<std::size_t>(n), '-');
  for (int i = 0; i < n; ++i) {
    if ((cube.care >> i) & 1) {
      guard[static_cast<std::size_t>(i)] = ((cube.value >> i) & 1) ? '1' : '0';
    }
  }
  return guard;
}

/// Every bit of the module's input (`inputs`) or output ports whose net
/// `keep` accepts, in module wire order, then bit offset.
template <typename Keep>
std::vector<SigBit> port_bits(const ModuleScan& scan, bool inputs, Keep keep) {
  std::vector<SigBit> out;
  const std::vector<Wire*>& wires = scan.module().wires();
  for (std::size_t w = 0; w < wires.size(); ++w) {
    if (inputs ? !wires[w]->is_input() : !wires[w]->is_output()) continue;
    for (int off = 0; off < wires[w]->width(); ++off) {
      if (keep(scan.base(w) + off)) out.emplace_back(wires[w], off);
    }
  }
  return out;
}

/// Lane patterns of the low six input bits: lane l of a 64-lane word
/// carries input combination base + l, so input bit i < 6 is bit i of l.
constexpr std::uint64_t kLanePattern[6] = {
    0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
    0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};

/// Recovers the machine of `cand` by exhaustive simulation: BFS from the
/// reset code over every combination of `in_bits` (the other inputs stay
/// 0), observing `out_bits`, then per-state cube compaction. No observed
/// net may read another register, so those are never set. One eval()
/// settles 64 consecutive combinations, one per lane; results are consumed
/// in combination order.
ExtractedFsm recover(const ModuleScan& scan, sim::Simulator& sim, const Candidate& cand,
                     const std::vector<SigBit>& in_bits, const std::vector<SigBit>& out_bits,
                     const ExtractOptions& options) {
  const rtlil::Module& module = scan.module();
  const auto fail = [&](const std::string& what) {
    throw ScfiError("fsm extract: " + module.name() + "." + cand.wire->name() + ": " + what);
  };
  const int n = static_cast<int>(in_bits.size());
  const int bound = std::min(options.max_inputs, 63);
  if (n > bound) {
    fail(std::to_string(n) + " input bits exceed the exhaustive bound of " +
         std::to_string(bound));
  }
  std::vector<std::int32_t> in_nets;
  std::vector<std::string> input_names;
  for (const SigBit& bit : in_bits) {
    in_nets.push_back(scan.flat->net_of(bit));
    input_names.push_back(bit_name(bit));
  }
  std::vector<std::int32_t> out_nets;
  std::vector<std::string> output_names;
  for (const SigBit& bit : out_bits) {
    out_nets.push_back(scan.flat->net_of(bit));
    output_names.push_back(bit_name(bit));
  }
  const auto one_bit = [](std::int32_t net) { return sim::Simulator::WireHandle{net, 1}; };
  const std::int32_t state_base = scan.flat->wire_base.at(cand.wire);
  const sim::Simulator::WireHandle state_h{state_base, cand.wire->width()};

  sim.reset();  // zeroes every input; irrelevant ones stay 0 throughout
  const std::uint64_t reset_code = sim.get(state_h);
  for (int i = 0; i < std::min(n, 6); ++i) {
    sim.set_input_word(one_bit(in_nets[static_cast<std::size_t>(i)]), 0, kLanePattern[i]);
  }
  const std::uint64_t combos = 1ULL << n;
  const int lanes = static_cast<int>(std::min<std::uint64_t>(combos, 64));
  const std::uint64_t all_inputs = combos - 1;

  // Distinct output patterns; cubes name theirs by index.
  std::vector<std::string> patterns;
  std::unordered_map<std::string, std::uint32_t> pattern_index;
  std::vector<std::uint64_t> out_words(out_nets.size());
  std::vector<std::uint64_t> next_words(static_cast<std::size_t>(state_h.width));

  // BFS over reachable codes: `order` is the queue and the state numbering.
  std::vector<std::uint64_t> order{reset_code};
  std::unordered_map<std::uint64_t, int> index_of{{reset_code, 0}};
  std::vector<std::vector<Cube>> rows;
  for (std::size_t s = 0; s < order.size(); ++s) {
    const std::uint64_t code = order[s];
    std::vector<Cube> cubes;
    cubes.reserve(static_cast<std::size_t>(combos));
    for (std::uint64_t base = 0; base < combos; base += 64) {
      for (int i = 6; i < n; ++i) {
        sim.set_input_word(one_bit(in_nets[static_cast<std::size_t>(i)]), 0,
                           ((base >> i) & 1) ? ~0ULL : 0ULL);
      }
      sim.set_register(state_h, code);
      sim.eval();
      for (std::size_t j = 0; j < out_nets.size(); ++j) out_words[j] = sim.lane_word(out_nets[j]);
      sim.latch();
      for (int b = 0; b < state_h.width; ++b) {
        next_words[static_cast<std::size_t>(b)] = sim.lane_word(state_base + b);
      }
      for (int lane = 0; lane < lanes; ++lane) {
        std::uint64_t next = 0;
        for (int b = 0; b < state_h.width; ++b) {
          next |= ((next_words[static_cast<std::size_t>(b)] >> lane) & 1) << b;
        }
        std::string pattern(out_nets.size(), '0');
        for (std::size_t j = 0; j < out_nets.size(); ++j) {
          if ((out_words[j] >> lane) & 1) pattern[j] = '1';
        }
        const auto [it, fresh] =
            pattern_index.try_emplace(pattern, static_cast<std::uint32_t>(patterns.size()));
        if (fresh) patterns.push_back(std::move(pattern));
        if (index_of.count(next) == 0) {
          if (static_cast<int>(order.size()) >= options.max_states) {
            fail("more than " + std::to_string(options.max_states) +
                 " reachable states (runaway register, not an FSM?)");
          }
          index_of.emplace(next, static_cast<int>(order.size()));
          order.push_back(next);
        }
        cubes.push_back(
            Cube{all_inputs, base + static_cast<std::uint64_t>(lane), next, it->second});
      }
    }
    compact_cubes(cubes);
    rows.push_back(std::move(cubes));
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
  for (std::size_t s = 0; s < order.size(); ++s) {
    const std::uint64_t code = order[s];
    std::vector<Cube>& cubes = rows[s];
    // Self-loops last; the quiet catch-all stay becomes the implicit idle.
    std::stable_sort(cubes.begin(), cubes.end(), [code](const Cube& a, const Cube& b) {
      return (a.next != code) > (b.next != code);
    });
    for (const Cube& cube : cubes) {
      const std::string& output = patterns[cube.output];
      const bool quiet_output = output.find('1') == std::string::npos;
      if (cube.next == code && cube.care == 0 && quiet_output) continue;
      out.fsm.add_transition("s" + std::to_string(code), guard_string(cube, n),
                             "s" + std::to_string(cube.next), output);
    }
  }
  out.fsm.check();
  return out;
}

/// Discovery's bits for `cand`: the outputs whose cone holds this register
/// and no other state, and the inputs that reach its next-state cone or one
/// of those outputs.
ExtractedFsm discover(ModuleScan& scan, sim::Simulator& sim, const Candidate& cand,
                      const ExtractOptions& options) {
  std::vector<char> relevant(static_cast<std::size_t>(scan.flat->num_nets), 0);
  std::vector<std::int32_t> reached;
  scan.trace(cand.next, cand.index, reached);
  const std::vector<SigBit> outputs = port_bits(scan, false, [&](std::int32_t net) {
    const std::size_t before = reached.size();
    if (scan.trace(std::span<const std::int32_t>(&net, 1), cand.index, reached)) return true;
    reached.resize(before);
    return false;
  });
  for (const std::int32_t net : reached) relevant[static_cast<std::size_t>(net)] = 1;
  const std::vector<SigBit> inputs = port_bits(
      scan, true, [&](std::int32_t net) { return relevant[static_cast<std::size_t>(net)] != 0; });
  return recover(scan, sim, cand, inputs, outputs, options);
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

std::vector<ExtractedFsm> extract_fsms(const rtlil::Module& module,
                                       const ExtractOptions& options) {
  ModuleScan scan(module);
  const std::vector<Candidate> candidates = find_candidates(scan);
  std::vector<ExtractedFsm> out;
  if (candidates.empty()) return out;
  sim::Simulator sim(scan.flat);
  for (const Candidate& c : candidates) out.push_back(discover(scan, sim, c, options));
  return out;
}

}  // namespace scfi::fsm
