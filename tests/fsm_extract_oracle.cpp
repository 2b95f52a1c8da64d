#include "fsm_extract_oracle.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <unordered_map>

#include "base/error.h"
#include "sim/netlist_sim.h"

namespace scfi::test {
namespace {

using rtlil::SigBit;

/// The bit a port-bit name denotes: a one-bit wire by its name, else
/// "w[i]".
SigBit bit_of(const rtlil::Module& module, const std::string& name) {
  if (const rtlil::Wire* w = module.wire(name); w != nullptr && w->width() == 1) {
    return SigBit(w, 0);
  }
  const std::size_t open = name.rfind('[');
  check(open != std::string::npos && name.back() == ']', "scalar_recover: bad bit " + name);
  const rtlil::Wire* w = module.wire(name.substr(0, open));
  check(w != nullptr, "scalar_recover: no wire for " + name);
  return SigBit(w, std::stoi(name.substr(open + 1)));
}

fsm::StateEncoding classify(const std::vector<std::uint64_t>& codes) {
  const std::set<std::uint64_t> set(codes.begin(), codes.end());
  bool binary = true;
  for (std::uint64_t i = 0; i < codes.size(); ++i) binary = binary && set.count(i) != 0;
  if (binary) return fsm::StateEncoding::kBinary;
  for (const std::uint64_t c : codes) {
    if (c == 0 || (c & (c - 1)) != 0) return fsm::StateEncoding::kOther;
  }
  return fsm::StateEncoding::kOneHot;
}

struct Cube {
  std::string guard;
  std::uint64_t next = 0;
  std::string output;
};

/// Adjacent-implicant compaction over string guards: each step merges the
/// first mergeable pair (i, j) in index order into i, resuming the scan
/// where only cube i can have changed.
void compact_cubes(std::vector<Cube>& cubes) {
  const std::size_t n = cubes.size();
  std::unordered_map<std::string, std::size_t> by_guard;
  for (std::size_t c = 0; c < n; ++c) by_guard.emplace(cubes[c].guard, c);
  std::vector<bool> live(n, true);
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
  std::size_t scanned = 0;
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
  std::vector<Cube> kept;
  for (std::size_t c = 0; c < n; ++c) {
    if (live[c]) kept.push_back(std::move(cubes[c]));
  }
  cubes = std::move(kept);
}

}  // namespace

fsm::ExtractedFsm scalar_recover(const rtlil::Module& module, const std::string& state_wire,
                                 const std::vector<std::string>& inputs,
                                 const std::vector<std::string>& outputs,
                                 const fsm::ExtractOptions& options) {
  const std::string where = "fsm extract: " + module.name() + "." + state_wire + ": ";
  sim::Simulator sim(module);
  std::vector<std::pair<sim::Simulator::WireHandle, int>> in_bits;
  for (const std::string& name : inputs) {
    const SigBit bit = bit_of(module, name);
    in_bits.emplace_back(sim.input_handle(bit.wire->name()), bit.offset);
  }
  std::vector<SigBit> out_bits;
  for (const std::string& name : outputs) out_bits.push_back(bit_of(module, name));
  const int n = static_cast<int>(in_bits.size());
  if (n > options.max_inputs) {
    throw ScfiError(where + std::to_string(n) + " input bits exceed the exhaustive bound of " +
                    std::to_string(options.max_inputs));
  }
  const sim::Simulator::WireHandle state_h = sim.probe(state_wire);
  sim.reset();
  const std::uint64_t reset_code = sim.get(state_h);

  std::vector<std::uint64_t> order{reset_code};
  std::map<std::uint64_t, int> index_of{{reset_code, 0}};
  std::map<std::uint64_t, std::vector<Cube>> rows;
  std::deque<std::uint64_t> queue{reset_code};
  while (!queue.empty()) {
    const std::uint64_t code = queue.front();
    queue.pop_front();
    std::vector<Cube>& cubes = rows[code];
    for (std::uint64_t combo = 0; combo < (1ULL << n); ++combo) {
      sim.reset();
      std::string guard(static_cast<std::size_t>(n), '0');
      for (int i = 0; i < n; ++i) {
        const bool one = ((combo >> i) & 1) != 0;
        const auto& [handle, offset] = in_bits[static_cast<std::size_t>(i)];
        sim.set_input_word(handle, offset, one ? ~0ULL : 0ULL);
        if (one) guard[static_cast<std::size_t>(i)] = '1';
      }
      sim.set_register(state_h, code);
      sim.eval();
      std::string output(out_bits.size(), '0');
      for (std::size_t j = 0; j < out_bits.size(); ++j) {
        if (sim.get_bit(out_bits[j])) output[j] = '1';
      }
      sim.latch();
      const std::uint64_t next = sim.get(state_h);
      if (index_of.count(next) == 0) {
        if (static_cast<int>(order.size()) >= options.max_states) {
          throw ScfiError(where + "more than " + std::to_string(options.max_states) +
                          " reachable states (runaway register, not an FSM?)");
        }
        index_of[next] = static_cast<int>(order.size());
        order.push_back(next);
        queue.push_back(next);
      }
      cubes.push_back(Cube{std::move(guard), next, std::move(output)});
    }
    compact_cubes(cubes);
  }

  fsm::ExtractedFsm out;
  out.state_wire = state_wire;
  out.state_codes = order;
  out.encoding = classify(order);
  out.fsm.name = module.name() + "." + state_wire;
  out.fsm.inputs = inputs;
  out.fsm.outputs = outputs;
  for (const std::uint64_t code : order) out.fsm.add_state("s" + std::to_string(code));
  out.fsm.reset_state = 0;
  for (const std::uint64_t code : order) {
    std::vector<Cube>& cubes = rows[code];
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

}  // namespace scfi::test
