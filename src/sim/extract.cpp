#include "sim/extract.h"

#include <algorithm>
#include <deque>
#include <map>

#include "base/error.h"
#include "fsm/extract.h"
#include "sim/netlist_sim.h"

namespace scfi::sim {
namespace {

// Cube rows and adjacent-implicant compaction are shared with the
// structural extractor in fsm/extract.h.
using Cube = fsm::ExtractCube;
using fsm::compact_cubes;

}  // namespace

fsm::Fsm extract_fsm(const rtlil::Module& module, const ExtractOptions& options) {
  const rtlil::Wire* state = module.wire(options.state_wire);
  require(state != nullptr, "extract_fsm: no state wire " + options.state_wire);
  std::vector<std::string> input_names;
  for (const rtlil::Wire* w : module.wires()) {
    if (!w->is_input()) continue;
    require(w->width() == 1, "extract_fsm: only 1-bit inputs supported (wire " + w->name() + ")");
    input_names.push_back(w->name());
  }
  const int n = static_cast<int>(input_names.size());
  require(n <= options.max_inputs, "extract_fsm: too many inputs for exhaustive extraction");

  std::vector<std::string> output_names;
  if (options.capture_outputs) {
    for (const rtlil::Wire* w : module.wires()) {
      if (w->is_output() && w->width() == 1) output_names.push_back(w->name());
    }
  }

  Simulator sim(module);
  sim.reset();
  const std::uint64_t reset_code = sim.get(options.state_wire);

  // BFS over reachable states.
  std::vector<std::uint64_t> order;           // discovery order (reset first)
  std::map<std::uint64_t, int> index_of;      // code -> state index
  std::map<std::uint64_t, std::vector<Cube>> rows;
  order.push_back(reset_code);
  index_of[reset_code] = 0;
  std::deque<std::uint64_t> queue{reset_code};
  while (!queue.empty()) {
    const std::uint64_t code = queue.front();
    queue.pop_front();
    std::vector<Cube>& cubes = rows[code];
    for (std::uint64_t combo = 0; combo < (1ULL << n); ++combo) {
      for (int i = 0; i < n; ++i) {
        sim.set_input(input_names[static_cast<std::size_t>(i)], (combo >> i) & 1);
      }
      sim.set_register(options.state_wire, code);
      std::string out_pattern(output_names.size(), '0');
      for (std::size_t i = 0; i < output_names.size(); ++i) {
        if (sim.get(output_names[i]) != 0) out_pattern[i] = '1';
      }
      sim.latch();
      const std::uint64_t next = sim.get(options.state_wire);
      if (index_of.count(next) == 0) {
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

  fsm::Fsm out;
  out.name = module.name() + "_extracted";
  out.inputs = input_names;
  out.outputs = output_names;
  for (const std::uint64_t code : order) out.add_state("s" + std::to_string(code));
  out.reset_state = 0;
  for (const std::uint64_t code : order) {
    std::vector<Cube>& cubes = rows[code];
    // Emit self-loops last and skip the catch-all stay (implicit idle), so
    // the extracted machine stays minimal.
    std::stable_sort(cubes.begin(), cubes.end(), [code](const Cube& a, const Cube& b) {
      return (a.next != code) > (b.next != code);
    });
    for (const Cube& cube : cubes) {
      const bool all_dash = cube.guard.find_first_not_of('-') == std::string::npos;
      const bool quiet_output = cube.output.find('1') == std::string::npos;
      if (cube.next == code && all_dash && quiet_output) continue;  // implicit idle
      out.add_transition("s" + std::to_string(code), cube.guard, "s" + std::to_string(cube.next),
                         cube.output);
    }
  }
  out.check();
  return out;
}

}  // namespace scfi::sim
