#include "corpus_gen.h"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>

#include "base/error.h"
#include "base/rng.h"
#include "fsm/kiss2.h"

namespace perfbench {
namespace {

using scfi::fsm::Fsm;

std::string indexed(const char* prefix, int i) { return prefix + std::to_string(i); }

/// `count` distinct values from [0, n), in random order.
std::vector<int> sample(scfi::Rng& rng, int n, int count) {
  std::vector<int> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  rng.shuffle(all);
  all.resize(static_cast<std::size_t>(count));
  return all;
}

std::string binary_const(std::uint64_t value, int width) {
  std::string bits = std::to_string(width) + "'b";
  for (int b = width - 1; b >= 0; --b) bits += ((value >> b) & 1U) != 0 ? '1' : '0';
  return bits;
}

}  // namespace

std::vector<Fsm> generate_machines(std::uint64_t seed, int count) {
  std::vector<Fsm> machines;
  for (int m = 0; m < count; ++m) {
    // One jump-ahead stream per machine: machine m never depends on how
    // many machines precede it.
    scfi::Rng rng(seed, static_cast<std::uint64_t>(m));
    // 3..30 states, growing with the cube of m: most machines are small, as
    // in MCNC, and the few large ones do not dominate the sweep.
    const long last = std::max(1, count - 1);
    const int num_states = static_cast<int>(3 + 27L * m * m * m / (last * last * last));
    const int num_inputs = 2 + m % 7;
    const int num_outputs = 1 + m % 4;
    // At most four transitions per state, fewer than the 2^inputs input
    // combinations so two-input machines keep an idle combination.
    const int max_out = std::min(4, (1 << num_inputs) - 1);

    Fsm fsm;
    fsm.name = (m < 10 ? "m0" : "m") + std::to_string(m);
    for (int i = 0; i < num_inputs; ++i) fsm.inputs.push_back(indexed("i", i));
    for (int o = 0; o < num_outputs; ++o) fsm.outputs.push_back(indexed("o", o));
    for (int s = 0; s < num_states; ++s) fsm.add_state(indexed("S", s));

    // Reachability first: state k hangs off one of the three states before
    // it, so no state needs more than three spanning edges.
    std::vector<std::vector<int>> targets(static_cast<std::size_t>(num_states));
    for (int k = 1; k < num_states; ++k) {
      const auto back = rng.below(static_cast<std::uint64_t>(std::min(k, 3)));
      const int parent = k - 1 - static_cast<int>(back);
      targets[static_cast<std::size_t>(parent)].push_back(k);
    }
    for (int s = 0; s < num_states; ++s) {
      auto& to = targets[static_cast<std::size_t>(s)];
      // Counts depend on (m, s) only, so the work a corpus carries barely
      // depends on the seed; the seed picks targets, literals and outputs.
      const int want = 1 + (m + s) % max_out;
      while (static_cast<int>(to.size()) < want) {
        to.push_back(static_cast<int>(rng.below(static_cast<std::uint64_t>(num_states))));
      }
      rng.shuffle(to);
      // Disjoint guards: `width` decisive inputs take a distinct value per
      // transition; a quarter of the other inputs are fixed at random.
      const int n = static_cast<int>(to.size());
      const int width = std::max(1, static_cast<int>(std::bit_width(static_cast<unsigned>(n - 1))));
      const std::vector<int> order = sample(rng, num_inputs, num_inputs);
      const std::vector<int> values = sample(rng, 1 << width, n);
      const int extra = (num_inputs - width) / 4;
      for (int t = 0; t < n; ++t) {
        std::string guard(static_cast<std::size_t>(num_inputs), '-');
        const std::vector<int> fixed = sample(rng, num_inputs - width, extra);
        for (const int f : fixed) {
          guard[static_cast<std::size_t>(order[static_cast<std::size_t>(width + f)])] =
              rng.chance(0.5) ? '1' : '0';
        }
        for (int b = 0; b < width; ++b) {
          guard[static_cast<std::size_t>(order[static_cast<std::size_t>(b)])] =
              ((values[static_cast<std::size_t>(t)] >> b) & 1) != 0 ? '1' : '0';
        }
        std::string output(static_cast<std::size_t>(num_outputs), '0');
        for (char& bit : output) bit = rng.chance(0.5) ? '1' : '0';
        fsm.transitions.push_back({s, guard, to[static_cast<std::size_t>(t)], output});
      }
    }
    // Every output is raised somewhere, so no netlist output is a constant.
    for (int o = 0; o < num_outputs; ++o) {
      const auto bit = static_cast<std::size_t>(o);
      const bool raised = std::any_of(fsm.transitions.begin(), fsm.transitions.end(),
                                      [bit](const auto& t) { return t.output[bit] == '1'; });
      if (!raised) fsm.transitions[rng.below(fsm.transitions.size())].output[bit] = '1';
    }
    fsm.check();
    machines.push_back(std::move(fsm));
  }
  return machines;
}

std::string structural_verilog(const Fsm& fsm) {
  const auto last_code = static_cast<unsigned>(fsm.num_states() - 1);
  const int width = std::max(1, static_cast<int>(std::bit_width(last_code)));
  const std::string range = "[" + std::to_string(width - 1) + ":0]";
  const auto join = [](const std::vector<std::string>& names) {
    std::string out;
    for (const std::string& name : names) out += (out.empty() ? "" : ", ") + name;
    return out;
  };

  std::vector<std::string> ports = {"clk", "rst_n"};
  ports.insert(ports.end(), fsm.inputs.begin(), fsm.inputs.end());
  ports.insert(ports.end(), fsm.outputs.begin(), fsm.outputs.end());
  std::vector<std::string> decodes;
  for (int s = 0; s < fsm.num_states(); ++s) decodes.push_back(indexed("st", s));
  std::vector<bool> negated(fsm.inputs.size(), false);
  for (const auto& t : fsm.transitions) {
    for (std::size_t i = 0; i < t.guard.size(); ++i) negated[i] = negated[i] || t.guard[i] == '0';
  }
  std::vector<std::string> inverted;
  for (std::size_t i = 0; i < negated.size(); ++i) {
    if (negated[i]) inverted.push_back("n" + fsm.inputs[i]);
  }
  std::vector<std::string> fires;
  for (std::size_t t = 0; t < fsm.transitions.size(); ++t) {
    fires.push_back(indexed("t", static_cast<int>(t)));
  }

  std::ostringstream v;
  v << "// Generated control machine: " << fsm.num_states() << " states, " << fsm.num_inputs()
    << " inputs, " << fsm.num_outputs() << " outputs, " << fsm.transitions.size()
    << " transitions.\n";
  v << "module " << fsm.name << " (" << join(ports) << ");\n";
  v << "  input clk, rst_n;\n";
  v << "  input " << join(fsm.inputs) << ";\n";
  v << "  output " << join(fsm.outputs) << ";\n\n";
  v << "  reg " << range << " state;\n";
  v << "  wire " << range << " state_nxt;\n";
  v << "  wire " << join(decodes) << ";\n";
  if (!inverted.empty()) v << "  wire " << join(inverted) << ";\n";
  v << "  wire " << join(fires) << ";\n\n";
  for (int s = 0; s < fsm.num_states(); ++s) {
    v << "  assign st" << s << " = state == " << binary_const(static_cast<std::uint64_t>(s), width)
      << ";\n";
  }
  for (std::size_t i = 0; i < negated.size(); ++i) {
    const std::string& in = fsm.inputs[i];
    if (negated[i]) v << "  not g_n" << in << " (n" << in << ", " << in << ");\n";
  }
  v << "\n  /* one gate per transition guard */\n";
  for (std::size_t t = 0; t < fsm.transitions.size(); ++t) {
    const auto& tr = fsm.transitions[t];
    std::vector<std::string> terms = {"st" + std::to_string(tr.from)};
    for (std::size_t i = 0; i < tr.guard.size(); ++i) {
      if (tr.guard[i] == '1') terms.push_back(fsm.inputs[i]);
      if (tr.guard[i] == '0') terms.push_back("n" + fsm.inputs[i]);
    }
    v << "  " << (terms.size() == 1 ? "buf" : "and") << " g_t" << t << " (t" << t << ", "
      << join(terms) << ");\n";
  }
  v << "\n  assign state_nxt =";
  for (std::size_t t = 0; t < fsm.transitions.size(); ++t) {
    v << " t" << t << " ? "
      << binary_const(static_cast<std::uint64_t>(fsm.transitions[t].to), width) << " :";
  }
  v << " state;\n\n";
  v << "  always @(posedge clk or negedge rst_n)\n";
  v << "    if (!rst_n)\n";
  v << "      state <= " << binary_const(static_cast<std::uint64_t>(fsm.reset_state), width)
    << ";\n";
  v << "    else\n";
  v << "      state <= state_nxt;\n\n";
  for (std::size_t o = 0; o < fsm.outputs.size(); ++o) {
    std::vector<std::string> raising;
    for (std::size_t t = 0; t < fsm.transitions.size(); ++t) {
      if (fsm.transitions[t].output[o] == '1') raising.push_back(fires[t]);
    }
    std::string expr;
    for (const std::string& name : raising) expr += (expr.empty() ? "" : " | ") + name;
    v << "  assign " << fsm.outputs[o] << " = " << (expr.empty() ? "1'b0" : expr) << ";\n";
  }
  v << "endmodule\n";
  return v.str();
}

CorpusShape write_corpus(const std::vector<Fsm>& machines, const std::string& kiss2_dir,
                         const std::string& verilog_dir) {
  namespace fs = std::filesystem;
  fs::create_directories(kiss2_dir);
  fs::create_directories(verilog_dir);
  const auto write = [](const fs::path& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary);
    out << text;
    scfi::require(static_cast<bool>(out), "perfbench: cannot write " + path.string());
  };
  CorpusShape shape;
  for (const Fsm& fsm : machines) {
    write(fs::path(kiss2_dir) / (fsm.name + ".kiss2"), scfi::fsm::write_kiss2(fsm));
    write(fs::path(verilog_dir) / (fsm.name + ".v"), structural_verilog(fsm));
    ++shape.machines;
    shape.states += fsm.num_states();
    shape.transitions += static_cast<int>(fsm.transitions.size());
  }
  return shape;
}

}  // namespace perfbench
