#include "calibrate.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

constexpr std::uint32_t kNets = 4096;
constexpr std::uint32_t kInputs = 64;
constexpr int kPasses = 5000;

struct Gate {
  std::uint32_t a;
  std::uint32_t b;
  std::uint32_t op;
};

const std::vector<Gate>& network() {
  static const std::vector<Gate> gates = [] {
    std::vector<Gate> g;
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (std::uint32_t out = kInputs; out < kNets; ++out) {
      g.push_back({static_cast<std::uint32_t>(next() % out),
                   static_cast<std::uint32_t>(next() % out),
                   static_cast<std::uint32_t>(next() % 3)});
    }
    return g;
  }();
  return gates;
}

std::uint64_t evaluate(const std::vector<Gate>& gates) {
  std::vector<std::uint64_t> nets(kNets);
  std::uint64_t sum = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (std::uint32_t i = 0; i < kInputs; ++i) {
      nets[i] = (static_cast<std::uint64_t>(pass) + i) * 0xD1B54A32D192ED03ULL;
    }
    for (std::uint32_t i = 0; i < gates.size(); ++i) {
      const Gate& g = gates[i];
      const std::uint64_t a = nets[g.a];
      const std::uint64_t b = nets[g.b];
      nets[kInputs + i] = g.op == 0 ? (a & b) : g.op == 1 ? (a | b) : (a ^ b);
    }
    sum += nets[kNets - 1];
  }
  return sum;
}

std::atomic<std::uint64_t> sink{0};

}  // namespace

double calibrate_s(int threads) {
  const std::vector<Gate>& gates = network();
  std::vector<double> seconds(static_cast<std::size_t>(threads));
  const auto timed = [&gates, &seconds](int t) {
    const std::int64_t start = now_ns();
    sink += evaluate(gates);
    seconds[static_cast<std::size_t>(t)] = static_cast<double>(now_ns() - start) * 1e-9;
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(timed, t);
  timed(0);
  for (std::thread& th : pool) th.join();
  double sum = 0.0;
  for (const double s : seconds) sum += s;
  return sum / threads;
}

}  // namespace perfbench
