#include "encode/lexicode.h"

#include <bit>

#include "base/error.h"

namespace scfi::encode {
namespace {

constexpr int kMaxWidth = 28;

/// Extends `out`, the greedy code over candidates [0, from), by scanning
/// candidates [from, 2^width) in order; true once it holds spec.count words.
bool try_greedy(const CodeSpec& spec, int width, std::uint64_t from,
                std::vector<std::uint64_t>& out) {
  const std::uint64_t space = 1ULL << width;
  const std::uint64_t all_ones = space - 1;
  for (std::uint64_t cand = from; cand < space; ++cand) {
    if (std::popcount(cand) < spec.min_weight) continue;
    if (spec.forbid_all_ones && cand == all_ones) continue;
    bool ok = true;
    for (std::uint64_t w : out) {
      if (std::popcount(cand ^ w) < spec.min_distance) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    out.push_back(cand);
    if (static_cast<int>(out.size()) == spec.count) return true;
  }
  return false;
}

}  // namespace

int singleton_floor(int count, int min_distance) {
  check(count > 0 && min_distance > 0, "singleton_floor: invalid arguments");
  int log2_count = 0;
  while ((1LL << log2_count) < count) ++log2_count;
  // Singleton bound: |C| <= 2^(n - d + 1)  =>  n >= log2|C| + d - 1.
  return count == 1 ? min_distance : log2_count + min_distance - 1;
}

Code generate_code(const CodeSpec& spec) {
  require(spec.count > 0, "generate_code: need at least one codeword");
  require(spec.min_distance >= 1, "generate_code: distance must be >= 1");
  int start = singleton_floor(spec.count, spec.min_distance);
  if (start < spec.min_weight) start = spec.min_weight;
  if (spec.width > 0) {
    require(spec.width <= kMaxWidth, "generate_code: width too large");
    start = spec.width;
  }
  // The candidates of width w are the first 2^w of width w + 1, so a failed
  // width's words are the next width's greedy prefix and the scan resumes
  // after them. Only the excluded all-ones word differs between widths.
  std::vector<std::uint64_t> words;
  std::uint64_t scanned = 0;
  for (int width = start; width <= kMaxWidth; ++width) {
    if (spec.forbid_all_ones) {
      words.clear();
      scanned = 0;
    }
    if (try_greedy(spec, width, scanned, words)) {
      return Code{width, spec.min_distance, std::move(words)};
    }
    if (spec.width > 0) break;  // fixed width requested: no widening
    scanned = 1ULL << width;
  }
  throw ScfiError("generate_code: no feasible code within supported widths");
}

int min_pairwise_distance(const std::vector<std::uint64_t>& words, int width) {
  require(!words.empty(), "min_pairwise_distance: empty code");
  if (words.size() == 1) return width;
  int best = width;
  for (std::size_t i = 0; i < words.size(); ++i) {
    for (std::size_t j = i + 1; j < words.size(); ++j) {
      best = std::min(best, std::popcount(words[i] ^ words[j]));
    }
  }
  return best;
}

}  // namespace scfi::encode
