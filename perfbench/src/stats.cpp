#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::vector<double> quartiles(std::vector<double> samples) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  const std::size_t half = samples.size() / 2;
  const std::vector<double> lower(samples.begin(),
                                  samples.begin() + static_cast<std::ptrdiff_t>(half));
  const std::vector<double> upper(samples.end() - static_cast<std::ptrdiff_t>(half), samples.end());
  return {median(lower.empty() ? samples : lower), median(samples),
          median(upper.empty() ? samples : upper)};
}

Tail tail_percentile(std::vector<double> samples) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  tail.value = samples.back();
  for (const double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    // Nearest rank: the smallest rank covering p percent of the samples (the
    // epsilon keeps a decimal p such as 99.9 from rounding up a whole rank).
    const auto rank =
        static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
    if (rank >= 1 && n - rank >= 10) {
      tail.value = samples[rank - 1];
      tail.percentile = p;
      break;
    }
  }
  return tail;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;  // end of the covered prefix so far
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, s.end_ns);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
