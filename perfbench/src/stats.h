// The benchmark's own arithmetic: medians, the tail percentile, and span
// self-time. Kept apart from the workload code so tests can pin it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `samples` (mean of the two middle values for an even count);
/// 0 for an empty list.
double median(std::vector<double> samples);

/// First quartile, median and third quartile (medians of the lower and
/// upper halves); empty for an empty list.
std::vector<double> quartiles(std::vector<double> samples);

/// The highest percentile of the ladder p50 / p90 / p99 / p99.9 / p99.99
/// that still has at least ten samples beyond it (nearest-rank), so a tail
/// figure never rests on fewer than ten observations. With fewer than 20
/// samples no rung qualifies and the maximum is reported (percentile 100).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
};
Tail tail_percentile(std::vector<double> samples);

/// One timed call into a layer. `parent` indexes the enclosing span in the
/// same thread's list (-1 for a root); `job` indexes the job list (-1 when
/// the span belongs to no single job).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int job = -1;
};

/// Self time of every span of one thread's list: its duration minus the
/// part of that interval its child spans cover (children are clipped to the
/// parent and overlapping children count once).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Nanoseconds of a steady clock.
std::int64_t now_ns();

}  // namespace perfbench
