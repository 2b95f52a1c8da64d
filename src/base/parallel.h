// The one thread fan-out shared by every engine (SYNFI shards, campaign
// batches, the sweep's variant-group pool).
//
// run_shards(workers, fn) calls fn(slot) exactly once for every slot in
// [0, workers). Callers derive a slot's share of the work from the slot
// index and write results into per-slot storage, so a deterministic
// in-order merge after the call reproduces the single-threaded answer.
#pragma once

#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace scfi {

/// Runs `fn(slot)` for every slot in [0, workers): inline on the calling
/// thread when workers <= 1, otherwise one thread per slot. Every worker is
/// joined before anything is rethrown, and the lowest failing slot's
/// exception is rethrown unchanged — its dynamic type survives, so a
/// CancelledError from a fired deadline stays a CancelledError.
template <typename Fn>
void run_shards(int workers, Fn&& fn) {
  if (workers <= 1) {
    fn(0);
    return;
  }
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(workers));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  try {
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back([&fn, &errors, w] {
        try {
          fn(w);
        } catch (...) {
          errors[static_cast<std::size_t>(w)] = std::current_exception();
        }
      });
    }
  } catch (...) {
    // Thread creation failed: the started workers still own references
    // into this frame.
    for (std::thread& th : pool) th.join();
    throw;
  }
  for (std::thread& th : pool) th.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace scfi
