// Error handling primitives shared by every scfi library.
//
// Recoverable failures (bad user input, unsolvable constraints, parse errors)
// throw ScfiError. Internal invariants use check()/unreachable(), which throw
// LogicBug so that tests can observe violations instead of aborting.
//
// check() and require() take the message as a std::string_view and build
// the exception text only on failure, in an out-of-line cold helper: a
// literal message stays a pointer, so a passing guard costs one branch and
// no allocation. A message composed at the call site (format(),
// concatenation) is still built before the call even when the check passes,
// so keep those off per-cycle and per-draw paths. The rtlil per-cell and
// per-bit paths are such paths too: Cell::port, Module::add_wire/add_cell,
// Design::add_module and flatten's per-bit driver checks run for every
// cell or bit of every netlist built, flattened or extracted, so they test
// the condition first and compose their message only inside the failing
// branch: `if (!ok) [[unlikely]] throw ScfiError(...)`, or
// detail::throw_check_failed(...) for a check()'s LogicBug text. ci.sh
// rejects a composed check()/require() message in src/rtlil/,
// src/fsm/extract.cpp, and the per-job, per-record and per-delimiter paths
// of src/sweep/sweep.cpp, src/sweep/store_writer.cpp and
// src/sweep/result_store.cpp.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace scfi {

/// Base class for all recoverable scfi errors (parse failures, infeasible
/// configurations, malformed netlists, ...).
class ScfiError : public std::runtime_error {
 public:
  explicit ScfiError(const std::string& what) : std::runtime_error(what) {}
};

/// Violated internal invariant; indicates a bug in scfi itself.
class LogicBug : public std::logic_error {
 public:
  explicit LogicBug(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
/// Out-of-line throw paths of check() and require().
[[noreturn, gnu::cold]] void throw_check_failed(std::string_view msg);
[[noreturn, gnu::cold]] void throw_require_failed(std::string_view msg);
}  // namespace detail

/// Throws LogicBug when `cond` is false. Used for internal invariants.
inline void check(bool cond, std::string_view msg) {
  if (!cond) [[unlikely]] detail::throw_check_failed(msg);
}

/// Throws ScfiError when `cond` is false. Used to validate user-facing input.
inline void require(bool cond, std::string_view msg) {
  if (!cond) [[unlikely]] detail::throw_require_failed(msg);
}

/// Marks unreachable control flow.
[[noreturn]] inline void unreachable(const std::string& msg) {
  throw LogicBug("unreachable: " + msg);
}

/// The active exception's message ("unknown error" for non-std exceptions).
/// Callable only from a catch block: it rethrows to inspect the type.
std::string describe_current_exception();

}  // namespace scfi
