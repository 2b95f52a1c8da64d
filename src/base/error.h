// Error handling primitives shared by every scfi library.
//
// Recoverable failures (bad user input, unsolvable constraints, parse errors)
// throw ScfiError. Internal invariants use check()/unreachable(), which throw
// LogicBug so that tests can observe violations instead of aborting.
#pragma once

#include <stdexcept>
#include <string>

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

/// Throws LogicBug when `cond` is false. Used for internal invariants.
inline void check(bool cond, const std::string& msg) {
  if (!cond) throw LogicBug("internal check failed: " + msg);
}

/// Throws ScfiError when `cond` is false. Used to validate user-facing input.
inline void require(bool cond, const std::string& msg) {
  if (!cond) throw ScfiError(msg);
}

/// Marks unreachable control flow.
[[noreturn]] inline void unreachable(const std::string& msg) {
  throw LogicBug("unreachable: " + msg);
}

/// The active exception's message ("unknown error" for non-std exceptions).
/// Callable only from a catch block: it rethrows to inspect the type.
std::string describe_current_exception();

}  // namespace scfi
