#include "base/error.h"

#include <exception>

namespace scfi {

namespace detail {

void throw_check_failed(std::string_view msg) {
  throw LogicBug(std::string("internal check failed: ").append(msg));
}

void throw_require_failed(std::string_view msg) { throw ScfiError(std::string(msg)); }

}  // namespace detail

std::string describe_current_exception() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

}  // namespace scfi
