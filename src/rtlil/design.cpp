#include "rtlil/design.h"

#include <algorithm>

#include "base/error.h"

namespace scfi::rtlil {

Module* Design::add_module(const std::string& name) {
  const auto [it, inserted] = modules_.try_emplace(name);
  if (!inserted) [[unlikely]] throw ScfiError("duplicate module name: " + name);
  it->second = std::make_unique<Module>(name);
  order_.push_back(it->second.get());
  return it->second.get();
}

Module* Design::module(const std::string& name) const {
  const auto it = modules_.find(name);
  return it == modules_.end() ? nullptr : it->second.get();
}

void Design::remove_module(const std::string& name) {
  Module* m = module(name);
  if (m == nullptr) return;
  order_.erase(std::remove(order_.begin(), order_.end(), m), order_.end());
  modules_.erase(name);
}

}  // namespace scfi::rtlil
