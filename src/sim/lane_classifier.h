// The outcome reads both fault engines share (the exhaustive SYNFI back-end
// and the campaign executor): a Simulator of a compiled FSM variant with its
// state register and alert resolved, and a word-parallel match of every
// lane's latched state against the state codes and the error code. What a
// match means (masked, detected, hijacked, ...) stays with each caller,
// which gathers per-lane expectations from its own plan.
// An analysis flattens and slices its variant once (VariantNetlist), and
// every LaneClassifier of it simulates that slice (a sweep group's
// Analyzer and campaign jobs share one).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/error.h"
#include "fsm/compile.h"
#include "sim/netlist_sim.h"

namespace scfi::sim {

/// A runtime-width lane set: words [0, W) of a kMaxLaneWords array (the
/// layout of LaneMask::w), so a one-word block pays for one word.
using LaneWords = std::array<std::uint64_t, kMaxLaneWords>;

/// The flat netlists of one compiled variant, built once per analysis and
/// shared, never changed, by all of its engine contexts.
struct VariantNetlist {
  /// `variant` must outlive this object. A missing state or alert wire
  /// roots nothing; it fails where it is read.
  explicit VariantNetlist(const fsm::CompiledFsm& variant) : variant(&variant) {
    check(variant.module != nullptr, "VariantNetlist: variant has no module");
    full = std::make_shared<const rtlil::FlatNetlist>(rtlil::flatten(*variant.module));
    std::vector<std::int32_t> roots;
    for (const std::string* name : {&variant.state_wire, &variant.alert_wire}) {
      const rtlil::Wire* w = variant.module->wire(*name);
      if (w == nullptr) continue;
      for (int i = 0; i < w->width(); ++i) roots.push_back(full->wire_base.at(w) + i);
    }
    cone = rtlil::fanin_cone(*full, roots);
    sliced = std::make_shared<const rtlil::FlatNetlist>(rtlil::slice(*full, cone));
    cone_q.assign(cone.size(), 0);
    for (const rtlil::FlatFf& ff : sliced->ffs) cone_q[static_cast<std::size_t>(ff.q)] = 1;
  }

  /// Whether a fault of `kind` on `net` can ever change the state register
  /// or the alert; both fault engines simulate only such faults. A mask
  /// fault (stuck-at, flip) is live in the cone. A skip stalls the
  /// flip-flop whose Q it hits and is a no-op on any other net, so it is
  /// live only on the Q of a flip-flop of the slice.
  bool live(std::int32_t net, FaultKind kind) const {
    const auto n = static_cast<std::size_t>(net);
    return (kind == FaultKind::kSkipCycle ? cone_q[n] : cone[n]) != 0;
  }

  const fsm::CompiledFsm* variant;
  /// Every net and op; fault regions are listed over it (the engines run
  /// and encode `sliced`).
  std::shared_ptr<const rtlil::FlatNetlist> full;
  /// Per net: in the fan-in cone of the state register and the alert,
  /// closed over flip-flops. A fault outside it can never change either.
  std::vector<char> cone;
  std::shared_ptr<const rtlil::FlatNetlist> sliced;  ///< `full` sliced to `cone`
  /// Per net: the Q of a flip-flop of `sliced` (so in `cone`).
  std::vector<char> cone_q;
};

class LaneClassifier {
 public:
  /// Simulates `net`'s slice. `net` must outlive the classifier; the state
  /// register must fit in 64 bits.
  LaneClassifier(const VariantNetlist& net, int lane_words)
      : sim(net.sliced, lane_words), net_(&net) {
    const fsm::CompiledFsm& variant = *net.variant;
    state_h = sim.probe(variant.state_wire);
    if (!variant.alert_wire.empty()) alert_h = sim.probe(variant.alert_wire);
    check(state_h.width <= 64, "state wire '" + variant.state_wire + "' is wider than 64 bits");
    state_words_.resize(static_cast<std::size_t>(state_h.width * lane_words));
    state_eq_.resize(variant.state_codes.size() * static_cast<std::size_t>(lane_words));
  }

  /// Lane word `w` of the alert (any alert bit set); 0 without an alert.
  std::uint64_t alert_word(int w) const {
    std::uint64_t alert = 0;
    for (std::int32_t i = 0; i < alert_h.width; ++i) alert |= sim.lane_word(alert_h.base + i, w);
    return alert;
  }

  /// Per-net flags: the fan-in cone of the state register and the alert
  /// (VariantNetlist::cone). Through `sim`, every other net is stale.
  const std::vector<char>& observable_nets() const { return net_->cone; }

  /// Matches the state register of the lanes in `lanes`, as it is now (call
  /// it right after latch()), against the error code and every state code.
  /// Error-code lanes are reported by error() only; a code with a bit above
  /// the register width never matches; other lanes match nothing.
  void match(const LaneWords& lanes) {
    match_error(lanes);
    const fsm::CompiledFsm& variant = *net_->variant;
    const int W = sim.lane_words();
    valid_ = LaneWords{};
    for (int w = 0; w < W; ++w) {
      const auto j = static_cast<std::size_t>(w);
      const std::uint64_t open = lanes[j] & ~error_[j];
      for (std::size_t s = 0; s < variant.state_codes.size(); ++s) {
        const std::uint64_t eq = code_eq(variant.state_codes[s], open, w);
        state_eq_[s * static_cast<std::size_t>(W) + j] = eq;
        valid_[j] |= eq;
      }
    }
  }

  /// The part of match() that error() and state_word() read: state_eq()
  /// and valid() stay as they were.
  void match_error(const LaneWords& lanes) {
    const int W = sim.lane_words();
    for (int i = 0; i < state_h.width; ++i) {
      for (int w = 0; w < W; ++w) {
        state_words_[static_cast<std::size_t>(i * W + w)] = sim.lane_word(state_h.base + i, w);
      }
    }
    const fsm::CompiledFsm& variant = *net_->variant;
    error_ = LaneWords{};
    if (!variant.has_error_state) return;
    for (int w = 0; w < W; ++w) {
      const auto j = static_cast<std::size_t>(w);
      error_[j] = code_eq(variant.error_code, lanes[j], w);
    }
  }

  /// After match(): the lanes of word `w` holding state code `s`, those
  /// holding the error code, and those holding any state code.
  std::uint64_t state_eq(std::size_t s, std::size_t w) const {
    return state_eq_[s * static_cast<std::size_t>(sim.lane_words()) + w];
  }
  const LaneWords& error() const { return error_; }
  const LaneWords& valid() const { return valid_; }
  /// After match() or match_error(): lane word `w` of state register bit
  /// `i`, as matched.
  std::uint64_t state_word(int i, int w) const {
    return state_words_[static_cast<std::size_t>(i * sim.lane_words() + w)];
  }

  Simulator sim;
  Simulator::WireHandle state_h;
  Simulator::WireHandle alert_h;

 private:
  /// Lanes of `candidates` (word `w`) whose latched state equals `code`.
  std::uint64_t code_eq(std::uint64_t code, std::uint64_t candidates, int w) const {
    const int state_w = state_h.width;
    const int W = sim.lane_words();
    std::uint64_t eq = state_w >= 64 || (code >> state_w) == 0 ? candidates : 0;
    for (int i = 0; i < state_w && eq != 0; ++i) {
      const std::uint64_t sw = state_words_[static_cast<std::size_t>(i * W + w)];
      eq &= ((code >> i) & 1) ? sw : ~sw;
    }
    return eq;
  }

  const VariantNetlist* net_;
  std::vector<std::uint64_t> state_words_;  ///< state bit i, word w: [i * W + w]
  std::vector<std::uint64_t> state_eq_;     ///< state code s, word w: [s * W + w]
  LaneWords error_{};
  LaneWords valid_{};
};

}  // namespace scfi::sim
