// Cycle-accurate two-valued netlist simulator with fault injection,
// bit-parallel over 64 x `lane_words` independent lanes.
//
// The simulator runs an rtlil::FlatNetlist (rtlil/flatten.h): a
// topologically-ordered list of bit operations and a flip-flop table, the
// same flat netlist the CNF encoder (sat/cnf.h) reads, so cell semantics are
// defined once for both. It shares the netlist it is given, whole or an
// rtlil::slice() of it, and evaluates exactly its ops. Net storage is a
// structure-of-arrays *lane block*: every net owns `lane_words` consecutive
// 64-bit words (values_[net * W + w]), so word w, bit k is the net's value
// in lane w*64 + k and one eval() advances up to 512 independent simulations
// at once (parallel-pattern simulation, the classic fault-simulation
// speedup). The per-word inner loop of every gate op is a tight stride-1
// stream over the block, auto-vectorizable to AVX2/AVX-512; the eval core is
// templated on the word count with the 1-word layout as the portable
// fallback, and (on x86-64 GCC) compiled into per-ISA clones selected at
// runtime — no intrinsics anywhere.
//
// Instead of a per-gate switch, eval() runs a *kind-segmented, levelized op
// tape*: at compile time the flat ops are stably sorted by (topological
// level, op kind), so evaluation is a sequence of branch-free tight loops —
// one per contiguous same-kind segment — instead of a per-gate dispatch.
// `eval_reference()` keeps the original-order switch-per-op tape as the
// differential oracle for that reordering.
//
// Faults are per-net, per-lane masks applied at *read* time, so a stuck or
// flipped net corrupts every consumer (combinational logic, flip-flop D pins,
// and observers alike) — matching the transient/stuck-at fault model of the
// paper (§2.1) — and different lanes can fault different sites and cycles in
// the same pass. While no fault is armed, eval() skips the mask streams
// entirely (the no-fault fast path; bit-identical by construction since the
// masks are the identity).
//
// A clock edge is two calls: eval() settles the combinational logic, and
// latch() copies every flip-flop's settled D into its Q and clears the
// one-cycle faults. step() is eval(); latch(); eval(). Executors that only
// need the latched state call eval() + latch() and skip the trailing settle:
// right after latch() the register (Q) nets hold the new state, but every
// combinational net still holds the pre-edge values until the next eval().
// latch() throws LogicBug when the netlist is not settled — when an input,
// register or fault mutator (set_input*, set_register* on a handle,
// inject*, clear_*) or latch() itself ran since the last eval() — because
// the D values it would copy are then stale.
//
// The string-based API drives and reads lane 0 and broadcasts writes to all
// lanes, so single-lane callers see exactly the scalar semantics. Hot loops
// should pre-resolve WireHandles (input_handle()/probe()) and net indices
// once and then use the handle/lane/word entry points, which never touch
// std::string or hash maps.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rtlil/flatten.h"

namespace scfi::sim {

enum class FaultKind : std::uint8_t {
  kNone = 0,
  kStuckAt0,
  kStuckAt1,
  kTransientFlip,  ///< cleared automatically by the next latch() (or step())
  /// Clock-glitch model: the flip-flop driving the injected Q net skips the
  /// next clock edge (keeps its stored value instead of latching D) in the
  /// chosen lanes, then re-arms to normal. Injecting it on a net that is not
  /// a register output is a documented no-op — a glitch starves a register,
  /// not a wire. Not representable as a read-time mask, so it has no SAT
  /// translation (the SAT backend rejects it).
  kSkipCycle,
};

/// Lanes carried by one 64-bit word of a lane block.
inline constexpr int kWordLanes = 64;
/// Supported lane-block widths: lane_words in {1, 2, 4, 8}.
inline constexpr int kMaxLaneWords = 8;
/// Maximum lanes of the widest block (8 words x 64 lanes).
inline constexpr int kMaxLanes = kMaxLaneWords * kWordLanes;
/// Historical name for the lanes of a 1-word Simulator (the default width);
/// kept because "64 runs per word" is still the packing granularity.
inline constexpr int kNumLanes = kWordLanes;

/// A set of lanes across the widest supported block: word w, bit k = lane
/// w*64 + k. Constructible from a plain 64-bit word (lanes 0..63) so legacy
/// `1ULL << lane` call sites keep working; words beyond a Simulator's
/// lane_words are ignored by it.
struct LaneMask {
  std::array<std::uint64_t, kMaxLaneWords> w{};

  constexpr LaneMask() = default;
  constexpr LaneMask(std::uint64_t word0) : w{word0} {}  // NOLINT: implicit

  static constexpr LaneMask all() {
    LaneMask m;
    for (auto& word : m.w) word = ~0ULL;
    return m;
  }
  static constexpr LaneMask lane(int lane) {
    LaneMask m;
    m.w[static_cast<std::size_t>(lane >> 6)] = 1ULL << (lane & 63);
    return m;
  }
  /// Lanes [0, n).
  static constexpr LaneMask first_n(int n) { return range(0, n); }
  /// Lanes [begin, end); empty when begin >= end.
  static constexpr LaneMask range(int begin, int end) {
    LaneMask m;
    const auto below = [](int n) {  // lanes [0, n) of one word, n in [0, 64]
      return n >= kWordLanes ? ~0ULL : (1ULL << n) - 1;
    };
    for (int j = begin / kWordLanes; begin < end && j * kWordLanes < end; ++j) {
      const int lo = j * kWordLanes;
      m.w[static_cast<std::size_t>(j)] =
          below(end - lo) & ~below(begin > lo ? begin - lo : 0);
    }
    return m;
  }

  constexpr bool test(int lane) const {
    return (w[static_cast<std::size_t>(lane >> 6)] >> (lane & 63)) & 1;
  }
  constexpr bool any() const {
    for (const auto word : w) {
      if (word != 0) return true;
    }
    return false;
  }
  constexpr LaneMask& operator|=(const LaneMask& o) {
    for (std::size_t j = 0; j < w.size(); ++j) w[j] |= o.w[j];
    return *this;
  }
  constexpr LaneMask& operator&=(const LaneMask& o) {
    for (std::size_t j = 0; j < w.size(); ++j) w[j] &= o.w[j];
    return *this;
  }
  friend constexpr LaneMask operator|(LaneMask a, const LaneMask& b) { return a |= b; }
  friend constexpr LaneMask operator&(LaneMask a, const LaneMask& b) { return a &= b; }
  friend constexpr LaneMask operator~(LaneMask a) {
    for (auto& word : a.w) word = ~word;
    return a;
  }
  bool operator==(const LaneMask&) const = default;
};

inline constexpr LaneMask kAllLanes = LaneMask::all();

/// Lane-block words needed to carry `lanes` lanes, rounded up to the next
/// supported width ({1, 2, 4, 8}). `lanes` must be in [1, kMaxLanes].
int lane_words_for(int lanes);

/// Runtime clamp on *derived* lane widths (campaign/SYNFI/sweep executors):
/// the SCFI_LANE_WORDS_CAP environment variable (1..8, read once) caps how
/// many words those engines select from their `lanes` knob, so CI can force
/// the portable 1-word path (`SCFI_LANE_WORDS_CAP=1`) without touching any
/// configs. Explicit Simulator construction is never clamped. Returns
/// kMaxLaneWords when the variable is unset or invalid.
int lane_words_cap();

namespace detail {

/// A maximal run of same-kind ops in the levelized tape: eval() executes
/// [begin, end) of the sorted tape in one branch-free loop.
struct TapeSegment {
  rtlil::FlatOp::Kind kind;
  std::uint32_t begin;
  std::uint32_t end;
};

}  // namespace detail

class Simulator {
 public:
  /// Pre-resolved wire reference: contiguous net indices [base, base+width).
  struct WireHandle {
    std::int32_t base = -1;
    std::int32_t width = 0;
    bool valid() const { return base >= 0; }
  };

  /// Simulates `flat`. `lane_words` selects the lane-block width (64 x
  /// lane_words lanes); must be one of {1, 2, 4, 8}. The default 1-word
  /// block reproduces the historical 64-lane engine (and is the portable
  /// fallback layout).
  explicit Simulator(std::shared_ptr<const rtlil::FlatNetlist> flat, int lane_words = 1);
  /// Simulates rtlil::flatten(module).
  explicit Simulator(const rtlil::Module& module, int lane_words = 1);

  const rtlil::Module& module() const { return *flat_->module; }
  int lane_words() const { return lane_words_; }
  int num_lanes() const { return lane_words_ * kWordLanes; }

  /// Applies flip-flop reset values and zeroes all inputs (all lanes), then
  /// settles. Also clears every fault.
  void reset();

  /// Drives an input wire in every lane (value is LSB-first over the wire
  /// bits).
  void set_input(const std::string& wire, std::uint64_t value);

  /// Lane-0 value of a wire (fault-corrected, as consumers see it).
  std::uint64_t get(const std::string& wire) const;
  bool get_bit(const rtlil::SigBit& bit) const;

  /// Settles combinational logic for the current inputs/state (all lanes)
  /// by streaming through the kind-segmented levelized tape.
  void eval();

  /// Settles via the original-order switch-per-op tape. Bit-identical to
  /// eval() by construction; kept (and tested) as the differential oracle
  /// for the levelized reordering and the no-fault fast path.
  void eval_reference();

  /// One clock cycle: eval(); latch(); eval().
  void step();

  /// One clock edge without settling: latches every flip-flop from its
  /// settled D value (flip-flops armed with kSkipCycle keep their stored
  /// value instead) and clears the transient flips and pending skips.
  /// Afterwards the register outputs hold the new state; combinational nets
  /// are stale until the next eval(). Throws LogicBug unless eval() ran
  /// after the last mutator and the last latch().
  void latch();

  /// Overwrites the stored value of a register output bit in every lane
  /// (direct state corruption, e.g. modelling a fault that already latched),
  /// then settles.
  void set_register(const std::string& wire, std::uint64_t value);

  // --- pre-resolved handles (hot paths; no strings, no hashing) -----------

  /// Handle for driving an input wire. Throws when `wire` is not an input.
  WireHandle input_handle(const std::string& wire) const;
  /// Handle for observing any wire.
  WireHandle probe(const std::string& wire) const;
  /// Net index of a (non-constant) signal bit.
  std::int32_t net_index(const rtlil::SigBit& bit) const;
  /// The Q net of every flip-flop bit of the netlist, in latch order.
  std::vector<std::int32_t> register_nets() const {
    std::vector<std::int32_t> nets;
    nets.reserve(flat_->ffs.size());
    for (const rtlil::FlatFf& ff : flat_->ffs) nets.push_back(ff.q);
    return nets;
  }

  /// Drives every lane of an input wire with the same value.
  void set_input(WireHandle h, std::uint64_t value);
  /// Drives one lane (0..num_lanes()-1) of an input wire, leaving the other
  /// lanes untouched.
  void set_input_lane(WireHandle h, int lane, std::uint64_t value);
  /// Drives one bit of an input wire with an explicit 64-lane word for lane
  /// block word `word` (lanes word*64 .. word*64+63).
  void set_input_word(WireHandle h, int bit, std::uint64_t lanes, int word = 0);
  /// Overwrites the stored register value in every lane; does NOT settle.
  /// A register output is stored like an input.
  void set_register(WireHandle h, std::uint64_t value) { set_input(h, value); }
  /// Overwrites one bit of a stored register value with an explicit 64-lane
  /// word for lane block word `word` (per-lane state stimulus); does NOT
  /// settle.
  void set_register_word(WireHandle h, int bit, std::uint64_t lanes, int word = 0) {
    set_input_word(h, bit, lanes, word);
  }
  /// Overwrites one bit of a stored register value in the lanes of `lanes`
  /// (lane block word `word`) with their bits of `value`, leaving the other
  /// lanes' stored bits untouched; does NOT settle.
  void set_register_lanes(WireHandle h, int bit, std::uint64_t lanes, std::uint64_t value,
                          int word = 0);
  /// Fault-corrected wire value as one lane (0..num_lanes()-1) sees it.
  std::uint64_t get_lane(WireHandle h, int lane) const;
  std::uint64_t get(WireHandle h) const { return get_lane(h, 0); }
  /// Fault-corrected 64-lane word `word` of a single net.
  std::uint64_t lane_word(std::int32_t net, int word = 0) const {
    return load(net, word);
  }

  // --- fault injection ----------------------------------------------------

  /// Injects in every lane (scalar semantics).
  void inject(const rtlil::SigBit& bit, FaultKind kind) { inject(bit, kind, kAllLanes); }
  /// Injects in the given lanes only; other lanes keep their faults.
  void inject(const rtlil::SigBit& bit, FaultKind kind, const LaneMask& lanes);
  /// Same, on a pre-resolved net index.
  void inject_net(std::int32_t net, FaultKind kind, const LaneMask& lanes);
  void clear_fault(const rtlil::SigBit& bit);
  void clear_all_faults();

  /// Number of simulated nets (diagnostics).
  int num_nets() const { return flat_->num_nets; }
  /// Distinct nets queued for transient auto-clear (diagnostics: repeated
  /// inject_net calls on one net within a cycle coalesce into one entry).
  int pending_transient_nets() const {
    return static_cast<int>(transient_nets_.size());
  }
  /// Distinct flip-flops armed to skip the next clock edge (diagnostics;
  /// coalesced per FF like pending_transient_nets()).
  int pending_skip_ffs() const { return static_cast<int>(skip_ffs_.size()); }

 private:
  /// Fault-corrected 64-lane word `word`: lanes with a stuck fault have
  /// mask_and_ = 0 (and mask_xor_ = the stuck value); lanes with a transient
  /// flip have mask_xor_ = 1. Unfaulted lanes pass through.
  std::uint64_t load(std::int32_t net, int word = 0) const {
    const auto i = static_cast<std::size_t>(net) *
                       static_cast<std::size_t>(lane_words_) +
                   static_cast<std::size_t>(word);
    return (values_[i] & mask_and_[i]) ^ mask_xor_[i];
  }

  void build_tape();

  /// Net numbering, the compile-order ops (the eval_reference() tape) and
  /// the flip-flop table.
  std::shared_ptr<const rtlil::FlatNetlist> flat_;
  int lane_words_ = 1;
  // Structure-of-arrays lane blocks: index net * lane_words_ + word.
  std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> mask_and_;
  std::vector<std::uint64_t> mask_xor_;
  std::vector<rtlil::FlatOp> tape_;  ///< flat_->ops sorted by (level, kind)
  std::vector<detail::TapeSegment> segments_;
  std::vector<std::uint64_t> latch_buf_;  ///< scratch for latch(), ffs x words
  /// True whenever any fault may be armed (conservative; reset by
  /// clear_all_faults). While false, eval() skips the mask streams.
  bool faults_active_ = false;
  /// True between an eval() and the next mutator or latch(): the D values
  /// latch() copies are current only then.
  bool settled_ = false;
  /// Nets (and lanes) carrying a transient flip, for automatic clearing.
  /// Coalesced per net: transient_slot_[net] indexes this vector (-1 =
  /// absent) so repeated injections within one cycle merge their masks and
  /// latch()'s clear pass stays O(distinct nets).
  std::vector<std::pair<std::int32_t, LaneMask>> transient_nets_;
  std::vector<std::int32_t> transient_slot_;
  /// Flip-flops (by flat_->ffs index) whose next clock edge is suppressed in the
  /// recorded lanes (kSkipCycle), coalesced per FF via skip_slot_. Applied
  /// and cleared by the next latch(); independent of the read-time mask
  /// machinery, so arming a skip does not set faults_active_.
  std::vector<std::pair<std::int32_t, LaneMask>> skip_ffs_;
  std::vector<std::int32_t> skip_slot_;
  /// Q-net -> flat_->ffs index (-1 for non-register nets), for kSkipCycle routing.
  std::vector<std::int32_t> q_to_ff_;
  /// Every net whose mask block may have left identity since the last
  /// clear_all_faults(), deduplicated via faulted_mark_, so the clear pass
  /// restores O(distinct armed nets x lane_words) words instead of
  /// re-filling the whole mask arrays (exhaustive SYNFI clears once per
  /// batch).
  std::vector<std::int32_t> faulted_nets_;
  std::vector<char> faulted_mark_;
};

}  // namespace scfi::sim
