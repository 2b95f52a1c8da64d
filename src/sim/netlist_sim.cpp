#include "sim/netlist_sim.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <utility>

#include "base/error.h"
#include "base/simd_clones.h"

namespace scfi::sim {
namespace {

using rtlil::FlatOp;
using detail::TapeSegment;

// --- kind-segmented eval core ----------------------------------------------
//
// The tape is executed segment by segment: every segment is a run of
// same-kind ops, so the per-op dispatch happens once per segment instead of
// once per gate, and each op's per-word loop is a stride-1 stream over its
// lane blocks that the compiler unrolls (W is a template constant) and
// vectorizes. `kFaulty` selects whether the read side applies the fault
// masks; the false instantiation is the no-fault fast path with 3 memory
// streams per op-word instead of 7.

template <bool kFaulty>
inline std::uint64_t ld(const std::uint64_t* v, const std::uint64_t* ma,
                        const std::uint64_t* mx, std::size_t i) {
  if constexpr (kFaulty) {
    return (v[i] & ma[i]) ^ mx[i];
  } else {
    return v[i];
  }
}

template <int W, bool kFaulty, FlatOp::Kind K>
inline void run_segment(const FlatOp* op, const FlatOp* end, std::uint64_t* v,
                        const std::uint64_t* ma, const std::uint64_t* mx) {
  for (; op != end; ++op) {
    const std::size_t a = static_cast<std::size_t>(op->a) * W;
    const std::size_t b = static_cast<std::size_t>(op->b) * W;
    const std::size_t c = static_cast<std::size_t>(op->c) * W;
    const std::size_t o = static_cast<std::size_t>(op->out) * W;
    // An op's output net is never one of its own inputs (the tape is in
    // topological order over fresh output nets), and the mask arrays are
    // distinct allocations, so the word-loop iterations are independent.
    // ivdep states that, sparing the vectorizer the runtime alias checks
    // its -O2 cost model refuses to emit.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC ivdep
#endif
    for (int w = 0; w < W; ++w) {
      const std::uint64_t av = ld<kFaulty>(v, ma, mx, a + static_cast<std::size_t>(w));
      std::uint64_t r = 0;
      if constexpr (K == FlatOp::Kind::kBuf) {
        r = av;
      } else if constexpr (K == FlatOp::Kind::kNot) {
        r = ~av;
      } else {
        const std::uint64_t bv = ld<kFaulty>(v, ma, mx, b + static_cast<std::size_t>(w));
        if constexpr (K == FlatOp::Kind::kAnd) {
          r = av & bv;
        } else if constexpr (K == FlatOp::Kind::kOr) {
          r = av | bv;
        } else if constexpr (K == FlatOp::Kind::kXor) {
          r = av ^ bv;
        } else if constexpr (K == FlatOp::Kind::kXnor) {
          r = ~(av ^ bv);
        } else if constexpr (K == FlatOp::Kind::kNand) {
          r = ~(av & bv);
        } else if constexpr (K == FlatOp::Kind::kNor) {
          r = ~(av | bv);
        } else {
          const std::uint64_t cv = ld<kFaulty>(v, ma, mx, c + static_cast<std::size_t>(w));
          if constexpr (K == FlatOp::Kind::kMux) {
            r = (cv & bv) | (~cv & av);
          } else if constexpr (K == FlatOp::Kind::kAoi21) {
            r = ~((av & bv) | cv);
          } else {
            static_assert(K == FlatOp::Kind::kOai21);
            r = ~((av | bv) & cv);
          }
        }
      }
      v[o + static_cast<std::size_t>(w)] = r;
    }
  }
}

template <int W, bool kFaulty>
inline void run_tape(const TapeSegment* segs, std::size_t nsegs, const FlatOp* ops,
                     std::uint64_t* v, const std::uint64_t* ma, const std::uint64_t* mx) {
  for (std::size_t s = 0; s < nsegs; ++s) {
    const FlatOp* begin = ops + segs[s].begin;
    const FlatOp* end = ops + segs[s].end;
    switch (segs[s].kind) {
      case FlatOp::Kind::kBuf:
        run_segment<W, kFaulty, FlatOp::Kind::kBuf>(begin, end, v, ma, mx); break;
      case FlatOp::Kind::kNot:
        run_segment<W, kFaulty, FlatOp::Kind::kNot>(begin, end, v, ma, mx); break;
      case FlatOp::Kind::kAnd:
        run_segment<W, kFaulty, FlatOp::Kind::kAnd>(begin, end, v, ma, mx); break;
      case FlatOp::Kind::kOr:
        run_segment<W, kFaulty, FlatOp::Kind::kOr>(begin, end, v, ma, mx); break;
      case FlatOp::Kind::kXor:
        run_segment<W, kFaulty, FlatOp::Kind::kXor>(begin, end, v, ma, mx); break;
      case FlatOp::Kind::kXnor:
        run_segment<W, kFaulty, FlatOp::Kind::kXnor>(begin, end, v, ma, mx); break;
      case FlatOp::Kind::kMux:
        run_segment<W, kFaulty, FlatOp::Kind::kMux>(begin, end, v, ma, mx); break;
      case FlatOp::Kind::kAoi21:
        run_segment<W, kFaulty, FlatOp::Kind::kAoi21>(begin, end, v, ma, mx); break;
      case FlatOp::Kind::kOai21:
        run_segment<W, kFaulty, FlatOp::Kind::kOai21>(begin, end, v, ma, mx); break;
      case FlatOp::Kind::kNand:
        run_segment<W, kFaulty, FlatOp::Kind::kNand>(begin, end, v, ma, mx); break;
      case FlatOp::Kind::kNor:
        run_segment<W, kFaulty, FlatOp::Kind::kNor>(begin, end, v, ma, mx); break;
    }
  }
}

// The tape executor is cloned per ISA (base/simd_clones.h): an AVX-512
// host streams 8-word blocks as full-width vector ops.
SCFI_SIMD_CLONES
void run_tape_dispatch(int lane_words, bool faulty, const TapeSegment* segs,
                       std::size_t nsegs, const FlatOp* ops, std::uint64_t* v,
                       const std::uint64_t* ma, const std::uint64_t* mx) {
  switch (lane_words) {
    case 1:
      faulty ? run_tape<1, true>(segs, nsegs, ops, v, ma, mx)
             : run_tape<1, false>(segs, nsegs, ops, v, ma, mx);
      break;
    case 2:
      faulty ? run_tape<2, true>(segs, nsegs, ops, v, ma, mx)
             : run_tape<2, false>(segs, nsegs, ops, v, ma, mx);
      break;
    case 4:
      faulty ? run_tape<4, true>(segs, nsegs, ops, v, ma, mx)
             : run_tape<4, false>(segs, nsegs, ops, v, ma, mx);
      break;
    default:
      faulty ? run_tape<8, true>(segs, nsegs, ops, v, ma, mx)
             : run_tape<8, false>(segs, nsegs, ops, v, ma, mx);
      break;
  }
}

}  // namespace

using rtlil::SigBit;

int lane_words_for(int lanes) {
  require(lanes >= 1 && lanes <= kMaxLanes,
          "lane_words_for: lanes must be in [1, " + std::to_string(kMaxLanes) + "]");
  const int words = (lanes + kWordLanes - 1) / kWordLanes;
  int supported = 1;
  while (supported < words) supported *= 2;
  return supported;
}

int lane_words_cap() {
  static const int cap = [] {
    const char* env = std::getenv("SCFI_LANE_WORDS_CAP");
    if (env == nullptr) return kMaxLaneWords;
    const int v = std::atoi(env);
    if (v < 1 || v > kMaxLaneWords) return kMaxLaneWords;
    return v;
  }();
  return cap;
}

Simulator::Simulator(std::shared_ptr<const rtlil::FlatNetlist> flat, int lane_words)
    : flat_(std::move(flat)), lane_words_(lane_words) {
  require(lane_words == 1 || lane_words == 2 || lane_words == 4 || lane_words == 8,
          "Simulator: lane_words must be one of {1, 2, 4, 8}");
  // reset() fills the lane blocks, constant nets included.
  const auto nets = static_cast<std::size_t>(flat_->num_nets);
  values_.assign(nets * static_cast<std::size_t>(lane_words_), 0);
  mask_and_.assign(values_.size(), ~0ULL);
  mask_xor_.assign(values_.size(), 0);
  transient_slot_.assign(nets, -1);
  faulted_mark_.assign(nets, 0);
  latch_buf_.assign(flat_->ffs.size() * static_cast<std::size_t>(lane_words_), 0);
  q_to_ff_.assign(nets, -1);
  for (std::size_t i = 0; i < flat_->ffs.size(); ++i) {
    q_to_ff_[static_cast<std::size_t>(flat_->ffs[i].q)] = static_cast<std::int32_t>(i);
  }
  skip_slot_.assign(flat_->ffs.size(), -1);
  build_tape();
  reset();
}

Simulator::Simulator(const rtlil::Module& module, int lane_words)
    : Simulator(std::make_shared<const rtlil::FlatNetlist>(rtlil::flatten(module)), lane_words) {}

std::int32_t Simulator::net_index(const SigBit& bit) const {
  const std::int32_t net = flat_->net_of(bit);
  check(net >= 2, "Simulator::net_index: constant bit has no net");
  return net;
}

void Simulator::build_tape() {
  // Topological level of every net: constants/inputs/FF outputs sit at 0,
  // an op's output one past its deepest operand. The ops are already in
  // topo order (producers before consumers), so one forward pass suffices.
  const std::vector<FlatOp>& ops = flat_->ops;
  std::vector<std::int32_t> level(static_cast<std::size_t>(flat_->num_nets), 0);
  std::vector<std::int32_t> op_level(ops.size(), 0);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const FlatOp& op = ops[i];
    std::int32_t l = level[static_cast<std::size_t>(op.a)];
    l = std::max(l, level[static_cast<std::size_t>(op.b)]);
    l = std::max(l, level[static_cast<std::size_t>(op.c)]);
    op_level[i] = l + 1;
    level[static_cast<std::size_t>(op.out)] = l + 1;
  }
  // Stable sort by (level, kind): ops within a level are independent by
  // construction, so grouping same-kind ops is a pure reordering of
  // commuting writes — eval order cannot change any value (eval_reference
  // is the differential oracle for exactly this claim).
  std::vector<std::uint32_t> order(ops.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     if (op_level[x] != op_level[y]) return op_level[x] < op_level[y];
                     return ops[x].kind < ops[y].kind;
                   });
  tape_.reserve(ops.size());
  for (const std::uint32_t i : order) tape_.push_back(ops[i]);
  // Maximal same-kind runs of the tape.
  for (std::size_t i = 0; i < tape_.size(); ++i) {
    if (segments_.empty() || segments_.back().kind != tape_[i].kind) {
      segments_.push_back(TapeSegment{tape_[i].kind, static_cast<std::uint32_t>(i),
                                      static_cast<std::uint32_t>(i + 1)});
    } else {
      segments_.back().end = static_cast<std::uint32_t>(i + 1);
    }
  }
}

void Simulator::reset() {
  clear_all_faults();
  const auto words = static_cast<std::size_t>(lane_words_);
  std::fill(values_.begin(), values_.end(), 0);
  for (std::size_t w = 0; w < words; ++w) values_[words + w] = ~0ULL;
  for (const rtlil::FlatFf& ff : flat_->ffs) {
    const std::uint64_t v = ff.reset ? ~0ULL : 0;
    for (std::size_t w = 0; w < words; ++w) {
      values_[static_cast<std::size_t>(ff.q) * words + w] = v;
    }
  }
  eval();
}

Simulator::WireHandle Simulator::probe(const std::string& wire) const {
  const rtlil::Wire* w = flat_->module->wire(wire);
  if (w == nullptr) throw ScfiError("Simulator::probe: no wire " + wire);
  return WireHandle{flat_->wire_base.at(w), w->width()};
}

Simulator::WireHandle Simulator::input_handle(const std::string& wire) const {
  const rtlil::Wire* w = flat_->module->wire(wire);
  if (w == nullptr || !w->is_input()) {
    throw ScfiError("Simulator::input_handle: no input wire " + wire);
  }
  return WireHandle{flat_->wire_base.at(w), w->width()};
}

void Simulator::set_input(WireHandle h, std::uint64_t value) {
  settled_ = false;
  const auto words = static_cast<std::size_t>(lane_words_);
  for (std::int32_t i = 0; i < h.width; ++i) {
    const std::uint64_t v = ((value >> i) & 1) ? ~0ULL : 0;
    for (std::size_t w = 0; w < words; ++w) {
      values_[static_cast<std::size_t>(h.base + i) * words + w] = v;
    }
  }
}

void Simulator::set_input_lane(WireHandle h, int lane, std::uint64_t value) {
  check(lane >= 0 && lane < num_lanes(), "Simulator::set_input_lane: lane out of range");
  settled_ = false;
  const auto words = static_cast<std::size_t>(lane_words_);
  const auto word = static_cast<std::size_t>(lane >> 6);
  const std::uint64_t bit = 1ULL << (lane & 63);
  for (std::int32_t i = 0; i < h.width; ++i) {
    auto& w = values_[static_cast<std::size_t>(h.base + i) * words + word];
    w = (w & ~bit) | (((value >> i) & 1) ? bit : 0);
  }
}

void Simulator::set_input_word(WireHandle h, int bit, std::uint64_t lanes, int word) {
  check(bit >= 0 && bit < h.width, "Simulator::set_input_word: bit out of range");
  check(word >= 0 && word < lane_words_, "Simulator::set_input_word: word out of range");
  settled_ = false;
  values_[static_cast<std::size_t>(h.base + bit) * static_cast<std::size_t>(lane_words_) +
          static_cast<std::size_t>(word)] = lanes;
}

void Simulator::set_register_lanes(WireHandle h, int bit, std::uint64_t lanes,
                                   std::uint64_t value, int word) {
  check(bit >= 0 && bit < h.width, "Simulator::set_register_lanes: bit out of range");
  check(word >= 0 && word < lane_words_, "Simulator::set_register_lanes: word out of range");
  settled_ = false;
  std::uint64_t& stored = values_[static_cast<std::size_t>(h.base + bit) *
                                      static_cast<std::size_t>(lane_words_) +
                                  static_cast<std::size_t>(word)];
  stored = (stored & ~lanes) | (value & lanes);
}

std::uint64_t Simulator::get_lane(WireHandle h, int lane) const {
  check(h.width <= 64, "Simulator::get_lane: wire wider than 64 bits cannot be packed "
                       "into one per-lane value");
  check(lane >= 0 && lane < num_lanes(), "Simulator::get_lane: lane out of range");
  const int word = lane >> 6;
  const int bit_in_word = lane & 63;
  std::uint64_t v = 0;
  for (std::int32_t i = 0; i < h.width; ++i) {
    v |= ((load(h.base + i, word) >> bit_in_word) & 1) << i;
  }
  return v;
}

void Simulator::set_input(const std::string& wire, std::uint64_t value) {
  set_input(input_handle(wire), value);
}

std::uint64_t Simulator::get(const std::string& wire) const {
  const WireHandle h = probe(wire);
  check(h.width <= 64, "Simulator::get: wire too wide");
  return get_lane(h, 0);
}

bool Simulator::get_bit(const SigBit& bit) const { return (load(flat_->net_of(bit), 0) & 1) != 0; }

void Simulator::eval() {
  settled_ = true;
  run_tape_dispatch(lane_words_, faults_active_, segments_.data(), segments_.size(),
                    tape_.data(), values_.data(), mask_and_.data(), mask_xor_.data());
}

void Simulator::eval_reference() {
  // The pre-levelization engine: original compile order, one switch per op,
  // masks always applied. Kept as the differential oracle for the sorted
  // segmented tape and the no-fault fast path.
  settled_ = true;
  const int words = lane_words_;
  for (const FlatOp& op : flat_->ops) {
    for (int w = 0; w < words; ++w) {
      std::uint64_t v = 0;
      switch (op.kind) {
        case FlatOp::Kind::kBuf: v = load(op.a, w); break;
        case FlatOp::Kind::kNot: v = ~load(op.a, w); break;
        case FlatOp::Kind::kAnd: v = load(op.a, w) & load(op.b, w); break;
        case FlatOp::Kind::kOr: v = load(op.a, w) | load(op.b, w); break;
        case FlatOp::Kind::kXor: v = load(op.a, w) ^ load(op.b, w); break;
        case FlatOp::Kind::kXnor: v = ~(load(op.a, w) ^ load(op.b, w)); break;
        case FlatOp::Kind::kMux: {
          const std::uint64_t s = load(op.c, w);
          v = (s & load(op.b, w)) | (~s & load(op.a, w));
          break;
        }
        case FlatOp::Kind::kAoi21: v = ~((load(op.a, w) & load(op.b, w)) | load(op.c, w)); break;
        case FlatOp::Kind::kOai21: v = ~((load(op.a, w) | load(op.b, w)) & load(op.c, w)); break;
        case FlatOp::Kind::kNand: v = ~(load(op.a, w) & load(op.b, w)); break;
        case FlatOp::Kind::kNor: v = ~(load(op.a, w) | load(op.b, w)); break;
      }
      values_[static_cast<std::size_t>(op.out) * static_cast<std::size_t>(words) +
              static_cast<std::size_t>(w)] = v;
    }
  }
}

void Simulator::step() {
  eval();
  latch();
  eval();
}

void Simulator::latch() {
  check(settled_, "Simulator::latch: the netlist is not settled (an input, register or fault "
                  "changed since the last eval(), or latch() already ran); call eval() first");
  settled_ = false;
  const auto words = static_cast<std::size_t>(lane_words_);
  if (faults_active_) {
    for (std::size_t i = 0; i < flat_->ffs.size(); ++i) {
      for (std::size_t w = 0; w < words; ++w) {
        latch_buf_[i * words + w] = load(flat_->ffs[i].d, static_cast<int>(w));
      }
    }
  } else {
    for (std::size_t i = 0; i < flat_->ffs.size(); ++i) {
      const std::size_t d = static_cast<std::size_t>(flat_->ffs[i].d) * words;
      for (std::size_t w = 0; w < words; ++w) latch_buf_[i * words + w] = values_[d + w];
    }
  }
  // Skip-cycle (clock-glitch) faults suppress this edge for the armed
  // FFs/lanes: the register keeps its raw stored value instead of latching
  // D. The raw word (not load()) is kept so a concurrent read-mask fault on
  // the Q net corrupts readers, not the retained state itself.
  for (const auto& [ff, lanes] : skip_ffs_) {
    const std::size_t q =
        static_cast<std::size_t>(flat_->ffs[static_cast<std::size_t>(ff)].q) * words;
    const std::size_t base = static_cast<std::size_t>(ff) * words;
    for (std::size_t w = 0; w < words; ++w) {
      latch_buf_[base + w] =
          (latch_buf_[base + w] & ~lanes.w[w]) | (values_[q + w] & lanes.w[w]);
    }
    skip_slot_[static_cast<std::size_t>(ff)] = -1;
  }
  skip_ffs_.clear();
  for (std::size_t i = 0; i < flat_->ffs.size(); ++i) {
    const std::size_t q = static_cast<std::size_t>(flat_->ffs[i].q) * words;
    for (std::size_t w = 0; w < words; ++w) values_[q + w] = latch_buf_[i * words + w];
  }
  // Transient faults last one cycle: drop the flip in the recorded lanes.
  // Stuck lanes have mask_and_ = 0 there, so they are untouched.
  for (const auto& [net, lanes] : transient_nets_) {
    const std::size_t n = static_cast<std::size_t>(net) * words;
    for (std::size_t w = 0; w < words; ++w) {
      mask_xor_[n + w] &= ~(mask_and_[n + w] & lanes.w[w]);
    }
    transient_slot_[static_cast<std::size_t>(net)] = -1;
  }
  transient_nets_.clear();
}

void Simulator::set_register(const std::string& wire, std::uint64_t value) {
  set_register(probe(wire), value);
  eval();
}

void Simulator::inject(const SigBit& bit, FaultKind kind, const LaneMask& lanes) {
  inject_net(flat_->net_of(bit), kind, lanes);
}

void Simulator::inject_net(std::int32_t net, FaultKind kind, const LaneMask& lanes) {
  check(net >= 2, "Simulator::inject: cannot fault a constant");
  settled_ = false;
  const auto words = static_cast<std::size_t>(lane_words_);
  if (kind == FaultKind::kSkipCycle) {
    // Route to the FF whose Q this net is; non-register nets are a
    // documented no-op (see FaultKind::kSkipCycle). Coalesced per FF so
    // repeated arms within one cycle merge their lanes.
    const std::int32_t ff = q_to_ff_[static_cast<std::size_t>(net)];
    if (ff < 0) return;
    std::int32_t& slot = skip_slot_[static_cast<std::size_t>(ff)];
    if (slot < 0) {
      slot = static_cast<std::int32_t>(skip_ffs_.size());
      skip_ffs_.emplace_back(ff, lanes);
    } else {
      skip_ffs_[static_cast<std::size_t>(slot)].second |= lanes;
    }
    return;
  }
  const std::size_t n = static_cast<std::size_t>(net) * words;
  // Clear the affected lanes back to pass-through, then overlay the fault.
  // Words with no selected lane are exact no-ops; skipping them keeps the
  // per-job cost of single-lane injection O(1) in the block width (the
  // campaign executor calls this once per job, 64 x lane_words times per
  // pass; exhaustive SYNFI once per fault of a lane range).
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t l = lanes.w[w];
    if (l == 0) continue;
    mask_and_[n + w] |= l;
    mask_xor_[n + w] &= ~l;
    switch (kind) {
      case FaultKind::kNone:
        break;
      case FaultKind::kStuckAt0:
        mask_and_[n + w] &= ~l;
        break;
      case FaultKind::kStuckAt1:
        mask_and_[n + w] &= ~l;
        mask_xor_[n + w] |= l;
        break;
      case FaultKind::kTransientFlip:
        mask_xor_[n + w] |= l;
        break;
      case FaultKind::kSkipCycle:
        break;  // handled above, never reaches the mask loop
    }
  }
  if (kind == FaultKind::kNone && !skip_ffs_.empty()) {
    // Clearing a register net also disarms any pending edge skip there.
    const std::int32_t ff = q_to_ff_[static_cast<std::size_t>(net)];
    if (ff >= 0 && skip_slot_[static_cast<std::size_t>(ff)] >= 0) {
      auto& pending = skip_ffs_[static_cast<std::size_t>(skip_slot_[static_cast<std::size_t>(ff)])];
      pending.second &= ~lanes;
    }
  }
  if (kind == FaultKind::kTransientFlip) {
    // Coalesce repeated injections on one net within a cycle so latch()'s
    // clear pass stays O(distinct nets).
    std::int32_t& slot = transient_slot_[static_cast<std::size_t>(net)];
    if (slot < 0) {
      slot = static_cast<std::int32_t>(transient_nets_.size());
      transient_nets_.emplace_back(net, lanes);
    } else {
      transient_nets_[static_cast<std::size_t>(slot)].second |= lanes;
    }
  }
  if (kind != FaultKind::kNone) {
    faults_active_ = true;
    char& mark = faulted_mark_[static_cast<std::size_t>(net)];
    if (mark == 0) {
      mark = 1;
      faulted_nets_.push_back(net);
    }
  }
}

void Simulator::clear_fault(const SigBit& bit) {
  inject_net(flat_->net_of(bit), FaultKind::kNone, kAllLanes);
}

void Simulator::clear_all_faults() {
  // Only nets that armed a fault since the last clear can hold non-identity
  // masks; restoring just those blocks keeps the per-batch clear pass the
  // executors issue O(armed nets), not O(all nets x lane_words).
  settled_ = false;
  const auto words = static_cast<std::size_t>(lane_words_);
  for (const std::int32_t net : faulted_nets_) {
    const std::size_t n = static_cast<std::size_t>(net) * words;
    for (std::size_t w = 0; w < words; ++w) {
      mask_and_[n + w] = ~0ULL;
      mask_xor_[n + w] = 0;
    }
    faulted_mark_[static_cast<std::size_t>(net)] = 0;
  }
  faulted_nets_.clear();
  for (const auto& [net, lanes] : transient_nets_) {
    transient_slot_[static_cast<std::size_t>(net)] = -1;
  }
  transient_nets_.clear();
  for (const auto& [ff, lanes] : skip_ffs_) {
    skip_slot_[static_cast<std::size_t>(ff)] = -1;
  }
  skip_ffs_.clear();
  faults_active_ = false;
}

}  // namespace scfi::sim
