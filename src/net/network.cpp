#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "common/log.h"
#include "common/simtime.h"
#include "common/snapshot.h"
#include "obs/trace.h"

namespace custody::net {

namespace {
/// Bytes below which a flow is considered fully delivered (guards rounding).
constexpr double kByteEpsilon = 1e-6;
}  // namespace
// A flow whose remaining transfer time is below the clock's tolerance is
// also complete: leftover rounding bytes would otherwise map to a delay
// smaller than the double-precision resolution of the clock, so the
// completion event could never advance time.  The tolerance comes from
// TimeEpsilonAt(now) (common/simtime.h) because the clock's resolution is
// one ulp of `now`, not any absolute constant — at steady-state horizons an
// absolute 1e-9 is far below one ulp and the re-armed completion event
// would fire at the same timestamp forever.

bool AllFlowsStranded(std::size_t active_flows, double max_rate) {
  return active_flows > 0 && !(max_rate > 0.0);
}

Network::Network(sim::Simulator& sim, NetworkConfig config)
    : sim_(sim), config_(config) {
  if (config_.num_nodes == 0) {
    throw std::invalid_argument("Network: num_nodes must be positive");
  }
  if (config_.uplink_bps <= 0.0 || config_.downlink_bps <= 0.0) {
    throw std::invalid_argument("Network: link capacities must be positive");
  }
  last_update_ = sim_.now();
  // Link layout: [0, N) uplinks, [N, 2N) downlinks, optional 2N = core.
  const std::size_t n = config_.num_nodes;
  const bool has_core = config_.core_bps > 0.0;
  std::vector<double> capacity(2 * n + (has_core ? 1 : 0));
  for (std::size_t i = 0; i < n; ++i) {
    capacity[i] = config_.uplink_bps;
    capacity[n + i] = config_.downlink_bps;
  }
  if (has_core) capacity[2 * n] = config_.core_bps;
  solver_.reset_links(std::move(capacity), n);
  // End-of-burst flush: the simulator runs this between events, so any
  // number of same-timestamp start/cancel/completion mutations collapse
  // into one recompute before the next event (or rate observation).
  hook_ = sim_.add_post_event_hook([this] { flush(); });
}

Network::~Network() { sim_.remove_post_event_hook(hook_); }

double Network::uncontended_transfer_time(double bytes) const {
  double rate = std::min(config_.uplink_bps, config_.downlink_bps);
  if (config_.core_bps > 0.0) rate = std::min(rate, config_.core_bps);
  return bytes / rate;
}

std::uint32_t Network::alloc_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Network::unlink_slot(std::uint32_t slot) {
  Slot& f = slots_[slot];
  if (f.prev != kNil) {
    slots_[f.prev].next = f.next;
  } else {
    head_ = f.next;
  }
  if (f.next != kNil) {
    slots_[f.next].prev = f.prev;
  } else {
    tail_ = f.prev;
  }
  f.live = false;
  f.on_complete = nullptr;
  free_slots_.push_back(slot);
  --live_count_;
}

FlowId Network::start_flow(NodeId src, NodeId dst, double bytes,
                           CompletionFn on_complete, FlowLabel label) {
  if (src == dst) {
    throw std::invalid_argument("Network: flow source equals destination");
  }
  if (bytes <= 0.0) {
    throw std::invalid_argument("Network: flow must carry positive bytes");
  }
  assert(src.value() < config_.num_nodes && dst.value() < config_.num_nodes);

  advance_progress();
  const FlowId id(next_flow_++);
  const std::uint32_t slot = alloc_slot();
  Slot& f = slots_[slot];
  f.src = src;
  f.dst = dst;
  f.remaining = bytes;
  f.rate = 0.0;
  f.on_complete = std::move(on_complete);
  f.label = label;
  f.id = id;
  f.prev = tail_;
  f.next = kNil;
  f.live = true;
  if (tail_ != kNil) {
    slots_[tail_].next = slot;
  } else {
    head_ = slot;
  }
  tail_ = slot;
  ++live_count_;
  slot_of_.emplace(id, slot);

  const std::size_t n = config_.num_nodes;
  const std::size_t links[MaxMinFairSolver::kMaxLinksPerFlow] = {
      src.value(), n + dst.value(), 2 * n};
  solver_.add_flow(slot, links, config_.core_bps > 0.0 ? 3 : 2);
  request_recompute();
  return id;
}

void Network::cancel_flow(FlowId id) {
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return;
  advance_progress();
  const std::uint32_t slot = it->second;
  slot_of_.erase(it);
  solver_.remove_flow(slot);
  unlink_slot(slot);
  request_recompute();
}

double Network::flow_rate(FlowId id) const {
  // Rates are flushed lazily so mid-burst observers always see the rates
  // the burst will settle on (no simulated time passes inside a burst).
  const_cast<Network*>(this)->flush();
  auto it = slot_of_.find(id);
  return it == slot_of_.end() ? 0.0 : slots_[it->second].rate;
}

double Network::flow_remaining(FlowId id) const {
  auto it = slot_of_.find(id);
  return it == slot_of_.end() ? 0.0 : slots_[it->second].remaining;
}

bool Network::flow_active(FlowId id) const { return slot_of_.count(id) > 0; }

void Network::advance_progress() {
  const SimTime now = sim_.now();
  const double elapsed = now - last_update_;
  last_update_ = now;
  if (elapsed <= 0.0) return;
  assert(!dirty_);  // time must never pass with stale rates
  for (std::uint32_t s = head_; s != kNil; s = slots_[s].next) {
    Slot& flow = slots_[s];
    const double moved = std::min(flow.remaining, flow.rate * elapsed);
    flow.remaining -= moved;
    bytes_delivered_ += moved;
  }
}

void Network::request_recompute() {
  // A request counts as batched until a solve runs for it.
  ++stats_.recomputes_requested;
  ++stats_.recomputes_batched;
  dirty_ = true;  // flushed by the post-event hook or a rate observation
}

void Network::flush() {
  if (!dirty_) return;
  dirty_ = false;
  recompute();
}

void Network::recompute() {
  ++stats_.recomputes_run;
  --stats_.recomputes_batched;
  const auto wall_start = std::chrono::steady_clock::now();
  // Only the delta's slots were rewritten; every other rate is unchanged.
  solver_.solve(rates_scratch_, delta_, &stats_);
  for (const std::uint32_t s : delta_.changed_slots) {
    slots_[s].rate = rates_scratch_[s];
  }
  for (const std::uint32_t s : delta_.unconstrained_slots) {
    slots_[s].rate = rates_scratch_[s];
  }
  const std::size_t changed =
      delta_.changed_slots.size() + delta_.unconstrained_slots.size();
  stats_.rates_changed += changed;
  const double solve_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  stats_.wall_seconds += solve_wall;
  if (tracer_ != nullptr) {
    tracer_->instant({.value = solve_wall,
                      .id = static_cast<std::int32_t>(live_count_),
                      .aux = static_cast<std::int32_t>(changed),
                      .kind = obs::EventKind::kRateSolve});
  }
  arm_completion_event();
}

[[noreturn]] void Network::throw_stranded() const {
  // Every active flow clamped to rate 0 (only reachable through
  // floating-point rounding in the progressive filling): no completion
  // event can be armed and the flows would hang silently.  Fail loudly.
  LOG_ERROR << "net: all " << live_count_
            << " active flows stranded at rate 0; no completion event can "
               "be armed (progressive-filling rounding collapse)";
  throw std::runtime_error(
      "Network: all active flows stranded at rate 0 — the fluid model "
      "cannot make progress (rounding collapse in progressive filling)");
}

void Network::arm_completion_event() {
  completion_event_.cancel();
  if (live_count_ == 0) return;
  ++stats_.completion_rescans;
  // Recomputing every delay fresh from remaining/rate is what keeps the
  // completion time bit-identical to the seed's per-flow scan.
  double soonest = std::numeric_limits<double>::infinity();
  bool any_positive = false;
  for (std::uint32_t s = head_; s != kNil; s = slots_[s].next) {
    const Slot& flow = slots_[s];
    if (flow.rate <= 0.0) continue;
    any_positive = true;
    soonest = std::min(soonest, flow.remaining / flow.rate);
  }
  if (AllFlowsStranded(live_count_, any_positive ? 1.0 : 0.0)) {
    throw_stranded();
  }
  if (!std::isfinite(soonest)) return;
  const double delay = std::max(0.0, soonest);
  completion_event_ = sim_.schedule(delay, [this] { on_completion_event(); });
  completion_time_ = sim_.now() + delay;
  completion_seq_ = sim_.last_event_seq();
}

void Network::SaveTo(snap::SnapshotWriter& w) const {
  if (dirty_) {
    throw snap::SnapshotError(
        "Network: rates are dirty at the snapshot point; snapshots must be "
        "taken between events, after the post-event flush");
  }
  w.size(slots_.size());
  for (const Slot& f : slots_) {
    w.b(f.live);
    if (!f.live) continue;  // dead slots carry no state beyond the free list
    if (!f.label.labeled()) {
      throw snap::SnapshotError(
          "Network: live flow " + std::to_string(f.id.value()) +
          " has no FlowLabel — its completion callback cannot be rebuilt");
    }
    w.u32(f.src.value());
    w.u32(f.dst.value());
    w.f64(f.remaining);
    w.f64(f.rate);
    w.u32(f.label.kind);
    w.u32(f.label.a);
    w.u32(f.label.b);
    w.u64(f.label.c);
    w.u32(f.id.value());
    w.u32(f.prev);
    w.u32(f.next);
  }
  w.size(free_slots_.size());
  for (std::uint32_t s : free_slots_) w.u32(s);
  w.u32(head_);
  w.u32(tail_);
  w.u64(live_count_);
  w.u32(next_flow_);
  w.f64(bytes_delivered_);
  w.f64(last_update_);
  w.u64(stats_.recomputes_requested);
  w.u64(stats_.recomputes_run);
  w.u64(stats_.flows_scanned);
  w.u64(stats_.links_scanned);
  w.u64(stats_.rounds);
  w.u64(stats_.components_total);
  w.u64(stats_.components_dirty);
  w.u64(stats_.rates_changed);
  w.u64(stats_.completion_rescans);
  w.f64(stats_.wall_seconds);
  const bool pending =
      completion_event_.valid() && !completion_event_.cancelled();
  w.b(pending);
  if (pending) {
    w.f64(completion_time_);
    w.u64(completion_seq_);
  }
  solver_.SaveTo(w);
}

void Network::RestoreFrom(snap::SnapshotReader& r,
                          const CompletionResolver& resolve) {
  const std::size_t num_slots = r.size();
  slots_.assign(num_slots, Slot{});
  slot_of_.clear();
  for (std::uint32_t s = 0; s < num_slots; ++s) {
    Slot& f = slots_[s];
    f.live = r.b();
    if (!f.live) continue;
    f.src = NodeId(r.u32());
    f.dst = NodeId(r.u32());
    f.remaining = r.f64();
    f.rate = r.f64();
    f.label.kind = r.u32();
    f.label.a = r.u32();
    f.label.b = r.u32();
    f.label.c = r.u64();
    f.id = FlowId(r.u32());
    f.prev = r.u32();
    f.next = r.u32();
    if (f.src.value() >= config_.num_nodes ||
        f.dst.value() >= config_.num_nodes) {
      throw snap::SnapshotError(
          "Network: restored flow endpoints exceed num_nodes");
    }
    f.on_complete = resolve(f.id, f.label, f.src, f.dst);
    slot_of_.emplace(f.id, s);
  }
  free_slots_.assign(r.size(), 0);
  for (std::uint32_t& s : free_slots_) {
    s = r.u32();
    if (s >= num_slots || slots_[s].live) {
      throw snap::SnapshotError("Network: free list names a live slot");
    }
  }
  head_ = r.u32();
  tail_ = r.u32();
  live_count_ = static_cast<std::size_t>(r.u64());
  if (live_count_ != slot_of_.size()) {
    throw snap::SnapshotError("Network: live flow count mismatch");
  }
  next_flow_ = r.u32();
  bytes_delivered_ = r.f64();
  last_update_ = r.f64();
  stats_.recomputes_requested = r.u64();
  stats_.recomputes_run = r.u64();
  stats_.flows_scanned = r.u64();
  stats_.links_scanned = r.u64();
  stats_.rounds = r.u64();
  stats_.components_total = r.u64();
  stats_.components_dirty = r.u64();
  stats_.rates_changed = r.u64();
  stats_.completion_rescans = r.u64();
  stats_.wall_seconds = r.f64();
  stats_.recomputes_batched =
      stats_.recomputes_requested - stats_.recomputes_run;
  dirty_ = false;
  const bool pending = r.b();
  completion_event_ = sim::EventHandle();
  if (pending) {
    completion_time_ = r.f64();
    completion_seq_ = r.u64();
    completion_event_ = sim_.rearm_at(completion_time_, completion_seq_,
                                      [this] { on_completion_event(); });
  }
  solver_.RestoreFrom(r);
  delta_.clear();
}

void Network::on_completion_event() {
  advance_progress();

  // Collect finished flows first, then mutate state, then run callbacks:
  // callbacks routinely start new flows re-entrantly.  Walking the intrusive
  // list visits flows in start order, matching the seed's vector scan, so
  // completion callbacks fire in the same deterministic order.
  std::vector<CompletionFn> callbacks;
  const double time_epsilon = TimeEpsilonAt(sim_.now());
  std::uint32_t s = head_;
  while (s != kNil) {
    Slot& flow = slots_[s];
    const std::uint32_t next = flow.next;
    const bool done = flow.remaining <= kByteEpsilon ||
                      (flow.rate > 0.0 &&
                       flow.remaining <= flow.rate * time_epsilon);
    if (done) {
      callbacks.push_back(std::move(flow.on_complete));
      slot_of_.erase(flow.id);
      solver_.remove_flow(s);
      unlink_slot(s);
    }
    s = next;
  }
  request_recompute();

  for (auto& cb : callbacks) {
    if (cb) cb();
  }
}

}  // namespace custody::net
