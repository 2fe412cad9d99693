#include "net/maxmin.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>

#include "common/snapshot.h"

namespace custody::net {

void MaxMinFairSolver::reset_links(std::vector<double> capacity,
                                   std::size_t num_sources) {
  assert(num_sources <= capacity.size());
  capacity_ = std::move(capacity);
  link_flows_.assign(capacity_.size(), {});
  flows_.clear();
  live_slots_.clear();
  sigma_.assign(num_sources, 0.0);
  cert_failed_.assign(capacity_.size(), 0);
  failed_certs_ = 0;
  misfits_ = 0;
  last_fallback_ = false;
  marked_.assign(capacity_.size(), 0);
  marked_sources_.clear();
  marked_links_.clear();
  zero_degree_pending_.clear();
  touch_stamp_.assign(capacity_.size(), 0);
  round_stamp_ = 0;
}

void MaxMinFairSolver::classify(FlowEntry& flow) {
  flow.source = kNoSource;
  if (flow.degree == 0) return;
  std::uint32_t sources = 0;
  for (std::uint32_t i = 0; i < flow.degree; ++i) {
    if (flow.link[i] < sigma_.size()) {
      flow.source = flow.link[i];
      ++sources;
    }
  }
  if (sources != 1) {
    flow.source = kNoSource;
    ++misfits_;
  }
}

void MaxMinFairSolver::mark(std::uint32_t link) {
  if (marked_[link]) return;
  marked_[link] = 1;
  (link < sigma_.size() ? marked_sources_ : marked_links_).push_back(link);
}

void MaxMinFairSolver::add_flow(std::size_t slot, const std::size_t* links,
                                std::size_t count) {
  assert(count <= kMaxLinksPerFlow);
  if (slot >= flows_.size()) flows_.resize(slot + 1);
  FlowEntry& flow = flows_[slot];
  assert(!flow.live);
  flow.degree = static_cast<std::uint32_t>(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto link = static_cast<std::uint32_t>(links[i]);
    assert(link < link_flows_.size());
    flow.link[i] = link;
    flow.pos[i] = static_cast<std::uint32_t>(link_flows_[link].size());
    link_flows_[link].push_back(static_cast<std::uint32_t>(slot));
    mark(link);
  }
  flow.live = true;
  flow.live_pos = static_cast<std::uint32_t>(live_slots_.size());
  live_slots_.push_back(static_cast<std::uint32_t>(slot));
  classify(flow);
  if (count == 0) zero_degree_pending_.push_back(static_cast<std::uint32_t>(slot));
}

void MaxMinFairSolver::remove_flow(std::size_t slot) {
  assert(slot < flows_.size() && flows_[slot].live);
  FlowEntry& flow = flows_[slot];
  if (flow.degree > 0 && flow.source == kNoSource) --misfits_;
  for (std::uint32_t i = 0; i < flow.degree; ++i) {
    mark(flow.link[i]);
    std::vector<std::uint32_t>& list = link_flows_[flow.link[i]];
    const std::uint32_t pos = flow.pos[i];
    const std::uint32_t moved = list.back();
    list[pos] = moved;
    list.pop_back();
    if (moved != slot) {
      // Fix the moved flow's recorded position on this link.
      FlowEntry& other = flows_[moved];
      for (std::uint32_t j = 0; j < other.degree; ++j) {
        if (other.link[j] == flow.link[i] && other.pos[j] == list.size()) {
          other.pos[j] = pos;
          break;
        }
      }
    }
  }
  const std::uint32_t moved_slot = live_slots_.back();
  live_slots_[flow.live_pos] = moved_slot;
  live_slots_.pop_back();
  flows_[moved_slot].live_pos = flow.live_pos;
  flow.live = false;
  flow.degree = 0;
}

void MaxMinFairSolver::SaveTo(snap::SnapshotWriter& w) const {
  w.size(flows_.size());
  w.size(link_flows_.size());
  for (const auto& list : link_flows_) {
    w.size(list.size());
    for (std::uint32_t slot : list) w.u32(slot);
  }
}

void MaxMinFairSolver::RestoreFrom(snap::SnapshotReader& r) {
  const std::size_t num_flows = r.size();
  const std::size_t num_links = r.size();
  if (num_links != capacity_.size()) {
    throw snap::SnapshotError(
        "MaxMinFairSolver link count mismatch: snapshot has " +
        std::to_string(num_links) + ", solver has " +
        std::to_string(capacity_.size()));
  }
  link_flows_.assign(num_links, {});
  flows_.assign(num_flows, {});
  live_slots_.clear();
  for (std::size_t l = 0; l < num_links; ++l) {
    auto& list = link_flows_[l];
    list.assign(r.size(), 0);
    for (std::uint32_t& slot : list) {
      slot = r.u32();
      if (slot >= num_flows) {
        throw snap::SnapshotError(
            "MaxMinFairSolver: link list names slot " + std::to_string(slot) +
            " past the flow table (" + std::to_string(num_flows) + ")");
      }
    }
  }
  // Rebuild each flow's incidence entries by walking links in ascending
  // index order — uplinks < downlinks < core in the Network's layout, which
  // is exactly the order add_flow recorded them in.
  for (std::size_t l = 0; l < num_links; ++l) {
    const auto& list = link_flows_[l];
    for (std::size_t pos = 0; pos < list.size(); ++pos) {
      FlowEntry& flow = flows_[list[pos]];
      if (flow.degree >= kMaxLinksPerFlow) {
        throw snap::SnapshotError(
            "MaxMinFairSolver: slot " + std::to_string(list[pos]) +
            " appears on more than " + std::to_string(kMaxLinksPerFlow) +
            " links");
      }
      flow.link[flow.degree] = static_cast<std::uint32_t>(l);
      flow.pos[flow.degree] = static_cast<std::uint32_t>(pos);
      ++flow.degree;
      if (!flow.live) {
        flow.live = true;
        flow.live_pos = static_cast<std::uint32_t>(live_slots_.size());
        live_slots_.push_back(list[pos]);
      }
    }
  }
  // The certified state is derived: snapshots are taken with rates flushed
  // (nothing marked), so recomputing every share and certificate from the
  // incidence lists reproduces the live run's — including whether its last
  // solve fell back, which decides if the next one rewrites every rate.
  misfits_ = 0;
  for (const std::uint32_t slot : live_slots_) classify(flows_[slot]);
  for (std::size_t u = 0; u < sigma_.size(); ++u) {
    if (link_flows_[u].empty()) continue;
    sigma_[u] = capacity_[u] / static_cast<double>(link_flows_[u].size());
  }
  cert_failed_.assign(num_links, 0);
  failed_certs_ = 0;
  SolveCounters unused;
  for (std::size_t l = sigma_.size(); l < num_links; ++l) {
    set_verdict(static_cast<std::uint32_t>(l),
                certify(static_cast<std::uint32_t>(l), unused));
  }
  last_fallback_ = misfits_ > 0 || failed_certs_ > 0;
  marked_.assign(num_links, 0);
  marked_sources_.clear();
  marked_links_.clear();
  zero_degree_pending_.clear();
  // Solve scratch: epoch-stamped or resized-on-demand, so zeroing it is
  // indistinguishable from any live history.
  rem_cap_.clear();
  unassigned_.clear();
  heap_.clear();
  assigned_.clear();
  touched_.clear();
  touch_stamp_.assign(num_links, 0);
  round_stamp_ = 0;
}

bool MaxMinFairSolver::certify(std::uint32_t link, SolveCounters& work) {
  // Progressive filling would freeze this link's flows in source-key order
  // (sigma_u, u); replay its capacity in that order with the fallback's own
  // operations and demand that its share never undercuts the next source.
  const std::vector<std::uint32_t>& list = link_flows_[link];
  ++work.links_scanned;
  work.flows_scanned += list.size();
  double sum = 0.0;
  for (const std::uint32_t f : list) {
    const std::uint32_t source = flows_[f].source;
    if (source == kNoSource) return false;
    sum += sigma_[source];
  }
  // Fast fail: a false failure only costs an exact fallback, and a pass
  // still goes through the exact replay.
  if (!(sum <= capacity_[link])) return false;
  cert_keys_.clear();
  for (const std::uint32_t f : list) {
    const std::uint32_t source = flows_[f].source;
    cert_keys_.emplace_back(sigma_[source], source);
  }
  std::sort(cert_keys_.begin(), cert_keys_.end());
  double rem = capacity_[link];
  auto unassigned = static_cast<std::uint32_t>(list.size());
  for (std::size_t i = 0; i < cert_keys_.size(); ++i) {
    const double sigma = cert_keys_[i].first;
    if ((i == 0 || cert_keys_[i] != cert_keys_[i - 1]) &&
        !(rem / unassigned >= sigma)) {
      return false;
    }
    rem = std::max(0.0, rem - sigma);
    --unassigned;
  }
  return true;
}

void MaxMinFairSolver::set_verdict(std::uint32_t link, bool holds) {
  const std::uint8_t failed = holds ? 0 : 1;
  failed_certs_ = failed_certs_ + failed - cert_failed_[link];
  cert_failed_[link] = failed;
}

// Min-heap ordering on (share, link index): the seed's linear scan keeps
// the *first* strictly-smallest share, i.e. the lowest-indexed link among
// the minima, so ties must break toward the lower link index here too.
static bool HeapAfter(const MaxMinFairSolver::HeapEntry& a,
                      const MaxMinFairSolver::HeapEntry& b) {
  if (a.share != b.share) return a.share > b.share;
  return a.link > b.link;
}

void MaxMinFairSolver::heap_push(HeapEntry entry) {
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), HeapAfter);
}

MaxMinFairSolver::HeapEntry MaxMinFairSolver::heap_pop() {
  std::pop_heap(heap_.begin(), heap_.end(), HeapAfter);
  const HeapEntry entry = heap_.back();
  heap_.pop_back();
  return entry;
}

void MaxMinFairSolver::fill_all(std::vector<double>& rates, SolveDelta& delta,
                                SolveCounters& work) {
  // The bottleneck loop of progressive filling over every live flow.  The
  // heap pop order depends only on its (share, link) contents, never on
  // insertion order (keys are unique per link), so heapifying the initial
  // entries matches the seed's scan order bit for bit.
  if (rem_cap_.size() < capacity_.size()) rem_cap_.resize(capacity_.size());
  if (unassigned_.size() < capacity_.size()) {
    unassigned_.resize(capacity_.size());
  }
  if (assigned_.size() < flows_.size()) assigned_.resize(flows_.size(), 1);
  heap_.clear();
  for (std::uint32_t l = 0; l < capacity_.size(); ++l) {
    if (link_flows_[l].empty()) continue;
    rem_cap_[l] = capacity_[l];
    unassigned_[l] = static_cast<std::uint32_t>(link_flows_[l].size());
    heap_.push_back({rem_cap_[l] / unassigned_[l], l});
  }
  std::make_heap(heap_.begin(), heap_.end(), HeapAfter);
  work.links_scanned += heap_.size();
  for (const std::uint32_t f : live_slots_) {
    if (flows_[f].degree == 0) continue;
    assigned_[f] = 0;
    delta.changed_slots.push_back(f);
  }
  std::size_t remaining = delta.changed_slots.size();

  while (remaining > 0) {
    assert(!heap_.empty());
    const HeapEntry top = heap_pop();
    ++work.links_scanned;
    const std::uint32_t l = top.link;
    if (unassigned_[l] == 0) continue;
    const double share = rem_cap_[l] / unassigned_[l];
    if (share != top.share) {
      heap_push({share, l});
      continue;
    }
    ++work.rounds;
    ++round_stamp_;
    touched_.clear();
    for (const std::uint32_t f : link_flows_[l]) {
      ++work.flows_scanned;
      if (assigned_[f]) continue;
      rates[f] = share;
      assigned_[f] = 1;
      --remaining;
      const FlowEntry& flow = flows_[f];
      for (std::uint32_t i = 0; i < flow.degree; ++i) {
        const std::uint32_t lk = flow.link[i];
        rem_cap_[lk] = std::max(0.0, rem_cap_[lk] - share);
        --unassigned_[lk];
        if (touch_stamp_[lk] != round_stamp_) {
          touch_stamp_[lk] = round_stamp_;
          touched_.push_back(lk);
        }
      }
    }
    for (const std::uint32_t lk : touched_) {
      if (unassigned_[lk] == 0) continue;
      heap_push({rem_cap_[lk] / unassigned_[lk], lk});
      ++work.links_scanned;
    }
  }
}

void MaxMinFairSolver::solve(std::vector<double>& rates, SolveDelta& delta,
                             SolveCounters* counters) {
  SolveCounters scratch;
  SolveCounters& work = counters != nullptr ? *counters : scratch;
  if (rates.size() < flows_.size()) rates.resize(flows_.size(), 0.0);
  delta.clear();

  for (const std::uint32_t slot : zero_degree_pending_) {
    // A pending zero-degree slot may have been removed (and even reused by
    // a constrained flow) before this solve ran; only live zero-degree
    // flows get the unconstrained rate.
    if (slot < flows_.size() && flows_[slot].live &&
        flows_[slot].degree == 0) {
      rates[slot] = std::numeric_limits<double>::infinity();
      delta.unconstrained_slots.push_back(slot);
    }
  }
  zero_degree_pending_.clear();

  // While a misfit is live every solve falls back, so the marks stay queued
  // until certificates can matter again.  A touched source's share moved,
  // so every link its flows cross is re-certified along with the links
  // touched directly.
  if (misfits_ == 0) {
    for (const std::uint32_t u : marked_sources_) {
      const std::vector<std::uint32_t>& list = link_flows_[u];
      if (list.empty()) continue;
      sigma_[u] = capacity_[u] / static_cast<double>(list.size());
      for (const std::uint32_t f : list) {
        const FlowEntry& flow = flows_[f];
        for (std::uint32_t i = 0; i < flow.degree; ++i) {
          if (flow.link[i] >= sigma_.size()) mark(flow.link[i]);
        }
      }
    }
    for (const std::uint32_t l : marked_links_) {
      set_verdict(l, certify(l, work));
      marked_[l] = 0;
    }
    marked_links_.clear();
  }

  const bool fallback = misfits_ > 0 || failed_certs_ > 0;
  if (fallback) {
    fill_all(rates, delta, work);
  } else if (last_fallback_) {
    // The previous solve's rates came from the fallback: rewrite them all.
    for (const std::uint32_t f : live_slots_) {
      if (flows_[f].degree == 0) continue;
      rates[f] = sigma_[flows_[f].source];
      delta.changed_slots.push_back(f);
    }
  } else {
    // Every flow on a source has that source (no misfits), and only the
    // touched sources' shares can have moved.
    for (const std::uint32_t u : marked_sources_) {
      for (const std::uint32_t f : link_flows_[u]) {
        rates[f] = sigma_[u];
        delta.changed_slots.push_back(f);
      }
    }
  }
  if (misfits_ == 0) {
    for (const std::uint32_t u : marked_sources_) marked_[u] = 0;
    marked_sources_.clear();
  }
  last_fallback_ = fallback;
  work.flows_scanned += delta.changed_slots.size();
  ++work.components_total;
  if (fallback) ++work.components_dirty;
}

}  // namespace custody::net
