// Incremental, component-partitioned max-min fair rate solver.
//
// Progressive filling in its textbook form rescans every flow and every
// link per bottleneck round: O(rounds x (F + L)) per recompute.  This
// solver keeps the flow->link incidence persistent across recomputes
// (flows are added/removed as they start, cancel, or complete) and replaces
// the scan-everything bottleneck search with a lazy min-heap of links keyed
// by fair share, so one solve costs ~O((F*d + L) log L) with
// d <= kMaxLinksPerFlow links per flow.
//
// It also maintains the connected components of the link-incidence graph
// and re-solves only the components dirtied since the last solve, leaving
// clean components' rates untouched.  Disjoint components never share a
// flow or a link, so the restricted solve performs exactly the divisions a
// solve over every flow would perform for those flows.
//
// The rates are bit-identical to the seed's progressive filling: bottleneck
// links are processed in the same order (smallest fair share first, lowest
// link index on ties) with the same per-link capacity subtractions, so
// every division and comparison sees the same operands.  The seed
// implementation lives on as the test oracle (tests/oracle/), and
// tests/net_equivalence_test.cpp compares the two under randomized churn.
// See DESIGN.md §3.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace custody::snap {
class SnapshotWriter;
class SnapshotReader;
}  // namespace custody::snap

namespace custody::net {

/// Work counters for one or more rate solves — the observability that shows
/// the asymptotic win (entries visited, not just wall time).
struct SolveCounters {
  /// Flow-incidence entries visited while freezing bottlenecked flows.
  std::uint64_t flows_scanned = 0;
  /// Link inspections: heap pushes, pops and initializations.
  std::uint64_t links_scanned = 0;
  /// Bottleneck rounds executed.
  std::uint64_t rounds = 0;
  /// Live connectivity components after each solve (summed across solves).
  std::uint64_t components_total = 0;
  /// Dirty components actually re-solved.
  std::uint64_t components_dirty = 0;
};

/// What one solve changed: the slots whose rates were (re)written, grouped
/// by the freshly built component that owns them, plus the component ids
/// retired since the previous solve.  Clean components'
/// slots never appear here — their rates are untouched by the solve — so
/// the Network can re-estimate its single pending completion event from the
/// changed flows plus the surviving per-component minima instead of
/// rescanning every live flow.
struct SolveDelta {
  /// Slots re-solved this call, grouped by fresh component (all slots of
  /// fresh component i occupy [component_ends[i-1], component_ends[i])).
  std::vector<std::uint32_t> changed_slots;
  /// End offset into changed_slots per entry of fresh_components.
  std::vector<std::uint32_t> component_ends;
  /// Component ids (re)built by this solve, parallel to component_ends.
  std::vector<std::uint32_t> fresh_components;
  /// Component ids that stopped existing (merged away or rebuilt).  Ids may
  /// be reused by fresh_components of the same delta; consumers must retire
  /// before adopting.
  std::vector<std::uint32_t> retired_components;
  /// Slots of zero-degree flows assigned an unbounded rate this call.
  std::vector<std::uint32_t> unconstrained_slots;

  void clear() {
    changed_slots.clear();
    component_ends.clear();
    fresh_components.clear();
    retired_components.clear();
    unconstrained_slots.clear();
  }
};

class MaxMinFairSolver {
 public:
  /// A network-model flow touches at most its source uplink, its
  /// destination downlink and the optional shared core link.
  static constexpr std::size_t kMaxLinksPerFlow = 3;

  /// Component id of a link carrying no flows / a zero-degree flow.
  static constexpr std::uint32_t kNoComponent = 0xffffffffu;

  /// (Re)define the link set; drops every registered flow.
  void reset_links(std::vector<double> capacity);

  /// Register flow `slot` traversing `links[0..count)` (distinct link
  /// indices, count <= kMaxLinksPerFlow).  Slots are caller-managed dense
  /// indices and may be reused after remove_flow.
  void add_flow(std::size_t slot, const std::size_t* links, std::size_t count);

  /// Unregister a flow; O(degree) via swap-removal from its link lists.
  void remove_flow(std::size_t slot);

  /// Compute max-min fair rates for every registered flow into
  /// `rates[slot]` (resized to cover the highest slot; dead slots keep
  /// their previous values).  Allocation-free after warmup: all scratch
  /// buffers are reused across calls.  Only components dirtied by
  /// add_flow/remove_flow since the last solve are re-solved — clean
  /// components' entries in `rates` are left untouched — and `delta`
  /// reports exactly which slots were rewritten and which component ids
  /// were built/retired.
  void solve(std::vector<double>& rates, SolveDelta& delta,
             SolveCounters* counters = nullptr);

  [[nodiscard]] std::size_t flow_count() const { return live_slots_.size(); }
  [[nodiscard]] std::size_t link_count() const { return capacity_.size(); }
  /// Upper bound on component ids in use; sized for per-component side
  /// tables.
  [[nodiscard]] std::size_t component_count() const { return comps_.size(); }
  /// Component id owning a live flow's links (kNoComponent for a
  /// zero-degree flow).
  [[nodiscard]] std::uint32_t component_of_slot(std::size_t slot) const;
  /// Live components right now.
  [[nodiscard]] std::size_t live_component_count() const {
    return live_comps_;
  }

  /// Serialize the per-link flow lists verbatim.  Their element order is
  /// floating-point-order-sensitive: solve() subtracts the bottleneck share
  /// from rem_cap in link_flows_ traversal order, and that order depends on
  /// the whole add/remove history (swap-removal), so it cannot be rebuilt
  /// from the live flow set.  Everything else — each flow's link/pos
  /// entries, the live set, all solve scratch — is derived on restore.
  /// Capacities are not serialized: reset_links must already have been
  /// called with the same link layout (it is config-derived).
  void SaveTo(snap::SnapshotWriter& w) const;
  void RestoreFrom(snap::SnapshotReader& r);

  /// Heap entry: a link and the fair share it had when pushed.  Entries go
  /// stale when the link's share grows; stale entries are dropped (and the
  /// fresh share re-pushed) lazily on pop.
  struct HeapEntry {
    double share;
    std::uint32_t link;
  };

 private:
  struct FlowEntry {
    std::uint32_t link[kMaxLinksPerFlow] = {0, 0, 0};
    /// Position of this flow inside link_flows_[link[i]].
    std::uint32_t pos[kMaxLinksPerFlow] = {0, 0, 0};
    std::uint32_t degree = 0;
    std::uint32_t live_pos = 0;  ///< position inside live_slots_
    bool live = false;
  };

  /// One connectivity component of the link-incidence graph.  Every flow on
  /// a member link belongs to the component (a flow's links are always all
  /// in the same component); links carrying no flow belong to none.
  struct Component {
    std::vector<std::uint32_t> links;
    bool dirty = false;
    bool live = false;
  };

  void heap_push(HeapEntry entry);
  HeapEntry heap_pop();

  std::uint32_t alloc_component();
  /// Mark the component dirty (idempotent) and queue it for the next solve.
  void mark_dirty(std::uint32_t comp);
  /// Attach a freshly added flow to the partition: merge the components of
  /// its links (smaller into larger), claim unowned links, mark dirty.
  void partition_add(std::size_t slot);
  /// Run the bottleneck loop restricted to `links`/`comp_flows` (the links
  /// and flows of one freshly built component).
  void solve_component(const std::vector<std::uint32_t>& links,
                       const std::vector<std::uint32_t>& comp_flows,
                       std::vector<double>& rates, SolveCounters* counters);
  /// Rebuild the partition from link_flows_ (restore path): BFS from each
  /// owned link in ascending index order.  Deterministic, all clean.
  void rebuild_partition();

  std::vector<double> capacity_;
  std::vector<std::vector<std::uint32_t>> link_flows_;
  std::vector<FlowEntry> flows_;           // indexed by slot
  std::vector<std::uint32_t> live_slots_;  // unordered; swap-removed

  // Partition state.
  std::vector<Component> comps_;
  std::vector<std::uint32_t> comp_of_link_;   // kNoComponent = unowned
  std::vector<std::uint32_t> dirty_comps_;    // queued for the next solve
  std::vector<std::uint32_t> free_comp_ids_;
  std::size_t live_comps_ = 0;
  /// Ids merged away since the last solve; reported retired, then freed.
  std::vector<std::uint32_t> merged_comps_;
  /// Zero-degree slots added since the last solve (rate := infinity there).
  std::vector<std::uint32_t> zero_degree_pending_;

  // Scratch reused across solves (allocation-free recomputes).
  std::vector<double> rem_cap_;
  std::vector<std::uint32_t> unassigned_;
  std::vector<HeapEntry> heap_;
  std::vector<std::uint8_t> assigned_;
  std::vector<std::uint32_t> touched_;
  std::vector<std::uint64_t> touch_stamp_;
  std::uint64_t round_stamp_ = 0;
  // Partition scratch: BFS frontier, the dirty component's link
  // list (moved out so its id can be reused), per-flow visit stamps.
  std::vector<std::uint32_t> bfs_queue_;
  std::vector<std::uint32_t> links_scratch_;
  std::vector<std::uint32_t> comp_flows_;
  std::vector<std::uint64_t> flow_stamp_;
  std::uint64_t bfs_epoch_ = 0;
};

}  // namespace custody::net
