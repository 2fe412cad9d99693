// Incremental max-min fair rate solver with certified source-bound rates.
//
// Progressive filling in its textbook form rescans every flow and every
// link per bottleneck round: O(rounds x (F + L)) per recompute.  This
// solver keeps the flow->link incidence persistent across recomputes
// (flows are added/removed as they start, cancel, or complete).
//
// With the Network's layout — [0, N) source uplinks, [N, 2N) downlinks,
// 2N the optional core — and 2 Gbps uplinks against 40 Gbps downlinks, a
// flow is almost always frozen at its source uplink's fair share
// sigma_u = c_u / n_u.  The solver therefore rates each flow sigma of its
// source and keeps, per non-source link, a *certificate* that proves
// progressive filling would pop only sources: replaying the link's
// capacity over its flows in source-key order, its share never drops below
// the next source's sigma.  Only the sources and links touched since the
// last solve are re-certified, and only the touched sources' flows are
// rewritten, so a solve costs O(changed flows).  When any certificate fails
// (or a flow does not fit the layout), a lazy-heap progressive filling over
// every live flow computes the rates instead.
//
// Either way the rates are bit-identical to the seed's progressive filling:
// the certified rate is the very division the seed's first round on that
// source performs, and the fallback processes bottlenecks in the seed's
// order (smallest fair share first, lowest link index on ties) with the
// same per-link subtractions.  The seed implementation lives on as the test
// oracle (tests/oracle/), and tests/net_equivalence_test.cpp compares the
// two under randomized churn.  See DESIGN.md §3.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace custody::snap {
class SnapshotWriter;
class SnapshotReader;
}  // namespace custody::snap

namespace custody::net {

/// Work counters for one or more rate solves — the observability that shows
/// the asymptotic win (entries visited, not just wall time).
struct SolveCounters {
  /// Rate rewrites + certificate entries + flows visited by fallback rounds.
  std::uint64_t flows_scanned = 0;
  /// Certificates evaluated + fallback heap operations (initial entries,
  /// pops and pushes).
  std::uint64_t links_scanned = 0;
  /// Fallback bottleneck rounds.
  std::uint64_t rounds = 0;
  /// Solves run.
  std::uint64_t components_total = 0;
  /// Solves that took the progressive-filling fallback.
  std::uint64_t components_dirty = 0;
};

/// What one solve changed.  Slots absent from both lists kept their rate,
/// so the caller only copies these.
struct SolveDelta {
  /// Slots whose rates were (re)written this call.
  std::vector<std::uint32_t> changed_slots;
  /// Slots of zero-degree flows assigned an unbounded rate this call.
  std::vector<std::uint32_t> unconstrained_slots;

  void clear() {
    changed_slots.clear();
    unconstrained_slots.clear();
  }
};

class MaxMinFairSolver {
 public:
  /// A network-model flow touches at most its source uplink, its
  /// destination downlink and the optional shared core link.
  static constexpr std::size_t kMaxLinksPerFlow = 3;

  /// (Re)define the link set; drops every registered flow.  Links
  /// [0, num_sources) are source uplinks: a flow fits the layout when
  /// exactly one of its links is a source, and only while every flow fits
  /// can rates be certified.  0 (no sources) keeps every solve on the
  /// progressive-filling fallback, for arbitrary topologies.
  void reset_links(std::vector<double> capacity, std::size_t num_sources = 0);

  /// Register flow `slot` traversing `links[0..count)` (distinct link
  /// indices, count <= kMaxLinksPerFlow).  Slots are caller-managed dense
  /// indices and may be reused after remove_flow.
  void add_flow(std::size_t slot, const std::size_t* links, std::size_t count);

  /// Unregister a flow; O(degree) via swap-removal from its link lists.
  void remove_flow(std::size_t slot);

  /// Compute max-min fair rates for every registered flow into
  /// `rates[slot]` (resized to cover the highest slot; dead slots keep
  /// their previous values).  Allocation-free after warmup.  Only the
  /// sources and links touched by add_flow/remove_flow since the last solve
  /// are re-certified; `delta` reports exactly which slots were rewritten.
  void solve(std::vector<double>& rates, SolveDelta& delta,
             SolveCounters* counters = nullptr);

  [[nodiscard]] std::size_t flow_count() const { return live_slots_.size(); }
  [[nodiscard]] std::size_t link_count() const { return capacity_.size(); }

  // Read-only views of the certified state, for audits.
  [[nodiscard]] std::size_t source_count() const { return sigma_.size(); }
  [[nodiscard]] double capacity(std::size_t link) const {
    return capacity_[link];
  }
  /// Live flow slots on `link`, in the order the fallback visits them.
  [[nodiscard]] const std::vector<std::uint32_t>& link_flows(
      std::size_t link) const {
    return link_flows_[link];
  }
  /// Maintained share sigma_u of a source carrying flows.  Shares and
  /// certificates are brought up to date only by solves with every flow
  /// fitting the layout.
  [[nodiscard]] double source_share(std::size_t source) const {
    return sigma_[source];
  }
  /// Maintained verdict of a non-source link's certificate.
  [[nodiscard]] bool certified(std::size_t link) const {
    return cert_failed_[link] == 0;
  }

  /// Serialize the per-link flow lists verbatim.  Their order is not
  /// float-sensitive — every subtraction within one bottleneck round is the
  /// same value — but saving them verbatim keeps a restored solver's
  /// visiting order equal to the live run's.  Everything else — each
  /// flow's link/pos entries, the live set, the source shares and
  /// certificates — is derived on restore.  Capacities and the source
  /// count are not serialized: reset_links must already have been called
  /// with the same link layout (it is config-derived).
  void SaveTo(snap::SnapshotWriter& w) const;
  void RestoreFrom(snap::SnapshotReader& r);

  /// Heap entry: a link and the fair share it had when pushed.  Entries go
  /// stale when the link's share changes; stale entries are dropped (and
  /// the fresh share re-pushed) lazily on pop.
  struct HeapEntry {
    double share;
    std::uint32_t link;
  };

 private:
  static constexpr std::uint32_t kNoSource = 0xffffffffu;

  struct FlowEntry {
    std::uint32_t link[kMaxLinksPerFlow] = {0, 0, 0};
    /// Position of this flow inside link_flows_[link[i]].
    std::uint32_t pos[kMaxLinksPerFlow] = {0, 0, 0};
    std::uint32_t degree = 0;
    std::uint32_t live_pos = 0;  ///< position inside live_slots_
    /// The flow's one source link; kNoSource when it does not fit the
    /// layout (or crosses no link).
    std::uint32_t source = kNoSource;
    bool live = false;
  };

  void heap_push(HeapEntry entry);
  HeapEntry heap_pop();

  /// Derive a live flow's source and book it as a misfit if it has none.
  void classify(FlowEntry& flow);
  /// Queue `link` for the next solve (idempotent).
  void mark(std::uint32_t link);
  /// Replay a non-source link's certificate; true when it holds.
  bool certify(std::uint32_t link, SolveCounters& work);
  /// Store a link's fresh certificate verdict.
  void set_verdict(std::uint32_t link, bool holds);
  /// Progressive filling over every live flow (the exact fallback).
  void fill_all(std::vector<double>& rates, SolveDelta& delta,
                SolveCounters& work);

  std::vector<double> capacity_;
  std::vector<std::vector<std::uint32_t>> link_flows_;
  std::vector<FlowEntry> flows_;           // indexed by slot
  std::vector<std::uint32_t> live_slots_;  // unordered; swap-removed

  // Certified state: sigma per source, verdict per non-source link.
  std::vector<double> sigma_;
  std::vector<std::uint8_t> cert_failed_;
  std::size_t failed_certs_ = 0;
  std::size_t misfits_ = 0;  ///< live flows with links but no single source
  bool last_fallback_ = false;
  // Links touched since the last solve.
  std::vector<std::uint8_t> marked_;
  std::vector<std::uint32_t> marked_sources_;
  std::vector<std::uint32_t> marked_links_;
  /// Zero-degree slots added since the last solve (rate := infinity there).
  std::vector<std::uint32_t> zero_degree_pending_;

  // Scratch reused across solves (allocation-free recomputes).
  std::vector<std::pair<double, std::uint32_t>> cert_keys_;
  std::vector<double> rem_cap_;
  std::vector<std::uint32_t> unassigned_;
  std::vector<HeapEntry> heap_;
  std::vector<std::uint8_t> assigned_;
  std::vector<std::uint32_t> touched_;
  std::vector<std::uint64_t> touch_stamp_;
  std::uint64_t round_stamp_ = 0;
};

}  // namespace custody::net
