// Equivalence proof for the network rate path.
//
// The production path (batched recomputes + persistent incidence +
// certified source-share rates with a heap-based progressive-filling
// fallback + one completion re-arm scan per solve) must be
// *bit-identical* to the seed's
// recompute-per-change progressive filling: same rates, same completion
// order, same completion times, same bytes delivered.  These suites drive it
// through randomized churn at three levels and compare with exact double
// equality:
//  * solver level — against the seed algorithm itself, kept as the test
//    oracle (oracle::MaxMinFairRates in tests/oracle/);
//  * Network and experiment level — against golden digests recorded at
//    commit a7adfbd from the retired Network paths (each table names the
//    config that produced it).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/manager_factory.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "net/maxmin.h"
#include "net/network.h"
#include "oracle/net_oracle.h"
#include "result_equal.h"
#include "sim/simulator.h"
#include "workload/experiment.h"

namespace custody::net {
namespace {

using custody::NodeId;
using custody::Rng;
using oracle::MaxMinFairRates;

// ---------- solver vs. the seed oracle, direct ------------------------------

// Random link sets and flow churn (interleaved adds and removes with slot
// reuse); after every mutation batch the persistent solver's rates must be
// bitwise equal to a from-scratch seed pass over the same live set.
TEST(MaxMinFairSolver, BitIdenticalToReferenceUnderChurn) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 7919);
    const std::size_t num_links = static_cast<std::size_t>(rng.uniform_int(2, 12));
    std::vector<double> capacity(num_links);
    for (auto& c : capacity) c = rng.uniform(1.0, 1000.0);

    MaxMinFairSolver solver;
    solver.reset_links(capacity);

    struct LiveFlow {
      std::size_t slot;
      std::vector<std::size_t> links;
    };
    std::vector<LiveFlow> live;       // in add order (slot-stable)
    std::vector<std::size_t> free_slots;
    std::size_t next_slot = 0;
    std::vector<double> rates;
    SolveDelta delta;

    const int batches = rng.uniform_int(5, 15);
    for (int batch = 0; batch < batches; ++batch) {
      // Remove a random subset.
      for (std::size_t i = live.size(); i-- > 0;) {
        if (live.size() > 0 && rng.uniform(0.0, 1.0) < 0.3) {
          solver.remove_flow(live[i].slot);
          free_slots.push_back(live[i].slot);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        }
      }
      // Add a few new flows, reusing slots like the Network does.
      const int adds = rng.uniform_int(1, 8);
      for (int a = 0; a < adds; ++a) {
        std::size_t slot;
        if (!free_slots.empty()) {
          slot = free_slots.back();
          free_slots.pop_back();
        } else {
          slot = next_slot++;
        }
        std::vector<std::size_t> links;
        const int degree = rng.uniform_int(0, 3);
        for (int d = 0; d < degree; ++d) {
          const std::size_t l = rng.index(num_links);
          if (std::find(links.begin(), links.end(), l) == links.end()) {
            links.push_back(l);
          }
        }
        solver.add_flow(slot, links.data(), links.size());
        live.push_back({slot, links});
      }

      solver.solve(rates, delta);

      // Seed pass over the same live set.  Flow order is irrelevant to the
      // result (the per-link subtractions commute bitwise), but use add
      // order anyway, mirroring the Network's insertion-order walk.
      std::vector<std::vector<std::size_t>> ref_links;
      ref_links.reserve(live.size());
      for (const auto& f : live) ref_links.push_back(f.links);
      const std::vector<double> ref = MaxMinFairRates(ref_links, capacity);

      ASSERT_EQ(ref.size(), live.size());
      for (std::size_t i = 0; i < live.size(); ++i) {
        const double got = rates[live[i].slot];
        const double want = ref[i];
        if (std::isinf(want)) {
          EXPECT_TRUE(std::isinf(got)) << "seed " << seed << " batch " << batch;
        } else {
          EXPECT_EQ(got, want)  // bitwise: no tolerance
              << "seed " << seed << " batch " << batch << " flow " << i;
        }
      }
    }
  }
}

// Counters must reflect the asymptotic win.  The seed rescans every flow
// and every link per bottleneck round; the heap fallback only touches
// entries incident to the round's bottleneck, and the certified path runs
// no rounds at all.  With F flows on F *distinct* bottlenecks (worst case
// for the scan: F rounds) the seed does ~F x (F + 2L) work while both
// production paths stay ~O(F + L).
TEST(MaxMinFairSolver, CountersShowSubLinearPerRoundWork) {
  const std::size_t n = 100;  // nodes -> 200 links
  std::vector<double> capacity(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    capacity[i] = 10.0 + static_cast<double>(i);  // distinct uplink shares
    capacity[n + i] = 1e9;
  }
  std::vector<std::vector<std::size_t>> flow_links;
  for (std::size_t f = 0; f < n; ++f) flow_links.push_back({f, n + f});
  SolveCounters ref;
  const auto ref_rates = MaxMinFairRates(flow_links, capacity, &ref);
  // Seed: per-round full rescans, every flow its own bottleneck.
  EXPECT_EQ(ref.rounds, n);
  EXPECT_EQ(ref.links_scanned, ref.rounds * 2 * n);
  EXPECT_EQ(ref.flows_scanned, ref.rounds * n);

  const auto solve = [&](std::size_t num_sources) {
    MaxMinFairSolver solver;
    solver.reset_links(capacity, num_sources);
    for (std::size_t f = 0; f < n; ++f) {
      solver.add_flow(f, flow_links[f].data(), 2);
    }
    std::vector<double> rates;
    SolveDelta delta;
    SolveCounters inc;
    solver.solve(rates, delta, &inc);
    for (std::size_t f = 0; f < n; ++f) EXPECT_EQ(rates[f], ref_rates[f]);
    EXPECT_EQ(inc.components_total, 1u);  // one solve
    return inc;
  };

  // Without the layout every solve is the heap fallback: F rounds, one
  // init pass + one pop per round, no rescans.
  const SolveCounters heap = solve(0);
  EXPECT_EQ(heap.components_dirty, 1u);
  EXPECT_EQ(heap.rounds, n);
  EXPECT_LE(heap.links_scanned, 2 * n + 2 * heap.rounds);
  // Each flow is visited twice: once when its bottleneck freezes it, once
  // when its rate is rewritten.
  EXPECT_EQ(heap.flows_scanned, 2 * n);
  EXPECT_LT(heap.links_scanned * 10, ref.links_scanned);

  // With it, each downlink's certificate holds: no rounds, one certificate
  // per downlink, and each flow is visited as a certificate entry and as a
  // rate rewrite.
  const SolveCounters cert = solve(n);
  EXPECT_EQ(cert.components_dirty, 0u);
  EXPECT_EQ(cert.rounds, 0u);
  EXPECT_EQ(cert.links_scanned, n);
  EXPECT_EQ(cert.flows_scanned, 2 * n);
}

// ---------- solver vs. the seed oracle: deltas, certificates, fallback -----

// The solver under a second randomized churn: rates must stay bitwise equal
// to the from-scratch seed pass, AND the SolveDelta must be
// complete — a shadow rate table updated *only* from reported deltas has to
// agree with the reference too, which catches a changed-but-unreported
// slot (stale shadow).  Random topologies have no source layout, so every
// solve here is the progressive-filling fallback.
TEST(MaxMinFairSolver, BitIdenticalWithCompleteDeltas) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 104729);
    const std::size_t num_links =
        static_cast<std::size_t>(rng.uniform_int(2, 12));
    std::vector<double> capacity(num_links);
    for (auto& c : capacity) c = rng.uniform(1.0, 1000.0);

    MaxMinFairSolver solver;
    solver.reset_links(capacity);

    struct LiveFlow {
      std::size_t slot;
      std::vector<std::size_t> links;
    };
    std::vector<LiveFlow> live;
    std::vector<std::size_t> free_slots;
    std::size_t next_slot = 0;
    std::vector<double> rates;
    std::vector<double> shadow;  // written only from SolveDelta entries
    SolveCounters counters;
    SolveDelta delta;

    const int batches = rng.uniform_int(5, 15);
    for (int batch = 0; batch < batches; ++batch) {
      for (std::size_t i = live.size(); i-- > 0;) {
        if (live.size() > 0 && rng.uniform(0.0, 1.0) < 0.3) {
          solver.remove_flow(live[i].slot);
          free_slots.push_back(live[i].slot);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        }
      }
      const int adds = rng.uniform_int(1, 8);
      for (int a = 0; a < adds; ++a) {
        std::size_t slot;
        if (!free_slots.empty()) {
          slot = free_slots.back();
          free_slots.pop_back();
        } else {
          slot = next_slot++;
        }
        std::vector<std::size_t> links;
        const int degree = rng.uniform_int(0, 3);
        for (int d = 0; d < degree; ++d) {
          const std::size_t l = rng.index(num_links);
          if (std::find(links.begin(), links.end(), l) == links.end()) {
            links.push_back(l);
          }
        }
        solver.add_flow(slot, links.data(), links.size());
        live.push_back({slot, links});
      }

      const std::uint64_t fallbacks_before = counters.components_dirty;
      solver.solve(rates, delta, &counters);
      // No flow with links fits a layout without sources, so the solve
      // fell back unless only zero-degree flows are live.
      const bool any_constrained =
          std::any_of(live.begin(), live.end(),
                      [](const LiveFlow& f) { return !f.links.empty(); });
      EXPECT_EQ(counters.components_dirty - fallbacks_before,
                any_constrained ? 1u : 0u);

      if (shadow.size() < rates.size()) shadow.resize(rates.size(), -1.0);
      for (const std::uint32_t slot : delta.changed_slots) {
        shadow[slot] = rates[slot];
      }
      for (const std::uint32_t slot : delta.unconstrained_slots) {
        shadow[slot] = rates[slot];
      }

      std::vector<std::vector<std::size_t>> ref_links;
      ref_links.reserve(live.size());
      for (const auto& f : live) ref_links.push_back(f.links);
      const std::vector<double> ref = MaxMinFairRates(ref_links, capacity);

      ASSERT_EQ(ref.size(), live.size());
      for (std::size_t i = 0; i < live.size(); ++i) {
        const std::size_t slot = live[i].slot;
        EXPECT_EQ(rates[slot], ref[i])
            << "seed " << seed << " batch " << batch << " flow " << i;
        EXPECT_EQ(shadow[slot], ref[i])
            << "delta missed a changed slot: seed " << seed << " batch "
            << batch << " flow " << i;
      }
    }
    EXPECT_EQ(counters.components_total, static_cast<std::uint64_t>(batches));
  }
}

// A zero-capacity link freezes its flows at rate 0 on both sides, on the
// fallback and on the certified path alike.
TEST(MaxMinFairSolver, ZeroCapacityLinkBitIdentical) {
  const std::vector<double> capacity = {0.0, 100.0, 50.0};
  MaxMinFairSolver solver;
  solver.reset_links(capacity);
  const std::size_t f0[2] = {0, 1};  // through the dead link
  const std::size_t f1[2] = {1, 2};
  solver.add_flow(0, f0, 2);
  solver.add_flow(1, f1, 2);
  std::vector<double> rates;
  SolveCounters counters;
  SolveDelta delta;
  solver.solve(rates, delta, &counters);

  const std::vector<double> ref =
      MaxMinFairRates({{0, 1}, {1, 2}}, capacity);
  EXPECT_EQ(rates[0], ref[0]);
  EXPECT_EQ(rates[1], ref[1]);
  EXPECT_EQ(rates[0], 0.0);  // bottlenecked by the dead link
  EXPECT_GT(rates[1], 0.0);
  EXPECT_EQ(counters.components_dirty, 1u);  // no layout: the fallback

  // A dead source uplink has sigma = 0, which wins the tie against any
  // non-negative link share, so its flow certifies at rate 0; a dead
  // downlink's share 0 undercuts a positive sigma and forces the fallback.
  const std::vector<double> layout = {0.0, 40.0, 50.0, 0.0};
  MaxMinFairSolver certified;
  certified.reset_links(layout, /*num_sources=*/2);
  const std::size_t g0[2] = {0, 2};
  const std::size_t g1[2] = {1, 2};
  certified.add_flow(0, g0, 2);
  certified.add_flow(1, g1, 2);
  SolveCounters cert_counters;
  certified.solve(rates, delta, &cert_counters);
  const std::vector<double> cert_ref =
      MaxMinFairRates({{0, 2}, {1, 2}}, layout);
  EXPECT_EQ(rates[0], cert_ref[0]);
  EXPECT_EQ(rates[1], cert_ref[1]);
  EXPECT_EQ(rates[0], 0.0);
  EXPECT_EQ(cert_counters.components_dirty, 0u);
  EXPECT_EQ(oracle::AuditCertificates(certified, &rates), "");

  const std::size_t g2[2] = {1, 3};  // onto the dead downlink
  certified.add_flow(2, g2, 2);
  certified.solve(rates, delta, &cert_counters);
  const std::vector<double> dead_ref =
      MaxMinFairRates({{0, 2}, {1, 2}, {1, 3}}, layout);
  for (std::size_t s = 0; s < 3; ++s) EXPECT_EQ(rates[s], dead_ref[s]);
  EXPECT_EQ(rates[2], 0.0);
  EXPECT_FALSE(certified.certified(3));
  EXPECT_EQ(cert_counters.components_dirty, 1u);
  EXPECT_EQ(oracle::AuditCertificates(certified, &rates), "");
}

// Slot reuse across solves: the solver must track the slot's *new* links,
// not remember the old ones — on the fallback (no layout) and on the
// certified path, where the reused slot moves to another source and both
// sources' flows must be rewritten.
TEST(MaxMinFairSolver, SlotReuseAcrossSolvesRecertifiesExactly) {
  const std::vector<double> capacity = {10.0, 20.0, 30.0, 40.0};
  MaxMinFairSolver solver;
  solver.reset_links(capacity);
  const std::size_t f0[2] = {0, 1};
  const std::size_t f1[2] = {2, 3};
  solver.add_flow(0, f0, 2);
  solver.add_flow(1, f1, 2);
  std::vector<double> rates;
  SolveCounters counters;
  SolveDelta delta;
  solver.solve(rates, delta, &counters);
  EXPECT_EQ(delta.changed_slots.size(), 2u);

  // Retire flow 0; the fallback rewrites the one flow left.
  solver.remove_flow(0);
  solver.solve(rates, delta, &counters);
  EXPECT_EQ(delta.changed_slots, std::vector<std::uint32_t>{1});

  // Reuse slot 0 with different links: one now-empty (1), one shared (2).
  const std::size_t reused[2] = {1, 2};
  solver.add_flow(0, reused, 2);
  solver.solve(rates, delta, &counters);
  EXPECT_EQ(delta.changed_slots.size(), 2u);

  const std::vector<double> ref =
      MaxMinFairRates({{1, 2}, {2, 3}}, capacity);
  EXPECT_EQ(rates[0], ref[0]);
  EXPECT_EQ(rates[1], ref[1]);

  // The same reuse with sources {0, 1} and downlinks {2, 3}.
  MaxMinFairSolver certified;
  certified.reset_links(capacity, /*num_sources=*/2);
  const std::size_t g0[2] = {0, 2};
  const std::size_t g1[2] = {1, 3};
  certified.add_flow(0, g0, 2);
  certified.add_flow(1, g1, 2);
  SolveCounters cert_counters;
  certified.solve(rates, delta, &cert_counters);
  certified.remove_flow(0);
  certified.solve(rates, delta, &cert_counters);
  EXPECT_TRUE(delta.changed_slots.empty());  // source 1 untouched
  const std::size_t moved[2] = {1, 2};
  certified.add_flow(0, moved, 2);
  certified.solve(rates, delta, &cert_counters);
  std::vector<std::uint32_t> changed = delta.changed_slots;
  std::sort(changed.begin(), changed.end());
  EXPECT_EQ(changed, (std::vector<std::uint32_t>{0, 1}));  // sigma_1 halved
  const std::vector<double> cert_ref =
      MaxMinFairRates({{1, 2}, {1, 3}}, capacity);
  EXPECT_EQ(rates[0], cert_ref[0]);
  EXPECT_EQ(rates[1], cert_ref[1]);
  EXPECT_EQ(cert_counters.components_dirty, 0u);
  EXPECT_EQ(oracle::AuditCertificates(certified, &rates), "");
}

// A kMaxLinksPerFlow-degree flow bridging three otherwise disjoint flows:
// without a layout the fallback re-solves and rewrites every flow; in the
// Network layout the bridge (source, downlink, core) is certified and only
// its own source's flows are rewritten.
TEST(MaxMinFairSolver, MaxDegreeFlowBitIdenticalOnBothPaths) {
  static_assert(MaxMinFairSolver::kMaxLinksPerFlow == 3);
  const std::vector<double> capacity = {10.0, 20.0, 30.0, 40.0, 50.0, 60.0};
  MaxMinFairSolver solver;
  solver.reset_links(capacity);
  const std::size_t f0[2] = {0, 1};
  const std::size_t f1[2] = {2, 3};
  const std::size_t f2[2] = {4, 5};
  solver.add_flow(0, f0, 2);
  solver.add_flow(1, f1, 2);
  solver.add_flow(2, f2, 2);
  std::vector<double> rates;
  SolveCounters counters;
  SolveDelta delta;
  solver.solve(rates, delta, &counters);
  EXPECT_EQ(delta.changed_slots.size(), 3u);

  const std::size_t bridge[3] = {1, 3, 5};  // one link from each flow
  solver.add_flow(3, bridge, 3);
  const SolveCounters before = counters;
  solver.solve(rates, delta, &counters);
  EXPECT_EQ(delta.changed_slots.size(), 4u);
  EXPECT_EQ(counters.components_dirty - before.components_dirty, 1u);

  const std::vector<double> ref = MaxMinFairRates(
      {{0, 1}, {2, 3}, {4, 5}, {1, 3, 5}}, capacity);
  for (std::size_t s = 0; s < 4; ++s) EXPECT_EQ(rates[s], ref[s]);

  // Three nodes: uplinks 0-2, downlinks 3-5, core 6.
  const std::vector<double> layout = {10.0, 20.0, 30.0, 40.0,
                                      50.0, 60.0, 100.0};
  MaxMinFairSolver certified;
  certified.reset_links(layout, /*num_sources=*/3);
  const std::size_t g0[3] = {0, 4, 6};
  const std::size_t g1[3] = {1, 5, 6};
  const std::size_t g2[3] = {2, 3, 6};
  certified.add_flow(0, g0, 3);
  certified.add_flow(1, g1, 3);
  certified.add_flow(2, g2, 3);
  SolveCounters cert_counters;
  certified.solve(rates, delta, &cert_counters);
  const std::size_t g3[3] = {0, 5, 6};
  certified.add_flow(3, g3, 3);
  certified.solve(rates, delta, &cert_counters);
  std::vector<std::uint32_t> changed = delta.changed_slots;
  std::sort(changed.begin(), changed.end());
  EXPECT_EQ(changed, (std::vector<std::uint32_t>{0, 3}));  // source 0 only
  const std::vector<double> cert_ref = MaxMinFairRates(
      {{0, 4, 6}, {1, 5, 6}, {2, 3, 6}, {0, 5, 6}}, layout);
  for (std::size_t s = 0; s < 4; ++s) EXPECT_EQ(rates[s], cert_ref[s]);
  EXPECT_EQ(cert_counters.components_dirty, 0u);
  EXPECT_EQ(oracle::AuditCertificates(certified, &rates), "");
}

// Progressive filling pops a source before a link whose share merely
// equals that source's sigma (sources carry the lower indices), so an
// exact tie certifies.
TEST(MaxMinFairSolver, TieBetweenLinkShareAndSourceShareCertifies) {
  // Node 0's uplink (100) carries two flows into node 1's downlink (100):
  // sigma_0 = 50 and the downlink's share 100 / 2 = 50.
  const std::vector<double> capacity = {100.0, 100.0, 400.0, 100.0};
  MaxMinFairSolver solver;
  solver.reset_links(capacity, /*num_sources=*/2);
  const std::size_t links[2] = {0, 3};
  solver.add_flow(0, links, 2);
  solver.add_flow(1, links, 2);
  std::vector<double> rates;
  SolveDelta delta;
  SolveCounters counters;
  solver.solve(rates, delta, &counters);
  const std::vector<double> ref = MaxMinFairRates({{0, 3}, {0, 3}}, capacity);
  EXPECT_EQ(rates[0], ref[0]);
  EXPECT_EQ(rates[1], ref[1]);
  EXPECT_EQ(rates[0], 50.0);
  EXPECT_EQ(counters.components_dirty, 0u);
  std::size_t ties = 0;
  EXPECT_EQ(oracle::AuditCertificates(solver, &rates, &ties), "");
  EXPECT_EQ(ties, 1u);
}

// Churn in the Network's link layout: sources in [0, N), sinks in [N, 2N),
// an optional core at 2N.  Capacities come from small sets of round numbers
// (zero included) so that exact ties between a link's share and a source
// share occur, several flows run from one source into one sink, and
// downlinks or the core bottleneck in some solves — certified and fallback
// solves both happen, and so do fallback -> certified transitions.  After
// every solve: rates bitwise equal to the seed oracle, the maintained
// shares and certificates equal to a from-scratch recomputation, and the
// delta covering every changed rate.  Snapshots taken right after a
// fallback are restored into a fresh solver that carries on in its place.
TEST(MaxMinFairSolver, CertifiedAndFallbackMatchOracleUnderLayoutChurn) {
  std::size_t certified_solves = 0;
  std::size_t fallback_solves = 0;
  std::size_t recoveries = 0;  // certified solves right after a fallback
  std::size_t restores = 0;
  std::size_t ties = 0;
  std::size_t shared_pairs = 0;  // batches with two flows on one (src, dst)
  const double kUplink[] = {0.0, 100.0, 100.0, 200.0, 200.0, 300.0};
  const double kDownlink[] = {0.0, 50.0, 100.0, 200.0, 400.0, 800.0, 800.0};
  const double kCore[] = {150.0, 400.0, 1000.0, 4000.0};
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed * 15485863);
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 6));
    const bool has_core = rng.uniform(0.0, 1.0) < 0.4;
    std::vector<double> capacity(2 * n + (has_core ? 1 : 0));
    for (std::size_t i = 0; i < n; ++i) {
      capacity[i] = kUplink[rng.index(std::size(kUplink))];
      capacity[n + i] = kDownlink[rng.index(std::size(kDownlink))];
    }
    if (has_core) capacity[2 * n] = kCore[rng.index(std::size(kCore))];

    auto solver = std::make_unique<MaxMinFairSolver>();
    solver->reset_links(capacity, n);
    struct LiveFlow {
      std::size_t slot;
      std::vector<std::size_t> links;
    };
    std::vector<LiveFlow> live;
    std::vector<std::size_t> free_slots;
    std::size_t next_slot = 0;
    std::vector<double> rates;
    SolveDelta delta;
    bool last_fallback = false;

    const int batches = rng.uniform_int(10, 25);
    for (int batch = 0; batch < batches; ++batch) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " batch " +
                   std::to_string(batch));
      for (std::size_t i = live.size(); i-- > 0;) {
        if (rng.uniform(0.0, 1.0) < 0.3) {
          solver->remove_flow(live[i].slot);
          free_slots.push_back(live[i].slot);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        }
      }
      const int adds = rng.uniform_int(1, 6);
      for (int a = 0; a < adds; ++a) {
        std::size_t slot;
        if (!free_slots.empty()) {
          slot = free_slots.back();
          free_slots.pop_back();
        } else {
          slot = next_slot++;
        }
        const std::size_t src = rng.index(n);
        std::size_t dst = rng.index(n);
        if (dst == src) dst = (dst + 1) % n;
        std::vector<std::size_t> links = {src, n + dst};
        if (has_core) links.push_back(2 * n);
        solver->add_flow(slot, links.data(), links.size());
        live.push_back({slot, links});
      }

      const std::vector<double> before = rates;
      SolveCounters counters;
      solver->solve(rates, delta, &counters);
      const bool fallback = counters.components_dirty == 1;
      if (fallback) {
        ++fallback_solves;
      } else {
        ++certified_solves;
        if (last_fallback) ++recoveries;
      }
      last_fallback = fallback;

      ASSERT_EQ(oracle::AuditCertificates(*solver, &rates, &ties), "");
      ASSERT_EQ(oracle::AuditDelta(before, rates, delta), "");
      std::vector<std::vector<std::size_t>> ref_links;
      for (const auto& f : live) ref_links.push_back(f.links);
      const std::vector<double> ref = MaxMinFairRates(ref_links, capacity);
      for (std::size_t i = 0; i < live.size(); ++i) {
        ASSERT_EQ(rates[live[i].slot], ref[i]) << "flow " << i;
      }
      const auto shares_a_pair = [&live] {
        for (std::size_t i = 0; i < live.size(); ++i) {
          for (std::size_t j = i + 1; j < live.size(); ++j) {
            if (live[i].links == live[j].links) return true;
          }
        }
        return false;
      };
      if (shares_a_pair()) ++shared_pairs;

      if (fallback && rng.uniform(0.0, 1.0) < 0.5) {
        snap::SnapshotWriter w;
        solver->SaveTo(w);
        snap::SnapshotReader r(w.finish(/*config_hash=*/0, /*sim_time=*/0.0));
        auto restored = std::make_unique<MaxMinFairSolver>();
        restored->reset_links(capacity, n);
        restored->RestoreFrom(r);
        ASSERT_EQ(oracle::AuditCertificates(*restored, &rates), "");
        solver = std::move(restored);
        ++restores;
      }
    }
  }
  EXPECT_GT(certified_solves, 0u);
  EXPECT_GT(fallback_solves, 0u);
  EXPECT_GT(recoveries, 0u);
  EXPECT_GT(restores, 0u);
  EXPECT_GT(ties, 0u);
  EXPECT_GT(shared_pairs, 0u);
}

// Restore-then-churn: a solver restored from a snapshot rebuilds its
// derived state from the incidence lists, and further churn on the restored
// instance must stay bitwise identical to the original instance seeing the
// same churn, rewriting the same slots.
TEST(MaxMinFairSolver, RestoreThenChurnMatchesOriginal) {
  Rng rng(424242);
  const std::size_t num_links = 10;
  std::vector<double> capacity(num_links);
  for (auto& c : capacity) c = rng.uniform(1.0, 500.0);

  MaxMinFairSolver original;
  original.reset_links(capacity);
  std::vector<std::vector<std::size_t>> live_links(32);
  for (std::size_t slot = 0; slot < 32; ++slot) {
    std::vector<std::size_t> links;
    const int degree = rng.uniform_int(1, 3);
    for (int d = 0; d < degree; ++d) {
      const std::size_t l = rng.index(num_links);
      if (std::find(links.begin(), links.end(), l) == links.end()) {
        links.push_back(l);
      }
    }
    original.add_flow(slot, links.data(), links.size());
    live_links[slot] = links;
  }
  std::vector<double> orig_rates;
  SolveCounters counters;
  SolveDelta delta;
  original.solve(orig_rates, delta, &counters);

  // Snapshot the flushed solver and restore into a fresh instance.  Rates
  // live with the caller (the Network serializes them itself), so carry
  // them over by copy, exactly like Network::RestoreFrom does.
  snap::SnapshotWriter w;
  original.SaveTo(w);
  snap::SnapshotReader r(w.finish(/*config_hash=*/0, /*sim_time=*/0.0));
  MaxMinFairSolver restored;
  restored.reset_links(capacity);
  restored.RestoreFrom(r);
  std::vector<double> rest_rates = orig_rates;

  EXPECT_EQ(restored.flow_count(), original.flow_count());

  // Identical churn on both instances: remove some, add some, re-solve.
  SolveDelta rest_delta;
  for (int batch = 0; batch < 4; ++batch) {
    for (std::size_t slot = 0; slot < live_links.size(); ++slot) {
      if (!live_links[slot].empty() && rng.uniform(0.0, 1.0) < 0.25) {
        original.remove_flow(slot);
        restored.remove_flow(slot);
        live_links[slot].clear();
      }
    }
    for (int a = 0; a < 5; ++a) {
      const std::size_t slot = rng.index(live_links.size());
      if (!live_links[slot].empty()) continue;  // only reuse free slots
      std::vector<std::size_t> links;
      const int degree = rng.uniform_int(1, 3);
      for (int d = 0; d < degree; ++d) {
        const std::size_t l = rng.index(num_links);
        if (std::find(links.begin(), links.end(), l) == links.end()) {
          links.push_back(l);
        }
      }
      original.add_flow(slot, links.data(), links.size());
      restored.add_flow(slot, links.data(), links.size());
      live_links[slot] = links;
    }
    original.solve(orig_rates, delta, &counters);
    restored.solve(rest_rates, rest_delta, &counters);
    // Same slots rewritten; their order follows the rebuilt live list.
    std::vector<std::uint32_t> orig_changed = delta.changed_slots;
    std::vector<std::uint32_t> rest_changed = rest_delta.changed_slots;
    std::sort(orig_changed.begin(), orig_changed.end());
    std::sort(rest_changed.begin(), rest_changed.end());
    EXPECT_EQ(rest_changed, orig_changed) << "batch " << batch;
    for (std::size_t slot = 0; slot < live_links.size(); ++slot) {
      if (live_links[slot].empty()) continue;
      EXPECT_EQ(rest_rates[slot], orig_rates[slot])
          << "batch " << batch << " slot " << slot;
    }
  }
}

// ---------- Network level: randomized churn scenarios -----------------------

struct ScenarioResult {
  std::vector<int> completion_order;       // flow label, callback order
  std::vector<double> completion_times;    // one per completion, same order
  std::vector<double> rate_samples;        // flow_rate probes
  double bytes_delivered = 0.0;
  std::uint64_t events = 0;
};

/// FNV-1a over every figure of a scenario, doubles by bit pattern; the
/// processed-event count is included only when `with_events`.
std::uint64_t ScenarioDigest(const ScenarioResult& r, bool with_events) {
  std::vector<std::uint8_t> bytes;
  const auto put = [&bytes](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  const auto put_f64 = [&put](double v) {
    std::uint64_t raw = 0;
    std::memcpy(&raw, &v, sizeof raw);
    put(raw);
  };
  put(r.completion_order.size());
  for (const int label : r.completion_order) {
    put(static_cast<std::uint64_t>(label));
  }
  put(r.completion_times.size());
  for (const double t : r.completion_times) put_f64(t);
  put(r.rate_samples.size());
  for (const double s : r.rate_samples) put_f64(s);
  put_f64(r.bytes_delivered);
  if (with_events) put(r.events);
  return snap::Fnv1a(bytes.data(), bytes.size());
}

/// Replays one randomized churn scenario (same-timestamp bursts, staggered
/// starts, scheduled cancels, completion-driven restarts).  `after_event`,
/// if set, observes the network after every event's rate flush.
ScenarioResult RunScenario(
    std::uint64_t seed,
    const std::function<void(const Network&)>& after_event = nullptr) {
  Rng rng(seed);
  const std::size_t nodes = static_cast<std::size_t>(rng.uniform_int(4, 12));
  NetworkConfig config;
  config.num_nodes = nodes;
  config.uplink_bps = rng.uniform(50.0, 400.0);
  config.downlink_bps = rng.uniform(100.0, 800.0);
  config.core_bps = rng.uniform(0.0, 1.0) < 0.3
                        ? rng.uniform(100.0, 1000.0)
                        : 0.0;

  sim::Simulator sim;
  Network net(sim, config);
  if (after_event) sim.add_post_event_hook([&] { after_event(net); });
  ScenarioResult out;
  std::vector<FlowId> started;

  auto pick_pair = [&rng, nodes](NodeId& src, NodeId& dst) {
    const auto s = static_cast<NodeId::value_type>(rng.index(nodes));
    auto d = static_cast<NodeId::value_type>(rng.index(nodes));
    if (d == s) d = static_cast<NodeId::value_type>((d + 1) % nodes);
    src = NodeId(s);
    dst = NodeId(d);
  };

  int label = 0;
  const int bursts = rng.uniform_int(3, 8);
  double t = 0.0;
  for (int b = 0; b < bursts; ++b) {
    t += rng.uniform(0.0, 5.0);  // occasionally zero: coincident bursts
    const int burst_flows = rng.uniform_int(1, 6);
    for (int f = 0; f < burst_flows; ++f) {
      const int this_label = label++;
      const double bytes = rng.uniform(100.0, 5000.0);
      const bool chain = rng.uniform(0.0, 1.0) < 0.25;
      sim.schedule_at(t, [&, this_label, bytes, chain] {
        NodeId src, dst;
        pick_pair(src, dst);
        const int chained_label = chain ? 10000 + this_label : -1;
        started.push_back(net.start_flow(src, dst, bytes, [&, this_label,
                                                           chained_label] {
          out.completion_order.push_back(this_label);
          out.completion_times.push_back(sim.now());
          if (chained_label >= 0) {
            // Restart from inside the completion callback (re-entrancy).
            NodeId s2, d2;
            pick_pair(s2, d2);
            net.start_flow(s2, d2, 250.0, [&, chained_label] {
              out.completion_order.push_back(chained_label);
              out.completion_times.push_back(sim.now());
            });
          }
        }));
      });
    }
    // Probe rates mid-run (forces a pending recompute to flush) and
    // cancel a random earlier flow.
    const double probe_t = t + rng.uniform(0.1, 3.0);
    const std::size_t cancel_ix = rng.index(64);
    sim.schedule_at(probe_t, [&, cancel_ix] {
      for (const FlowId id : started) {
        out.rate_samples.push_back(net.flow_rate(id));
      }
      if (!started.empty()) {
        net.cancel_flow(started[cancel_ix % started.size()]);
      }
    });
  }
  sim.run();
  out.bytes_delivered = net.bytes_delivered();
  out.events = sim.events_processed();
  return out;
}

// Golden digests of each seed's scenario on the seed's recompute-per-change
// path, recorded at commit a7adfbd with NetworkConfig::incremental = false
// and component_partitioned = false (ScenarioDigest without the event
// count: that path fired its completion events differently).
constexpr std::uint64_t kReferenceScenarioGolden[] = {
    0x0890369d0aa9cfaeULL,  // seed 1
    0x66e093df82d8f883ULL,  // seed 2
    0x1be5163d871bedd4ULL,  // seed 3
    0x4eba74e2a5e2c26cULL,  // seed 4
    0x486fcc01c32495f9ULL,  // seed 5
    0xe8a016ca9d37c376ULL,  // seed 6
    0xe88a3639860b8051ULL,  // seed 7
    0xd0a5907133f03929ULL,  // seed 8
    0x80e331c2d310a206ULL,  // seed 9
    0xf89316ced43456b4ULL,  // seed 10
    0x09c12144e214f41fULL,  // seed 11
    0x499d681887a64d92ULL,  // seed 12
    0x11060c82614f47c5ULL,  // seed 13
    0x38e1e82d4d0f9b47ULL,  // seed 14
    0x888d81201261916bULL,  // seed 15
    0x5cd1c3683c0bc703ULL,  // seed 16
    0x1b5d7f971b9d5106ULL,  // seed 17
    0x2b3edde582243f9fULL,  // seed 18
    0xc545477cb4df2481ULL,  // seed 19
    0xaad844070b092f67ULL,  // seed 20
    0x44895a6205b6b984ULL,  // seed 21
    0x3833313aea5f3759ULL,  // seed 22
    0xe0f11cd3a1857030ULL,  // seed 23
    0x9d45e7d2d204bff6ULL,  // seed 24
    0x910e4fc859ec17a9ULL,  // seed 25
    0x0bcbd1eeb9453557ULL,  // seed 26
    0x853a0dd6eaf398a2ULL,  // seed 27
    0xacc564e2f3753f89ULL,  // seed 28
    0xd7486edeb0c2612dULL,  // seed 29
    0x27737d709097611aULL,  // seed 30
    0x84fbdfbb794c635fULL,  // seed 31
    0xa14d3b758395252eULL,  // seed 32
    0x530bfdd098c4f10aULL,  // seed 33
    0xc008f8e10c8d67b6ULL,  // seed 34
    0x97c409b126c6b698ULL,  // seed 35
    0x56c3ee328e0d1db8ULL,  // seed 36
    0x9ea449522d64320bULL,  // seed 37
    0x842fd6bbd5afbddfULL,  // seed 38
    0xbb735e49db5ab896ULL,  // seed 39
    0x42f3ab627920f181ULL,  // seed 40
    0xe59d3514bc34ee43ULL,  // seed 41
    0xe43c47482cdce7daULL,  // seed 42
    0xad1dc571f73c2714ULL,  // seed 43
    0x99adb2101355153fULL,  // seed 44
    0x14cdba6f5ee37247ULL,  // seed 45
    0x42318be12517da50ULL,  // seed 46
    0xedb3630596cea2a7ULL,  // seed 47
    0x6fe4c2427dedd5c2ULL,  // seed 48
};

// The acceptance property: >= 40 seeds of random flow churn, identical
// rates, completion order, completion times and bytes_delivered to the
// seed's recompute-per-change path — exact double equality, no tolerance.
TEST(NetworkEquivalence, IncrementalMatchesReferenceAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    EXPECT_EQ(ScenarioDigest(RunScenario(seed), /*with_events=*/false),
              kReferenceScenarioGolden[seed - 1])
        << "seed " << seed;
  }
}

// Golden digests of each seed's scenario on the batched path with one
// global solve per recompute, recorded at commit a7adfbd with
// NetworkConfig::incremental = true and component_partitioned = false
// (ScenarioDigest including the event count).
constexpr std::uint64_t kGlobalSolveScenarioGolden[] = {
    0x1d739050d6414f8dULL,  // seed 1
    0xa6a3a47fe847027fULL,  // seed 2
    0x9fb5b149998719beULL,  // seed 3
    0xd31b17e56e157e3eULL,  // seed 4
    0xe0b8b25562a9bad7ULL,  // seed 5
    0xa63b4a6b47ae329aULL,  // seed 6
    0x29ddb0712dc85948ULL,  // seed 7
    0x5761376bbbdaf429ULL,  // seed 8
    0x628fe449d68e98c5ULL,  // seed 9
    0xe01ea24c1e60e42cULL,  // seed 10
    0xb6ffff6e20095263ULL,  // seed 11
    0xa28769234daf34b8ULL,  // seed 12
    0x7a733b6c0e83471aULL,  // seed 13
    0x51643784b8d4f6cbULL,  // seed 14
    0x5c88dca5b1d09049ULL,  // seed 15
    0xd19844c361d27f62ULL,  // seed 16
    0x5302ab7bd9dd8c9cULL,  // seed 17
    0xc55b1f467785d35cULL,  // seed 18
    0xb3434669127c7913ULL,  // seed 19
    0x1282540fd5e5ccacULL,  // seed 20
    0x68a37893e3e9bafbULL,  // seed 21
    0xb3d3234dd2ed3b4fULL,  // seed 22
    0xfa280b79d5b42dacULL,  // seed 23
    0xe147bb67fcb92ad8ULL,  // seed 24
    0xd9d4aa7763ad4d6cULL,  // seed 25
    0xf325c96cb515071dULL,  // seed 26
    0xc017130fc1f04a90ULL,  // seed 27
    0x3c471528141e451bULL,  // seed 28
    0xa94e5a45c9b43dc6ULL,  // seed 29
    0x464daef39892d8efULL,  // seed 30
    0xa128b48b23d3a415ULL,  // seed 31
    0x1fcb61390b44aa4aULL,  // seed 32
    0x837b5b0878bedb94ULL,  // seed 33
    0xf39bf414300394b9ULL,  // seed 34
    0xf28a38af6af4944eULL,  // seed 35
    0x59e1fb1c698b03d2ULL,  // seed 36
    0xc0705a9f33c20728ULL,  // seed 37
    0xbeec214c83e70b5bULL,  // seed 38
    0x86f8b4d3589cd64eULL,  // seed 39
    0x76b004cf4ef1b6a8ULL,  // seed 40
    0xd52588dbd77d4242ULL,  // seed 41
    0xc7ae4abc02eed94cULL,  // seed 42
    0xf69a4137557b5207ULL,  // seed 43
    0xdf7dd0b0a19a13d6ULL,  // seed 44
    0x5da0022ec39d3b26ULL,  // seed 45
    0x97cdf9eb4cd2e660ULL,  // seed 46
    0x792757917a32004eULL,  // seed 47
    0xa6e16d74a9370ea6ULL,  // seed 48
};

// Production vs. one global solve under identical batching: the entire
// event stream must match, so this comparison includes the processed-event
// count on top of the usual figures.
TEST(NetworkEquivalence, PartitionToggleInvariantAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    EXPECT_EQ(ScenarioDigest(RunScenario(seed), /*with_events=*/true),
              kGlobalSolveScenarioGolden[seed - 1])
        << "seed " << seed;
  }
}

// The certified state audited after every event of the churn scenarios
// (random capacities, some with a core): the maintained source shares and
// certificates always equal a from-scratch recomputation, and the audit
// leaves every scenario on its golden digest.
TEST(NetworkEquivalence, CertifiedStateAuditedAfterEveryEvent) {
  std::uint64_t solves = 0;
  std::uint64_t fallbacks = 0;
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    NetStats last;
    const ScenarioResult result = RunScenario(seed, [&](const Network& net) {
      ASSERT_EQ(oracle::AuditCertificates(net.solver()), "")
          << "seed " << seed << " flows " << net.active_flow_count();
      last = net.stats();
    });
    EXPECT_EQ(ScenarioDigest(result, /*with_events=*/true),
              kGlobalSolveScenarioGolden[seed - 1])
        << "seed " << seed;
    EXPECT_EQ(last.components_total, last.recomputes_run);
    solves += last.components_total;
    fallbacks += last.components_dirty;
  }
  EXPECT_GT(fallbacks, 0u);
  EXPECT_GT(solves, fallbacks);
}

// Batching must actually batch: strictly fewer solves run than were
// requested whenever bursts exist.
TEST(NetworkEquivalence, IncrementalPathBatchesRecomputes) {
  sim::Simulator sim;
  NetworkConfig config;
  config.num_nodes = 8;
  config.uplink_bps = 100.0;
  config.downlink_bps = 200.0;
  Network net(sim, config);
  sim.schedule_at(1.0, [&] {
    for (int i = 0; i < 7; ++i) {
      net.start_flow(NodeId(0), NodeId(static_cast<NodeId::value_type>(i + 1)),
                     700.0, [] {});
    }
  });
  sim.run();
  const NetStats& s = net.stats();
  EXPECT_GT(s.recomputes_requested, s.recomputes_run);
  EXPECT_EQ(s.recomputes_batched, s.recomputes_requested - s.recomputes_run);
  EXPECT_GT(s.wall_seconds, 0.0);
}

// ---------- experiment level ------------------------------------------------

// The rate-solver work counters are the only fields the retired paths may
// differ in; every other field is compared.
constexpr unsigned kCompared = testutil::kAllFields & ~testutil::kNetWork;

// A full experiment (apps, shuffle fan-out, DFS reads, manager rounds) must
// report identical figures to the seed's recompute-per-change rate path.
// Golden recorded at commit a7adfbd from this config with
// incremental_network = false and component_partitioned_network = false:
// digest over kCompared, plus that run's recompute counts.
TEST(NetworkEquivalence, ExperimentResultsIdenticalAcrossRatePaths) {
  namespace wl = custody::workload;
  wl::ExperimentConfig config;
  config.num_nodes = 12;
  config.kinds = {wl::WorkloadKind::kSort};  // shuffle-heavy: network matters
  config.trace.num_apps = 3;
  config.trace.jobs_per_app = 3;
  config.trace.files_per_kind = 4;
  config.seed = 1234;
  constexpr std::uint64_t kReferenceDigest = 0x699d198b3c338866ULL;
  constexpr std::uint64_t kReferenceRequested = 754;
  constexpr std::uint64_t kReferenceRun = 754;

  const wl::ExperimentResult inc = wl::RunExperiment(config);
  testutil::ExpectDigest(inc, kReferenceDigest, kCompared);
  // Same flow-set changes on both paths; the reference solved once per
  // change, batching strictly fewer times.
  EXPECT_EQ(inc.net_stats.recomputes_requested, kReferenceRequested);
  EXPECT_EQ(kReferenceRun, kReferenceRequested);
  EXPECT_LT(inc.net_stats.recomputes_run, kReferenceRun);
  EXPECT_GT(inc.net_stats.recomputes_batched, 0u);
}

// Golden rows recorded at commit a7adfbd from each (seed, manager) config
// below with component_partitioned_network = false — one global solve per
// batched recompute: digest over kCompared, plus that run's recomputes
// requested / run and rates rewritten.
struct GlobalSolveGolden {
  std::uint64_t seed;
  custody::cluster::ManagerKind manager;
  std::uint64_t digest;
  std::uint64_t recomputes_requested;
  std::uint64_t recomputes_run;
  std::uint64_t rates_changed;
};

using custody::cluster::ManagerKind;
constexpr GlobalSolveGolden kGlobalSolveGolden[] = {
    {5001, ManagerKind::kStandalone, 0xd7dbc228b65e0834ULL, 185, 71, 789},
    {5001, ManagerKind::kCustody, 0x6d8c3f3d2a3bf25cULL, 201, 90, 542},
    {5001, ManagerKind::kOffer, 0xcff4da8e51769069ULL, 209, 109, 388},
    {5001, ManagerKind::kPool, 0x6779620b862cce7fULL, 195, 77, 727},
    {5002, ManagerKind::kStandalone, 0xc07d2df24915bfbfULL, 285, 121, 1290},
    {5002, ManagerKind::kCustody, 0xec8deba24800c40eULL, 341, 187, 2370},
    {5002, ManagerKind::kOffer, 0x3f0969d410077136ULL, 278, 147, 1324},
    {5002, ManagerKind::kPool, 0x702b1272928a29e8ULL, 309, 168, 1569},
    {5003, ManagerKind::kStandalone, 0x5061a315b0ac5c63ULL, 81, 23, 169},
    {5003, ManagerKind::kCustody, 0x680002bae1ebb15cULL, 84, 35, 121},
    {5003, ManagerKind::kOffer, 0x464ff2ce5e8899e6ULL, 77, 36, 87},
    {5003, ManagerKind::kPool, 0x9ba0abc057fe7648ULL, 79, 34, 98},
    {5004, ManagerKind::kStandalone, 0x20c823f6cefbf3cdULL, 361, 190, 2370},
    {5004, ManagerKind::kCustody, 0x8df874e4f9849859ULL, 384, 220, 1787},
    {5004, ManagerKind::kOffer, 0x3b3c3ff0c40ff99eULL, 388, 236, 1621},
    {5004, ManagerKind::kPool, 0x3d0bc54866c6c9b6ULL, 360, 192, 1550},
    {5005, ManagerKind::kStandalone, 0x97b4872dca302997ULL, 256, 96, 973},
    {5005, ManagerKind::kCustody, 0xedf9e0417104488dULL, 257, 100, 1067},
    {5005, ManagerKind::kOffer, 0x2dd6ab6dd6ec9662ULL, 274, 137, 553},
    {5005, ManagerKind::kPool, 0xaa1ad03c0f452f3eULL, 288, 130, 784},
    {5006, ManagerKind::kStandalone, 0x5e4f15f0ec06b3ceULL, 425, 217, 2866},
    {5006, ManagerKind::kCustody, 0x0d3f6f2f2eb6e537ULL, 421, 224, 2672},
    {5006, ManagerKind::kOffer, 0x055c5608f491d024ULL, 414, 225, 1796},
    {5006, ManagerKind::kPool, 0x6c218c1c29c57fc2ULL, 431, 234, 2047},
    {5007, ManagerKind::kStandalone, 0x9c0265c5a0f1c33eULL, 139, 40, 431},
    {5007, ManagerKind::kCustody, 0x2bbae3afa5bf34afULL, 130, 41, 453},
    {5007, ManagerKind::kOffer, 0x94da9d3a1dbbf1aaULL, 157, 92, 111},
    {5007, ManagerKind::kPool, 0xcff6f78a4e13cfd8ULL, 144, 56, 478},
    {5008, ManagerKind::kStandalone, 0x1584e3c0dfb8f77fULL, 168, 65, 692},
    {5008, ManagerKind::kCustody, 0x8e7a71f3a77c99adULL, 183, 87, 664},
    {5008, ManagerKind::kOffer, 0x6b80d57eaa5c655fULL, 191, 94, 732},
    {5008, ManagerKind::kPool, 0xc5a802af3590e866ULL, 174, 71, 635},
    {5009, ManagerKind::kStandalone, 0xdd5b7ffb6fbaccb6ULL, 116, 33, 356},
    {5009, ManagerKind::kCustody, 0xc619314de74e7363ULL, 109, 42, 171},
    {5009, ManagerKind::kOffer, 0x8eecd36f849728f0ULL, 134, 62, 395},
    {5009, ManagerKind::kPool, 0x3fac113c392e47ffULL, 124, 38, 452},
    {5010, ManagerKind::kStandalone, 0xd25085985aab90c4ULL, 114, 29, 316},
    {5010, ManagerKind::kCustody, 0x40ee16f6bbd44da0ULL, 110, 35, 289},
    {5010, ManagerKind::kOffer, 0x92f04a609a61652cULL, 138, 84, 96},
    {5010, ManagerKind::kPool, 0xed224c9f8aa8082aULL, 125, 39, 375},
    {5011, ManagerKind::kStandalone, 0x92b95fe2ff020e7aULL, 419, 244, 4631},
    {5011, ManagerKind::kCustody, 0x40047a9570d914fcULL, 415, 257, 1594},
    {5011, ManagerKind::kOffer, 0x14fecb293b07728cULL, 380, 223, 2427},
    {5011, ManagerKind::kPool, 0xbb664735bdb77086ULL, 409, 237, 3002},
    {5012, ManagerKind::kStandalone, 0x8ee964afae732334ULL, 264, 110, 1219},
    {5012, ManagerKind::kCustody, 0xd0e1434ef47aef79ULL, 256, 126, 674},
    {5012, ManagerKind::kOffer, 0x7793cf88ade1541dULL, 288, 141, 1374},
    {5012, ManagerKind::kPool, 0x943114f014ea8732ULL, 277, 130, 1948},
    {5013, ManagerKind::kStandalone, 0x8fe4fab4cb7232afULL, 156, 50, 509},
    {5013, ManagerKind::kCustody, 0x92cfd72ec90d89fcULL, 158, 52, 564},
    {5013, ManagerKind::kOffer, 0x4488c737dc87ceacULL, 171, 83, 578},
    {5013, ManagerKind::kPool, 0x7f08fc6612278ca2ULL, 172, 67, 533},
    {5014, ManagerKind::kStandalone, 0xc428c8c76a4b3347ULL, 332, 161, 2085},
    {5014, ManagerKind::kCustody, 0xc226056b5d9ffad3ULL, 335, 176, 2043},
    {5014, ManagerKind::kOffer, 0xbc2b108f8e637f73ULL, 322, 187, 1513},
    {5014, ManagerKind::kPool, 0x6d35dfb55cd0dd40ULL, 348, 194, 2755},
    {5015, ManagerKind::kStandalone, 0x9600abeac637fe4aULL, 225, 103, 940},
    {5015, ManagerKind::kCustody, 0x1490534c59636e72ULL, 224, 117, 754},
    {5015, ManagerKind::kOffer, 0xdf5df0ec13fcdd0dULL, 239, 126, 926},
    {5015, ManagerKind::kPool, 0xf372f348d6a7eb27ULL, 231, 113, 827},
    {5016, ManagerKind::kStandalone, 0xa2faf8fdf356d34cULL, 247, 99, 1213},
    {5016, ManagerKind::kCustody, 0xc665ae5071c60488ULL, 258, 102, 918},
    {5016, ManagerKind::kOffer, 0x04a3d99f759d7947ULL, 272, 144, 351},
    {5016, ManagerKind::kPool, 0x3da700662bf7f888ULL, 251, 107, 897},
    {5017, ManagerKind::kStandalone, 0x715dfe4a1cd880eeULL, 251, 99, 1139},
    {5017, ManagerKind::kCustody, 0xf54da1e4af366090ULL, 286, 146, 1726},
    {5017, ManagerKind::kOffer, 0xd0c9c1548857b3a5ULL, 284, 156, 2066},
    {5017, ManagerKind::kPool, 0x085da3a5df3219e2ULL, 284, 137, 1230},
    {5018, ManagerKind::kStandalone, 0xc782fe248478ded5ULL, 169, 65, 778},
    {5018, ManagerKind::kCustody, 0x0173b9046110bf93ULL, 168, 69, 602},
    {5018, ManagerKind::kOffer, 0xbc27bd7806235b8dULL, 161, 58, 608},
    {5018, ManagerKind::kPool, 0xc6e0c2dca91b1914ULL, 174, 89, 818},
    {5019, ManagerKind::kStandalone, 0x95549644f6c8be5bULL, 376, 179, 2026},
    {5019, ManagerKind::kCustody, 0x6780516deb42775eULL, 421, 233, 1548},
    {5019, ManagerKind::kOffer, 0xb6daf1c99c227cb6ULL, 430, 231, 2017},
    {5019, ManagerKind::kPool, 0x051836d103818bb2ULL, 390, 172, 1753},
    {5020, ManagerKind::kStandalone, 0x166f98876af67d80ULL, 370, 172, 1986},
    {5020, ManagerKind::kCustody, 0x6f17db225a576428ULL, 400, 189, 2224},
    {5020, ManagerKind::kOffer, 0x4fcea07e3eab740bULL, 395, 206, 1641},
    {5020, ManagerKind::kPool, 0x7ccca3d7e92e877cULL, 401, 196, 1537},
};

// The acceptance sweep for the certified solver against one global solve
// per batched recompute: 20 seeds x all four managers, exact compare on
// every reported figure INCLUDING events_processed (same batching + same
// completion times => the simulators walk identical event sequences).
TEST(NetworkEquivalence, PartitionToggleInvariantAcrossManagersAndSeeds) {
  namespace wl = custody::workload;
  const ManagerKind kManagers[] = {ManagerKind::kStandalone,
                                   ManagerKind::kCustody, ManagerKind::kOffer,
                                   ManagerKind::kPool};
  std::size_t row = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const ManagerKind manager : kManagers) {
      wl::ExperimentConfig config;
      config.num_nodes = 10;
      config.manager = manager;
      config.kinds = {wl::WorkloadKind::kSort};  // shuffle-heavy
      config.trace.num_apps = 2;
      config.trace.jobs_per_app = 2;
      config.trace.files_per_kind = 3;
      config.seed = 5000 + seed;
      const GlobalSolveGolden& golden = kGlobalSolveGolden[row++];
      ASSERT_EQ(golden.seed, config.seed) << "golden table out of step";
      ASSERT_EQ(golden.manager, manager) << "golden table out of step";

      const wl::ExperimentResult part = wl::RunExperiment(config);
      const std::string at = "seed " + std::to_string(config.seed) +
                             " manager " + part.manager_name;
      SCOPED_TRACE(at);
      testutil::ExpectDigest(part, golden.digest, kCompared);
      // Identical flow churn and identical batching on both sides; only the
      // per-solve work differs.
      EXPECT_EQ(part.net_stats.recomputes_requested,
                golden.recomputes_requested);
      EXPECT_EQ(part.net_stats.recomputes_run, golden.recomputes_run);
      // Every batched recompute is one counted solve, and the certified
      // solver rewrites no more rates than the full-rewrite global solve.
      EXPECT_EQ(part.net_stats.components_total, part.net_stats.recomputes_run);
      EXPECT_LE(part.net_stats.rates_changed, golden.rates_changed);
    }
  }
}

}  // namespace
}  // namespace custody::net
