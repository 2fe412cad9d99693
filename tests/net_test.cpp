// Tests for the fluid network: max-min fairness properties, completion
// timing, contention, cancellation, and the core-bottleneck option.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "net/maxmin.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace custody::net {
namespace {

using custody::NodeId;
using custody::units::Gbps;
using custody::units::MB;

NetworkConfig SmallConfig(std::size_t nodes = 4) {
  NetworkConfig c;
  c.num_nodes = nodes;
  c.uplink_bps = 100.0;    // small round numbers for exact math
  c.downlink_bps = 200.0;
  return c;
}

// ---------- MaxMinFairRates: the fairness contract on the solver -----------

/// One solve over a fresh production solver: `flow_links[i]` lists the link
/// indices flow i traverses; returns one rate per flow, in input order.
std::vector<double> SolveRates(
    const std::vector<std::vector<std::size_t>>& flow_links,
    const std::vector<double>& capacity) {
  MaxMinFairSolver solver;
  solver.reset_links(capacity);
  for (std::size_t f = 0; f < flow_links.size(); ++f) {
    solver.add_flow(f, flow_links[f].data(), flow_links[f].size());
  }
  std::vector<double> rates;
  SolveDelta delta;
  solver.solve(rates, delta);
  rates.resize(flow_links.size());
  return rates;
}

TEST(MaxMinFairRates, SingleFlowGetsBottleneck) {
  const auto rates = SolveRates({{0, 1}}, {100.0, 200.0});
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates[0], 100.0);
}

TEST(MaxMinFairRates, EqualShareOnSharedLink) {
  // Two flows share link 0 (cap 100); each also uses a private link.
  const auto rates = SolveRates({{0, 1}, {0, 2}}, {100.0, 500.0, 500.0});
  EXPECT_DOUBLE_EQ(rates[0], 50.0);
  EXPECT_DOUBLE_EQ(rates[1], 50.0);
}

TEST(MaxMinFairRates, WaterFillingUnlocksLeftover) {
  // Flow 0 is pinned to 10 by its private link; flow 1 then gets the rest
  // of the shared link (100 - 10 = 90).
  const auto rates = SolveRates({{0, 1}, {1}}, {10.0, 100.0});
  EXPECT_DOUBLE_EQ(rates[0], 10.0);
  EXPECT_DOUBLE_EQ(rates[1], 90.0);
}

TEST(MaxMinFairRates, EmptyInput) {
  EXPECT_TRUE(SolveRates({}, {100.0}).empty());
}

// Regression: a flow with an empty link list was never frozen by any
// bottleneck, so `remaining` never reached 0 — in Release builds (assert
// compiled out) the solver spun forever.  Such a flow is unconstrained
// and must get unbounded rate without disturbing the others.
TEST(MaxMinFairRates, EmptyLinkListGetsUnboundedRate) {
  const auto rates = SolveRates({{}, {0}}, {100.0});
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_TRUE(std::isinf(rates[0]));
  EXPECT_GT(rates[0], 0.0);
  EXPECT_DOUBLE_EQ(rates[1], 100.0);
}

TEST(MaxMinFairRates, AllFlowsLinklessTerminates) {
  const auto rates = SolveRates({{}, {}, {}}, {50.0});
  ASSERT_EQ(rates.size(), 3u);
  for (double r : rates) EXPECT_TRUE(std::isinf(r));
}

// Property: no link over capacity, and allocation is max-min (no flow can
// grow without shrinking a flow of smaller-or-equal rate).
TEST(MaxMinFairRates, PropertyFeasibleAndMaxMin) {
  custody::Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const int num_links = rng.uniform_int(2, 8);
    std::vector<double> capacity(num_links);
    for (auto& c : capacity) c = rng.uniform(10.0, 100.0);
    const int num_flows = rng.uniform_int(1, 12);
    std::vector<std::vector<std::size_t>> flow_links(num_flows);
    for (auto& links : flow_links) {
      const int degree = rng.uniform_int(1, 2);
      for (int d = 0; d < degree; ++d) {
        const std::size_t l = rng.index(num_links);
        if (std::find(links.begin(), links.end(), l) == links.end()) {
          links.push_back(l);
        }
      }
    }
    const auto rates = SolveRates(flow_links, capacity);

    // Feasibility: per-link load <= capacity (small epsilon).
    std::vector<double> load(num_links, 0.0);
    for (int f = 0; f < num_flows; ++f) {
      for (std::size_t l : flow_links[f]) load[l] += rates[f];
    }
    for (int l = 0; l < num_links; ++l) {
      EXPECT_LE(load[l], capacity[l] + 1e-6);
    }

    // Max-min: every flow is bottlenecked by a saturated link on which it
    // has the maximal rate.
    for (int f = 0; f < num_flows; ++f) {
      bool has_bottleneck = false;
      for (std::size_t l : flow_links[f]) {
        if (load[l] < capacity[l] - 1e-6) continue;  // not saturated
        bool is_max_on_link = true;
        for (int g = 0; g < num_flows; ++g) {
          if (g == f) continue;
          const auto& gl = flow_links[g];
          if (std::find(gl.begin(), gl.end(), l) != gl.end() &&
              rates[g] > rates[f] + 1e-6) {
            is_max_on_link = false;
            break;
          }
        }
        if (is_max_on_link) {
          has_bottleneck = true;
          break;
        }
      }
      EXPECT_TRUE(has_bottleneck) << "flow " << f << " lacks a bottleneck";
    }
  }
}

// ---------- Network (simulated) --------------------------------------------

TEST(Network, SingleTransferTime) {
  sim::Simulator sim;
  Network net(sim, SmallConfig());
  double done_at = -1.0;
  net.start_flow(NodeId(0), NodeId(1), 1000.0, [&] { done_at = sim.now(); });
  sim.run();
  // Bottleneck is the 100 B/s uplink: 1000 bytes -> 10 seconds.
  EXPECT_NEAR(done_at, 10.0, 1e-9);
  EXPECT_NEAR(net.bytes_delivered(), 1000.0, 1e-6);
}

TEST(Network, TwoFlowsShareUplink) {
  sim::Simulator sim;
  Network net(sim, SmallConfig());
  double t1 = -1.0;
  double t2 = -1.0;
  net.start_flow(NodeId(0), NodeId(1), 1000.0, [&] { t1 = sim.now(); });
  net.start_flow(NodeId(0), NodeId(2), 1000.0, [&] { t2 = sim.now(); });
  sim.run();
  // Each flow gets 50 B/s while both are active: both finish at t = 20.
  EXPECT_NEAR(t1, 20.0, 1e-9);
  EXPECT_NEAR(t2, 20.0, 1e-9);
}

TEST(Network, RateIncreasesWhenCompetitorFinishes) {
  sim::Simulator sim;
  Network net(sim, SmallConfig());
  double t_small = -1.0;
  double t_large = -1.0;
  net.start_flow(NodeId(0), NodeId(1), 500.0, [&] { t_small = sim.now(); });
  net.start_flow(NodeId(0), NodeId(2), 1500.0, [&] { t_large = sim.now(); });
  sim.run();
  // Shared at 50 B/s until the small one finishes at t=10 (500 bytes);
  // the large one then has 1000 bytes left at 100 B/s -> finishes at 20.
  EXPECT_NEAR(t_small, 10.0, 1e-9);
  EXPECT_NEAR(t_large, 20.0, 1e-9);
}

TEST(Network, DownlinkCanBeTheBottleneck) {
  sim::Simulator sim;
  NetworkConfig config = SmallConfig();
  config.downlink_bps = 30.0;  // below the 100 B/s uplink
  Network net(sim, config);
  double t = -1.0;
  net.start_flow(NodeId(0), NodeId(1), 300.0, [&] { t = sim.now(); });
  sim.run();
  EXPECT_NEAR(t, 10.0, 1e-9);
}

TEST(Network, ManyToOneCongestsDownlink) {
  sim::Simulator sim;
  NetworkConfig config = SmallConfig(8);
  config.downlink_bps = 100.0;
  Network net(sim, config);
  int completed = 0;
  double last = 0.0;
  for (int s = 1; s <= 4; ++s) {
    net.start_flow(NodeId(static_cast<NodeId::value_type>(s)), NodeId(0),
                   250.0, [&] {
                     ++completed;
                     last = sim.now();
                   });
  }
  sim.run();
  EXPECT_EQ(completed, 4);
  // 4 x 250 bytes through a 100 B/s downlink: exactly 10 seconds.
  EXPECT_NEAR(last, 10.0, 1e-9);
}

TEST(Network, CoreBottleneckLimitsAggregate) {
  sim::Simulator sim;
  NetworkConfig config = SmallConfig(6);
  config.core_bps = 50.0;  // oversubscribed fabric
  Network net(sim, config);
  double t = -1.0;
  // Disjoint node pairs: without the core each flow would get 100 B/s.
  net.start_flow(NodeId(0), NodeId(1), 250.0, [&] { t = sim.now(); });
  net.start_flow(NodeId(2), NodeId(3), 250.0, [&] { t = sim.now(); });
  sim.run();
  // 25 B/s each through the 50 B/s core -> 10 s.
  EXPECT_NEAR(t, 10.0, 1e-9);
}

TEST(Network, CancelPreventsCompletion) {
  sim::Simulator sim;
  Network net(sim, SmallConfig());
  bool completed = false;
  const FlowId id =
      net.start_flow(NodeId(0), NodeId(1), 1000.0, [&] { completed = true; });
  sim.schedule(1.0, [&] { net.cancel_flow(id); });
  sim.run();
  EXPECT_FALSE(completed);
  EXPECT_FALSE(net.flow_active(id));
}

TEST(Network, CancelReleasesBandwidth) {
  sim::Simulator sim;
  Network net(sim, SmallConfig());
  double t = -1.0;
  const FlowId victim = net.start_flow(NodeId(0), NodeId(1), 10000.0, [] {});
  net.start_flow(NodeId(0), NodeId(2), 1000.0, [&] { t = sim.now(); });
  sim.schedule(2.0, [&] { net.cancel_flow(victim); });
  sim.run();
  // 2 s at 50 B/s = 100 bytes, then 900 bytes at 100 B/s = 9 s -> t = 11.
  EXPECT_NEAR(t, 11.0, 1e-9);
}

TEST(Network, CompletionCallbackCanStartNewFlow) {
  sim::Simulator sim;
  Network net(sim, SmallConfig());
  double t = -1.0;
  net.start_flow(NodeId(0), NodeId(1), 1000.0, [&] {
    net.start_flow(NodeId(1), NodeId(2), 1000.0, [&] { t = sim.now(); });
  });
  sim.run();
  EXPECT_NEAR(t, 20.0, 1e-9);
}

TEST(Network, RejectsInvalidFlows) {
  sim::Simulator sim;
  Network net(sim, SmallConfig());
  EXPECT_THROW(net.start_flow(NodeId(0), NodeId(0), 10.0, [] {}),
               std::invalid_argument);
  EXPECT_THROW(net.start_flow(NodeId(0), NodeId(1), 0.0, [] {}),
               std::invalid_argument);
}

TEST(Network, FlowIntrospection) {
  sim::Simulator sim;
  Network net(sim, SmallConfig());
  const FlowId id = net.start_flow(NodeId(0), NodeId(1), 1000.0, [] {});
  EXPECT_DOUBLE_EQ(net.flow_rate(id), 100.0);
  EXPECT_DOUBLE_EQ(net.flow_remaining(id), 1000.0);
  EXPECT_EQ(net.active_flow_count(), 1u);
  sim.run();
  EXPECT_EQ(net.active_flow_count(), 0u);
  EXPECT_DOUBLE_EQ(net.flow_rate(id), 0.0);
}

TEST(Network, UncontendedTransferTime) {
  sim::Simulator sim;
  NetworkConfig config;
  config.num_nodes = 2;
  config.uplink_bps = Gbps(2.0);
  config.downlink_bps = Gbps(40.0);
  Network net(sim, config);
  EXPECT_NEAR(net.uncontended_transfer_time(MB(128.0)),
              MB(128.0) / Gbps(2.0), 1e-12);
}

// ---------- same-timestamp batching ----------------------------------------

TEST(Network, FanOutInOneEventBatchesToOneRecompute) {
  sim::Simulator sim;
  Network net(sim, SmallConfig(8));
  constexpr int kFlows = 6;
  std::vector<double> done_at(kFlows, -1.0);
  std::vector<double> rates;
  sim.schedule(1.0, [&] {
    std::vector<FlowId> ids;
    for (int i = 0; i < kFlows; ++i) {
      ids.push_back(net.start_flow(NodeId(0),
                                   NodeId(static_cast<NodeId::value_type>(i + 1)),
                                   600.0, [&done_at, &sim, i] {
                                     done_at[static_cast<std::size_t>(i)] =
                                         sim.now();
                                   }));
    }
    // Observing a rate mid-burst flushes the pending recompute: all flows
    // must already see their final (post-burst) fair share.
    for (const FlowId id : ids) rates.push_back(net.flow_rate(id));
  });
  sim.run();
  ASSERT_EQ(rates.size(), static_cast<std::size_t>(kFlows));
  for (double r : rates) EXPECT_DOUBLE_EQ(r, 100.0 / kFlows);
  // 600 bytes at 100/6 B/s -> 36 s, all identical.
  for (double t : done_at) EXPECT_NEAR(t, 37.0, 1e-9);
  // 6 flow starts request 6 recomputes and the single completion event (all
  // flows finish together) requests one more; batching collapses them to
  // exactly one solve per distinct timestamp.
  const NetStats& stats = net.stats();
  EXPECT_EQ(stats.recomputes_requested, 7u);
  EXPECT_EQ(stats.recomputes_run, 2u);
  EXPECT_EQ(stats.recomputes_batched,
            stats.recomputes_requested - stats.recomputes_run);
  // Both solves certified every flow at the uplink share: no fallback.
  EXPECT_EQ(stats.components_total, 2u);
  EXPECT_EQ(stats.components_dirty, 0u);
  EXPECT_EQ(stats.rounds, 0u);
}

TEST(Network, FanOutIdenticalWithAndWithoutBatching) {
  // N flows started in one event must produce the completion times the
  // seed's recompute-per-change path produced.  Golden recorded at commit
  // a7adfbd from this scenario with NetworkConfig::incremental = false and
  // component_partitioned = false (hex-float literals: exact bits).
  constexpr double kReferenceDone[9] = {
      0x1.3p+3,  0x1.18p+4, 0x1.88p+4, 0x1.e8p+4, 0x1.1cp+5,
      0x1.3cp+5, 0x1.54p+5, 0x1.64p+5, 0x1.6cp+5};
  sim::Simulator sim;
  Network net(sim, SmallConfig(10));
  std::vector<double> done(9, -1.0);
  sim.schedule(0.5, [&] {
    for (int i = 0; i < 9; ++i) {
      net.start_flow(NodeId(0), NodeId(static_cast<NodeId::value_type>(i + 1)),
                     100.0 * (i + 1), [&done, &sim, i] {
                       done[static_cast<std::size_t>(i)] = sim.now();
                     });
    }
  });
  sim.run();
  for (std::size_t i = 0; i < done.size(); ++i) {
    EXPECT_EQ(done[i], kReferenceDone[i]) << "flow " << i;  // bit-identical
  }
}

TEST(Network, CancelInsideCompletionCallback) {
  // A completion callback cancelling a sibling flow mid-burst must not
  // disturb the remaining flows.  The completion times must also equal the
  // seed's recompute-per-change path's, recorded at commit a7adfbd from
  // this scenario with NetworkConfig::incremental = false and
  // component_partitioned = false: 0x1.8p+1 (3 s) and 0x1.8p+2 (6 s).
  sim::Simulator sim;
  Network net(sim, SmallConfig(8));
  FlowId victim;
  bool victim_completed = false;
  double survivor_done = -1.0;
  double first_done = -1.0;
  // Same uplink: 3 flows at 100/3 B/s each.
  net.start_flow(NodeId(0), NodeId(1), 100.0, [&] {
    first_done = sim.now();
    net.cancel_flow(victim);
  });
  victim =
      net.start_flow(NodeId(0), NodeId(2), 900.0, [&] { victim_completed = true; });
  net.start_flow(NodeId(0), NodeId(3), 400.0,
                 [&] { survivor_done = sim.now(); });
  sim.run();
  EXPECT_FALSE(victim_completed);
  // Survivor: 3 s at 100/3 B/s = 100 bytes, then 300 bytes alone at
  // 100 B/s -> done at t = 6.
  EXPECT_EQ(first_done, 0x1.8p+1);
  EXPECT_EQ(survivor_done, 0x1.8p+2);
  EXPECT_EQ(net.active_flow_count(), 0u);
}

// ---------- cancel churn ----------------------------------------------------

TEST(Network, CancelChurnKeepsAccountingExact) {
  // Regression for the O(F) cancel path: heavy interleaved start/cancel
  // churn (head, tail, middle, repeated and unknown ids) must keep slot
  // reuse, rates and delivered-byte accounting exact.
  sim::Simulator sim;
  Network net(sim, SmallConfig(16));
  custody::Rng rng(7);
  std::vector<FlowId> live;
  int completed = 0;
  double expected_bytes = 0.0;
  for (int wave = 0; wave < 20; ++wave) {
    sim.schedule(5.0 * wave, [&, wave] {
      // Cancel about half the currently live flows in random order.
      rng.shuffle(live);
      const std::size_t keep = live.size() / 2;
      while (live.size() > keep) {
        net.cancel_flow(live.back());
        net.cancel_flow(live.back());  // double-cancel: silent no-op
        live.pop_back();
      }
      net.cancel_flow(FlowId(9999999 + wave));  // unknown id: silent no-op
      for (int i = 0; i < 8; ++i) {
        const auto src = static_cast<NodeId::value_type>(rng.index(16));
        auto dst = static_cast<NodeId::value_type>(rng.index(16));
        if (dst == src) dst = (dst + 1) % 16;
        const double bytes = rng.uniform(50.0, 500.0);
        live.push_back(net.start_flow(NodeId(src), NodeId(dst), bytes,
                                      [&completed] { ++completed; }));
      }
    });
  }
  sim.schedule(100.0 + 1e-9, [&] {
    // Let every survivor run to completion from here on.
    for (const FlowId id : live) {
      expected_bytes += net.flow_remaining(id);
    }
  });
  sim.run();
  EXPECT_EQ(net.active_flow_count(), 0u);
  EXPECT_GT(completed, 0);
  // Everything still live at the last wave eventually completed, and the
  // delivered-byte ledger covered at least those remaining bytes.
  EXPECT_GE(net.bytes_delivered(), expected_bytes - 1e-6);
}

// ---------- stranded-flow guard ---------------------------------------------

TEST(AllFlowsStranded, DetectsZeroRateFlowSets) {
  EXPECT_FALSE(AllFlowsStranded(0, 0.0));  // empty set: nothing stranded
  EXPECT_TRUE(AllFlowsStranded(1, 0.0));
  EXPECT_TRUE(AllFlowsStranded(5, 0.0));
  EXPECT_TRUE(AllFlowsStranded(2, -1.0));  // defensive: negative is stranded
  EXPECT_FALSE(AllFlowsStranded(1, std::numeric_limits<double>::denorm_min()));
  EXPECT_FALSE(AllFlowsStranded(3, 100.0));
}

TEST(Network, StrandedFlowsFailLoudly) {
  // rem_cap clamp-to-zero rounding path: splitting the smallest subnormal
  // capacity between two flows rounds each share to exactly 0.  Without the
  // guard no completion event can be armed and the run hangs silently.
  NetworkConfig config = SmallConfig(4);
  config.uplink_bps = std::numeric_limits<double>::denorm_min();

  {  // the batched recompute flushes at the next step.
    sim::Simulator sim;
    Network net(sim, config);
    net.start_flow(NodeId(0), NodeId(1), 10.0, [] {});
    net.start_flow(NodeId(0), NodeId(2), 10.0, [] {});
    EXPECT_THROW(sim.run(), std::runtime_error);
  }
  {  // observing a rate flushes too, and must surface the same failure.
    sim::Simulator sim;
    Network net(sim, config);
    const FlowId a = net.start_flow(NodeId(0), NodeId(1), 10.0, [] {});
    net.start_flow(NodeId(0), NodeId(2), 10.0, [] {});
    EXPECT_THROW((void)net.flow_rate(a), std::runtime_error);
  }
}

TEST(Network, SingleSubnormalRateFlowIsNotStranded) {
  // One flow on the subnormal uplink keeps a positive (subnormal) rate, so
  // the guard must not trip; cancel it rather than simulate the eon-long
  // transfer.
  NetworkConfig config = SmallConfig(4);
  config.uplink_bps = std::numeric_limits<double>::denorm_min();
  sim::Simulator sim;
  Network net(sim, config);
  const FlowId id = net.start_flow(NodeId(0), NodeId(1), 10.0, [] {});
  EXPECT_GT(net.flow_rate(id), 0.0);
  net.cancel_flow(id);
  sim.run();
  EXPECT_EQ(net.active_flow_count(), 0u);
}

TEST(Network, TinyResidualBytesDoNotStallTheClock) {
  // Regression: leftover rounding bytes at multi-GB/s rates used to map to
  // delays below the double-precision tick and spin the simulator forever.
  sim::Simulator sim;
  NetworkConfig config;
  config.num_nodes = 4;
  config.uplink_bps = Gbps(2.0);
  config.downlink_bps = Gbps(40.0);
  Network net(sim, config);
  int completed = 0;
  // Stagger flows so rates change mid-transfer and residuals accumulate.
  for (int i = 0; i < 40; ++i) {
    sim.schedule(0.37 * i + 60.0, [&net, &sim, &completed, i] {
      net.start_flow(NodeId(static_cast<NodeId::value_type>(i % 3)),
                     NodeId(3), MB(128.0) * (1.0 + 0.013 * i),
                     [&completed] { ++completed; });
    });
  }
  sim.run();
  EXPECT_EQ(completed, 40);
}

TEST(Network, FlowsCompleteAtSteadyStateHorizons) {
  // Regression for long horizons: the completion check forgives up to
  // rate * epsilon residual bytes, but the residual left by
  // `elapsed * rate` rounding grows with the clock (one ulp of t ~ 1e9 is
  // ~2.4e-7 s of traffic).  With the historical absolute 1e-9 tolerance
  // the check kept missing at large t and re-armed sub-ulp completion
  // events forever; TimeEpsilonAt(now) scales with the clock and absorbs
  // the residual.  Same staggered-contention shape as the small-time
  // residual test, pushed out to steady-state timestamps.
  for (const double t0 : {1400734916.308764, 1364094544598.6082}) {
    sim::Simulator sim;
    NetworkConfig config;
    config.num_nodes = 4;
    config.uplink_bps = Gbps(2.0);
    config.downlink_bps = Gbps(40.0);
    Network net(sim, config);
    int completed = 0;
    for (int i = 0; i < 25; ++i) {
      sim.schedule(t0 + 0.37 * i, [&net, &completed, i] {
        net.start_flow(NodeId(static_cast<NodeId::value_type>(i % 3)),
                       NodeId(3), MB(96.0) * (1.0 + 0.013 * i),
                       [&completed] { ++completed; });
      });
    }
    sim.run();
    EXPECT_EQ(completed, 25) << "t0=" << t0;
    EXPECT_EQ(net.active_flow_count(), 0u);
    EXPECT_GT(sim.now(), t0);
  }
}

}  // namespace
}  // namespace custody::net
