// Tests for the Custody allocation algorithms (Algorithms 1 and 2),
// including the paper's motivating scenarios of Figs. 1, 3 and 4 and
// property checks of the capacity constraints (2)-(4).  The property suites
// compare the production round (idle index + MINLOCALITY tracker) against
// the seed's linear-scan round, kept as the test oracle in tests/oracle/.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/rng.h"
#include "core/allocator.h"
#include "core/idle_index.h"
#include "oracle/alloc_oracle.h"

namespace custody::core {
namespace {

/// Simple block->nodes oracle backed by a map.
class Locations {
 public:
  void set(BlockId block, std::vector<NodeId> nodes) {
    map_[block] = std::move(nodes);
  }
  BlockLocationsFn fn() const {
    return [this](BlockId b) -> const std::vector<NodeId>& {
      static const std::vector<NodeId> kEmpty;
      auto it = map_.find(b);
      return it == map_.end() ? kEmpty : it->second;
    };
  }

 private:
  std::map<BlockId, std::vector<NodeId>> map_;
};

/// A production round view over a fresh idle index holding `execs` (unique
/// ids) — the claim_on / claim_any / has_on contract of one round.
class IdleRound {
 public:
  explicit IdleRound(const std::vector<ExecutorInfo>& execs)
      : index_(Bound(execs, true), Bound(execs, false)),
        view_(Load(index_, execs)) {}
  IdleExecutorIndex::RoundView& view() { return view_; }

 private:
  static std::size_t Bound(const std::vector<ExecutorInfo>& execs,
                           bool executors) {
    std::size_t bound = 0;
    for (const ExecutorInfo& e : execs) {
      bound = std::max<std::size_t>(
          bound, (executors ? e.id.value() : e.node.value()) + 1);
    }
    return bound;
  }
  static IdleExecutorIndex& Load(IdleExecutorIndex& index,
                                 const std::vector<ExecutorInfo>& execs) {
    for (const ExecutorInfo& e : execs) index.add(e.id, e.node);
    return index;
  }

  IdleExecutorIndex index_;
  IdleExecutorIndex::RoundView view_;
};

/// Runs `body` against the production round view and against the seed
/// oracle pool over the same executors: both must honour the contract.
template <class Body>
void ForBothPools(const std::vector<ExecutorInfo>& execs, Body body) {
  {
    SCOPED_TRACE("production round view");
    IdleRound round(execs);
    body(round.view());
  }
  {
    SCOPED_TRACE("seed oracle pool");
    oracle::IdleExecutorPool pool(execs);
    body(pool);
  }
}

std::map<ExecutorId, AppId> ByExecutor(const AllocationResult& result) {
  std::map<ExecutorId, AppId> out;
  for (const Assignment& a : result.assignments) {
    EXPECT_EQ(out.count(a.exec), 0u) << "executor assigned twice";
    out[a.exec] = a.app;
  }
  return out;
}

// ---------- inter-app ordering ----------------------------------------------

TEST(MinLocality, OrdersByJobFractionThenTaskFraction) {
  AppAllocState a;
  a.app = AppId(0);
  a.projected = {1, 2, 5, 10};  // 50% jobs
  AppAllocState b;
  b.app = AppId(1);
  b.projected = {1, 4, 5, 10};  // 25% jobs
  EXPECT_TRUE(MinLocalityLess(b, a));
  EXPECT_FALSE(MinLocalityLess(a, b));

  b.projected = {1, 2, 4, 10};  // same jobs %, fewer local tasks
  EXPECT_TRUE(MinLocalityLess(b, a));
}

TEST(MinLocality, TieBrokenByAppId) {
  AppAllocState a;
  a.app = AppId(3);
  AppAllocState b;
  b.app = AppId(1);
  EXPECT_TRUE(MinLocalityLess(b, a));
}

TEST(MinLocality, PickSkipsAppsAtBudget) {
  AppAllocState a;
  a.app = AppId(0);
  a.budget = 1;
  a.held = 1;  // full
  AppAllocState b;
  b.app = AppId(1);
  b.budget = 2;
  b.held = 0;
  b.projected = {5, 10, 5, 10};  // worse locality than a, but a is full
  const std::vector<AppAllocState> apps{a, b};
  const auto pick = MinLocalityTracker(apps).min();
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 1u);
}

TEST(MinLocality, PickReturnsNulloptWhenAllFull) {
  AppAllocState a;
  a.budget = 0;
  const std::vector<AppAllocState> apps{a};
  EXPECT_FALSE(MinLocalityTracker(apps).min().has_value());
}

TEST(MinLocality, MakeAllocStateProjectsPendingJobs) {
  AppDemand demand;
  demand.app = AppId(2);
  demand.budget = 4;
  demand.held = 1;
  demand.locality = {1, 2, 8, 16};
  JobDemand job;
  job.job = 9;
  job.total_tasks = 4;
  job.unsatisfied = {{100, BlockId(0)}, {101, BlockId(1)}};
  demand.jobs.push_back(job);

  const auto state = MakeAllocState(demand, 0);
  EXPECT_EQ(state.projected.total_jobs, 3);
  EXPECT_EQ(state.projected.total_tasks, 20);
  // 2 of the pending job's 4 tasks are already covered by held executors.
  EXPECT_EQ(state.projected.local_tasks, 10);
  EXPECT_EQ(state.projected.local_jobs, 1);  // pending job not yet local
}

// ---------- job priority ----------------------------------------------------

TEST(JobPriority, FewestUnsatisfiedFirst) {
  JobDemand small;
  small.job = 2;
  small.unsatisfied = {{1, BlockId(0)}};
  JobDemand big;
  big.job = 1;
  big.unsatisfied = {{2, BlockId(0)}, {3, BlockId(1)}};
  EXPECT_TRUE(JobPriorityLess(small, big));
  EXPECT_FALSE(JobPriorityLess(big, small));
}

TEST(JobPriority, TieBrokenByJobUid) {
  JobDemand a;
  a.job = 5;
  JobDemand b;
  b.job = 3;
  EXPECT_TRUE(JobPriorityLess(b, a));
}

// ---------- idle pool contract ----------------------------------------------

TEST(IdlePool, ClaimOnMatchesNode) {
  IdleRound round({{ExecutorId(3), NodeId(1)}, {ExecutorId(1), NodeId(2)}});
  auto& pool = round.view();
  EXPECT_TRUE(pool.has_on({NodeId(2)}));
  const ExecutorId claimed = pool.claim_on({NodeId(2)});
  EXPECT_EQ(claimed, ExecutorId(1));
  EXPECT_FALSE(pool.has_on({NodeId(2)}));
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_FALSE(pool.claim_on({NodeId(2)}).valid());
}

TEST(IdlePool, ClaimAnyDrainsPool) {
  IdleRound round({{ExecutorId(0), NodeId(0)}, {ExecutorId(1), NodeId(1)}});
  auto& pool = round.view();
  std::set<ExecutorId> seen;
  seen.insert(pool.claim_any());
  seen.insert(pool.claim_any());
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_TRUE(pool.empty());
  EXPECT_FALSE(pool.claim_any().valid());
}

// The index's per-node lists and rank-space union-find must reproduce the
// seed's linear scans' claim order exactly, under arbitrary interleavings
// of claim_on/claim_any.
TEST(IdlePool, IndexedMatchesReferenceScanOrder) {
  Rng rng(2024);
  for (int trial = 0; trial < 30; ++trial) {
    const int num_nodes = rng.uniform_int(1, 10);
    const int num_execs = rng.uniform_int(0, 30);
    std::vector<ExecutorInfo> execs;
    for (int e = 0; e < num_execs; ++e) {
      execs.push_back({ExecutorId(static_cast<ExecutorId::value_type>(e)),
                       NodeId(static_cast<NodeId::value_type>(
                           rng.index(num_nodes)))});
    }
    IdleRound round(execs);
    auto& indexed = round.view();
    oracle::IdleExecutorPool reference(execs);
    for (int step = 0; step < num_execs + 5; ++step) {
      if (rng.uniform(0.0, 1.0) < 0.5) {
        std::vector<NodeId> nodes;
        const int want = rng.uniform_int(1, 3);
        for (int k = 0; k < want; ++k) {
          nodes.push_back(NodeId(static_cast<NodeId::value_type>(
              rng.index(num_nodes + 2))));  // may name nodes with no executor
        }
        ASSERT_EQ(indexed.has_on(nodes), reference.has_on(nodes));
        ASSERT_EQ(indexed.claim_on(nodes), reference.claim_on(nodes));
      } else {
        ASSERT_EQ(indexed.claim_any(), reference.claim_any());
      }
      ASSERT_EQ(indexed.size(), reference.size());
    }
  }
}

TEST(IdlePool, ScannedCounterGrowsSlowerWhenIndexed) {
  std::vector<ExecutorInfo> execs;
  for (int e = 0; e < 512; ++e) {
    execs.push_back({ExecutorId(static_cast<ExecutorId::value_type>(e)),
                     NodeId(static_cast<NodeId::value_type>(e / 2))});
  }
  IdleRound round(execs);
  auto& indexed = round.view();
  oracle::IdleExecutorPool reference(execs);
  // Probing a node near the tail repeatedly: O(replicas) vs O(pool).
  const std::vector<NodeId> tail{NodeId(255)};
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(indexed.has_on(tail));
    ASSERT_TRUE(reference.has_on(tail));
  }
  EXPECT_LT(indexed.scanned() * 10, reference.scanned());
}

// ---------- idle pool edge cases --------------------------------------------

// claim_any rotates: each claim resumes at the slot after the previous one,
// and the modulo wrap after claiming the last slot must leave the cursor in
// a valid state (an exhausted pool then reports invalid, not a crash).
TEST(IdlePool, ClaimAnyCursorRotatesAndWrapsAtEnd) {
  ForBothPools({{ExecutorId(0), NodeId(0)},
                {ExecutorId(1), NodeId(1)},
                {ExecutorId(2), NodeId(2)},
                {ExecutorId(3), NodeId(0)}},
               [](auto& pool) {
                 EXPECT_EQ(pool.claim_any(), ExecutorId(0));  // cursor -> 1
                 // claim_on does not move the cursor; it takes slot 3 out
                 // from under a future claim_any sweep.
                 EXPECT_EQ(pool.claim_on({NodeId(0)}), ExecutorId(3));
                 EXPECT_EQ(pool.claim_any(), ExecutorId(1));  // cursor -> 2
                 EXPECT_EQ(pool.claim_any(), ExecutorId(2));  // wraps past 3
                 EXPECT_TRUE(pool.empty());
                 EXPECT_FALSE(pool.claim_any().valid());
                 EXPECT_FALSE(pool.claim_any().valid());  // cursor stable
               });
}

// claim_on against a node whose executors have all been taken must fall
// through to invalid, and the per-node head cursor must not resurrect a
// taken executor on later queries.
TEST(IdlePool, ClaimOnExhaustedNodeReturnsInvalid) {
  ForBothPools({{ExecutorId(0), NodeId(1)},
                {ExecutorId(1), NodeId(1)},
                {ExecutorId(2), NodeId(2)}},
               [](auto& pool) {
                 EXPECT_EQ(pool.claim_on({NodeId(1)}), ExecutorId(0));
                 EXPECT_EQ(pool.claim_on({NodeId(1)}), ExecutorId(1));
                 EXPECT_FALSE(pool.has_on({NodeId(1)}));
                 EXPECT_FALSE(pool.claim_on({NodeId(1)}).valid());
                 // The other node is untouched; a multi-node query skips
                 // the dry node.
                 EXPECT_EQ(pool.claim_on({NodeId(1), NodeId(2)}),
                           ExecutorId(2));
                 EXPECT_TRUE(pool.empty());
               });
}

// has_on must flip exactly when the last executor on a queried node is
// taken — including when claim_any (not claim_on) is what takes it.
TEST(IdlePool, HasOnTracksInterleavedTakes) {
  ForBothPools({{ExecutorId(0), NodeId(0)},
                {ExecutorId(1), NodeId(0)},
                {ExecutorId(2), NodeId(1)}},
               [](auto& pool) {
                 EXPECT_TRUE(pool.has_on({NodeId(0)}));
                 EXPECT_EQ(pool.claim_any(), ExecutorId(0));  // node 0 head
                 EXPECT_TRUE(pool.has_on({NodeId(0)}));  // executor 1 left
                 EXPECT_EQ(pool.claim_any(), ExecutorId(1));
                 EXPECT_FALSE(pool.has_on({NodeId(0)}));
                 EXPECT_TRUE(pool.has_on({NodeId(0), NodeId(1)}));
                 EXPECT_EQ(pool.claim_on({NodeId(1)}), ExecutorId(2));
                 EXPECT_FALSE(pool.has_on({NodeId(0), NodeId(1)}));
               });
}

// Nodes with no executors — including node values beyond anything in the
// pool — must hit the "no head" sentinel path and report invalid/false
// rather than touching out-of-range state.
TEST(IdlePool, UnknownAndEmptyNodeQueriesAreInvalid) {
  ForBothPools({{ExecutorId(0), NodeId(3)}}, [](auto& pool) {
    EXPECT_FALSE(pool.has_on({}));
    EXPECT_FALSE(pool.claim_on({}).valid());
    EXPECT_FALSE(pool.has_on({NodeId(0)}));  // node with no executor
    EXPECT_FALSE(pool.claim_on({NodeId(0)}).valid());
    EXPECT_FALSE(pool.has_on({NodeId(99)}));  // beyond any pool node
    EXPECT_FALSE(pool.claim_on({NodeId(99)}).valid());
    EXPECT_EQ(pool.size(), 1u);  // nothing was consumed
    EXPECT_EQ(pool.claim_on({NodeId(99), NodeId(3)}), ExecutorId(0));
  });
}

// ---------- persistent idle index -------------------------------------------

// Property: a RoundView over the persistent index must reproduce the seed
// oracle's per-round linear pool claim-for-claim, across rounds separated by
// random add/remove churn, and dropping a view without applying its claims
// must leave the index untouched.
TEST(IdleIndex, RoundViewMatchesPoolAcrossMutationsAndRounds) {
  Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    const int num_nodes = rng.uniform_int(1, 8);
    const int num_execs = rng.uniform_int(0, 40);
    // Fixed executor -> node homes, like a real cluster.
    std::vector<NodeId> home;
    for (int e = 0; e < num_execs; ++e) {
      home.push_back(NodeId(static_cast<NodeId::value_type>(
          rng.index(num_nodes))));
    }
    IdleExecutorIndex index(static_cast<std::size_t>(num_execs),
                            static_cast<std::size_t>(num_nodes));
    std::vector<bool> idle(static_cast<std::size_t>(num_execs), false);
    for (int e = 0; e < num_execs; ++e) {
      if (rng.uniform(0.0, 1.0) < 0.7) {
        index.add(ExecutorId(static_cast<ExecutorId::value_type>(e)), home[e]);
        idle[static_cast<std::size_t>(e)] = true;
      }
    }

    for (int round = 0; round < 8; ++round) {
      std::vector<ExecutorInfo> infos;  // ascending id, like idle_executors()
      for (int e = 0; e < num_execs; ++e) {
        if (idle[static_cast<std::size_t>(e)]) {
          infos.push_back({ExecutorId(static_cast<ExecutorId::value_type>(e)),
                           home[static_cast<std::size_t>(e)]});
        }
      }
      ASSERT_EQ(index.count(), infos.size());
      std::vector<ExecutorId> ids;
      index.append_ids(ids);
      ASSERT_EQ(ids.size(), infos.size());
      for (std::size_t i = 0; i < ids.size(); ++i) {
        ASSERT_EQ(ids[i], infos[i].id);
      }

      oracle::IdleExecutorPool reference(infos);
      std::vector<ExecutorId> claimed;
      {
        IdleExecutorIndex::RoundView view(index);
        for (int step = 0; step < num_execs + 4; ++step) {
          if (rng.uniform(0.0, 1.0) < 0.5) {
            std::vector<NodeId> nodes;
            const int want = rng.uniform_int(1, 3);
            for (int k = 0; k < want; ++k) {
              nodes.push_back(NodeId(static_cast<NodeId::value_type>(
                  rng.index(num_nodes + 2))));  // may name unknown nodes
            }
            ASSERT_EQ(view.has_on(nodes), reference.has_on(nodes));
            const ExecutorId got = view.claim_on(nodes);
            ASSERT_EQ(got, reference.claim_on(nodes));
            if (got.valid()) claimed.push_back(got);
          } else {
            const ExecutorId got = view.claim_any();
            ASSERT_EQ(got, reference.claim_any());
            if (got.valid()) claimed.push_back(got);
          }
          ASSERT_EQ(view.size(), reference.size());
          ASSERT_EQ(view.empty(), reference.empty());
        }
      }
      // The dropped view left the index untouched.
      ASSERT_EQ(index.count(), infos.size());

      // Now apply the round: claimed executors leave the idle set, then
      // random churn (releases add, grants remove) before the next round.
      for (const ExecutorId e : claimed) {
        index.remove(e, home[e.value()]);
        idle[e.value()] = false;
      }
      for (int e = 0; e < num_execs; ++e) {
        if (rng.uniform(0.0, 1.0) >= 0.3) continue;
        const auto id = ExecutorId(static_cast<ExecutorId::value_type>(e));
        if (idle[static_cast<std::size_t>(e)]) {
          index.remove(id, home[static_cast<std::size_t>(e)]);
          idle[static_cast<std::size_t>(e)] = false;
        } else {
          index.add(id, home[static_cast<std::size_t>(e)]);
          idle[static_cast<std::size_t>(e)] = true;
        }
      }
    }
  }
}

// Property: AllocateOnIndex over a persistent index must produce
// byte-identical results to the seed oracle's round over a materialized
// idle vector, across seeds, shapes and ablation combinations — and must
// leave the index itself unchanged (assignments are applied by the caller).
TEST(CustodyAllocator, PropertyAllocateOnIndexMatchesReferenceAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed * 6151);
    const int num_nodes = rng.uniform_int(2, 40);
    const int num_execs = rng.uniform_int(1, 80);
    const int num_blocks = rng.uniform_int(1, 60);
    Locations loc;
    for (int b = 0; b < num_blocks; ++b) {
      std::vector<NodeId> nodes;
      const int replicas = rng.uniform_int(1, std::min(3, num_nodes));
      while (static_cast<int>(nodes.size()) < replicas) {
        const NodeId n(static_cast<NodeId::value_type>(rng.index(num_nodes)));
        if (std::find(nodes.begin(), nodes.end(), n) == nodes.end()) {
          nodes.push_back(n);
        }
      }
      loc.set(BlockId(static_cast<BlockId::value_type>(b)), nodes);
    }
    IdleExecutorIndex index(static_cast<std::size_t>(num_execs),
                            static_cast<std::size_t>(num_nodes));
    std::vector<ExecutorInfo> idle;
    for (int e = 0; e < num_execs; ++e) {
      const NodeId node(static_cast<NodeId::value_type>(rng.index(num_nodes)));
      if (rng.uniform(0.0, 1.0) < 0.2) continue;  // some executors busy
      idle.push_back({ExecutorId(static_cast<ExecutorId::value_type>(e)),
                      node});
      index.add(ExecutorId(static_cast<ExecutorId::value_type>(e)), node);
    }
    std::vector<AppDemand> demands(rng.uniform_int(1, 6));
    TaskUid next_task = 0;
    for (std::size_t a = 0; a < demands.size(); ++a) {
      demands[a].app = AppId(static_cast<AppId::value_type>(a));
      demands[a].budget = rng.uniform_int(0, num_execs);
      demands[a].held = rng.uniform_int(0, 2);
      demands[a].locality = {rng.uniform_int(0, 5), rng.uniform_int(5, 10),
                             rng.uniform_int(0, 40), rng.uniform_int(40, 80)};
      const int jobs = rng.uniform_int(0, 6);
      for (int j = 0; j < jobs; ++j) {
        JobDemand job;
        job.job = next_task * 100 + static_cast<JobUid>(j);
        const int tasks = rng.uniform_int(1, 10);
        job.total_tasks = tasks + rng.uniform_int(0, 2);
        for (int t = 0; t < tasks; ++t) {
          job.unsatisfied.push_back(
              {next_task++, BlockId(static_cast<BlockId::value_type>(
                                rng.index(num_blocks)))});
        }
        demands[a].jobs.push_back(job);
      }
    }

    for (const bool locality_fair : {true, false}) {
      for (const bool priority_jobs : {true, false}) {
        AllocatorOptions options;
        options.locality_fair = locality_fair;
        options.priority_jobs = priority_jobs;

        const std::size_t count_before = index.count();
        const auto a =
            CustodyAllocator::AllocateOnIndex(demands, index, loc.fn(),
                                              options);
        EXPECT_EQ(index.count(), count_before) << "seed " << seed;
        const auto b = oracle::Allocate(demands, idle, loc.fn(), options);
        ASSERT_EQ(a.assignments.size(), b.assignments.size())
            << "seed " << seed << " lf=" << locality_fair
            << " pj=" << priority_jobs;
        for (std::size_t i = 0; i < a.assignments.size(); ++i) {
          ASSERT_EQ(a.assignments[i].exec, b.assignments[i].exec)
              << "seed " << seed << " assignment " << i;
          ASSERT_EQ(a.assignments[i].app, b.assignments[i].app)
              << "seed " << seed << " assignment " << i;
          ASSERT_EQ(a.assignments[i].hint_task, b.assignments[i].hint_task)
              << "seed " << seed << " assignment " << i;
        }
        ASSERT_EQ(a.tasks_satisfied, b.tasks_satisfied) << "seed " << seed;
        ASSERT_EQ(a.jobs_satisfied, b.jobs_satisfied) << "seed " << seed;
        ASSERT_EQ(a.stats.grants, b.stats.grants);
        // The round input-size counters are computed before any claiming
        // and must agree exactly between the two paths.
        ASSERT_EQ(a.stats.demand_apps, b.stats.demand_apps);
        ASSERT_EQ(a.stats.demanded_tasks, b.stats.demanded_tasks);
        ASSERT_EQ(a.stats.demands_saturated, b.stats.demands_saturated);
      }
    }
  }
}

// ---------- min-locality tracker --------------------------------------------

// The tracker against the seed's linear argmin (oracle::PickMinLocality).
TEST(MinLocalityTracker, MatchesPickMinLocality) {
  std::vector<AppAllocState> apps(3);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    apps[i].app = AppId(static_cast<AppId::value_type>(i));
    apps[i].budget = 2;
  }
  apps[0].projected = {3, 4, 30, 40};  // 75% local jobs
  apps[1].projected = {1, 4, 10, 40};  // 25% — the min
  apps[2].projected = {2, 4, 20, 40};  // 50%
  MinLocalityTracker tracker(apps);
  ASSERT_EQ(tracker.min(), oracle::PickMinLocality(apps));
  ASSERT_TRUE(tracker.min().has_value());
  EXPECT_EQ(*tracker.min(), 1u);

  // Detach the min, improve it past app 2, re-attach: order updates.
  tracker.remove(1);
  EXPECT_EQ(*tracker.min(), 2u);
  EXPECT_TRUE(tracker.would_pick(1));  // unchanged, it would still win
  apps[1].projected.local_jobs = 3;    // now 75%, tied with app 0 on jobs
  EXPECT_FALSE(tracker.would_pick(1));
  tracker.restore(1);
  ASSERT_EQ(tracker.min(), oracle::PickMinLocality(apps));

  // Apps at budget leave the ordering, exactly like the linear argmin.
  tracker.remove(2);
  apps[2].held = apps[2].budget;
  tracker.restore(2);  // no-op: cannot take more
  ASSERT_EQ(tracker.min(), oracle::PickMinLocality(apps));

  // Everyone full -> no pick.
  for (std::size_t i = 0; i < apps.size(); ++i) {
    tracker.remove(i);
    apps[i].held = apps[i].budget;
    tracker.restore(i);
  }
  EXPECT_FALSE(tracker.min().has_value());
  EXPECT_FALSE(oracle::PickMinLocality(apps).has_value());
  EXPECT_FALSE(tracker.would_pick(0));
}

// ---------- the paper's motivating scenarios --------------------------------

// Fig. 1: four single-executor nodes, two apps each with one 2-task job.
// A data-aware allocation achieves 100% locality for both applications.
TEST(CustodyAllocator, Fig1PerfectLocalityForBothApps) {
  Locations loc;
  loc.set(BlockId(1), {NodeId(0)});  // D1 on W1
  loc.set(BlockId(2), {NodeId(1)});  // D2 on W2
  loc.set(BlockId(3), {NodeId(2)});  // D3 on W3
  loc.set(BlockId(4), {NodeId(3)});  // D4 on W4

  std::vector<AppDemand> demands(2);
  demands[0].app = AppId(0);
  demands[0].budget = 2;
  demands[0].jobs.push_back(
      {0, 2, {{11, BlockId(1)}, {12, BlockId(2)}}});
  demands[1].app = AppId(1);
  demands[1].budget = 2;
  demands[1].jobs.push_back(
      {1, 2, {{21, BlockId(3)}, {22, BlockId(4)}}});

  const std::vector<ExecutorInfo> idle{{ExecutorId(0), NodeId(0)},
                                       {ExecutorId(1), NodeId(1)},
                                       {ExecutorId(2), NodeId(2)},
                                       {ExecutorId(3), NodeId(3)}};

  const auto result = CustodyAllocator::Allocate(demands, idle, loc.fn());
  const auto owner = ByExecutor(result);
  EXPECT_EQ(owner.at(ExecutorId(0)), AppId(0));  // E1 -> A1
  EXPECT_EQ(owner.at(ExecutorId(1)), AppId(0));  // E2 -> A1
  EXPECT_EQ(owner.at(ExecutorId(2)), AppId(1));  // E3 -> A2
  EXPECT_EQ(owner.at(ExecutorId(3)), AppId(1));  // E4 -> A2
  EXPECT_EQ(result.tasks_satisfied[0], 2);
  EXPECT_EQ(result.tasks_satisfied[1], 2);
  EXPECT_EQ(result.jobs_satisfied[0], 1);
  EXPECT_EQ(result.jobs_satisfied[1], 1);
}

// Fig. 3: two apps, each with two one-task jobs; both apps want W1 and W2
// (the "hot" nodes for their first jobs).  Locality-aware fairness gives
// each application exactly one local job instead of a 2/0 split.
TEST(CustodyAllocator, Fig3LocalityFairSplit) {
  Locations loc;
  loc.set(BlockId(1), {NodeId(0)});
  loc.set(BlockId(2), {NodeId(1)});

  std::vector<AppDemand> demands(2);
  for (int a = 0; a < 2; ++a) {
    demands[a].app = AppId(static_cast<AppId::value_type>(a));
    demands[a].budget = 2;
    // Job 1 wants D1 (on W1), job 2 wants D2 (on W2) — for both apps.
    demands[a].jobs.push_back(
        {static_cast<JobUid>(2 * a), 1,
         {{static_cast<TaskUid>(10 * a), BlockId(1)}}});
    demands[a].jobs.push_back(
        {static_cast<JobUid>(2 * a + 1), 1,
         {{static_cast<TaskUid>(10 * a + 1), BlockId(2)}}});
  }

  const std::vector<ExecutorInfo> idle{{ExecutorId(0), NodeId(0)},
                                       {ExecutorId(1), NodeId(1)},
                                       {ExecutorId(2), NodeId(2)},
                                       {ExecutorId(3), NodeId(3)}};
  const auto result = CustodyAllocator::Allocate(demands, idle, loc.fn());
  // Max-min fairness on local jobs: one hot executor each.
  EXPECT_EQ(result.jobs_satisfied[0], 1);
  EXPECT_EQ(result.jobs_satisfied[1], 1);
  const auto owner = ByExecutor(result);
  EXPECT_NE(owner.at(ExecutorId(0)), owner.at(ExecutorId(1)));
}

// Fig. 4: one app, two jobs x two tasks, budget two executors.  The
// priority strategy satisfies BOTH tasks of one job rather than one task
// of each.
TEST(CustodyAllocator, Fig4PriorityOverJobFairness) {
  Locations loc;
  loc.set(BlockId(1), {NodeId(0)});
  loc.set(BlockId(2), {NodeId(1)});
  loc.set(BlockId(3), {NodeId(2)});
  loc.set(BlockId(4), {NodeId(3)});

  std::vector<AppDemand> demands(1);
  demands[0].app = AppId(5);
  demands[0].budget = 2;
  demands[0].jobs.push_back(
      {1, 2, {{51, BlockId(1)}, {52, BlockId(2)}}});
  demands[0].jobs.push_back(
      {2, 2, {{53, BlockId(3)}, {54, BlockId(4)}}});

  const std::vector<ExecutorInfo> idle{{ExecutorId(0), NodeId(0)},
                                       {ExecutorId(1), NodeId(1)},
                                       {ExecutorId(2), NodeId(2)},
                                       {ExecutorId(3), NodeId(3)}};
  const auto result = CustodyAllocator::Allocate(demands, idle, loc.fn());
  ASSERT_EQ(result.assignments.size(), 2u);
  // One whole job becomes local; the other gets nothing (not one each).
  EXPECT_EQ(result.jobs_satisfied[0], 1);
  EXPECT_EQ(result.tasks_satisfied[0], 2);
  const auto owner = ByExecutor(result);
  const bool job1 =
      owner.count(ExecutorId(0)) == 1 && owner.count(ExecutorId(1)) == 1;
  const bool job2 =
      owner.count(ExecutorId(2)) == 1 && owner.count(ExecutorId(3)) == 1;
  EXPECT_TRUE(job1 || job2);
  EXPECT_FALSE(job1 && job2);
}

// ---------- behavioural details ---------------------------------------------

TEST(CustodyAllocator, SmallJobHasPriorityWithinApp) {
  Locations loc;
  loc.set(BlockId(1), {NodeId(0)});
  loc.set(BlockId(2), {NodeId(0)});  // same node: contended

  std::vector<AppDemand> demands(1);
  demands[0].app = AppId(0);
  demands[0].budget = 1;
  JobDemand big;
  big.job = 1;
  big.total_tasks = 3;
  big.unsatisfied = {{1, BlockId(1)}, {2, BlockId(1)}, {3, BlockId(1)}};
  JobDemand small;
  small.job = 2;
  small.total_tasks = 1;
  small.unsatisfied = {{4, BlockId(2)}};
  demands[0].jobs = {big, small};

  const std::vector<ExecutorInfo> idle{{ExecutorId(0), NodeId(0)}};
  const auto result = CustodyAllocator::Allocate(demands, idle, loc.fn());
  ASSERT_EQ(result.assignments.size(), 1u);
  EXPECT_EQ(result.assignments[0].hint_task, 4u);  // the small job's task
  EXPECT_EQ(result.jobs_satisfied[0], 1);
}

TEST(CustodyAllocator, BackfillsUpToBudgetWithoutLocality) {
  Locations loc;
  loc.set(BlockId(1), {NodeId(9)});  // data on a node with no executor

  std::vector<AppDemand> demands(1);
  demands[0].app = AppId(0);
  demands[0].budget = 2;
  demands[0].jobs.push_back({0, 1, {{1, BlockId(1)}}});

  const std::vector<ExecutorInfo> idle{{ExecutorId(0), NodeId(0)},
                                       {ExecutorId(1), NodeId(1)},
                                       {ExecutorId(2), NodeId(2)}};
  const auto result = CustodyAllocator::Allocate(demands, idle, loc.fn());
  EXPECT_EQ(result.assignments.size(), 2u);  // budget, not pool size
  EXPECT_EQ(result.tasks_satisfied[0], 0);
  for (const Assignment& a : result.assignments) {
    EXPECT_EQ(a.hint_task, kNoTask);
  }
}

TEST(CustodyAllocator, RespectsHeldCount) {
  Locations loc;
  loc.set(BlockId(1), {NodeId(0)});
  std::vector<AppDemand> demands(1);
  demands[0].app = AppId(0);
  demands[0].budget = 3;
  demands[0].held = 3;  // already at budget
  demands[0].jobs.push_back({0, 1, {{1, BlockId(1)}}});
  const std::vector<ExecutorInfo> idle{{ExecutorId(0), NodeId(0)}};
  const auto result = CustodyAllocator::Allocate(demands, idle, loc.fn());
  EXPECT_TRUE(result.assignments.empty());
}

TEST(CustodyAllocator, LeastLocalizedAppPicksFirst) {
  // One hot executor; the app with lower historical locality must get it.
  Locations loc;
  loc.set(BlockId(1), {NodeId(0)});

  std::vector<AppDemand> demands(2);
  demands[0].app = AppId(0);
  demands[0].budget = 1;
  demands[0].locality = {9, 10, 90, 100};  // 90% local jobs
  demands[0].jobs.push_back({0, 1, {{1, BlockId(1)}}});
  demands[1].app = AppId(1);
  demands[1].budget = 1;
  demands[1].locality = {1, 10, 10, 100};  // 10% local jobs
  demands[1].jobs.push_back({1, 1, {{2, BlockId(1)}}});

  const std::vector<ExecutorInfo> idle{{ExecutorId(0), NodeId(0)}};
  const auto result = CustodyAllocator::Allocate(demands, idle, loc.fn());
  ASSERT_EQ(result.assignments.size(), 1u);
  EXPECT_EQ(result.assignments[0].app, AppId(1));
}

TEST(CustodyAllocator, EmptyInputsAreSafe) {
  Locations loc;
  EXPECT_TRUE(
      CustodyAllocator::Allocate({}, {}, loc.fn()).assignments.empty());
  std::vector<AppDemand> demands(1);
  demands[0].app = AppId(0);
  demands[0].budget = 5;
  EXPECT_TRUE(
      CustodyAllocator::Allocate(demands, {}, loc.fn()).assignments.empty());
}

// Property: constraints (2)-(4) hold on random instances — every executor
// to at most one app, budgets respected, assignments deterministic.
TEST(CustodyAllocator, PropertyCapacityConstraintsAndDeterminism) {
  Rng rng(47);
  for (int trial = 0; trial < 40; ++trial) {
    const int num_nodes = rng.uniform_int(2, 8);
    const int num_execs = rng.uniform_int(1, 12);
    const int num_blocks = rng.uniform_int(1, 10);
    Locations loc;
    for (int b = 0; b < num_blocks; ++b) {
      std::vector<NodeId> nodes;
      const int replicas = rng.uniform_int(1, std::min(3, num_nodes));
      while (static_cast<int>(nodes.size()) < replicas) {
        const NodeId n(static_cast<NodeId::value_type>(rng.index(num_nodes)));
        if (std::find(nodes.begin(), nodes.end(), n) == nodes.end()) {
          nodes.push_back(n);
        }
      }
      loc.set(BlockId(static_cast<BlockId::value_type>(b)), nodes);
    }
    std::vector<ExecutorInfo> idle;
    for (int e = 0; e < num_execs; ++e) {
      idle.push_back({ExecutorId(static_cast<ExecutorId::value_type>(e)),
                      NodeId(static_cast<NodeId::value_type>(
                          rng.index(num_nodes)))});
    }
    std::vector<AppDemand> demands(rng.uniform_int(1, 3));
    TaskUid next_task = 0;
    for (std::size_t a = 0; a < demands.size(); ++a) {
      demands[a].app = AppId(static_cast<AppId::value_type>(a));
      demands[a].budget = rng.uniform_int(0, num_execs);
      const int jobs = rng.uniform_int(0, 3);
      for (int j = 0; j < jobs; ++j) {
        JobDemand job;
        job.job = next_task * 100 + static_cast<JobUid>(j);
        const int tasks = rng.uniform_int(1, 4);
        job.total_tasks = tasks;
        for (int t = 0; t < tasks; ++t) {
          job.unsatisfied.push_back(
              {next_task++, BlockId(static_cast<BlockId::value_type>(
                                rng.index(num_blocks)))});
        }
        demands[a].jobs.push_back(job);
      }
    }

    const auto result = CustodyAllocator::Allocate(demands, idle, loc.fn());
    const auto again = CustodyAllocator::Allocate(demands, idle, loc.fn());

    // Determinism.
    ASSERT_EQ(result.assignments.size(), again.assignments.size());
    for (std::size_t i = 0; i < result.assignments.size(); ++i) {
      EXPECT_EQ(result.assignments[i].exec, again.assignments[i].exec);
      EXPECT_EQ(result.assignments[i].app, again.assignments[i].app);
    }

    // Constraint (2): executor to at most one app.
    const auto owner = ByExecutor(result);

    // Budgets respected.
    std::map<AppId, int> granted;
    for (const auto& [exec, app] : owner) ++granted[app];
    for (const auto& demand : demands) {
      EXPECT_LE(granted[demand.app] + demand.held, std::max(demand.budget,
                demand.held));
    }

    // Hints reference this app's own tasks and a local executor.
    std::map<ExecutorId, NodeId> exec_node;
    for (const auto& e : idle) exec_node[e.id] = e.node;
    for (const Assignment& a : result.assignments) {
      if (a.hint_task == kNoTask) continue;
      bool found = false;
      for (const auto& demand : demands) {
        if (demand.app != a.app) continue;
        for (const auto& job : demand.jobs) {
          for (const auto& task : job.unsatisfied) {
            if (task.task == a.hint_task) {
              found = true;
              const auto& nodes = loc.fn()(task.block);
              EXPECT_NE(std::find(nodes.begin(), nodes.end(),
                                  exec_node[a.exec]),
                        nodes.end())
                  << "hinted executor does not store the task's block";
            }
          }
        }
      }
      EXPECT_TRUE(found);
    }
  }
}

// Property: the production round (idle index + incremental min-locality
// tracker) must produce *byte-identical* assignment sequences to the seed
// oracle's linear-scan round, across random seeds, app/pool shapes and
// every ablation combination.
TEST(CustodyAllocator, PropertyIndexedMatchesReferenceAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed * 7919);
    const int num_nodes = rng.uniform_int(2, 40);
    const int num_execs = rng.uniform_int(1, 80);
    const int num_blocks = rng.uniform_int(1, 60);
    Locations loc;
    for (int b = 0; b < num_blocks; ++b) {
      std::vector<NodeId> nodes;
      const int replicas = rng.uniform_int(1, std::min(3, num_nodes));
      while (static_cast<int>(nodes.size()) < replicas) {
        const NodeId n(static_cast<NodeId::value_type>(rng.index(num_nodes)));
        if (std::find(nodes.begin(), nodes.end(), n) == nodes.end()) {
          nodes.push_back(n);
        }
      }
      loc.set(BlockId(static_cast<BlockId::value_type>(b)), nodes);
    }
    std::vector<ExecutorInfo> idle;
    for (int e = 0; e < num_execs; ++e) {
      idle.push_back({ExecutorId(static_cast<ExecutorId::value_type>(e)),
                      NodeId(static_cast<NodeId::value_type>(
                          rng.index(num_nodes)))});
    }
    std::vector<AppDemand> demands(rng.uniform_int(1, 6));
    TaskUid next_task = 0;
    for (std::size_t a = 0; a < demands.size(); ++a) {
      demands[a].app = AppId(static_cast<AppId::value_type>(a));
      demands[a].budget = rng.uniform_int(0, num_execs);
      demands[a].held = rng.uniform_int(0, 2);
      demands[a].locality = {rng.uniform_int(0, 5), rng.uniform_int(5, 10),
                             rng.uniform_int(0, 40), rng.uniform_int(40, 80)};
      const int jobs = rng.uniform_int(0, 6);
      for (int j = 0; j < jobs; ++j) {
        JobDemand job;
        job.job = next_task * 100 + static_cast<JobUid>(j);
        const int tasks = rng.uniform_int(1, 10);
        job.total_tasks = tasks + rng.uniform_int(0, 2);
        for (int t = 0; t < tasks; ++t) {
          job.unsatisfied.push_back(
              {next_task++, BlockId(static_cast<BlockId::value_type>(
                                rng.index(num_blocks)))});
        }
        demands[a].jobs.push_back(job);
      }
    }

    for (const bool locality_fair : {true, false}) {
      for (const bool priority_jobs : {true, false}) {
        AllocatorOptions options;
        options.locality_fair = locality_fair;
        options.priority_jobs = priority_jobs;

        const auto a = CustodyAllocator::Allocate(demands, idle, loc.fn(),
                                                  options);
        const auto b = oracle::Allocate(demands, idle, loc.fn(), options);
        ASSERT_EQ(a.assignments.size(), b.assignments.size())
            << "seed " << seed << " lf=" << locality_fair
            << " pj=" << priority_jobs;
        for (std::size_t i = 0; i < a.assignments.size(); ++i) {
          ASSERT_EQ(a.assignments[i].exec, b.assignments[i].exec)
              << "seed " << seed << " assignment " << i;
          ASSERT_EQ(a.assignments[i].app, b.assignments[i].app)
              << "seed " << seed << " assignment " << i;
          ASSERT_EQ(a.assignments[i].hint_task, b.assignments[i].hint_task)
              << "seed " << seed << " assignment " << i;
        }
        ASSERT_EQ(a.tasks_satisfied, b.tasks_satisfied) << "seed " << seed;
        ASSERT_EQ(a.jobs_satisfied, b.jobs_satisfied) << "seed " << seed;
        ASSERT_EQ(a.projected.size(), b.projected.size());
        for (std::size_t i = 0; i < a.projected.size(); ++i) {
          ASSERT_EQ(a.projected[i].local_jobs, b.projected[i].local_jobs);
          ASSERT_EQ(a.projected[i].local_tasks, b.projected[i].local_tasks);
        }
        ASSERT_EQ(a.stats.grants, b.stats.grants);
        ASSERT_EQ(a.stats.apps_considered, b.stats.apps_considered);
        // The whole point of the index: strictly less scanning on any
        // instance big enough to matter.
        if (num_execs >= 16 && a.stats.grants > 4) {
          EXPECT_LE(a.stats.executors_scanned, b.stats.executors_scanned)
              << "seed " << seed;
        }
      }
    }
  }
}

}  // namespace
}  // namespace custody::core
