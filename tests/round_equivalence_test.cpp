// Equivalence suite for the demand-driven allocation path: RunExperiment —
// persistent cluster idle index, AllocateOnIndex round views, skip triggers
// in the custody and offer managers, indexed picks in standalone/pool and
// the kick sweep's verdict replay — must reproduce field for field, exact
// double compare, what the seed's rebuild-per-round allocation produced,
// for every manager, every scheduler policy and many seeds, including
// cache / speculation / failure / steady-state variants that exercise the
// index's fail_node and release churn.
//
// The rebuild-per-round path is gone from production; its results live on
// as golden digests.  Every table below was recorded at commit a7adfbd by
// running the row's config (BaseConfig plus the test's variant fields) with
// `allocator.demand_driven = false` — rebuild-per-round rounds over
// `Cluster::idle_executors()`, no skip triggers, a full kick sweep over
// every held executor — and taking testutil::ResultDigest over every field
// except the round-work group (kAllFields & ~kRoundWork).  At that commit
// the demand-driven path produced the same digest for every row.
//
// The digests cover the rate-solver work counters (kNetWork), whose meaning
// changed when certified source-share rates replaced the component-
// partitioned solve.  The tables were re-recorded then, after a recorder
// linked against the previous commit (4ec2b4f) showed, row for row, the
// digest over kAllFields & ~kRoundWork & ~kNetWork unchanged and only net_stats.flows_scanned,
// links_scanned and rounds different.
//
// The round-work counters are legitimately different, and why:
//  * executors_scanned — the demand-driven path's whole point is scanning
//    fewer candidates (early-outs, skipped rounds); each row records the
//    reference's count and production must not exceed it;
//  * demand_apps / demanded_tasks / demands_saturated / rounds_skipped —
//    skipped rounds never compute their input sizes, so the reference
//    (which always ran the allocator) accumulated more.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "result_equal.h"
#include "workload/harness.h"

namespace custody::workload {
namespace {

ExperimentConfig BaseConfig(ManagerKind manager, app::SchedulerKind kind,
                            std::uint64_t seed) {
  ExperimentConfig config;
  config.num_nodes = 16;
  config.executors_per_node = 2;
  config.manager = manager;
  config.kinds = {WorkloadKind::kWordCount, WorkloadKind::kSort};
  config.trace.num_apps = 2;
  config.trace.jobs_per_app = 4;
  config.trace.files_per_kind = 3;
  config.scheduler.kind = kind;
  config.seed = seed;
  return config;
}

struct Golden {
  std::uint64_t seed;
  std::uint64_t digest;
  /// The rebuild-per-round reference's manager_stats.executors_scanned.
  std::uint64_t reference_scanned;
};

constexpr unsigned kCompared = testutil::kAllFields & ~testutil::kRoundWork;

/// Runs `config` on the production path and demands the golden digest, with
/// no more candidate work than the rebuild-per-round reference did.
void ExpectMatchesGolden(const ExperimentConfig& config, const Golden& golden) {
  ASSERT_EQ(config.seed, golden.seed) << "golden table out of step";
  const ExperimentResult result = RunExperiment(config);
  testutil::ExpectDigest(result, golden.digest, kCompared);
  EXPECT_LE(result.manager_stats.executors_scanned, golden.reference_scanned);
}

constexpr app::SchedulerKind kKinds[] = {app::SchedulerKind::kDelay,
                                         app::SchedulerKind::kLocalityPreferred,
                                         app::SchedulerKind::kFifo};

const char* KindName(app::SchedulerKind kind) {
  switch (kind) {
    case app::SchedulerKind::kDelay:
      return "delay";
    case app::SchedulerKind::kLocalityPreferred:
      return "locality";
    case app::SchedulerKind::kFifo:
      return "fifo";
  }
  return "?";
}

/// Every (manager, scheduler kind) cell over `seeds_per_cell` distinct
/// seeds.  Seeds are disjoint across cells so the suite as a whole covers
/// kinds * seeds_per_cell * 4 distinct seeds.  `golden` lists the rows in
/// iteration order.
template <std::size_t N>
void SweepManager(ManagerKind manager, std::uint64_t seed_base,
                  int seeds_per_cell, const Golden (&golden)[N]) {
  ASSERT_EQ(N, std::size(kKinds) * static_cast<std::size_t>(seeds_per_cell));
  std::uint64_t seed = seed_base;
  std::size_t row = 0;
  for (const app::SchedulerKind kind : kKinds) {
    for (int i = 0; i < seeds_per_cell; ++i, ++seed, ++row) {
      SCOPED_TRACE(std::string("kind=") + KindName(kind) +
                   " seed=" + std::to_string(seed));
      ExpectMatchesGolden(BaseConfig(manager, kind, seed), golden[row]);
    }
  }
}

// Golden digests (commit a7adfbd, allocator.demand_driven = false,
// kAllFields & ~kRoundWork) and the reference's executors_scanned.
constexpr Golden kCustodyGolden[] = {
    {1100, 0x049a557791a66521ULL, 264},
    {1101, 0xd1e4d1329702c812ULL, 384},
    {1102, 0xbeebcabcbfe41428ULL, 375},
    {1103, 0x027887943bc854c1ULL, 175},
    {1104, 0x28ece48ff5626623ULL, 419},
    {1105, 0x882d853ffb65ef99ULL, 418},
    {1106, 0x78b44f69a1888b6eULL, 343},
    {1107, 0x4f8992b9ed6b78a4ULL, 263},
    {1108, 0x6123b5f1f4878556ULL, 321},
    {1109, 0x4f04e63b55bc60caULL, 336},
    {1110, 0x6b5f12619df89cd4ULL, 261},
    {1111, 0x1f6f02365e493abaULL, 257},
};
constexpr Golden kStandaloneGolden[] = {
    {1200, 0x64879c9f38f06349ULL, 0},
    {1201, 0x5c60ca90f5f97b4bULL, 0},
    {1202, 0xa35bca0dea91a27eULL, 0},
    {1203, 0xaa75794274ede278ULL, 0},
    {1204, 0xd9d6a9c07cc6438cULL, 0},
    {1205, 0xe5fda3e0c77f2873ULL, 0},
    {1206, 0x181f13bd66905d84ULL, 0},
    {1207, 0xb1bf65a547b5a20bULL, 0},
    {1208, 0x05f9df5c467b977bULL, 0},
    {1209, 0x53fbbcbb253adce8ULL, 0},
    {1210, 0xa5baeb6b1042a868ULL, 0},
    {1211, 0xf00dafbe066b386eULL, 0},
};
constexpr Golden kPoolGolden[] = {
    {1300, 0x7e511a0ffe808df0ULL, 0},
    {1301, 0x933ba49a1f9f6e1cULL, 0},
    {1302, 0x1c4879d86fbd8597ULL, 0},
    {1303, 0x41c1b130fe353184ULL, 0},
    {1304, 0x10593a058421e9d7ULL, 0},
    {1305, 0x1d62c2eda6f1ad66ULL, 0},
    {1306, 0xe2d5131adbb7c66cULL, 0},
    {1307, 0x8acea21bcde4591cULL, 0},
    {1308, 0xfac10252755f9759ULL, 0},
    {1309, 0xd96d74883656fe8fULL, 0},
    {1310, 0x0cf4cdd3cbf0d494ULL, 0},
    {1311, 0x889b1dc49ae5c223ULL, 0},
};
constexpr Golden kOfferGolden[] = {
    {1400, 0x1ebca9be5c554c3aULL, 0},
    {1401, 0xcfcb80674c490846ULL, 0},
    {1402, 0xd241f8021ce6db2fULL, 0},
    {1403, 0x68b69e9987d69e0dULL, 0},
    {1404, 0x4826527dfb490afdULL, 0},
    {1405, 0xc13090acfb87ac93ULL, 0},
    {1406, 0xc3e616a20f643874ULL, 0},
    {1407, 0x21f2f54db2785496ULL, 0},
    {1408, 0xe4802577c081d1deULL, 0},
    {1409, 0xce270c3657c27905ULL, 0},
    {1410, 0x447cdd2da278a88cULL, 0},
    {1411, 0x5b932ecb5068a917ULL, 0},
};
constexpr Golden kFailuresGolden[] = {
    {1500, 0xb2eed000ebc8270bULL, 403},
    {1501, 0x290a9e5e4b1a8052ULL, 326},
    {1502, 0xb5ab7b4d2eb11451ULL, 347},
    {1500, 0x91998502c1efc675ULL, 0},
    {1501, 0xd7de96731b4277e0ULL, 0},
    {1502, 0x84f9e9bac998c9cdULL, 0},
};
constexpr Golden kCachedGolden[] = {
    {1600, 0xf5cc58289fee2aa9ULL, 436},
    {1601, 0x6e681eb6953dd8cdULL, 301},
    {1602, 0x9593fa5660703f99ULL, 323},
    {1603, 0x7181587af1ac7ebcULL, 277},
};
constexpr Golden kSteadyGolden[] = {
    {1700, 0x1b496617b06dd9bcULL, 1499},
    {1701, 0x4e0cd77597c253c2ULL, 1414},
    {1700, 0x88cfcb557207bf7bULL, 0},
    {1701, 0x2b885273545ffaf9ULL, 0},
};

// 4 managers x 3 kinds x 4 seeds = 48 distinct seeds; the feature variants
// below add 14 more (62 total, all distinct).
TEST(RoundEquivalence, CustodyAllKindsManySeeds) {
  SweepManager(ManagerKind::kCustody, 1100, 4, kCustodyGolden);
}

TEST(RoundEquivalence, StandaloneAllKindsManySeeds) {
  SweepManager(ManagerKind::kStandalone, 1200, 4, kStandaloneGolden);
}

TEST(RoundEquivalence, PoolAllKindsManySeeds) {
  SweepManager(ManagerKind::kPool, 1300, 4, kPoolGolden);
}

TEST(RoundEquivalence, OfferAllKindsManySeeds) {
  SweepManager(ManagerKind::kOffer, 1400, 4, kOfferGolden);
}

// Node failures remove executors from the persistent index (allocated and
// idle alike) — the one mutation path that is neither a grant nor a
// release.  Speculation adds extra release churn.
TEST(RoundEquivalence, FailuresAndSpeculationAgree) {
  std::size_t row = 0;
  for (const ManagerKind manager :
       {ManagerKind::kCustody, ManagerKind::kPool}) {
    for (std::uint64_t seed = 1500; seed < 1503; ++seed, ++row) {
      SCOPED_TRACE("manager=" + std::to_string(static_cast<int>(manager)) +
                   " seed=" + std::to_string(seed));
      ExperimentConfig config =
          BaseConfig(manager, app::SchedulerKind::kDelay, seed);
      config.node_failures = 2;
      config.failure_start = 10.0;
      config.failure_interval = 15.0;
      config.slow_node_fraction = 0.2;
      config.speculation = true;
      ExpectMatchesGolden(config, kFailuresGolden[row]);
    }
  }
}

// The block cache changes the locations the demand-driven candidate
// enumeration walks (cached replicas join block->node lookups).
TEST(RoundEquivalence, CachedWorkloadAgrees) {
  for (std::uint64_t seed = 1600; seed < 1604; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ExperimentConfig config =
        BaseConfig(ManagerKind::kCustody, app::SchedulerKind::kDelay, seed);
    config.cache_mb_per_node = 256.0;
    config.trace.zipf_skew = 1.2;
    ExpectMatchesGolden(config, kCachedGolden[seed - 1600]);
  }
}

// Steady-state mode: lazy submission stream, job retirement, streaming
// metrics — the long-horizon regime the skip trigger exists for.  Released
// executors re-enter the index millions of times at scale; here a smaller
// stream still exercises the same add/remove cycling.
TEST(RoundEquivalence, SteadyStateStreamAgrees) {
  std::size_t row = 0;
  for (const ManagerKind manager :
       {ManagerKind::kCustody, ManagerKind::kOffer}) {
    for (std::uint64_t seed = 1700; seed < 1702; ++seed, ++row) {
      SCOPED_TRACE("manager=" + std::to_string(static_cast<int>(manager)) +
                   " seed=" + std::to_string(seed));
      ExperimentConfig config =
          BaseConfig(manager, app::SchedulerKind::kDelay, seed);
      config.trace.jobs_per_app = 30;
      config.steady.enabled = true;
      config.steady.warmup = 20.0;
      ExpectMatchesGolden(config, kSteadyGolden[row]);
    }
  }
}

// The custody skip trigger must actually fire on a plain workload (the
// equivalence above would pass vacuously if it never did): between a job's
// last release and the next submission, rounds find every app at budget.
TEST(RoundEquivalence, SkipTriggerFiresOnPlainWorkload) {
  const ExperimentConfig config =
      BaseConfig(ManagerKind::kCustody, app::SchedulerKind::kDelay, 1800);
  const ExperimentResult result = RunExperiment(config);
  EXPECT_GT(result.manager_stats.rounds_skipped, 0u);
  EXPECT_GT(result.manager_stats.allocation_rounds,
            result.manager_stats.rounds_skipped);
}

}  // namespace
}  // namespace custody::workload
