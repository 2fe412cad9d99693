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
    {1100, 0x08c2562f108f73eeULL, 264},
    {1101, 0x867dfe96e1de19acULL, 384},
    {1102, 0x59f5cf9cd41179a6ULL, 375},
    {1103, 0x21e9c1a74807440dULL, 175},
    {1104, 0x3bda8328872aa2cbULL, 419},
    {1105, 0xd4d240bd1f66ece2ULL, 418},
    {1106, 0xd1c17fcccf680795ULL, 343},
    {1107, 0xe2600b5ff5e8eb8cULL, 263},
    {1108, 0x99a8d62c5e80d26dULL, 321},
    {1109, 0x95a921700c612615ULL, 336},
    {1110, 0x6d7ad63aa5fbcfe6ULL, 261},
    {1111, 0xf426c00afb7a0c46ULL, 257},
};
constexpr Golden kStandaloneGolden[] = {
    {1200, 0xa27c545a0c553deeULL, 0},
    {1201, 0xcad159524212cf68ULL, 0},
    {1202, 0x6fd6b2e1cb051989ULL, 0},
    {1203, 0x298bd53a50200c0cULL, 0},
    {1204, 0x61a290befebf8a73ULL, 0},
    {1205, 0x59c8e709e9e9dd4cULL, 0},
    {1206, 0xd9f6e1a94ad28bc6ULL, 0},
    {1207, 0x7a85d9316aa33ea5ULL, 0},
    {1208, 0x1bea165bc0ad4b4aULL, 0},
    {1209, 0x06df2155b1314f28ULL, 0},
    {1210, 0x8778c88e4ad69f54ULL, 0},
    {1211, 0x80d0815bd4f0f0b4ULL, 0},
};
constexpr Golden kPoolGolden[] = {
    {1300, 0xa632fc428805be2cULL, 0},
    {1301, 0xa756ca6118e0f5d3ULL, 0},
    {1302, 0xd83c7eb825ea832aULL, 0},
    {1303, 0xa6c260c9a79d4a46ULL, 0},
    {1304, 0xd85865260f2377edULL, 0},
    {1305, 0xcb799899def4e02eULL, 0},
    {1306, 0xa4cc1667155f9470ULL, 0},
    {1307, 0x6863b05f3b779156ULL, 0},
    {1308, 0x554ee30d99ea30c4ULL, 0},
    {1309, 0xa22b9212fb4525cdULL, 0},
    {1310, 0xe0e036cdf1d7148dULL, 0},
    {1311, 0x970a05658a26ea7eULL, 0},
};
constexpr Golden kOfferGolden[] = {
    {1400, 0x330dd060d563a418ULL, 0},
    {1401, 0x6cefa34d83ce978bULL, 0},
    {1402, 0x65616b7fcadfa0e3ULL, 0},
    {1403, 0xc5aa7a6f7bfe88f8ULL, 0},
    {1404, 0xec5fd587893a676bULL, 0},
    {1405, 0x3ed6ec8716e86360ULL, 0},
    {1406, 0xb22e4e74c55e6deaULL, 0},
    {1407, 0xc26d386d668f8302ULL, 0},
    {1408, 0x4c39cb64abb896eaULL, 0},
    {1409, 0x81390172ffee877fULL, 0},
    {1410, 0x5a4ee53dfd2f73deULL, 0},
    {1411, 0x514356a0adb1ebd4ULL, 0},
};
constexpr Golden kFailuresGolden[] = {
    {1500, 0x260bbb8606b2d0f7ULL, 403},
    {1501, 0xdf420da5609d553bULL, 326},
    {1502, 0xfe0e24e705784149ULL, 347},
    {1500, 0x4603e008a6d2f709ULL, 0},
    {1501, 0x0b5a100daa898b9aULL, 0},
    {1502, 0x0057c66e3a015eebULL, 0},
};
constexpr Golden kCachedGolden[] = {
    {1600, 0xda4ab028d9f116d2ULL, 436},
    {1601, 0x48151759d3dbef15ULL, 301},
    {1602, 0x05971d72b2ab6cb5ULL, 323},
    {1603, 0xa489da3be93599a6ULL, 277},
};
constexpr Golden kSteadyGolden[] = {
    {1700, 0x8f2d78098074d48bULL, 1499},
    {1701, 0x5b9a28c0b62909d9ULL, 1414},
    {1700, 0x12806ae1001d9e01ULL, 0},
    {1701, 0xccc49fb4d3448bc1ULL, 0},
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
