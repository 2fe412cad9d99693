// Equivalence suite for the indexed dispatch path: RunExperiment — whose
// TaskScheduler::pick, consider_offer, pending_demand and wanted_executors
// answer from the ReadyTaskIndex — must reproduce field for field, exact
// double compare, what the seed full-scan dispatch produced, for every
// manager, every scheduler policy and many seeds, including the cache /
// speculation / failure extensions that exercise the replica- and
// cache-change listener paths of the index.
//
// The full-scan dispatch is gone from production; its results live on as
// golden digests.  Every table below was recorded at commit a7adfbd by
// running the row's config (BaseConfig plus the test's variant fields) with
// `scheduler.indexed = false` — the seed full scan — and taking
// testutil::ResultDigest over all fields (kAllFields).  At that commit the
// indexed path produced the same digest for every row.
//
// The digests cover the rate-solver work counters (kNetWork), whose meaning
// changed when certified source-share rates replaced the component-
// partitioned solve.  The tables were re-recorded then, after a recorder
// linked against the previous commit (4ec2b4f) showed, row for row, the
// digest over kAllFields & ~kNetWork unchanged and only net_stats.flows_scanned,
// links_scanned and rounds different.
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
};

/// Runs `config` on the production path and demands the golden digest.
void ExpectMatchesGolden(const ExperimentConfig& config, const Golden& golden) {
  ASSERT_EQ(config.seed, golden.seed) << "golden table out of step";
  testutil::ExpectDigest(RunExperiment(config), golden.digest);
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

// Golden digests (commit a7adfbd, scheduler.indexed = false, kAllFields).
constexpr Golden kCustodyGolden[] = {
    {100, 0xcc4afaa4184993c6ULL},
    {101, 0x9cea1564e2d10fc2ULL},
    {102, 0x27b1b91483ac8f48ULL},
    {103, 0x5e3b99332d2c9783ULL},
    {104, 0x9e58e5226a144d8dULL},
    {105, 0x707ec844603cc4ebULL},
    {106, 0xaecbeb49d8a7160dULL},
    {107, 0xf81eebdd71473935ULL},
    {108, 0xee87e4355f523519ULL},
    {109, 0xc339372f2dce3f8dULL},
    {110, 0x9f7ba3fb63b44654ULL},
    {111, 0x64b649a7bf37acc6ULL},
};
constexpr Golden kStandaloneGolden[] = {
    {200, 0x1f5faeed799499a1ULL},
    {201, 0xe23d4509acd0e849ULL},
    {202, 0xa04e1b83a68bbf4cULL},
    {203, 0xfca40ae95aec9a2eULL},
    {204, 0x219aa32fdeb001cdULL},
    {205, 0x840f971a1eb9214aULL},
    {206, 0xc863833dbf16dab1ULL},
    {207, 0x4523def69ec192c1ULL},
    {208, 0x91b2ef845d24c0abULL},
    {209, 0x7f65f676f4c35fd6ULL},
    {210, 0x77e3bd7e6999fcceULL},
    {211, 0xab14b7fd81abe535ULL},
};
constexpr Golden kPoolGolden[] = {
    {300, 0x884e17b024e66eaeULL},
    {301, 0x4fcc422a5ca5ee88ULL},
    {302, 0x54a8fc9c643690e4ULL},
    {303, 0x9a02915808637fc0ULL},
    {304, 0xa86054b9cce2ee8fULL},
    {305, 0x37108e23c54242a3ULL},
    {306, 0xecd677b2f05e440fULL},
    {307, 0x547769f1c261241bULL},
    {308, 0xc619bba0fa826007ULL},
    {309, 0xa15d29a34b49224cULL},
    {310, 0x0d180a435f822ad7ULL},
    {311, 0x26ca5a6990ff0a2bULL},
};
constexpr Golden kOfferGolden[] = {
    {400, 0xe2b92de6e277efd2ULL},
    {401, 0x91930c43fb826289ULL},
    {402, 0x34be3baa6d501d45ULL},
    {403, 0xdc1a3d1c753fe736ULL},
    {404, 0x6ae3c51e54796452ULL},
    {405, 0x5d171ef86bdce137ULL},
    {406, 0xe2d447d6c86b2963ULL},
    {407, 0x5661a835ce81e2cdULL},
    {408, 0x8211c3db74be8e3dULL},
    {409, 0x8f347af42b4f2847ULL},
    {410, 0xd5e74a2fb21b8c8dULL},
    {411, 0x20ec78815a1e983aULL},
};
constexpr Golden kCachedGolden[] = {
    {500, 0x3a8416e0972d2b1cULL},
    {501, 0x192937796ee36e49ULL},
    {502, 0x23b0ca4b029f70f0ULL},
    {503, 0x6ffdf3207bc3a8abULL},
};
constexpr Golden kFailuresGolden[] = {
    {600, 0xc7caa5416fa7c67eULL},
    {601, 0x6eb61dfdeeba50f0ULL},
    {602, 0x78e298a455b5a84cULL},
    {603, 0x2e917e9584794e18ULL},
};
constexpr Golden kCacheWithFailuresGolden[] = {
    {700, 0x9a1b42fa4323ae10ULL},
    {701, 0x73aa6b461e0595e6ULL},
    {702, 0xd3eeaeeb9e618b6eULL},
    {703, 0x9346597371093049ULL},
};

// 4 managers x 3 kinds x 4 seeds = 48 distinct seeds; the feature variants
// below add 12 more (60 total, all distinct).
TEST(DispatchEquivalence, CustodyAllKindsManySeeds) {
  SweepManager(ManagerKind::kCustody, 100, 4, kCustodyGolden);
}

TEST(DispatchEquivalence, StandaloneAllKindsManySeeds) {
  SweepManager(ManagerKind::kStandalone, 200, 4, kStandaloneGolden);
}

TEST(DispatchEquivalence, PoolAllKindsManySeeds) {
  SweepManager(ManagerKind::kPool, 300, 4, kPoolGolden);
}

TEST(DispatchEquivalence, OfferAllKindsManySeeds) {
  SweepManager(ManagerKind::kOffer, 400, 4, kOfferGolden);
}

// The block cache feeds the index through BlockCache change listeners
// (insert / evict); a hot zipf-skewed dataset makes both fire constantly.
TEST(DispatchEquivalence, CachedWorkloadAgrees) {
  for (std::uint64_t seed = 500; seed < 504; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ExperimentConfig config =
        BaseConfig(ManagerKind::kCustody, app::SchedulerKind::kDelay, seed);
    config.cache_mb_per_node = 256.0;
    config.trace.zipf_skew = 1.2;
    ExpectMatchesGolden(config, kCachedGolden[seed - 500]);
  }
}

// Node failures drive Dfs replica listeners (re-replication adds, dead-node
// removes) plus task resets (task_ready re-insertions after reset_task).
TEST(DispatchEquivalence, FailuresAndSpeculationAgree) {
  for (std::uint64_t seed = 600; seed < 604; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ExperimentConfig config =
        BaseConfig(ManagerKind::kCustody, app::SchedulerKind::kDelay, seed);
    config.node_failures = 2;
    config.failure_start = 10.0;
    config.failure_interval = 15.0;
    config.slow_node_fraction = 0.2;
    config.speculation = true;
    ExpectMatchesGolden(config, kFailuresGolden[seed - 600]);
  }
}

// Cache + failures together: a failed node loses cached copies too, so the
// index sees interleaved replica and cache removal notifications.
TEST(DispatchEquivalence, CacheWithFailuresAgrees) {
  for (std::uint64_t seed = 700; seed < 704; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ExperimentConfig config =
        BaseConfig(ManagerKind::kOffer, app::SchedulerKind::kDelay, seed);
    config.cache_mb_per_node = 256.0;
    config.trace.zipf_skew = 1.1;
    config.node_failures = 2;
    config.failure_start = 8.0;
    config.failure_interval = 12.0;
    ExpectMatchesGolden(config, kCacheWithFailuresGolden[seed - 700]);
  }
}

// Regression, seed 702: the index once computed task_ready memberships from
// BlockCache::merged_locations, a snapshot rebuilt only on cache churn.  A
// node failure moving a *disk* replica under a cached block left the
// snapshot stale, so tasks becoming ready afterwards indexed the dead node
// and missed the re-replication target.  Either feature alone agreed; only
// the combination diverged.
TEST(DispatchEquivalence, OfferCacheOnlyRegressionSeed) {
  ExperimentConfig config =
      BaseConfig(ManagerKind::kOffer, app::SchedulerKind::kDelay, 702);
  config.cache_mb_per_node = 256.0;
  config.trace.zipf_skew = 1.1;
  ExpectMatchesGolden(config, Golden{702, 0xae29ad4dea8496e6ULL});
}

TEST(DispatchEquivalence, OfferFailuresOnlyRegressionSeed) {
  ExperimentConfig config =
      BaseConfig(ManagerKind::kOffer, app::SchedulerKind::kDelay, 702);
  config.node_failures = 2;
  config.failure_start = 8.0;
  config.failure_interval = 12.0;
  ExpectMatchesGolden(config, Golden{702, 0x06113dd10a2d9de4ULL});
}

}  // namespace
}  // namespace custody::workload
