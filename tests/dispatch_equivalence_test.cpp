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
    {100, 0x71dfac3f37f5ecd3ULL},
    {101, 0x8dfc934cf08a6a92ULL},
    {102, 0x2c1d9754a603746fULL},
    {103, 0xe646c673725c9e40ULL},
    {104, 0x1aaaeb19e41526beULL},
    {105, 0xb3feb4e4d6c84673ULL},
    {106, 0xb75b98d0417b9630ULL},
    {107, 0x011713ca6f3009b0ULL},
    {108, 0x3e0372ecf1b83cf7ULL},
    {109, 0x2bbe786dfd86ed4cULL},
    {110, 0xa5625a985e04718dULL},
    {111, 0xb69156a60b363fe1ULL},
};
constexpr Golden kStandaloneGolden[] = {
    {200, 0xf28565dfc9d2a339ULL},
    {201, 0xbceef7af2d85aef5ULL},
    {202, 0x9d90e694d4c24f63ULL},
    {203, 0x4a83a1a7b60f47e3ULL},
    {204, 0x07cadabc14727714ULL},
    {205, 0xb3ac79aa28e88817ULL},
    {206, 0x3425fc1be959f0afULL},
    {207, 0xe563600024034693ULL},
    {208, 0x05b972eecc74df32ULL},
    {209, 0xbbea5bd04622c11cULL},
    {210, 0x85ee9179913a121aULL},
    {211, 0x4766a748c96ce7b9ULL},
};
constexpr Golden kPoolGolden[] = {
    {300, 0x76a6a795f4a1977fULL},
    {301, 0x5a4d5f0f1a1f2ebfULL},
    {302, 0xadb7e718041f65adULL},
    {303, 0x450fdddb70843cfaULL},
    {304, 0xef6635b488bb79ecULL},
    {305, 0x9b8e3d046394b51eULL},
    {306, 0x4328c5f3135beb1eULL},
    {307, 0xe7cd698253e21378ULL},
    {308, 0x039465677e61c5afULL},
    {309, 0xca47e7be4c41c7f5ULL},
    {310, 0x334cb47fe0816977ULL},
    {311, 0xbc26e46e2e71ad08ULL},
};
constexpr Golden kOfferGolden[] = {
    {400, 0xae96687d1fdbd1fdULL},
    {401, 0x6a25fa1b6e4a1852ULL},
    {402, 0x9fa931f9bf5c3bd5ULL},
    {403, 0x6c62eeab63f4039dULL},
    {404, 0xaef78b888c42b09bULL},
    {405, 0x9f00c585baeb8f6eULL},
    {406, 0x66a288c1ec65a876ULL},
    {407, 0x2cc5370be01da32dULL},
    {408, 0x2ba2a5f01bcfae88ULL},
    {409, 0x5c0a9fb6d17ffe9eULL},
    {410, 0x672e3e85048abab2ULL},
    {411, 0x2580ce452c56f4edULL},
};
constexpr Golden kCachedGolden[] = {
    {500, 0x02c4c85557fe6c58ULL},
    {501, 0x23dd22bc05d62fd5ULL},
    {502, 0xc2651cf59259e5bfULL},
    {503, 0x961109c68b443dfcULL},
};
constexpr Golden kFailuresGolden[] = {
    {600, 0xd60472cf8010c1e8ULL},
    {601, 0x11f19436addf1204ULL},
    {602, 0x00da292c064b4dedULL},
    {603, 0x4b87997b7e321117ULL},
};
constexpr Golden kCacheWithFailuresGolden[] = {
    {700, 0xf8e3a6182747e4cfULL},
    {701, 0xd1796d61a170b9aaULL},
    {702, 0xf348860db1e3954bULL},
    {703, 0x153927f822c38dddULL},
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
  ExpectMatchesGolden(config, Golden{702, 0xff631b29b7fe469bULL});
}

TEST(DispatchEquivalence, OfferFailuresOnlyRegressionSeed) {
  ExperimentConfig config =
      BaseConfig(ManagerKind::kOffer, app::SchedulerKind::kDelay, 702);
  config.node_failures = 2;
  config.failure_start = 8.0;
  config.failure_interval = 12.0;
  ExpectMatchesGolden(config, Golden{702, 0x35328efc5655bfb7ULL});
}

}  // namespace
}  // namespace custody::workload
