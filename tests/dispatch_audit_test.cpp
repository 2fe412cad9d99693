// Audit of the application's incremental dispatch state, checked after
// every simulated event rather than only through end-of-run digests.
//
// A kick visits only the executors its cached verdicts cannot answer: free
// held executors on nodes with local ready input, which it finds through a
// pending-candidate list, and a reused "nothing useful in the pool"
// verdict stands in for a rescan while two epochs are unchanged.  Both are
// exact only if every way into those sets feeds the list and every way the
// pool verdict can flip bumps an epoch.  Application::audit_dispatch_state
// compares both against ground truth; this suite runs it after each step of
// every manager x scheduler policy x feature scenario, across mid-run
// save/restores into fresh LiveRuns.
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "workload/harness.h"

namespace custody::workload {
namespace {

enum class Scenario { kCache, kFailures, kSpeculation, kSteady };

// Where each run is saved and restored into a fresh LiveRun: the failures
// scenario's crash instants.  A crash's re-replication can give an idle
// executor's node local input with no kick to follow, exactly the state a
// restore must rebuild kick candidates for.
constexpr SimTime kForkPoints[] = {8.0, 14.0, 20.0};

ExperimentConfig AuditConfig(ManagerKind manager, app::SchedulerKind kind,
                             Scenario scenario, std::uint64_t seed) {
  ExperimentConfig config;
  config.num_nodes = 16;
  config.executors_per_node = 2;
  config.manager = manager;
  config.kinds = {WorkloadKind::kWordCount, WorkloadKind::kSort};
  // Three tenants over few, shared files, arriving fast enough to queue:
  // locality waits, cached blocks read by other apps, executors idling on
  // nodes whose input belongs to someone else.
  config.trace.num_apps = 3;
  config.trace.jobs_per_app = 6;
  config.trace.files_per_kind = 3;
  config.trace.mean_interarrival = 4.0;
  config.scheduler.kind = kind;
  config.seed = seed;
  switch (scenario) {
    case Scenario::kCache:
      // Cache inserts and evictions move blocks in and out of locality.
      config.cache_mb_per_node = 256.0;
      config.trace.zipf_skew = 1.2;
      break;
    case Scenario::kFailures:
      // Failures with clones running: a reset primary frees its clone's
      // executor, and re-replication gives nodes new local input.
      config.node_failures = 3;
      config.failure_start = 8.0;
      config.failure_interval = 6.0;
      config.slow_node_fraction = 0.3;
      config.speculation = true;
      config.cache_mb_per_node = 256.0;
      break;
    case Scenario::kSpeculation:
      config.slow_node_fraction = 0.3;
      config.speculation = true;
      break;
    case Scenario::kSteady:
      config.steady.enabled = true;
      config.steady.retire_jobs = true;
      config.steady.streaming_metrics = true;
      break;
  }
  return config;
}

/// Empty when every application's dispatch state matches ground truth.
std::string Audit(LiveRun& run) {
  for (const auto& app : run.apps()) {
    std::string problem = app->audit_dispatch_state();
    if (!problem.empty()) return problem;
  }
  return {};
}

/// Step `run` one event at a time, auditing after each, until the clock
/// reaches `until` (or the queue drains); returns the events audited.
std::uint64_t StepAudited(LiveRun& run, SimTime until) {
  sim::Simulator& sim = run.simulator();
  std::uint64_t steps = 0;
  while (sim.now() < until && sim.step()) {
    ++steps;
    const std::string problem = Audit(run);
    if (!problem.empty()) {
      ADD_FAILURE() << "after event " << sim.events_processed() << " at t="
                    << sim.now() << ": " << problem;
      return steps;
    }
  }
  return steps;
}

class DispatchAudit
    : public testing::TestWithParam<
          std::tuple<ManagerKind, app::SchedulerKind, Scenario>> {};

TEST_P(DispatchAudit, IncrementalStateMatchesGroundTruthEveryEvent) {
  const auto [manager, kind, scenario] = GetParam();
  const SubstrateSnapshot snapshot = SubstrateSnapshot::Build(
      AuditConfig(manager, kind, scenario, 900 + static_cast<int>(scenario)));
  auto run = std::make_unique<LiveRun>(snapshot, manager);
  ASSERT_EQ(Audit(*run), "");
  for (const SimTime at : kForkPoints) {
    StepAudited(*run, at);
    // Finish the timestamp so the snapshot sits between events.
    run->run_until(run->simulator().now());
    ASSERT_EQ(Audit(*run), "") << "at t=" << at;
    ASSERT_FALSE(run->drained()) << "fork point t=" << at
                                 << " lies past the run's end";
    const std::vector<std::uint8_t> bytes = run->save();
    run = std::make_unique<LiveRun>(snapshot, manager);
    run->restore(bytes);
    ASSERT_EQ(Audit(*run), "") << "right after restoring at t=" << at;
  }
  EXPECT_GT(StepAudited(*run, std::numeric_limits<SimTime>::infinity()), 0u);
  ASSERT_TRUE(run->drained());

  // Kick visits follow work, not free executors: each visit is a full
  // pick, a straggler clone, or the one failed straggler probe per kick.
  const ExperimentResult result = run->collect();
  const app::DispatchCounters& d = result.dispatch;
  EXPECT_GT(d.kicks, 0u);
  EXPECT_LE(d.kick_visits,
            d.full_picks + result.speculative_launches + d.kicks);
}

// Regression, found by the benchmark's paper-grid fingerprint: in the
// paper's Fig. 7 setup (50 nodes, WordCount, standalone, 4 apps x 30 jobs)
// at this seed, a stale locality retry fires at the very instant an
// earlier kick ended with a "nothing launchable" verdict.  Replaying that
// verdict in the retry's own kick skipped the pick that arms the next
// retry, and the run lost an event.
TEST(DispatchAudit, StaleRetryAtACarriedVerdictPicksAgain) {
  ExperimentConfig config;
  config.num_nodes = 50;
  config.executors_per_node = 2;
  config.block_mb = 128.0;
  config.replication = 3;
  config.uplink_gbps = 2.0;
  config.downlink_gbps = 40.0;
  config.kinds = {WorkloadKind::kWordCount};
  config.trace.num_apps = 4;
  config.trace.jobs_per_app = 30;
  config.manager = ManagerKind::kStandalone;
  config.seed = 6019463006644384ULL;
  const SubstrateSnapshot snapshot = SubstrateSnapshot::Build(config);
  LiveRun run(snapshot, ManagerKind::kStandalone);
  StepAudited(run, std::numeric_limits<SimTime>::infinity());
  ASSERT_TRUE(run.drained());
}

std::string ScenarioName(Scenario s) {
  switch (s) {
    case Scenario::kCache:
      return "cache";
    case Scenario::kFailures:
      return "failures";
    case Scenario::kSpeculation:
      return "speculation";
    case Scenario::kSteady:
      return "steady";
  }
  return "?";
}

INSTANTIATE_TEST_SUITE_P(
    AllManagersPoliciesAndScenarios, DispatchAudit,
    testing::Combine(
        testing::Values(ManagerKind::kCustody, ManagerKind::kStandalone,
                        ManagerKind::kPool, ManagerKind::kOffer),
        testing::Values(app::SchedulerKind::kDelay,
                        app::SchedulerKind::kLocalityPreferred,
                        app::SchedulerKind::kFifo),
        testing::Values(Scenario::kCache, Scenario::kFailures,
                        Scenario::kSpeculation, Scenario::kSteady)),
    [](const auto& info) {
      return std::string(EnumToName(std::get<0>(info.param))) + "_" +
             std::string(EnumToName(std::get<1>(info.param))) + "_" +
             ScenarioName(std::get<2>(info.param));
    });

}  // namespace
}  // namespace custody::workload
