// The benchmark's output checks must turn every kind of wrong output into a
// failed run: a fingerprint that misses the recorded one, a run that
// differs from its straight reference, and a job-count shortfall.  The
// workloads must come from the seed alone, with grid instance 0 equal to
// the figure benches' grid.
#include <gtest/gtest.h>

#include "bench.h"
#include "bench_common.h"
#include "common/json.h"
#include "svc/json_api.h"

namespace perfbench {
namespace {

// One cell of the figure grid (standalone + Custody) keeps the test short
// while exercising the same pass code as the full workload.
WorkloadSpec OneGridCell() {
  WorkloadSpec spec = MakeWorkload("paper-grid", 42);
  spec.cells.resize(1);
  return spec;
}

TEST(PerfbenchChecks, MatchingFingerprintPasses) {
  PassStats pass = RunPass(OneGridCell(), PassMode::kStraight);
  ASSERT_EQ(pass.runs.size(), 2u);
  Verify(pass, nullptr, Fingerprint{pass.events, pass.digest()});
  EXPECT_EQ(pass.failed_runs(), 0u);
}

TEST(PerfbenchChecks, TamperedFingerprintFailsEveryRun) {
  PassStats pass = RunPass(OneGridCell(), PassMode::kStraight);
  Verify(pass, nullptr, Fingerprint{pass.events, pass.digest() ^ 1});
  EXPECT_EQ(pass.failed_runs(), pass.runs.size());

  PassStats again = RunPass(OneGridCell(), PassMode::kStraight);
  Verify(again, nullptr, Fingerprint{again.events + 1, again.digest()});
  EXPECT_EQ(again.failed_runs(), again.runs.size());
}

TEST(PerfbenchChecks, ForkedAndTracedPassesMatchTheStraightOne) {
  const WorkloadSpec spec = OneGridCell();
  const PassStats straight = RunPass(spec, PassMode::kStraight);
  PassStats forked = RunPass(spec, PassMode::kForked);
  EXPECT_EQ(forked.fork_ms.size(), forked.runs.size());
  Verify(forked, &straight, std::nullopt);
  EXPECT_EQ(forked.failed_runs(), 0u);

  PassStats traced = RunPass(spec, PassMode::kTraced, &straight);
  Verify(traced, &straight, std::nullopt);
  EXPECT_EQ(traced.failed_runs(), 0u);
  EXPECT_GT(traced.trace_events, 0u);
  EXPECT_EQ(traced.trace_dropped, 0u);
  EXPECT_EQ(traced.step_us.size(), straight.events);

  PassStats tampered = straight;
  tampered.runs[1].digest ^= 1;
  Verify(forked, &tampered, std::nullopt);
  EXPECT_EQ(forked.failed_runs(), 1u);
}

TEST(PerfbenchChecks, JobCountMismatchIsAFailedRun) {
  const WorkloadSpec grid = OneGridCell();
  const ExperimentConfig& config = grid.cells[0].config;
  PassStats pass = RunPass(grid, PassMode::kStraight);
  ExperimentResult result = pass.runs[0].result;
  EXPECT_TRUE(CheckRun(config, result).empty());
  result.jobs_completed -= 1;
  EXPECT_EQ(CheckRun(config, result).size(), 1u);

  const ExperimentConfig steady =
      MakeWorkload("steady-10k", 42).cells[0].config;
  ExperimentResult retired;
  retired.jobs_completed = static_cast<std::uint64_t>(
      steady.trace.num_apps * steady.trace.jobs_per_app);
  retired.jobs_retired = retired.jobs_completed;
  EXPECT_TRUE(CheckRun(steady, retired).empty());
  retired.jobs_retired -= 1;
  EXPECT_EQ(CheckRun(steady, retired).size(), 1u);
}

TEST(PerfbenchChecks, FingerprintLookup) {
  const custody::JsonValue doc = custody::JsonReader::Parse(
      R"({"workloads": {"churn-1k": {"7": {"events": 12,)"
      R"( "digest": "00000000000000ff"}}}})");
  const auto found = LookupFingerprint(doc, "churn-1k", 7);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->events, 12u);
  EXPECT_EQ(found->digest, 255u);
  EXPECT_FALSE(LookupFingerprint(doc, "churn-1k", 8).has_value());
  EXPECT_FALSE(LookupFingerprint(doc, "paper-grid", 7).has_value());

  const custody::JsonValue bad = custody::JsonReader::Parse(
      R"({"workloads": {"churn-1k": {"7": {"events": "12"}}}})");
  EXPECT_THROW((void)LookupFingerprint(bad, "churn-1k", 7),
               std::invalid_argument);
}

// Instance 0 of the grid is exactly the bench_fig7_locality /
// bench_fig8_jct grid at the same seed, so their outputs cross-check.
TEST(PerfbenchWorkloads, GridInstanceZeroIsThePaperGrid) {
  const WorkloadSpec spec = MakeWorkload("paper-grid", custody::bench::Seed());
  std::size_t cell = 0;
  for (const std::size_t nodes : custody::bench::PaperClusterSizes()) {
    for (const auto kind : custody::bench::PaperWorkloads()) {
      ASSERT_LT(cell, spec.cells.size());
      EXPECT_EQ(custody::svc::ConfigToJson(spec.cells[cell++].config),
                custody::svc::ConfigToJson(
                    custody::bench::PaperConfig(kind, nodes)));
    }
  }
}

TEST(PerfbenchWorkloads, InstancesAreSeededFromTheBenchmarkSeed) {
  for (const std::string& name : WorkloadNames()) {
    const WorkloadSpec a = MakeWorkload(name, 7);
    const WorkloadSpec b = MakeWorkload(name, 7);
    const WorkloadSpec c = MakeWorkload(name, 8);
    ASSERT_EQ(a.cells.size(), c.cells.size());
    EXPECT_EQ(a.cells.front().config.seed, 7u);
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
      EXPECT_EQ(a.cells[i].config.seed, b.cells[i].config.seed);
      EXPECT_NE(a.cells[i].config.seed, c.cells[i].config.seed);
      EXPECT_LT(a.cells[i].config.seed, std::uint64_t{1} << 53);
    }
  }
}

TEST(PerfbenchChecks, UnknownWorkloadIsRejected) {
  EXPECT_THROW((void)MakeWorkload("no-such-workload", 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
