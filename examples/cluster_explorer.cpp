// cluster_explorer — a command-line front end to the experiment runner.
//
// Explore any point of the design space from the shell:
//
//   ./examples/cluster_explorer --nodes 100 --workload sort
//       --manager custody --jobs 30 --apps 4 --seed 7 --wait 3
//       --replication 3 --csv run.csv
//
// Prints the full metric set for the chosen configuration; with --compare
// it runs the standalone baseline on the identical layout and shows gains.
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/csv.h"
#include "common/table.h"
#include "workload/experiment.h"

namespace {

using namespace custody;
using namespace custody::workload;

void Usage(const char* argv0) {
  std::cout
      << "usage: " << argv0 << " [options]\n"
      << "  --nodes N         worker nodes (default 50)\n"
      << "  --workload W      pagerank | wordcount | sort | mixed\n"
      << "  --manager M       standalone | custody | offer | pool\n"
      << "  --apps N          concurrent applications (default 4)\n"
      << "  --jobs N          jobs per application (default 30)\n"
      << "  --seed S          experiment seed (default 42)\n"
      << "  --wait S          delay-scheduling locality wait (default 3)\n"
      << "  --replication R   DFS replication factor (default 3)\n"
      << "  --interarrival S  mean per-app inter-arrival (default 16)\n"
      << "  --cache MB        per-node block cache in MB (default 0 = off)\n"
      << "  --speculate       clone slow input tasks (straggler mitigation)\n"
      << "  --slow-nodes F    fraction of nodes running 4x slower\n"
      << "  --failures N      crash N random nodes mid-run\n"
      << "  --compare         also run the standalone baseline and diff\n"
      << "  --csv PATH        append one row per run to a CSV file\n";
}

[[noreturn]] void Die(const std::string& error) {
  std::cerr << "error: " << error << "\n";
  std::exit(2);
}

// Strict flag values: the whole text must parse, in range, or the run
// stops with exit status 2 (atoi-style parsing turned "abc" into 0).
long long ParseInteger(const std::string& flag, const char* text,
                       long long lo, long long hi, const char* expected) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || value < lo ||
      value > hi) {
    Die(flag + " expects " + expected + ", got \"" + text + "\"");
  }
  return value;
}

int ParseInt(const std::string& flag, const char* text) {
  return static_cast<int>(ParseInteger(
      flag, text, std::numeric_limits<int>::min(),
      std::numeric_limits<int>::max(), "a 32-bit integer"));
}

std::uint64_t ParseCount(const std::string& flag, const char* text) {
  return static_cast<std::uint64_t>(
      ParseInteger(flag, text, 0, std::numeric_limits<long long>::max(),
                   "a non-negative integer"));
}

double ParseDouble(const std::string& flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (errno != 0 || end == text || *end != '\0') {
    Die(flag + " expects a number, got \"" + text + "\"");
  }
  return value;
}

void PrintResult(const ExperimentResult& r) {
  AsciiTable table({"metric", "value"});
  table.add_row({"manager", r.manager_name});
  table.add_row({"jobs completed", std::to_string(r.jobs_completed)});
  table.add_row({"input-task locality",
                 AsciiTable::pct(r.overall_task_locality_percent)});
  table.add_row({"per-job locality mean ± std",
                 AsciiTable::pct(r.job_locality.mean) + " ± " +
                     AsciiTable::fmt(r.job_locality.stddev)});
  table.add_row({"perfectly local jobs",
                 AsciiTable::pct(r.local_job_percent)});
  table.add_row({"mean JCT", AsciiTable::fmt(r.jct.mean) + " s"});
  table.add_row({"p95 JCT", AsciiTable::fmt(r.jct.p95) + " s"});
  table.add_row({"mean input stage",
                 AsciiTable::fmt(r.input_stage.mean) + " s"});
  table.add_row({"mean scheduler delay",
                 AsciiTable::fmt(r.sched_delay.mean, 3) + " s"});
  table.add_row({"makespan", AsciiTable::fmt(r.makespan, 1) + " s"});
  table.add_row({"events simulated", std::to_string(r.events_processed)});
  table.add_row({"offers made (rejected)",
                 std::to_string(r.manager_stats.offers_made) + " (" +
                     std::to_string(r.manager_stats.offers_rejected) + ")"});
  if (r.cache_insertions > 0) {
    table.add_row({"cache fills / hits",
                   std::to_string(r.cache_insertions) + " / " +
                       std::to_string(r.cache_hits)});
  }
  if (r.speculative_launches > 0) {
    table.add_row({"speculative clones (wins)",
                   std::to_string(r.speculative_launches) + " (" +
                       std::to_string(r.speculative_wins) + ")"});
  }
  if (r.nodes_failed > 0) {
    table.add_row({"nodes failed", std::to_string(r.nodes_failed)});
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentConfig config;
  config.num_nodes = 50;
  bool compare = false;
  std::string csv_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else if (arg == "--nodes") {
      config.num_nodes = ParseCount(arg, next());
    } else if (arg == "--workload") {
      const std::string name = next();
      if (name == "mixed") {
        config.kinds = {WorkloadKind::kPageRank, WorkloadKind::kWordCount,
                        WorkloadKind::kSort};
      } else if (auto kind = EnumFromName<WorkloadKind>(name, true)) {
        config.kinds = {*kind};
      } else {
        Die("unknown workload: " + name);
      }
    } else if (arg == "--manager") {
      const std::string name = next();
      if (auto manager = EnumFromName<ManagerKind>(name, true)) {
        config.manager = *manager;
      } else {
        Die("unknown manager: " + name);
      }
    } else if (arg == "--apps") {
      config.trace.num_apps = ParseInt(arg, next());
    } else if (arg == "--jobs") {
      config.trace.jobs_per_app = ParseInt(arg, next());
    } else if (arg == "--seed") {
      config.seed = ParseCount(arg, next());
    } else if (arg == "--wait") {
      config.scheduler.locality_wait = ParseDouble(arg, next());
    } else if (arg == "--replication") {
      config.replication = ParseInt(arg, next());
    } else if (arg == "--interarrival") {
      config.trace.mean_interarrival = ParseDouble(arg, next());
    } else if (arg == "--cache") {
      config.cache_mb_per_node = ParseDouble(arg, next());
    } else if (arg == "--speculate") {
      config.speculation = true;
    } else if (arg == "--slow-nodes") {
      config.slow_node_fraction = ParseDouble(arg, next());
    } else if (arg == "--failures") {
      config.node_failures = ParseInt(arg, next());
    } else if (arg == "--compare") {
      compare = true;
    } else if (arg == "--csv") {
      csv_path = next();
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      Usage(argv[0]);
      return 2;
    }
  }

  // Out-of-range values (a negative count, NaN, replication above the node
  // count) are ValidateConfig's to reject, naming the field.
  ExperimentResult result;
  try {
    result = RunExperiment(config);
  } catch (const std::invalid_argument& error) {
    Die(error.what());
  }
  PrintResult(result);

  if (compare) {
    auto baseline_config = config;
    baseline_config.manager = ManagerKind::kStandalone;
    const auto baseline = RunExperiment(baseline_config);
    std::cout << "\n--- baseline (standalone) on the identical layout ---\n";
    PrintResult(baseline);
    std::cout << "\nlocality gain: +"
              << AsciiTable::pct(
                     GainPercent(baseline.job_locality.mean,
                                 result.job_locality.mean))
              << ", JCT reduction: -"
              << AsciiTable::pct(
                     ReductionPercent(baseline.jct.mean, result.jct.mean))
              << "\n";
  }

  if (!csv_path.empty()) {
    CsvWriter csv(csv_path,
                  {"manager", "nodes", "workloads", "jobs", "seed",
                   "locality_pct", "jct_mean_s", "sched_delay_s"});
    csv.add_row({result.manager_name, std::to_string(config.num_nodes),
                 std::to_string(config.kinds.size()),
                 std::to_string(config.trace.jobs_per_app),
                 std::to_string(config.seed),
                 AsciiTable::fmt(result.overall_task_locality_percent),
                 AsciiTable::fmt(result.jct.mean),
                 AsciiTable::fmt(result.sched_delay.mean, 4)});
    std::cout << "wrote " << csv_path << "\n";
  }
  return 0;
}
