// sweep — grid runs from the command line, on the parallel sweep engine.
//
//   ./sweep --nodes 25,50,100 --workloads WordCount,Sort
//          --managers standalone,custody --seeds 42,43,44 --threads 4
//
// Builds the cross product (seed x nodes x workload x manager), runs it
// through workload::RunSweep on the requested number of threads, and
// prints one row per run.  Results are bit-identical for any --threads
// value; only the wall clock changes.
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/table.h"
#include "obs/perfetto.h"
#include "workload/sweep.h"

namespace {

using namespace custody;
using namespace custody::workload;

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> parts;
  std::stringstream stream(text);
  std::string part;
  while (std::getline(stream, part, ',')) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

[[noreturn]] void Usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr
      << "usage: sweep [options]\n"
         "  --nodes <n,n,...>      cluster sizes        (default 25,50,100)\n"
         "  --workloads <w,w,...>  PageRank|WordCount|Sort (default all)\n"
         "  --managers <m,m,...>   standalone|custody|offer|pool\n"
         "                                              (default standalone,custody)\n"
         "  --apps <n>             applications per run (default 4)\n"
         "  --jobs <n>             jobs per application (default 30)\n"
         "  --seeds <s,s,...>      seeds, one grid copy each (default 42)\n"
         "  --threads <n>          worker threads; 0 = all cores (default 1)\n"
         "  --csv <path>           also dump every row as CSV\n"
         "  --trace <dir>          record a span trace per run and write\n"
         "                         Chrome trace-event JSON files into <dir>\n"
         "  --checkpoint-every <s> write a snapshot every <s> simulated\n"
         "                         seconds (single-config grids only)\n"
         "  --checkpoint-dir <dir> where checkpoint files land (default .)\n"
         "  --resume <snapshot>    restore a snapshot before running\n"
         "                         (single-config grids only; the config\n"
         "                         hash must match the snapshot's)\n";
  std::exit(2);
}

double ParseDoubleOrDie(const std::string& text, const std::string& flag) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    Usage(flag + " expects a number, got \"" + text + "\"");
  }
  return value;
}

long long ParseIntOrDie(const std::string& text, const std::string& flag) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    Usage(flag + " expects an integer, got \"" + text + "\"");
  }
  return value;
}

/// A workload or manager name, in any capitalisation.
template <typename E>
E ParseNameOrDie(const std::string& name, const std::string& what) {
  const std::optional<E> value = EnumFromName<E>(name, /*ignore_case=*/true);
  if (!value) Usage("unknown " + what + " \"" + name + "\"");
  return *value;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> nodes{25, 50, 100};
  std::vector<WorkloadKind> workloads{WorkloadKind::kPageRank,
                                      WorkloadKind::kWordCount,
                                      WorkloadKind::kSort};
  std::vector<ManagerKind> managers{ManagerKind::kStandalone,
                                    ManagerKind::kCustody};
  std::vector<std::uint64_t> seeds{42};
  int apps = 4;
  int jobs = 30;
  int threads = 1;
  std::string csv_path;
  std::string trace_dir;
  CheckpointConfig checkpoint;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") Usage();
    if (i + 1 >= argc) Usage(flag + " expects a value");
    const std::string value = argv[++i];
    if (flag == "--nodes") {
      nodes.clear();
      for (const auto& part : SplitCommas(value)) {
        const long long n = ParseIntOrDie(part, flag);
        if (n <= 0) Usage("--nodes entries must be > 0");
        nodes.push_back(static_cast<std::size_t>(n));
      }
    } else if (flag == "--workloads") {
      workloads.clear();
      for (const auto& part : SplitCommas(value)) {
        workloads.push_back(ParseNameOrDie<WorkloadKind>(part, "workload"));
      }
    } else if (flag == "--managers") {
      managers.clear();
      for (const auto& part : SplitCommas(value)) {
        managers.push_back(ParseNameOrDie<ManagerKind>(part, "manager"));
      }
    } else if (flag == "--seeds") {
      seeds.clear();
      for (const auto& part : SplitCommas(value)) {
        seeds.push_back(static_cast<std::uint64_t>(ParseIntOrDie(part, flag)));
      }
    } else if (flag == "--apps") {
      apps = static_cast<int>(ParseIntOrDie(value, flag));
    } else if (flag == "--jobs") {
      jobs = static_cast<int>(ParseIntOrDie(value, flag));
    } else if (flag == "--threads") {
      threads = static_cast<int>(ParseIntOrDie(value, flag));
    } else if (flag == "--csv") {
      csv_path = value;
    } else if (flag == "--trace") {
      trace_dir = value;
    } else if (flag == "--checkpoint-every") {
      checkpoint.every = ParseDoubleOrDie(value, flag);
      if (checkpoint.every <= 0.0) Usage("--checkpoint-every must be > 0");
    } else if (flag == "--checkpoint-dir") {
      checkpoint.directory = value;
    } else if (flag == "--resume") {
      checkpoint.resume_path = value;
    } else {
      Usage("unknown flag \"" + flag + "\"");
    }
  }
  if (nodes.empty() || workloads.empty() || managers.empty() || seeds.empty()) {
    Usage("empty grid");
  }
  const bool checkpointing =
      checkpoint.every > 0.0 || !checkpoint.resume_path.empty();
  if (checkpointing) {
    // A snapshot pins one exact config + manager, and every config of a
    // grid would clobber the same checkpoint files.
    if (nodes.size() * workloads.size() * managers.size() * seeds.size() !=
        1) {
      Usage(
          "--checkpoint-every/--resume need a single-config grid (one "
          "node count, workload, manager and seed)");
    }
    if (!trace_dir.empty()) {
      Usage("--checkpoint-every/--resume are incompatible with --trace");
    }
    if (checkpoint.every > 0.0) {
      std::filesystem::create_directories(checkpoint.directory);
    }
  }

  std::vector<ExperimentConfig> grid;
  for (const std::uint64_t seed : seeds) {
    for (const std::size_t n : nodes) {
      for (const WorkloadKind kind : workloads) {
        for (const ManagerKind manager : managers) {
          ExperimentConfig config;
          config.num_nodes = n;
          config.kinds = {kind};
          config.manager = manager;
          config.trace.num_apps = apps;
          config.trace.jobs_per_app = jobs;
          config.seed = seed;
          config.tracing.enabled = !trace_dir.empty();
          if (checkpointing) config.checkpoint = checkpoint;
          grid.push_back(std::move(config));
        }
      }
    }
  }

  std::cout << "sweep: " << grid.size() << " configs ("
            << seeds.size() << " seeds x " << nodes.size() << " sizes x "
            << workloads.size() << " workloads x " << managers.size()
            << " managers), " << apps << " apps x " << jobs
            << " jobs each, threads=" << threads << "\n\n";

  SweepOptions options;
  options.threads = threads;
  const auto start = std::chrono::steady_clock::now();
  const std::vector<ExperimentResult> results = RunSweep(grid, options);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::unique_ptr<CsvWriter> csv;
  if (!csv_path.empty()) {
    csv = std::make_unique<CsvWriter>(
        csv_path,
        std::vector<std::string>{"seed", "nodes", "workload", "manager",
                                 "task_locality_pct", "local_job_pct",
                                 "jct_mean_s", "makespan_s"});
  }

  if (!trace_dir.empty()) std::filesystem::create_directories(trace_dir);

  AsciiTable table({"seed", "nodes", "workload", "manager", "task locality",
                    "fully local jobs", "mean JCT (s)", "makespan (s)"});
  std::size_t row = 0;
  for (const std::uint64_t seed : seeds) {
    for (const std::size_t n : nodes) {
      for (const WorkloadKind kind : workloads) {
        for ([[maybe_unused]] const ManagerKind manager : managers) {
          const ExperimentResult& r = results[row++];
          if (!trace_dir.empty() && r.trace != nullptr) {
            const std::string path = trace_dir + "/trace_s" +
                                     std::to_string(seed) + "_" +
                                     std::to_string(n) + "n_" +
                                     WorkloadName(kind) + "_" +
                                     r.manager_name + ".json";
            obs::WriteChromeTrace(*r.trace, path);
          }
          table.add_row({std::to_string(seed), std::to_string(n),
                         WorkloadName(kind), r.manager_name,
                         AsciiTable::pct(r.overall_task_locality_percent, 2),
                         AsciiTable::pct(r.local_job_percent, 2),
                         AsciiTable::fmt(r.jct.mean, 2),
                         AsciiTable::fmt(r.makespan, 1)});
          if (csv) {
            csv->add_row({std::to_string(seed), std::to_string(n),
                          WorkloadName(kind), r.manager_name,
                          AsciiTable::fmt(r.overall_task_locality_percent, 4),
                          AsciiTable::fmt(r.local_job_percent, 4),
                          AsciiTable::fmt(r.jct.mean, 4),
                          AsciiTable::fmt(r.makespan, 4)});
          }
        }
      }
    }
  }
  table.print(std::cout);
  std::cout << "\n" << grid.size() << " runs in " << AsciiTable::fmt(wall, 2)
            << " s wall (" << AsciiTable::fmt(wall / grid.size(), 2)
            << " s/run at threads=" << threads << ")\n";
  return 0;
}
