// perfbench: one workload of the repository benchmark per invocation.
//
//   perfbench --workload <paper-grid|steady-10k|churn-1k> --seed <n>
//             --seconds <s> --trace <0|1> [--fingerprints <file>]
//   perfbench --record <file>
//
// --trace 0 makes forked passes, at least one and more while --seconds
// allows, and prints the end-to-end metrics.  --trace 1 alternates an
// untraced forked pass with a traced straight pass the same way and prints
// the per-layer metrics.  Every run's outputs are checked (see bench.h);
// the last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// --record writes the fingerprints of every workload at the recorded seeds
// from straight passes, for the fingerprint file the checks compare with.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/json.h"
#include "common/stats.h"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDevelopmentSeed = 42;
// Never used while tuning anything; later performance claims must also
// hold here.
constexpr std::uint64_t kHeldOutSeed = 20261017;
// Setup, step loop, forks, collect and codec, timed from outside, must
// cover the pass wall clock to within this share.
constexpr double kAccountingMargin = 0.05;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string fingerprints;
  std::string record;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--fingerprints <file>]\n"
               "       perfbench --record <file>\n";
  std::exit(2);
}

std::uint64_t ParseUnsigned(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  try {
    const unsigned long long value = std::stoull(text, &used, 10);
    if (used == text.size() && text[0] != '-') return value;
  } catch (const std::exception&) {
  }
  Usage(flag + " needs a non-negative integer, got \"" + text + "\"");
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = ParseUnsigned(flag, value);
      // The JSON config codec carries seeds as doubles.
      if (options.seed >= (std::uint64_t{1} << 53)) {
        Usage("--seed must be below 2^53");
      }
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(ParseUnsigned(flag, value));
    } else if (flag == "--trace") {
      options.trace = static_cast<int>(ParseUnsigned(flag, value));
    } else if (flag == "--fingerprints") {
      options.fingerprints = value;
    } else if (flag == "--record") {
      options.record = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!options.record.empty()) return options;
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    Usage("unknown workload \"" + options.workload + "\"");
  }
  if (options.seconds < 1) Usage("--seconds must be at least 1");
  if (options.trace != 0 && options.trace != 1) Usage("--trace must be 0 or 1");
  return options;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  return custody::Summarize(std::move(values)).median;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return custody::Percentile(values, q);
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

template <typename F>
std::vector<double> Each(const std::vector<PassStats>& passes, F f) {
  std::vector<double> out;
  for (const PassStats& pass : passes) out.push_back(f(pass));
  return out;
}

std::vector<double> Pool(const std::vector<PassStats>& passes,
                         std::vector<double> PassStats::*field) {
  std::vector<double> out;
  for (const PassStats& pass : passes) {
    out.insert(out.end(), (pass.*field).begin(), (pass.*field).end());
  }
  return out;
}

std::string MachineContext() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::ostringstream out;
  out << "cpu=\"" << cpu << "\" nproc=" << std::thread::hardware_concurrency()
      << " compiler=\"" << PERFBENCH_COMPILER << "\" build_type="
      << PERFBENCH_BUILD_TYPE;
  return out.str();
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

// Fidelity over the Custody runs, job-weighted: share of jobs whose input
// was fully local, and mean simulated JCT.
std::pair<double, double> CustodyFidelity(const PassStats& pass) {
  double jobs = 0.0, local = 0.0, jct = 0.0;
  for (const RunOutcome& run : pass.runs) {
    if (run.manager != ManagerKind::kCustody) continue;
    const double n = static_cast<double>(run.result.jct.count);
    jobs += n;
    local += n * run.result.local_job_percent;
    jct += n * run.result.jct.mean;
  }
  return {Ratio(local, jobs), Ratio(jct, jobs)};
}

// Mean per-cell JCT reduction of Custody against standalone, as
// bench_fig8_jct averages it (paper: 14.9%).
std::optional<double> JctReduction(const PassStats& pass) {
  double total = 0.0;
  int cells = 0;
  for (std::size_t i = 0; i + 1 < pass.runs.size(); ++i) {
    const RunOutcome& base = pass.runs[i];
    const RunOutcome& ours = pass.runs[i + 1];
    if (base.manager == ManagerKind::kStandalone &&
        ours.manager == ManagerKind::kCustody && base.label == ours.label) {
      total += custody::ReductionPercent(base.result.jct.mean,
                                         ours.result.jct.mean);
      ++cells;
    }
  }
  if (cells == 0) return std::nullopt;
  return total / cells;
}

// Other tenants of the host share its caches and memory bandwidth; their
// load only ever adds time and comes in bursts of seconds.  So a repeated
// piece of work costs the fastest of its repeats: per cell for the timings
// summed over a workload, per fork for fork_ms.
double SumOfFastest(const std::vector<PassStats>& passes,
                    double CellTimes::*field) {
  double total = 0.0;
  for (std::size_t c = 0; c < passes.front().cells.size(); ++c) {
    double best = passes.front().cells[c].*field;
    for (const PassStats& pass : passes) best = std::min(best, pass.cells[c].*field);
    total += best;
  }
  return total;
}

std::vector<double> FastestEach(const std::vector<PassStats>& passes,
                                std::vector<double> PassStats::*field) {
  std::vector<double> best = passes.front().*field;
  for (const PassStats& pass : passes) {
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], (pass.*field)[i]);
    }
  }
  return best;
}

std::vector<Metric> EndToEnd(const std::vector<PassStats>& passes) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto [local_pct, jct_mean] = CustodyFidelity(passes.front());
  return {
      {"wall_s", SumOfFastest(passes, &CellTimes::wall_s), "s"},
      {"events_per_s",
       Ratio(static_cast<double>(passes.front().events),
             SumOfFastest(passes, &CellTimes::step_s)),
       "1/s"},
      {"setup_s", SumOfFastest(passes, &CellTimes::setup_s), "s"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
      {"fork_ms", Median(FastestEach(passes, &PassStats::fork_ms)), "ms"},
      {"local_job_pct", local_pct, "%"},
      {"jct_mean_s", jct_mean, "sim-s"},
  };
}

// Program-side counters summed over the runs of one untraced pass.
struct Counters {
  double rounds = 0, round_records = 0, yield_weighted = 0, skipped = 0;
  double scanned = 0, apps_considered = 0, alloc_wall = 0;
  double solves_requested = 0, solves = 0, batched = 0, flows = 0, links = 0;
  double components = 0, dirty = 0, rescans = 0, net_wall = 0;
  double local = 0, covered_busy = 0, uncovered = 0, spec = 0, spec_wins = 0;
  double peak_live_tasks = 0, cache_hits = 0, cache_insertions = 0;
  double nodes_failed = 0;
};

Counters Sum(const PassStats& pass) {
  Counters c;
  for (const RunOutcome& run : pass.runs) {
    const ExperimentResult& r = run.result;
    const auto& m = r.manager_stats;
    const auto& n = r.net_stats;
    c.rounds += m.allocation_rounds;
    c.round_records += r.round_wall.count;
    c.yield_weighted += r.round_yield_fraction * r.round_wall.count;
    c.skipped += m.rounds_skipped;
    c.scanned += m.executors_scanned;
    c.apps_considered += m.apps_considered;
    c.alloc_wall += m.allocation_wall_seconds;
    c.solves_requested += n.recomputes_requested;
    c.solves += n.recomputes_run;
    c.batched += n.recomputes_batched;
    c.flows += n.flows_scanned;
    c.links += n.links_scanned;
    c.components += n.components_total;
    c.dirty += n.components_dirty;
    c.rescans += n.completion_rescans;
    c.net_wall += n.wall_seconds;
    c.local += r.launches_local;
    c.covered_busy += r.launches_covered_busy;
    c.uncovered += r.launches_uncovered;
    c.spec += r.speculative_launches;
    c.spec_wins += r.speculative_wins;
    c.peak_live_tasks =
        std::max(c.peak_live_tasks, static_cast<double>(r.peak_live_tasks));
    c.cache_hits += r.cache_hits;
    c.cache_insertions += r.cache_insertions;
    c.nodes_failed += r.nodes_failed;
  }
  return c;
}

std::vector<Metric> PerLayer(const std::vector<PassStats>& untraced,
                             const std::vector<PassStats>& traced) {
  // Counters are deterministic, so any untraced pass gives them.
  const PassStats& u = untraced.front();
  const Counters c = Sum(u);
  const double kevents = static_cast<double>(u.events) / 1e3;
  const double launches = c.local + c.covered_busy + c.uncovered;
  const auto median = [&untraced](auto f) { return Median(Each(untraced, f)); };
  const double step_s = median([](const PassStats& p) { return p.step_s; });
  const double alloc_share = Ratio(c.alloc_wall, u.step_s);
  const double net_share = Ratio(c.net_wall, u.step_s);
  const auto wall_share = [&median](double PassStats::*field) {
    return median([field](const PassStats& p) { return Ratio(p.*field, p.wall_s); });
  };
  const double accounted_share = median([](const PassStats& p) {
    return Ratio(p.build_s + p.context_s + p.step_s + p.fork_s + p.collect_s +
                     p.codec_s,
                 p.wall_s);
  });
  const std::vector<double> step_us = Pool(traced, &PassStats::step_us);
  const std::vector<double> round_us = Pool(traced, &PassStats::round_us);
  const std::vector<double> solve_us = Pool(traced, &PassStats::solve_us);
  const PassStats& t = traced.front();
  const double traced_step_s =
      Median(Each(traced, [](const PassStats& p) { return p.step_s; }));
  return {
      {"workload.build_s", median([](const PassStats& p) { return p.build_s; }), "s"},
      {"workload.context_s", median([](const PassStats& p) { return p.context_s; }), "s"},
      {"workload.setup_share", median([](const PassStats& p) { return Ratio(p.setup_s(), p.wall_s); }), "ratio"},
      {"sim.run_s", step_s, "s"},
      {"sim.step_share", wall_share(&PassStats::step_s), "ratio"},
      {"sim.events", static_cast<double>(u.events), "count"},
      {"sim.step_us_p50", Quantile(step_us, 0.5), "us"},
      {"sim.step_us_p99", Quantile(step_us, 0.99), "us"},
      {"cluster.alloc_wall_share", alloc_share, "ratio"},
      {"cluster.rounds_per_kevent", Ratio(c.rounds, kevents), "1/kevent"},
      {"cluster.round_yield", Ratio(c.yield_weighted, c.round_records), "ratio"},
      {"cluster.rounds_skipped_ratio", Ratio(c.skipped, c.rounds), "ratio"},
      {"cluster.round_us_p50", Quantile(round_us, 0.5), "us"},
      {"cluster.round_us_p99", Quantile(round_us, 0.99), "us"},
      {"core.executors_scanned_per_round", Ratio(c.scanned, c.rounds - c.skipped), "count"},
      {"core.apps_considered_per_round", Ratio(c.apps_considered, c.rounds - c.skipped), "count"},
      {"net.solve_wall_share", net_share, "ratio"},
      {"net.solves_per_kevent", Ratio(c.solves, kevents), "1/kevent"},
      {"net.batched_ratio", Ratio(c.batched, c.solves_requested), "ratio"},
      {"net.flows_scanned_per_solve", Ratio(c.flows, c.solves), "count"},
      {"net.links_scanned_per_solve", Ratio(c.links, c.solves), "count"},
      {"net.dirty_component_ratio", Ratio(c.dirty, c.components), "ratio"},
      {"net.completion_rescans", c.rescans, "count"},
      {"net.solve_us_p50", Quantile(solve_us, 0.5), "us"},
      {"net.solve_us_p99", Quantile(solve_us, 0.99), "us"},
      {"residual.wall_share", 1.0 - alloc_share - net_share, "ratio"},
      {"app.launches_per_kevent", Ratio(launches, kevents), "1/kevent"},
      {"app.local_launch_ratio", Ratio(c.local, launches), "ratio"},
      {"app.covered_busy", c.covered_busy, "count"},
      {"app.uncovered", c.uncovered, "count"},
      {"app.spec_launches", c.spec, "count"},
      {"app.spec_win_ratio", Ratio(c.spec_wins, c.spec), "ratio"},
      {"app.peak_live_tasks", c.peak_live_tasks, "count"},
      {"dfs.cache_hits", c.cache_hits, "count"},
      {"dfs.cache_insertions", c.cache_insertions, "count"},
      {"dfs.nodes_failed", c.nodes_failed, "count"},
      {"snap.save_ms", Median(Pool(untraced, &PassStats::save_ms)), "ms"},
      {"snap.restore_ms", Median(Pool(untraced, &PassStats::restore_ms)), "ms"},
      {"snap.bytes", Median(Pool(untraced, &PassStats::snapshot_bytes)), "bytes"},
      {"snap.fork_share", wall_share(&PassStats::fork_s), "ratio"},
      {"metrics.collect_ms", 1e3 * median([](const PassStats& p) { return p.collect_s; }), "ms"},
      {"metrics.collect_share", wall_share(&PassStats::collect_s), "ratio"},
      {"svc.codec_ms", 1e3 * median([](const PassStats& p) { return p.codec_s; }), "ms"},
      {"svc.codec_share", wall_share(&PassStats::codec_s), "ratio"},
      {"obs.trace_events", static_cast<double>(t.trace_events), "count"},
      {"obs.trace_dropped", static_cast<double>(t.trace_dropped), "count"},
      {"obs.tracing_overhead", Ratio(traced_step_s, step_s) - 1.0, "ratio"},
      {"bench.unaccounted_share", 1.0 - accounted_share, "ratio"},
  };
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Add(const PassStats& pass, const char* kind) {
    attempted += pass.runs.size();
    failed += pass.failed_runs();
    for (const RunOutcome& run : pass.runs) {
      for (const std::string& problem : run.problems) {
        std::cout << "FAILED " << kind << " run " << run.label << " ("
                  << custody::workload::ManagerName(run.manager)
                  << "): " << problem << '\n';
      }
    }
  }
};

custody::JsonValue LoadFingerprints(const std::string& path) {
  if (path.empty()) return custody::JsonValue::MakeObject({});
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read fingerprints " + path);
  std::stringstream text;
  text << in.rdbuf();
  return custody::JsonReader::Parse(text.str());
}

int Record(const std::string& path) {
  std::ostringstream out;
  out << "{\n  \"held_out_seed\": " << kHeldOutSeed
      << ",\n  \"workloads\": {";
  const char* workload_sep = "\n";
  for (const std::string& name : WorkloadNames()) {
    out << workload_sep << "    \"" << name << "\": {";
    workload_sep = ",\n";
    const char* seed_sep = "\n";
    for (const std::uint64_t seed : {kDevelopmentSeed, kHeldOutSeed}) {
      PassStats pass = RunPass(MakeWorkload(name, seed), PassMode::kStraight);
      if (pass.failed_runs() != 0) {
        std::cerr << "perfbench: " << name << " seed " << seed
                  << " fails its checks; nothing recorded\n";
        return 1;
      }
      out << seed_sep << "      \"" << seed << "\": {\"events\": "
          << pass.events << ", \"digest\": \"" << Hex(pass.digest()) << "\"}";
      seed_sep = ",\n";
      std::cerr << "recorded " << name << " seed " << seed << '\n';
    }
    out << "\n    }";
  }
  out << "\n  }\n}\n";
  std::ofstream file(path);
  file << out.str();
  return file ? 0 : 1;
}

// Every run's simulated outputs, for cross-checks against the bench/
// binaries, and the workload fingerprint.
void PrintRuns(const PassStats& pass) {
  for (const RunOutcome& run : pass.runs) {
    const ExperimentResult& r = run.result;
    std::cout << "run " << run.label << ' '
              << custody::workload::ManagerName(run.manager)
              << " events=" << r.events_processed
              << " jobs=" << r.jobs_completed
              << " locality_mean=" << Number(r.job_locality.mean)
              << " jct_mean=" << Number(r.jct.mean)
              << " step_s=" << Number(run.step_s) << '\n';
  }
  std::cout << "fingerprint events=" << pass.events
            << " digest=" << Hex(pass.digest()) << '\n';
}

void PrintResult(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " = " << Number(m.value) << ' '
              << m.unit << '\n';
  }
  std::cout << "run_fail_ratio = "
            << Number(Ratio(static_cast<double>(tally.failed),
                            static_cast<double>(tally.attempted)))
            << " (" << tally.failed << " of " << tally.attempted
            << " runs failed a check)\n";
  std::cout << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const Metric& m : metrics) {
    std::cout << sep << '"' << m.name << "\": {\"value\": " << Number(m.value)
              << ", \"unit\": \"" << m.unit << "\"}";
    sep = ", ";
  }
  std::cout << "}}" << std::endl;
}

int Run(const Options& options) {
  const WorkloadSpec spec = MakeWorkload(options.workload, options.seed);
  const auto recorded = LookupFingerprint(LoadFingerprints(options.fingerprints),
                                          options.workload, options.seed);
  std::cout << "machine " << MachineContext() << '\n'
            << "workload " << spec.name << " seed " << options.seed
            << (recorded ? " (fingerprint recorded)" : "") << " trace "
            << options.trace << '\n';

  Tally tally;
  std::vector<Metric> metrics;
  const auto start = Clock::now();
  const auto elapsed = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  // Another pass starts only while it is expected to end within --seconds.
  const auto time_left_for = [&](double pass_s) {
    return elapsed() + pass_s <= options.seconds;
  };
  if (options.trace == 0) {
    std::vector<PassStats> passes;
    do {
      PassStats pass = RunPass(spec, PassMode::kForked);
      Verify(pass, passes.empty() ? nullptr : &passes.front(), recorded);
      tally.Add(pass, "forked");
      passes.push_back(std::move(pass));
    } while (time_left_for(passes.back().wall_s));
    metrics = EndToEnd(passes);
    PrintRuns(passes.front());
    std::cout << "pass wall_s:";
    for (const PassStats& pass : passes) std::cout << ' ' << Number(pass.wall_s);
    std::cout << "\nsamples: " << passes.size() << " passes of "
              << passes.front().cells.size() << " cells, "
              << passes.front().fork_ms.size() << " forks each\n";
    if (const auto reduction = JctReduction(passes.front())) {
      std::cout << "jct_reduction_pct = " << Number(*reduction)
                << " % (paper: 14.9 %)\n";
    }
  } else {
    std::vector<PassStats> untraced;
    std::vector<PassStats> traced;
    do {
      PassStats plain = RunPass(spec, PassMode::kForked);
      Verify(plain, nullptr, recorded);
      tally.Add(plain, "forked");
      PassStats with_trace = RunPass(spec, PassMode::kTraced, &plain);
      Verify(with_trace, &plain, std::nullopt);
      tally.Add(with_trace, "traced");
      untraced.push_back(std::move(plain));
      traced.push_back(std::move(with_trace));
    } while (time_left_for(untraced.back().wall_s + traced.back().wall_s));
    metrics = PerLayer(untraced, traced);
    for (const Metric& m : metrics) {
      if (m.name == "bench.unaccounted_share" && m.value > kAccountingMargin) {
        std::cout << "WARNING: the timed phases leave " << Number(m.value)
                  << " of the pass wall clock unaccounted (margin "
                  << kAccountingMargin << ")\n";
      }
    }
    PrintRuns(untraced.front());
    std::cout << "samples: " << untraced.size() << " untraced + "
              << traced.size() << " traced passes, "
              << Pool(traced, &PassStats::step_us).size() << " steps, "
              << Pool(traced, &PassStats::round_us).size() << " rounds, "
              << Pool(traced, &PassStats::solve_us).size() << " solves\n";
  }
  PrintResult(tally, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  try {
    return options.record.empty() ? Run(options) : Record(options.record);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
