#include "bench.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "sim/simulator.h"
#include "svc/json_api.h"
#include "workload/harness.h"

namespace perfbench {
namespace {

using custody::workload::LiveRun;
using custody::workload::SubstrateSnapshot;
using custody::workload::WorkloadKind;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t Fnv(std::uint64_t hash, const std::string& text) {
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= kFnvPrime;
  }
  return hash;
}

// Each workload replays its configuration over several instances, each
// under its own seed drawn from the benchmark seed.  The seed fixes the
// catalog, placement and arrivals, and one instance's cost moves by tens
// of percent from seed to seed; a run's figures are sums over instances so
// that two benchmark seeds measure nearly the same amount of work.
constexpr int kGridInstances = 48;
constexpr int kSteadyInstances = 18;
constexpr int kChurnInstances = 32;
// Jobs per application on the figure grid: the paper's 30.
constexpr int kGridJobsPerApp = 30;
// Jobs per steady-10k instance (the bench_steady_state node-sweep row at
// CUSTODY_BENCH_STEADY_SWEEP_JOBS of this many) and per churn-1k instance.
constexpr int kSteadyJobs = 500;
constexpr int kChurnJobs = 100;

// Instance 0 runs the benchmark seed itself, so its outputs can be checked
// against the bench/ binaries at CUSTODY_BENCH_SEED; the others draw
// SplitMix64 successors, cut to 53 bits because the JSON config codec
// carries seeds as doubles.
std::uint64_t InstanceSeed(std::uint64_t seed, int instance) {
  if (instance == 0) return seed;
  std::uint64_t z = seed + static_cast<std::uint64_t>(instance) *
                               0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) >> 11;
}

std::string InstanceLabel(const std::string& what, std::uint64_t seed) {
  return what + "@" + std::to_string(seed);
}

ExperimentConfig PaperCell(WorkloadKind kind, std::size_t nodes,
                           std::uint64_t seed) {
  // Identical to bench_common.h's PaperConfig, so the grid's outputs can be
  // cross-checked against bench_fig7_locality / bench_fig8_jct.
  ExperimentConfig config;
  config.num_nodes = nodes;
  config.executors_per_node = 2;
  config.block_mb = 128.0;
  config.replication = 3;
  config.uplink_gbps = 2.0;
  config.downlink_gbps = 40.0;
  config.kinds = {kind};
  config.trace.num_apps = 4;
  config.trace.jobs_per_app = kGridJobsPerApp;
  config.seed = seed;
  return config;
}

// Open-loop arrivals scaled with node count, as bench_steady_state's
// SteadyBenchConfig builds them (flat row).
ExperimentConfig SteadyConfig(int total_jobs, std::size_t nodes,
                              std::uint64_t seed) {
  ExperimentConfig config;
  config.num_nodes = nodes;
  config.executors_per_node = 2;
  config.kinds = {WorkloadKind::kWordCount, WorkloadKind::kSort};
  config.trace.num_apps = 4;
  config.trace.jobs_per_app = total_jobs / 4;
  config.trace.mean_interarrival = 16.0 * 100.0 / static_cast<double>(nodes);
  config.steady.enabled = true;
  config.steady.retire_jobs = true;
  config.steady.streaming_metrics = true;
  config.steady.warmup = 50.0 * config.trace.mean_interarrival;
  config.seed = seed;
  return config;
}

SimTime ArrivalHorizon(const ExperimentConfig& config) {
  return config.trace.jobs_per_app * config.trace.mean_interarrival;
}

WorkloadSpec PaperGrid(std::uint64_t seed) {
  WorkloadSpec spec{"paper-grid", {}, {}};
  for (int i = 0; i < kGridInstances; ++i) {
    const std::uint64_t instance_seed = InstanceSeed(seed, i);
    for (const std::size_t nodes : {25, 50, 100}) {
      for (const WorkloadKind kind : {WorkloadKind::kPageRank,
                                      WorkloadKind::kWordCount,
                                      WorkloadKind::kSort}) {
        spec.cells.push_back(
            {InstanceLabel(std::to_string(nodes) + "n-" +
                               custody::workload::WorkloadName(kind),
                           instance_seed),
             PaperCell(kind, nodes, instance_seed),
             {ManagerKind::kStandalone, ManagerKind::kCustody}});
      }
    }
  }
  spec.fork_at = {0.5 * ArrivalHorizon(spec.cells.front().config)};
  return spec;
}

WorkloadSpec Steady10k(std::uint64_t seed) {
  WorkloadSpec spec{"steady-10k", {}, {}};
  for (int i = 0; i < kSteadyInstances; ++i) {
    const std::uint64_t instance_seed = InstanceSeed(seed, i);
    spec.cells.push_back({InstanceLabel("10000n-steady", instance_seed),
                          SteadyConfig(kSteadyJobs, 10000, instance_seed),
                          {ManagerKind::kCustody}});
  }
  spec.fork_at = {0.5 * ArrivalHorizon(spec.cells.front().config)};
  return spec;
}

ExperimentConfig ChurnConfig(std::uint64_t seed) {
  ExperimentConfig config = SteadyConfig(kChurnJobs, 1000, seed);
  const SimTime horizon = ArrivalHorizon(config);
  config.steady.diurnal_amplitude = 0.5;
  config.steady.diurnal_period = horizon / 2.0;
  config.steady.warmup = 0.1 * horizon;
  config.cache_mb_per_node = 4096.0;
  config.slow_node_fraction = 0.1;
  config.speculation = true;
  // Failure waves across the arrival horizon: replica loss, re-replication
  // and cache invalidation all run while jobs keep arriving.
  config.node_failures = 20;
  config.failure_start = 0.1 * horizon;
  config.failure_interval = 0.8 * horizon / config.node_failures;
  return config;
}

WorkloadSpec Churn1k(std::uint64_t seed) {
  WorkloadSpec spec{"churn-1k", {}, {}};
  for (int i = 0; i < kChurnInstances; ++i) {
    const std::uint64_t instance_seed = InstanceSeed(seed, i);
    spec.cells.push_back({InstanceLabel("1000n-churn", instance_seed),
                          ChurnConfig(instance_seed),
                          {ManagerKind::kCustody}});
  }
  const SimTime horizon = ArrivalHorizon(spec.cells.front().config);
  spec.fork_at = {0.25 * horizon, 0.5 * horizon, 0.75 * horizon};
  return spec;
}

void Append(std::string& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s=%.17g;", key, value);
  out += buf;
}

void Append(std::string& out, const char* key, std::uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s=%" PRIu64 ";", key, value);
  out += buf;
}

void Append(std::string& out, const char* key, const custody::Summary& s) {
  out += key;
  out += '{';
  Append(out, "n", static_cast<std::uint64_t>(s.count));
  for (const auto& [name, value] :
       {std::pair{"mean", s.mean}, {"sd", s.stddev}, {"min", s.min},
        {"p25", s.p25}, {"p50", s.median}, {"p75", s.p75}, {"p95", s.p95},
        {"p99", s.p99}, {"max", s.max}}) {
    Append(out, name, value);
  }
  out += '}';
}

RunOutcome RunOne(const SubstrateSnapshot& snapshot, ManagerKind manager,
                  const std::vector<SimTime>& fork_at, PassMode mode,
                  PassStats& pass) {
  RunOutcome out;
  out.manager = manager;

  auto start = Clock::now();
  auto run = std::make_unique<LiveRun>(snapshot, manager);
  pass.context_s += Since(start);

  if (mode == PassMode::kForked) {
    for (const SimTime at : fork_at) {
      start = Clock::now();
      run->run_until(at);
      out.step_s += Since(start);
      if (run->drained()) break;
      const auto t0 = Clock::now();
      const std::vector<std::uint8_t> bytes = run->save();
      const auto t1 = Clock::now();
      auto fresh = std::make_unique<LiveRun>(snapshot, manager);
      const auto t2 = Clock::now();
      fresh->restore(bytes);
      const auto t3 = Clock::now();
      using Ms = std::chrono::duration<double, std::milli>;
      pass.save_ms.push_back(Ms(t1 - t0).count());
      pass.restore_ms.push_back(Ms(t3 - t2).count());
      pass.fork_ms.push_back(Ms(t3 - t0).count());
      pass.fork_s += Ms(t3 - t0).count() / 1e3;
      pass.snapshot_bytes.push_back(static_cast<double>(bytes.size()));
      run = std::move(fresh);
    }
  }

  custody::sim::Simulator& sim = run->simulator();
  start = Clock::now();
  if (mode == PassMode::kTraced) {
    for (;;) {
      const auto t0 = Clock::now();
      const bool more = sim.step();
      if (!more) break;
      pass.step_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
    }
  } else {
    while (sim.step()) {
    }
  }
  out.step_s += Since(start);
  pass.step_s += out.step_s;
  if (!run->drained()) out.problems.push_back("event queue not drained");

  start = Clock::now();
  out.result = run->collect();
  pass.collect_s += Since(start);

  const ExperimentConfig& config = snapshot.config();
  start = Clock::now();
  const std::string config_json = custody::svc::ConfigToJson(config);
  const std::string round_trip = custody::svc::ConfigToJson(
      custody::svc::ConfigFromJsonText(config_json));
  const std::string result_json = custody::svc::ResultToJson(out.result);
  pass.codec_s += Since(start);
  if (round_trip != config_json) {
    out.problems.push_back("config changed through the JSON codec");
  }
  if (result_json.empty()) out.problems.push_back("empty result JSON");

  if (const auto& trace = out.result.trace) {
    for (const custody::obs::TraceEvent& e : trace->events()) {
      // Skipped rounds never run the allocator and record no wall time.
      if (e.kind == custody::obs::EventKind::kAllocRound && e.value > 0.0) {
        pass.round_us.push_back(e.value * 1e6);
      } else if (e.kind == custody::obs::EventKind::kRateSolve) {
        pass.solve_us.push_back(e.value * 1e6);
      }
    }
    pass.trace_events += trace->recorded();
    pass.trace_dropped += trace->dropped();
    out.result.trace.reset();
  }

  pass.events += out.result.events_processed;
  for (std::string& problem : CheckRun(config, out.result)) {
    out.problems.push_back(std::move(problem));
  }
  out.digest = RunDigest(out.result);
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names{"paper-grid", "steady-10k",
                                              "churn-1k"};
  return names;
}

WorkloadSpec MakeWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "paper-grid") return PaperGrid(seed);
  if (name == "steady-10k") return Steady10k(seed);
  if (name == "churn-1k") return Churn1k(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

std::uint64_t PassStats::digest() const {
  std::uint64_t hash = kFnvOffset;
  for (const RunOutcome& run : runs) hash = Fnv(hash, Hex(run.digest));
  return hash;
}

std::uint64_t PassStats::failed_runs() const {
  std::uint64_t failed = 0;
  for (const RunOutcome& run : runs) failed += run.problems.empty() ? 0 : 1;
  return failed;
}

PassStats RunPass(const WorkloadSpec& spec, PassMode mode,
                  const PassStats* sizing) {
  PassStats pass;
  const auto pass_start = Clock::now();
  std::size_t index = 0;
  for (const Cell& cell : spec.cells) {
    ExperimentConfig config = cell.config;
    if (mode == PassMode::kTraced) {
      config.tracing.enabled = true;
      // Every run's ring must hold its whole trace (obs.trace_dropped = 0);
      // size it from the same run's untraced event count.
      std::uint64_t events = 0;
      for (std::size_t m = 0; m < cell.managers.size(); ++m) {
        if (sizing != nullptr && index + m < sizing->runs.size()) {
          events = std::max(events,
                            sizing->runs[index + m].result.events_processed);
        }
      }
      config.tracing.capacity = 6 * events + (std::size_t{1} << 16);
    }
    const auto cell_start = Clock::now();
    const double setup_before = pass.setup_s();
    const double step_before = pass.step_s;
    {
      auto start = Clock::now();
      const SubstrateSnapshot snapshot = SubstrateSnapshot::Build(config);
      pass.build_s += Since(start);
      for (const ManagerKind manager : cell.managers) {
        RunOutcome run = RunOne(snapshot, manager, spec.fork_at, mode, pass);
        run.label = cell.label;
        pass.runs.push_back(std::move(run));
        ++index;
      }
    }
    pass.cells.push_back({Since(cell_start), pass.setup_s() - setup_before,
                          pass.step_s - step_before});
  }
  pass.wall_s = Since(pass_start);
  return pass;
}

std::vector<std::string> CheckRun(const ExperimentConfig& config,
                                  const ExperimentResult& result) {
  std::vector<std::string> problems;
  const std::uint64_t submitted = static_cast<std::uint64_t>(
      config.trace.num_apps * config.trace.jobs_per_app);
  if (result.jobs_completed != submitted) {
    problems.push_back("completed " + std::to_string(result.jobs_completed) +
                       " of " + std::to_string(submitted) + " jobs");
  }
  if (config.steady.enabled && config.steady.retire_jobs &&
      result.jobs_retired != result.jobs_completed) {
    problems.push_back("retired " + std::to_string(result.jobs_retired) +
                       " of " + std::to_string(result.jobs_completed) +
                       " completed jobs");
  }
  return problems;
}

std::uint64_t RunDigest(const ExperimentResult& r) {
  std::string text = r.manager_name + ';';
  Append(text, "events", r.events_processed);
  Append(text, "jobs", r.jobs_completed);
  Append(text, "retired", r.jobs_retired);
  Append(text, "peak_live_tasks", r.peak_live_tasks);
  Append(text, "makespan", r.makespan);
  Append(text, "task_locality", r.overall_task_locality_percent);
  Append(text, "local_jobs", r.local_job_percent);
  for (const double fraction : r.per_app_local_job_fraction) {
    Append(text, "app_local", fraction);
  }
  Append(text, "job_locality", r.job_locality);
  Append(text, "jct", r.jct);
  Append(text, "input_stage", r.input_stage);
  Append(text, "sched_delay", r.sched_delay);
  Append(text, "net_bytes", r.net_bytes_delivered);
  Append(text, "cache_insertions", r.cache_insertions);
  Append(text, "cache_hits", r.cache_hits);
  Append(text, "spec_launches", r.speculative_launches);
  Append(text, "spec_wins", r.speculative_wins);
  Append(text, "nodes_failed", static_cast<std::uint64_t>(r.nodes_failed));
  Append(text, "local", r.launches_local);
  Append(text, "covered_busy", r.launches_covered_busy);
  Append(text, "uncovered", r.launches_uncovered);
  return Fnv(kFnvOffset, text);
}

std::optional<Fingerprint> LookupFingerprint(
    const custody::JsonValue& document, const std::string& workload,
    std::uint64_t seed) {
  const custody::JsonValue* workloads = document.find("workloads");
  const custody::JsonValue* entries =
      workloads != nullptr ? workloads->find(workload) : nullptr;
  const custody::JsonValue* entry =
      entries != nullptr ? entries->find(std::to_string(seed)) : nullptr;
  if (entry == nullptr) return std::nullopt;
  const custody::JsonValue* events = entry->find("events");
  const custody::JsonValue* digest = entry->find("digest");
  if (events == nullptr || !events->is_number() || digest == nullptr ||
      !digest->is_string()) {
    throw std::invalid_argument("fingerprint entry " + workload + "/" +
                                std::to_string(seed) +
                                " needs a numeric events and a string digest");
  }
  return Fingerprint{static_cast<std::uint64_t>(events->as_number()),
                     std::stoull(digest->as_string(), nullptr, 16)};
}

void Verify(PassStats& pass, const PassStats* reference,
            const std::optional<Fingerprint>& recorded) {
  if (reference != nullptr) {
    for (std::size_t i = 0; i < pass.runs.size(); ++i) {
      if (i >= reference->runs.size() ||
          pass.runs[i].digest != reference->runs[i].digest) {
        pass.runs[i].problems.push_back(
            "outputs differ from the straight reference run");
      }
    }
  }
  if (recorded &&
      (pass.events != recorded->events || pass.digest() != recorded->digest)) {
    const std::string problem =
        "fingerprint events=" + std::to_string(pass.events) +
        " digest=" + Hex(pass.digest()) + " does not match the recorded " +
        "events=" + std::to_string(recorded->events) +
        " digest=" + Hex(recorded->digest);
    for (RunOutcome& run : pass.runs) run.problems.push_back(problem);
  }
}

std::string Hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

}  // namespace perfbench
