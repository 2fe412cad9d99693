// The repository benchmark: workload definitions, one timed pass over a
// workload, and the output checks.
//
// Every pass drives the simulator only through the public harness API —
// SubstrateSnapshot::Build, LiveRun construction, simulator().step(),
// save()/restore() and collect() — and times each call from outside, so
// the layer split below needs no instrumentation inside the program:
//
//   setup    Build + LiveRun construction
//   step     the step() loop (manager rounds and rate solves are carved out
//            of it by the program's own ManagerStats/NetStats wall clocks)
//   fork     save() + a fresh LiveRun + restore()
//   collect  LiveRun::collect()
//   codec    ConfigToJson -> ConfigFromJsonText, plus ResultToJson
//
// A pass's wall clock minus the sum of those is the benchmark's own glue
// (teardown, checks, fingerprinting), reported as the unaccounted share.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "workload/experiment.h"

namespace perfbench {

using custody::SimTime;
using custody::workload::ExperimentConfig;
using custody::workload::ExperimentResult;
using custody::workload::ManagerKind;

/// One SubstrateSnapshot::Build shared by the runs of its managers, as
/// CompareManagers does.
struct Cell {
  std::string label;
  ExperimentConfig config;
  std::vector<ManagerKind> managers;
};

struct WorkloadSpec {
  std::string name;
  std::vector<Cell> cells;
  /// Simulated instants at which a forked run pauses, save()s, restore()s
  /// into a fresh LiveRun and continues on it.
  std::vector<SimTime> fork_at;
};

/// paper-grid, steady-10k, churn-1k — in that order.
[[nodiscard]] const std::vector<std::string>& WorkloadNames();
/// The workload's configs, generated from `seed` alone.  Throws
/// std::invalid_argument on an unknown name.
[[nodiscard]] WorkloadSpec MakeWorkload(const std::string& name,
                                        std::uint64_t seed);

enum class PassMode {
  kStraight,  ///< every run drains in one step() loop
  kForked,    ///< every run is forked at each of the spec's fork_at points
  kTraced,    ///< straight, with tracing on and every step() timed
};

/// One LiveRun of a pass.
struct RunOutcome {
  std::string label;
  ManagerKind manager = ManagerKind::kCustody;
  ExperimentResult result;  ///< trace buffer dropped after it is read
  double step_s = 0.0;      ///< this run's share of the pass's step loop
  std::uint64_t digest = 0;
  std::vector<std::string> problems;  ///< empty when every check held
};

/// One cell's share of a pass, teardown included.
struct CellTimes {
  double wall_s = 0.0;
  double setup_s = 0.0;
  double step_s = 0.0;
};

struct PassStats {
  double wall_s = 0.0;
  double build_s = 0.0;
  double context_s = 0.0;
  double step_s = 0.0;
  double fork_s = 0.0;
  double collect_s = 0.0;
  double codec_s = 0.0;
  std::uint64_t events = 0;
  /// Per fork: save + fresh LiveRun + restore, save alone, restore alone
  /// (all ms), and the snapshot's size.
  std::vector<double> fork_ms;
  std::vector<double> save_ms;
  std::vector<double> restore_ms;
  std::vector<double> snapshot_bytes;
  /// Traced passes only: every step() in µs, and the program's own
  /// allocation-round and rate-solve wall times read back from the trace.
  std::vector<double> step_us;
  std::vector<double> round_us;
  std::vector<double> solve_us;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
  std::vector<RunOutcome> runs;
  std::vector<CellTimes> cells;

  [[nodiscard]] double setup_s() const { return build_s + context_s; }
  /// FNV-1a over the runs' digests in order: the workload fingerprint.
  [[nodiscard]] std::uint64_t digest() const;
  [[nodiscard]] std::uint64_t failed_runs() const;
};

/// Runs every run of the workload once.  A traced pass sizes each run's
/// trace ring from `sizing`, an earlier untraced pass of the same spec.
[[nodiscard]] PassStats RunPass(const WorkloadSpec& spec, PassMode mode,
                                const PassStats* sizing = nullptr);

/// The run's own checks: every submitted job completed, and every
/// completed job retired in steady mode.  (RunPass also checks that the
/// event queue drained and that the config survives the JSON codec.)
[[nodiscard]] std::vector<std::string> CheckRun(const ExperimentConfig& config,
                                                const ExperimentResult& result);

/// 64-bit FNV-1a over the exact simulated outputs of one run (events,
/// job counts, every figure summary, launch and cache counters) — never
/// over wall-clock fields or the program's internal work counters.
[[nodiscard]] std::uint64_t RunDigest(const ExperimentResult& result);

/// A recorded workload fingerprint: total events and the pass digest.
struct Fingerprint {
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
};

/// The entry for (workload, seed) in a fingerprint document, if any.
/// Throws std::invalid_argument on a malformed entry.
[[nodiscard]] std::optional<Fingerprint> LookupFingerprint(
    const custody::JsonValue& document, const std::string& workload,
    std::uint64_t seed);

/// Marks the runs of `pass` that disagree with `reference` (run by run)
/// or, when the pass fingerprint misses `recorded`, every run.
void Verify(PassStats& pass, const PassStats* reference,
            const std::optional<Fingerprint>& recorded);

[[nodiscard]] std::string Hex(std::uint64_t value);

}  // namespace perfbench
