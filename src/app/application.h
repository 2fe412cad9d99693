// The application driver — the simulator's stand-in for a Spark driver.
//
// An Application owns its jobs, compiles submitted JobSpecs into stages and
// tasks, schedules tasks onto the executors the cluster manager granted it
// (via delay scheduling by default), simulates their execution against the
// DFS and the network, and reports metrics.  It implements
// cluster::AppHandle, which is the entire surface a manager sees.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "app/job.h"
#include "app/scheduler.h"
#include "cluster/cluster.h"
#include "cluster/manager.h"
#include "common/pool.h"
#include "common/rng.h"
#include "common/types.h"
#include "dfs/cache.h"
#include "dfs/dfs.h"
#include "metrics/metrics.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace custody::obs {
class Tracer;
}

namespace custody::app {

/// Experiment-wide id counters so task/job ids stay unique across
/// applications (and deterministic across runs).
struct IdSource {
  TaskId::value_type next_task = 0;
  JobId::value_type next_job = 0;
};

struct AppConfig {
  /// Dynamic managers (Custody, offers): release executors that have no
  /// ready work.  The standalone baseline keeps its static set forever.
  bool dynamic_executors = true;
  /// Custody's adaptive re-allocation (paper Sec. IV-C): an idle executor
  /// with no local runnable work is handed back when the cluster pool holds
  /// an executor on a node that stores one of our uncovered input blocks,
  /// letting the manager swap it for the right one.
  bool locality_swap = true;
  SchedulerConfig scheduler;
  /// How many distinct source nodes a shuffle task fetches from.
  int shuffle_fan_in = 3;

  // --- speculative execution (straggler mitigation, paper Sec. IV-B) ------
  /// Clone slow input tasks onto idle executors; first attempt to finish
  /// wins, the other is cancelled.
  bool speculation = false;
  /// A running task is slow when its elapsed time exceeds this multiple of
  /// the mean duration of its stage's finished tasks.
  double speculation_multiplier = 1.5;

  /// Steady-state retirement: destroy a job (stages and task records
  /// included) the moment it finishes, returning its memory to the
  /// application's job pool so million-job runs hold only live jobs.  Off
  /// by default — tests and figure scripts read finished jobs back via
  /// find_job.
  bool retire_finished_jobs = false;
};

/// Deterministic app-side dispatch work counters.  Run-lifetime totals,
/// not part of the snapshot: a restored run counts from zero.
struct DispatchCounters {
  std::uint64_t kicks = 0;
  /// Executors a kick sweep examined (full picks plus verdict replays).
  std::uint64_t kick_visits = 0;
  /// TaskScheduler::pick calls.
  std::uint64_t full_picks = 0;
  /// "Is an idle executor useful to us" pool scans run, and the ones that
  /// reused the cached "nothing useful" verdict instead.
  std::uint64_t pool_scans_run = 0;
  std::uint64_t pool_scans_reused = 0;

  DispatchCounters& operator+=(const DispatchCounters& o) {
    kicks += o.kicks;
    kick_visits += o.kick_visits;
    full_picks += o.full_picks;
    pool_scans_run += o.pool_scans_run;
    pool_scans_reused += o.pool_scans_reused;
    return *this;
  }
};

class Application final : public cluster::AppHandle {
 public:
  Application(AppId id, sim::Simulator& sim, net::Network& net,
              const dfs::Dfs& dfs, cluster::Cluster& cluster,
              metrics::MetricsCollector& metrics, IdSource& ids, Rng rng,
              AppConfig config);
  ~Application() override;

  Application(const Application&) = delete;
  Application& operator=(const Application&) = delete;

  /// Must be called once before the first submit_job.
  void attach_manager(cluster::ClusterManager& manager);

  /// Optional: an executor-side block cache shared across applications.
  /// Remote reads populate it; cached blocks count as local afterwards.
  void attach_cache(dfs::BlockCache* cache);

  /// Optional span tracing (null disables; the default).  Must be attached
  /// before attach_manager so grant-time bookkeeping is complete.  Tracing
  /// consumes no RNG and schedules nothing: results are bit-identical with
  /// or without it.
  void attach_tracer(obs::Tracer* tracer);

  /// A user submits an analytic request; Custody's allocation hook runs
  /// before the job's tasks become launchable (paper Sec. IV-C).
  JobId submit_job(const JobSpec& spec);

  // --- cluster::AppHandle --------------------------------------------------
  [[nodiscard]] AppId id() const override { return id_; }
  [[nodiscard]] std::vector<core::JobDemand> pending_demand() const override;
  [[nodiscard]] int wanted_executors() const override;
  [[nodiscard]] core::LocalityStats locality() const override;
  void set_share(int share) override { share_ = share; }
  void on_executor_granted(ExecutorId exec) override;
  void on_executor_lost(ExecutorId exec) override;
  bool consider_offer(ExecutorId exec, NodeId node) override;

  // --- introspection (tests, benches) --------------------------------------
  [[nodiscard]] int share() const { return share_; }
  [[nodiscard]] int executors_held() const;
  [[nodiscard]] std::vector<ExecutorId> held_executors() const;
  /// Why input tasks launched the way they did (diagnostics/ablation).
  /// 64-bit: lifetime counters, which streaming runs push past 2^32.
  struct LaunchBreakdown {
    std::uint64_t local = 0;
    /// Non-local although a held executor's node stored the block (the
    /// local slot was busy and the delay-scheduling wait ran out).
    std::uint64_t covered_busy = 0;
    /// Non-local because no held executor was on any replica node.
    std::uint64_t uncovered = 0;
  };
  [[nodiscard]] const LaunchBreakdown& launch_breakdown() const {
    return breakdown_;
  }

  [[nodiscard]] std::uint64_t jobs_submitted() const {
    return jobs_submitted_;
  }
  [[nodiscard]] std::uint64_t jobs_completed() const {
    return jobs_completed_;
  }
  [[nodiscard]] std::uint64_t speculative_launches() const {
    return spec_launches_;
  }
  [[nodiscard]] std::uint64_t speculative_wins() const { return spec_wins_; }
  /// Jobs destroyed through the pool (0 unless retire_finished_jobs).
  [[nodiscard]] std::uint64_t jobs_retired() const { return jobs_retired_; }
  /// High-water mark of live task records — the bounded-memory witness for
  /// steady-state runs (submitted-minus-retired stays small).
  [[nodiscard]] std::uint64_t peak_live_tasks() const {
    return peak_live_tasks_;
  }
  [[nodiscard]] const DispatchCounters& dispatch_counters() const {
    return dispatch_;
  }
  /// Test-only audit of the incremental dispatch state against ground
  /// truth, to call between events: every free held executor on a node
  /// with local ready input is a pending kick candidate; a reusable cached
  /// pool verdict equals a fresh scan; a carried pick verdict equals a
  /// fresh pick (whose job stamps are put back); and, against what the
  /// previous call saw, while the index epoch is unchanged no block
  /// joined the ready set and no ready block's locations changed, and
  /// while the pool epoch is unchanged the idle pool only shrank and this
  /// app's per-node holdings only grew.  Empty when consistent, else a
  /// description of the first violation.  Changes nothing the simulation
  /// reads.
  [[nodiscard]] std::string audit_dispatch_state();
  /// Jobs currently materialized (submitted minus retired).
  [[nodiscard]] std::size_t live_jobs() const { return jobs_by_id_.size(); }
  [[nodiscard]] bool idle() const { return active_jobs_.empty(); }
  /// Null for unknown ids — including jobs already retired.
  [[nodiscard]] const Job* find_job(JobId id) const;

  // --- snapshot/restore ----------------------------------------------------
  /// Serialize jobs, tasks (with typed pending-timer descriptors), the RNG,
  /// counters and the retry-event descriptor.  The executor ledger lives in
  /// the Cluster; flow callbacks are rebuilt from FlowLabels on restore.
  void SaveTo(snap::SnapshotWriter& w) const;
  /// Rebuild from a snapshot taken on an identically-configured app.  Jobs
  /// are re-created from the pool in id order, pending timers re-armed
  /// under their original sequence numbers, and the ready-task index
  /// reconstructed from the restored task states.
  void RestoreFrom(snap::SnapshotReader& r);
  /// Network restore hook: rebuild the completion callback a live flow had
  /// when the snapshot was taken, from the label the flow was started with.
  [[nodiscard]] net::Network::CompletionFn rebuild_flow_callback(
      FlowId flow, const net::FlowLabel& label, NodeId src, NodeId dst);

 private:
  Task& task(TaskId id);
  const Task& task(TaskId id) const;
  /// Nullptr for erased tasks (finished jobs) — used by stale callbacks.
  Task* find_task(TaskId id);
  Job& job(JobId id);
  /// Abort all in-flight work of a running task and make it ready again.
  void reset_task(Task& t);

  /// Try to put every idle held executor to work.
  void kick();
  /// Every way one of our executors becomes free goes through here (a
  /// grant, a finished or abandoned attempt): clear its busy flag, make it
  /// a kick candidate, stamp its idle time for tracing.
  void mark_free(ExecutorId exec);
  void launch(Task& t, ExecutorId exec);
  void finish_task(Task& t);
  /// Speculative execution: pick a slow running input task worth cloning
  /// onto an idle executor at `node`; invalid id when none qualifies.
  [[nodiscard]] TaskId pick_speculative(NodeId node) const;
  void launch_clone(Task& t, ExecutorId exec);

  // --- attempt operations: `i` is the slot, kPrimary or kClone -----------
  /// Input tasks: read the block onto attempt `i`'s node from its disk, a
  /// cached copy or a remote replica.
  void start_read(Task& t, int i);
  void start_compute(Task& t, int i);
  /// Attempt `i` delivered the task's result; the other one is aborted.
  void finish_attempt(Task& t, int i);
  /// Cancel attempt `i`'s timer and flow; free its executor if alive.
  void abort_attempt(Task& t, int i);
  /// Schedule attempt `i`'s timer and record its snapshot descriptor.
  void arm_timer(Task& t, int i, TimerKind kind, double delay);
  /// The epoch-guarded timer and flow callbacks: live scheduling and
  /// snapshot restore build them from the same descriptor data.
  [[nodiscard]] sim::EventFn timer_fn(TaskId id, std::uint32_t epoch,
                                      TimerKind kind, int i);
  [[nodiscard]] net::Network::CompletionFn flow_fn(const net::FlowLabel& label,
                                                   NodeId dst);
  void complete_stage(Job& j, Stage& stage);
  void mark_stage_ready(Job& j, Stage& stage);
  void finish_job(Job& j);
  void maybe_release_idle_executors();
  void arm_retry(SimTime at);
  /// The pending retry event's body.
  void retry_fired();
  [[nodiscard]] int count_ready_tasks() const;
  /// True when an *unallocated* executor sits on a replica node of a ready
  /// input task that no held executor can serve locally.  Reuses the last
  /// `false` while the cluster's pool epoch and the index epoch are both
  /// unchanged: nothing that could turn it true has happened since.
  [[nodiscard]] bool pool_has_useful_executor();
  /// The uncached scan behind pool_has_useful_executor.
  [[nodiscard]] bool scan_pool_for_useful_executor() const;
  /// (pool epoch, index epoch) the cached "nothing useful" verdict holds
  /// for.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> pool_epochs() const {
    return {cluster_.pool_epoch(), index_.epoch()};
  }
  /// Disk replicas, plus cached copies when a cache is attached.
  [[nodiscard]] const std::vector<NodeId>& locations_of(BlockId block) const;

  AppId id_;
  sim::Simulator& sim_;
  net::Network& net_;
  const dfs::Dfs& dfs_;
  cluster::Cluster& cluster_;
  metrics::MetricsCollector& metrics_;
  IdSource& ids_;
  Rng rng_;
  AppConfig config_;
  cluster::ClusterManager* manager_ = nullptr;
  dfs::BlockCache* cache_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  /// Tracing only: when each held executor last became idle, so the
  /// analyzer can split ready→launch into executor-wait vs scheduler
  /// delay.  Maintained solely when a tracer is attached (read-only
  /// bookkeeping; never feeds scheduling decisions).
  std::unordered_map<ExecutorId, SimTime> exec_idle_since_;
  /// Kick candidates: executors noted as they became free for this app
  /// (grants, finished or aborted attempts) plus the free held executors
  /// on each node as it gains its first local ready input.  Unordered,
  /// may hold duplicates and stale ids; always a superset of the free held
  /// executors on nodes with local ready input.  A kick consumes it.
  std::vector<ExecutorId> pending_free_;
  /// Reused buffers: the candidates a kick is consuming, and the executors
  /// a release pass hands back.
  std::vector<ExecutorId> kick_candidates_;
  std::vector<ExecutorId> release_scratch_;
  /// (now, index epoch) when the last kick ended holding a "nothing
  /// launchable" pick verdict.
  std::optional<std::pair<SimTime, std::uint64_t>> null_verdict_at_;
  /// pool_epochs() when pool_has_useful_executor last answered false.
  std::optional<std::pair<std::uint64_t, std::uint64_t>> pool_useless_at_;
  DispatchCounters dispatch_;
  /// What audit_dispatch_state saw last (null until its first call).
  struct AuditView;
  std::unique_ptr<AuditView> audit_view_;
  /// Dispatch index over the ready tasks, kept fresh via task state
  /// transitions here plus Dfs replica / BlockCache change listeners.
  /// Declared before scheduler_, which holds a reference to it.
  ReadyTaskIndex index_;
  TaskScheduler scheduler_;
  dfs::Dfs::ListenerId dfs_listener_ = 0;
  dfs::BlockCache::ListenerId cache_listener_ = 0;
  int running_tasks_ = 0;

  int share_ = 0;
  std::unordered_map<TaskId, Task> tasks_;
  /// Job storage: jobs live in the chunked pool so steady-state retirement
  /// recycles their memory instead of churning the heap; the id map's nodes
  /// come from the same pool.  Declaration order matters — the pool must
  /// outlive (construct before) the containers drawing from it.
  PoolResource pool_;
  ObjectPool<Job> job_pool_{pool_};
  using JobMap =
      std::unordered_map<JobId, Job*, std::hash<JobId>, std::equal_to<JobId>,
                         PoolAllocator<std::pair<const JobId, Job*>>>;
  JobMap jobs_by_id_{JobMap::allocator_type(pool_)};
  std::vector<Job*> active_jobs_;  // submission order (FIFO for scheduling)
  std::uint64_t jobs_submitted_ = 0;
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t jobs_retired_ = 0;
  std::uint64_t peak_live_tasks_ = 0;
  std::uint64_t spec_launches_ = 0;
  std::uint64_t spec_wins_ = 0;
  core::LocalityStats achieved_;  // over launched input work
  LaunchBreakdown breakdown_;
  sim::EventHandle retry_event_;
  SimTime retry_time_ = -1.0;
  /// Snapshot descriptor of the pending retry event.  The armed time is
  /// recorded separately from retry_time_: the queue holds now + max(0,
  /// at - now), which can differ from `at` in the last ulp.
  SimTime retry_armed_time_ = 0.0;
  std::uint64_t retry_seq_ = 0;
  bool in_kick_ = false;
};

}  // namespace custody::app
