#include "app/application.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>

#include "common/log.h"
#include "common/snapshot.h"
#include "obs/trace.h"

namespace custody::app {

namespace {

// FlowLabel callback kinds — the application's private recipe for
// rebuilding a restored flow's completion callback (a = task id, b = task
// epoch, c = app id; see flow_fn).  Snapshots store them.
constexpr std::uint32_t kFlowInputRead = 1;  // primary attempt's input read
constexpr std::uint32_t kFlowCloneRead = 2;  // clone attempt's input read
constexpr std::uint32_t kFlowShuffleFetch = 3;

/// Speculation: finished input-stage siblings needed before their mean
/// duration is trusted to call a running task slow.
constexpr int kSpeculationMinFinished = 3;

/// An attempt's snapshot tail: timer descriptor, then flow id.
void SaveTimerAndFlow(snap::SnapshotWriter& w, const Attempt& a) {
  w.u8(static_cast<std::uint8_t>(a.kind));
  if (a.kind != TimerKind::kNone) {
    w.f64(a.time);
    w.u64(a.seq);
  }
  w.u32(a.flow.value());
}

}  // namespace

Application::Application(AppId id, sim::Simulator& sim, net::Network& net,
                         const dfs::Dfs& dfs, cluster::Cluster& cluster,
                         metrics::MetricsCollector& metrics, IdSource& ids,
                         Rng rng, AppConfig config)
    : id_(id),
      sim_(sim),
      net_(net),
      dfs_(dfs),
      cluster_(cluster),
      metrics_(metrics),
      ids_(ids),
      rng_(rng),
      config_(config),
      index_(dfs),
      scheduler_(config.scheduler, dfs, index_) {
  dfs_listener_ = dfs_.add_replica_listener(
      [this](BlockId block, NodeId node, bool added) {
        if (added) {
          index_.replica_added(block, node);
        } else {
          index_.replica_removed(block, node);
        }
      });
  index_.set_node_listener([this](NodeId node) {
    cluster_.free_held_on(id_, node, pending_free_);
  });
}

Application::~Application() {
  for (auto& [id, j] : jobs_by_id_) job_pool_.destroy(j);
  jobs_by_id_.clear();
  dfs_.remove_replica_listener(dfs_listener_);
  if (cache_ != nullptr) cache_->remove_change_listener(cache_listener_);
}

void Application::attach_manager(cluster::ClusterManager& manager) {
  manager_ = &manager;
  manager.register_app(*this);
}

void Application::attach_cache(dfs::BlockCache* cache) {
  cache_ = cache;
  scheduler_.set_cache(cache);
  if (cache != nullptr) {
    index_.set_cache(cache);
    cache_listener_ = cache->add_change_listener(
        [this](BlockId block, NodeId node, bool cached) {
          if (cached) {
            index_.replica_added(block, node);
          } else {
            index_.replica_removed(block, node);
          }
        });
  }
}

void Application::attach_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

const std::vector<NodeId>& Application::locations_of(BlockId block) const {
  if (cache_ != nullptr) return cache_->merged_locations(block);
  return dfs_.locations(block);
}

Task& Application::task(TaskId id) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) throw std::logic_error("Application: unknown task");
  return it->second;
}

const Task& Application::task(TaskId id) const {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) throw std::logic_error("Application: unknown task");
  return it->second;
}

Task* Application::find_task(TaskId id) {
  auto it = tasks_.find(id);
  return it == tasks_.end() ? nullptr : &it->second;
}

Job& Application::job(JobId id) {
  const auto it = jobs_by_id_.find(id);
  if (it == jobs_by_id_.end()) {
    throw std::logic_error("Application: unknown job");
  }
  return *it->second;
}

const Job* Application::find_job(JobId id) const {
  const auto it = jobs_by_id_.find(id);
  return it == jobs_by_id_.end() ? nullptr : it->second;
}

JobId Application::submit_job(const JobSpec& spec) {
  if (manager_ == nullptr) {
    throw std::logic_error("Application: attach_manager before submit_job");
  }
  const SimTime now = sim_.now();
  Job* owned = job_pool_.create();
  Job& j = *owned;
  j.id = JobId(ids_.next_job++);
  j.app = id_;
  j.name = spec.name;
  j.input_file = spec.input_file;
  j.submit_time = now;

  // Stage 0: one input task per block of the input file.
  const auto& blocks = dfs_.blocks_of(spec.input_file);
  Stage input_stage;
  input_stage.index = 0;
  for (BlockId b : blocks) {
    Task t;
    t.id = TaskId(ids_.next_task++);
    t.job = j.id;
    t.stage = 0;
    t.index = static_cast<int>(input_stage.tasks.size());
    t.block = b;
    t.input_bytes = dfs_.block(b).bytes;
    t.compute_secs = spec.input_compute_secs_per_byte * t.input_bytes;
    input_stage.tasks.push_back(t.id);
    tasks_.emplace(t.id, std::move(t));
  }
  j.input_tasks = static_cast<int>(input_stage.tasks.size());
  j.stages.push_back(std::move(input_stage));

  // Downstream (shuffle) stages.
  for (std::size_t s = 0; s < spec.downstream.size(); ++s) {
    const ShuffleStageSpec& sspec = spec.downstream[s];
    Stage stage;
    stage.index = static_cast<int>(s + 1);
    for (int i = 0; i < sspec.num_tasks; ++i) {
      Task t;
      t.id = TaskId(ids_.next_task++);
      t.job = j.id;
      t.stage = stage.index;
      t.index = i;
      t.input_bytes = sspec.shuffle_bytes / sspec.num_tasks;
      t.compute_secs = sspec.compute_secs_per_task;
      stage.tasks.push_back(t.id);
      tasks_.emplace(t.id, std::move(t));
    }
    j.stages.push_back(std::move(stage));
  }

  jobs_by_id_.emplace(j.id, owned);
  active_jobs_.push_back(owned);
  ++jobs_submitted_;
  peak_live_tasks_ = std::max<std::uint64_t>(peak_live_tasks_, tasks_.size());

  // The input stage is runnable immediately; Custody's allocation round is
  // triggered by the demand change and runs before any executor could go
  // idle at this same instant, so jobs never wait on the allocator.
  mark_stage_ready(j, j.stages.front());
  manager_->on_demand_changed(*this);
  kick();
  return j.id;
}

void Application::mark_stage_ready(Job& j, Stage& stage) {
  const SimTime now = sim_.now();
  stage.ready_time = now;
  for (TaskId id : stage.tasks) {
    Task& t = task(id);
    assert(t.state == TaskState::kBlocked);
    t.state = TaskState::kReady;
    t.ready_time = now;
    if (stage.index > 0) {
      // Choose which previous-stage output nodes this task fetches from.
      const Stage& prev = j.stages[static_cast<std::size_t>(stage.index) - 1];
      std::vector<NodeId> sources = prev.output_nodes;
      std::sort(sources.begin(), sources.end());
      sources.erase(std::unique(sources.begin(), sources.end()),
                    sources.end());
      rng_.shuffle(sources);
      const auto fan_in = std::min<std::size_t>(
          sources.size(), static_cast<std::size_t>(config_.shuffle_fan_in));
      t.fetch_sources.assign(sources.begin(), sources.begin() + fan_in);
    }
    index_.task_ready(t);
  }
}

std::vector<core::JobDemand> Application::pending_demand() const {
  // Nodes on which this app currently holds executors (busy or idle): a
  // block replicated there is considered satisfiable without new grants.
  // The cluster maintains dense per-node held counts incrementally, so one
  // coverage test is O(replicas) loads — no ledger scan, no binary search.
  const std::vector<int>* held_counts = cluster_.held_counts(id_);

  std::vector<core::JobDemand> demand;
  for (const Job* j : active_jobs_) {
    if (j->launched_input_tasks >= j->input_tasks) continue;
    core::JobDemand jd;
    jd.job = j->id.value();
    jd.total_tasks = j->input_tasks;
    // Only the ready input tasks, in id (== stage scan) order.
    for (TaskId id : index_.ready_inputs(j->id)) {
      const Task& t = task(id);
      const auto& locs = locations_of(t.block);
      const bool covered =
          held_counts != nullptr &&
          std::any_of(locs.begin(), locs.end(), [held_counts](NodeId n) {
            return (*held_counts)[n.value()] > 0;
          });
      if (!covered) jd.unsatisfied.push_back({t.id.value(), t.block});
    }
    demand.push_back(std::move(jd));
  }
  return demand;
}

int Application::wanted_executors() const {
  // Every running task belongs to an active job (jobs finish only after all
  // their tasks do), so ready + running counts the active jobs' demand.
  return index_.ready_count() + running_tasks_;
}

int Application::count_ready_tasks() const { return index_.ready_count(); }

core::LocalityStats Application::locality() const { return achieved_; }

void Application::on_executor_granted(ExecutorId exec) {
  assert(cluster_.executor(exec).owner == id_);
  mark_free(exec);
  kick();
}

void Application::mark_free(ExecutorId exec) {
  cluster_.set_busy(exec, false);
  pending_free_.push_back(exec);
  if (tracer_ != nullptr) exec_idle_since_[exec] = sim_.now();
}

bool Application::consider_offer(ExecutorId /*exec*/, NodeId node) {
  const SimTime now = sim_.now();
  for (Job* j : active_jobs_) {
    // Downstream work has no locality constraint: accept immediately.
    if (index_.has_ready_other(j->id)) return true;
    if (j->launched_input_tasks >= j->input_tasks) continue;
    if (index_.has_local_ready_input(j->id, node)) return true;
    if (index_.has_ready_input(j->id)) {
      // A rejected offer starts the job's locality-wait clock, exactly
      // like skipping a slot under delay scheduling.
      if (!j->waiting_since_set()) j->wait_start = now;
      if (scheduler_.config().kind != SchedulerKind::kDelay ||
          now - j->wait_start >= scheduler_.config().locality_wait) {
        return true;  // waited long enough; settle for this node
      }
    }
  }
  return false;
}

void Application::kick() {
  if (in_kick_) return;  // avoid re-entrant scheduling storms
  in_kick_ = true;
  ++dispatch_.kicks;
  const SimTime now = sim_.now();
  std::optional<SimTime> earliest_retry;

  // The sweep offers every free held executor, ascending by id, to the
  // scheduler — but only visits the ones whose offer can do something.
  //
  // A "nothing launchable" pick verdict decomposes into per-job facts that
  // are node-independent (no ready downstream work, input jobs still inside
  // their locality wait — with wait_start already stamped and the same
  // retry expiry) plus one node-dependent fact, "no job has a ready input
  // local to this node".  `now` is fixed for the sweep and launches are
  // the only mid-kick mutation, so once a full pick returns nothing, every
  // later free executor on a node with no local ready input gets the
  // identical verdict, and replaying it is a no-op: its retry time was
  // folded in when the verdict was made.  Any launch invalidates it.
  //
  // A verdict the previous kick ended with still holds at the same `now`
  // while no task has become ready since (the index epoch) and the retry
  // it armed has not fired (retry_fired drops it): the pick stamps every
  // waiting job, so between kicks only new ready work could make
  // something launchable, and the pending retry already covers its
  // expiry.
  bool have_null_verdict = null_verdict_at_ == std::pair{now, index_.epoch()};
  // Speculation's "no straggler" answer does not depend on the node and
  // cannot flip within a kick: a task launched at `now` is not slow and a
  // clone only removes candidates.  Once seen it holds for the sweep.
  bool stragglers_possible = config_.speculation;

  // While both verdicts hold, the only executors worth a visit are free
  // ones on a node with local ready input.  Every policy launches on those
  // (a local ready input is always pickable), so after a kick none is
  // left, and between kicks such an executor appears only when it becomes
  // free for us or its node gains local ready input — the two ways into
  // pending_free_.  Within the kick both sets only shrink.
  kick_candidates_.swap(pending_free_);  // leaves pending_free_ empty
  std::sort(kick_candidates_.begin(), kick_candidates_.end());
  auto candidate = kick_candidates_.begin();
  ExecutorId from(0);
  for (;;) {
    ExecutorId exec;
    if (have_null_verdict && !stragglers_possible) {
      candidate = std::lower_bound(candidate, kick_candidates_.end(), from);
      while (candidate != kick_candidates_.end()) {
        const cluster::Executor& e = cluster_.executor(*candidate);
        if (e.owner == id_ && !e.busy &&
            index_.any_local_ready_input(e.node)) {
          break;
        }
        ++candidate;
      }
      if (candidate == kick_candidates_.end()) break;
      exec = *candidate;
    } else {
      exec = cluster_.next_free_held(id_, from);
      if (!exec.valid()) break;
    }
    from = ExecutorId(exec.value() + 1);
    ++dispatch_.kick_visits;
    const NodeId node = cluster_.node_of(exec);
    if (!have_null_verdict || index_.any_local_ready_input(node)) {
      ++dispatch_.full_picks;
      std::optional<SimTime> retry_at;
      const auto pick = scheduler_.pick(node, now, active_jobs_, retry_at);
      if (pick) {
        Task& t = task(pick->task);
        t.attempts[kPrimary].local = pick->local;
        launch(t, exec);
        // The launch consumed a ready task (and a local launch resets its
        // job's locality wait): any cached "nothing launchable" is stale.
        have_null_verdict = false;
        continue;
      }
      have_null_verdict = true;
      if (retry_at) {
        if (!earliest_retry || *retry_at < *earliest_retry) {
          earliest_retry = retry_at;
        }
      }
    }
    // Nothing launchable: offer the free slot to a straggler clone.
    // Straggler clones read running tasks, not ready sets, so cloning
    // cannot invalidate the cached verdict.
    if (!stragglers_possible) continue;
    const TaskId slow = pick_speculative(node);
    if (slow.valid()) {
      launch_clone(task(slow), exec);
    } else {
      stragglers_possible = false;
    }
  }
  kick_candidates_.clear();
  if (have_null_verdict) {
    null_verdict_at_ = std::pair{now, index_.epoch()};
  } else {
    null_verdict_at_.reset();
  }
  in_kick_ = false;
  if (earliest_retry) arm_retry(*earliest_retry);
  maybe_release_idle_executors();
}

void Application::arm_retry(SimTime at) {
  if (retry_time_ >= 0.0 && retry_time_ <= at && retry_event_.valid() &&
      !retry_event_.cancelled()) {
    return;  // an earlier (or equal) retry is already pending
  }
  retry_event_.cancel();
  retry_time_ = at;
  const SimTime delay = std::max(0.0, at - sim_.now());
  retry_event_ = sim_.schedule(delay, [this] { retry_fired(); });
  retry_armed_time_ = sim_.now() + delay;
  retry_seq_ = sim_.last_event_seq();
}

void Application::retry_fired() {
  retry_time_ = -1.0;
  // A verdict carried over from an earlier kick at this instant relied on
  // this retry staying pending; without it the next kick must re-pick to
  // arm the next one.
  null_verdict_at_.reset();
  kick();
}

sim::EventFn Application::timer_fn(TaskId id, std::uint32_t epoch,
                                  TimerKind kind, int i) {
  return [this, id, epoch, kind, i] {
    Task* t = find_task(id);
    if (t == nullptr || t->epoch != epoch) return;
    t->attempts[i].kind = TimerKind::kNone;
    if (kind == TimerKind::kRead) {
      start_compute(*t, i);
    } else {
      finish_attempt(*t, i);
    }
  };
}

void Application::arm_timer(Task& t, int i, TimerKind kind, double delay) {
  Attempt& a = t.attempts[i];
  a.event = sim_.schedule(delay, timer_fn(t.id, t.epoch, kind, i));
  a.kind = kind;
  a.time = sim_.now() + delay;
  a.seq = sim_.last_event_seq();
}

net::Network::CompletionFn Application::flow_fn(const net::FlowLabel& label,
                                                NodeId dst) {
  const TaskId id(label.a);
  const std::uint32_t ep = label.b;
  switch (label.kind) {
    case kFlowInputRead:
    case kFlowCloneRead: {
      const int i = label.kind == kFlowInputRead ? kPrimary : kClone;
      return [this, id, ep, i, node = dst] {
        Task* t = find_task(id);
        if (t == nullptr || t->epoch != ep) return;
        t->attempts[i].flow = FlowId::invalid();
        if (cache_ != nullptr) cache_->insert(node, t->block);
        start_compute(*t, i);
      };
    }
    case kFlowShuffleFetch:
      return [this, id, ep] {
        Task* t = find_task(id);
        if (t == nullptr || t->epoch != ep) return;
        if (--t->fetches_outstanding == 0) start_compute(*t, kPrimary);
      };
    default:
      throw snap::SnapshotError("Application: unknown flow label kind " +
                                std::to_string(label.kind));
  }
}

void Application::launch(Task& t, ExecutorId exec) {
  assert(t.state == TaskState::kReady);
  const SimTime now = sim_.now();
  cluster::Executor& e = cluster_.executor(exec);
  assert(!e.busy && e.owner == id_);
  cluster_.set_busy(exec, true);
  index_.task_unready(t);
  t.state = TaskState::kRunning;
  ++running_tasks_;
  t.attempts[kPrimary].executor = exec;
  t.launch_time = now;

  Job& j = job(t.job);
  scheduler_.on_launched(j, t);

  // Tracing: how long the task waited, on which executor it landed, and —
  // for input tasks — why it launched the way it did.  `value` carries when
  // the executor last went idle so the analyzer can split the wait into
  // executor-wait vs scheduler delay.
  const auto trace_wait = [&](std::int32_t verdict) {
    double idle_since = -1.0;
    const auto idle = exec_idle_since_.find(exec);
    if (idle != exec_idle_since_.end()) idle_since = idle->second;
    tracer_->record({.t0 = t.ready_time,
                     .t1 = now,
                     .value = idle_since,
                     .app = obs::IdOf(id_),
                     .job = obs::IdOf(t.job),
                     .id = obs::IdOf(t.id),
                     .stage = t.stage,
                     .node = obs::IdOf(e.node),
                     .block = obs::IdOf(t.block),
                     .aux = verdict,
                     .kind = obs::EventKind::kTaskWait});
  };

  if (t.is_input()) {
    ++j.launched_input_tasks;
    ++achieved_.total_tasks;
    std::int32_t verdict = obs::kVerdictLocal;
    if (t.attempts[kPrimary].local) {
      ++j.local_input_tasks;
      ++achieved_.local_tasks;
      ++breakdown_.local;
    } else {
      const auto& locs = dfs_.locations(t.block);
      const bool covered = std::any_of(
          locs.begin(), locs.end(),
          [this](NodeId n) { return cluster_.holds_on(id_, n); });
      if (covered) {
        ++breakdown_.covered_busy;
        verdict = obs::kVerdictCoveredBusy;
      } else {
        ++breakdown_.uncovered;
        verdict = obs::kVerdictUncovered;
      }
    }
    if (tracer_ != nullptr) trace_wait(verdict);
    start_read(t, kPrimary);
    return;
  }

  // Downstream task: fetch shuffle partitions from previous-stage nodes.
  if (tracer_ != nullptr) trace_wait(obs::kVerdictNonInput);
  std::vector<NodeId> remote = t.fetch_sources;
  std::erase(remote, e.node);
  t.fetches_outstanding = static_cast<int>(remote.size());
  if (t.fetches_outstanding == 0) {
    // Everything is on this node (or the task has no input at all).
    const double read_secs =
        t.input_bytes > 0.0 ? t.input_bytes / cluster_.disk_bps(e.node) : 0.0;
    arm_timer(t, kPrimary, TimerKind::kRead, read_secs);
    return;
  }
  // Compute starts once the last remote partition has arrived.
  const double bytes_per_source =
      t.input_bytes / static_cast<double>(t.fetch_sources.size());
  const net::FlowLabel label{.kind = kFlowShuffleFetch,
                             .a = t.id.value(),
                             .b = t.epoch,
                             .c = id_.value()};
  for (NodeId src : remote) {
    net_.start_flow(src, e.node, bytes_per_source, flow_fn(label, e.node),
                    label);
  }
}

void Application::start_read(Task& t, int i) {
  const NodeId node = cluster_.node_of(t.attempts[i].executor);
  if (t.attempts[i].local) {
    // Disk replica or cached copy; cached reads run at memory speed.
    const bool on_disk = dfs_.is_local(t.block, node);
    if (!on_disk && cache_ != nullptr) {
      cache_->record_cached_read(node, t.block);
    }
    const double rate =
        on_disk ? cluster_.disk_bps(node) : cluster_.config().memory_bps;
    arm_timer(t, i, TimerKind::kRead, t.input_bytes / rate);
    return;
  }
  // Remote read: stream the block from a replica (or cached copy) over the
  // network; the receiving node caches what it pulled.
  const auto& locs = locations_of(t.block);
  assert(!locs.empty());
  const NodeId src = rng_.pick(locs);
  if (src == node) {
    // A cached copy appeared on this node after scheduling; read it.
    if (cache_ != nullptr) cache_->record_cached_read(node, t.block);
    arm_timer(t, i, TimerKind::kRead,
              t.input_bytes / cluster_.config().memory_bps);
    return;
  }
  const net::FlowLabel label{
      .kind = i == kPrimary ? kFlowInputRead : kFlowCloneRead,
      .a = t.id.value(),
      .b = t.epoch,
      .c = id_.value()};
  t.attempts[i].flow =
      net_.start_flow(src, node, t.input_bytes, flow_fn(label, node), label);
}

void Application::start_compute(Task& t, int i) {
  assert(t.state == TaskState::kRunning && (i == kPrimary || t.spec_active));
  Attempt& a = t.attempts[i];
  a.compute_start = sim_.now();
  const double speed = cluster_.node_speed(cluster_.node_of(a.executor));
  arm_timer(t, i, TimerKind::kCompute, t.compute_secs / speed);
}

TaskId Application::pick_speculative(NodeId node) const {
  if (!config_.speculation) return TaskId::invalid();
  const SimTime now = sim_.now();
  TaskId fallback = TaskId::invalid();
  for (const Job* j : active_jobs_) {
    const Stage& input = j->stages.front();
    int finished = 0;
    double total_duration = 0.0;
    for (TaskId id : input.tasks) {
      const Task& t = task(id);
      if (t.state == TaskState::kFinished) {
        ++finished;
        total_duration += t.finish_time - t.launch_time;
      }
    }
    if (finished < kSpeculationMinFinished) continue;
    const double slow_after = config_.speculation_multiplier *
                              (total_duration / finished);
    for (TaskId id : input.tasks) {
      const Task& t = task(id);
      if (t.state != TaskState::kRunning || t.spec_active) continue;
      if (now - t.launch_time <= slow_after) continue;
      if (scheduler_.is_local(t.block, node)) return id;  // best: local clone
      if (!fallback.valid()) fallback = id;
    }
  }
  return fallback;
}

void Application::launch_clone(Task& t, ExecutorId exec) {
  assert(t.state == TaskState::kRunning && t.is_input() && !t.spec_active);
  cluster::Executor& e = cluster_.executor(exec);
  assert(!e.busy && e.owner == id_);
  cluster_.set_busy(exec, true);
  t.spec_active = true;
  Attempt& clone = t.attempts[kClone];
  clone.executor = exec;
  clone.local = scheduler_.is_local(t.block, e.node);
  ++spec_launches_;
  if (tracer_ != nullptr) {
    tracer_->instant({.app = obs::IdOf(id_),
                      .job = obs::IdOf(t.job),
                      .id = obs::IdOf(t.id),
                      .stage = t.stage,
                      .node = obs::IdOf(e.node),
                      .block = obs::IdOf(t.block),
                      .aux = clone.local ? 1 : 0,
                      .kind = obs::EventKind::kSpecLaunch});
  }
  start_read(t, kClone);
}

void Application::finish_attempt(Task& t, int i) {
  if (t.state != TaskState::kRunning) return;  // a stale completion
  if (t.spec_active) {
    // First attempt to finish wins; the other is aborted, and a winning
    // clone takes over the primary slot.
    abort_attempt(t, 1 - i);
    if (i == kClone) {
      ++spec_wins_;
      t.attempts[kPrimary] = std::move(t.attempts[kClone]);
    }
    t.spec_active = false;
  }
  finish_task(t);
}

void Application::abort_attempt(Task& t, int i) {
  Attempt& a = t.attempts[i];
  a.event.cancel();
  a.kind = TimerKind::kNone;
  if (a.flow.valid() && net_.flow_active(a.flow)) net_.cancel_flow(a.flow);
  a.flow = FlowId::invalid();
  if (cluster_.executor_alive(a.executor)) mark_free(a.executor);
}

void Application::reset_task(Task& t) {
  assert(t.state == TaskState::kRunning);
  abort_attempt(t, kPrimary);
  if (t.spec_active) {
    abort_attempt(t, kClone);
    t.spec_active = false;
  }
  if (tracer_ != nullptr) {
    tracer_->instant({.app = obs::IdOf(id_),
                      .job = obs::IdOf(t.job),
                      .id = obs::IdOf(t.id),
                      .stage = t.stage,
                      .node = obs::IdOf(cluster_.node_of(
                          t.attempts[kPrimary].executor)),
                      .block = obs::IdOf(t.block),
                      .kind = obs::EventKind::kTaskReset});
  }
  // Undo the launch-time accounting: the re-execution counts afresh.
  Job& j = job(t.job);
  if (t.is_input()) {
    --j.launched_input_tasks;
    --achieved_.total_tasks;
    if (t.attempts[kPrimary].local) {
      --j.local_input_tasks;
      --achieved_.local_tasks;
    }
  }
  ++t.epoch;  // orphan every remaining callback of the old attempts
  t.state = TaskState::kReady;
  --running_tasks_;
  t.ready_time = sim_.now();
  t.attempts[kPrimary].executor = ExecutorId::invalid();
  t.attempts[kPrimary].local = false;
  t.fetches_outstanding = 0;
  index_.task_ready(t);
}

void Application::on_executor_lost(ExecutorId exec) {
  bool lost_work = false;
  for (Job* j : active_jobs_) {
    for (Stage& stage : j->stages) {
      for (TaskId id : stage.tasks) {
        Task& t = task(id);
        if (t.state != TaskState::kRunning) continue;
        if (t.attempts[kPrimary].executor == exec) {
          // The primary attempt died with the node; restart from ready.
          reset_task(t);
          lost_work = true;
        } else if (t.spec_active && t.attempts[kClone].executor == exec) {
          // Only the clone died; the primary attempt keeps running.
          abort_attempt(t, kClone);
          t.spec_active = false;
          lost_work = true;
        }
      }
    }
  }
  if (lost_work) {
    manager_->on_demand_changed(*this);
    kick();
  }
}

void Application::finish_task(Task& t) {
  assert(t.state == TaskState::kRunning);
  const SimTime now = sim_.now();
  t.state = TaskState::kFinished;
  --running_tasks_;
  t.finish_time = now;
  const Attempt& won = t.attempts[kPrimary];
  mark_free(won.executor);

  if (tracer_ != nullptr) {
    const std::int32_t node = obs::IdOf(cluster_.node_of(won.executor));
    // Read/fetch span (launch → compute start) then compute span
    // (compute start → finish); a clone win folds the primary's wasted
    // read into the read span (compute_start is the winner's).
    tracer_->record({.t0 = t.launch_time,
                     .t1 = won.compute_start,
                     .app = obs::IdOf(id_),
                     .job = obs::IdOf(t.job),
                     .id = obs::IdOf(t.id),
                     .stage = t.stage,
                     .node = node,
                     .block = obs::IdOf(t.block),
                     .aux = t.is_input() ? (won.local ? 1 : 0) : -1,
                     .kind = t.is_input() ? obs::EventKind::kTaskInputRead
                                          : obs::EventKind::kTaskShuffleRead});
    tracer_->record({.t0 = won.compute_start,
                     .t1 = now,
                     .app = obs::IdOf(id_),
                     .job = obs::IdOf(t.job),
                     .id = obs::IdOf(t.id),
                     .stage = t.stage,
                     .node = node,
                     .kind = obs::EventKind::kTaskCompute});
  }

  metrics::TaskRecord record;
  record.app = id_;
  record.job = t.job;
  record.stage = t.stage;
  record.is_input = t.is_input();
  record.local = won.local;
  record.ready_time = t.ready_time;
  record.launch_time = t.launch_time;
  record.finish_time = t.finish_time;
  metrics_.record_task(record);

  Job& j = job(t.job);
  Stage& stage = j.stages[static_cast<std::size_t>(t.stage)];
  stage.output_nodes.push_back(cluster_.node_of(won.executor));
  ++stage.finished;
  if (stage.complete()) complete_stage(j, stage);

  kick();
}

void Application::complete_stage(Job& j, Stage& stage) {
  const SimTime now = sim_.now();
  if (tracer_ != nullptr) {
    tracer_->record({.t0 = stage.ready_time,
                     .t1 = now,
                     .app = obs::IdOf(id_),
                     .job = obs::IdOf(j.id),
                     .stage = stage.index,
                     .kind = obs::EventKind::kStageSpan});
  }
  if (stage.index == 0) {
    j.input_stage_finish = now;
    ++achieved_.total_jobs;
    if (j.local_input_tasks == j.input_tasks) ++achieved_.local_jobs;
  }
  const auto next = static_cast<std::size_t>(stage.index) + 1;
  if (next < j.stages.size()) {
    mark_stage_ready(j, j.stages[next]);
  } else {
    finish_job(j);
  }
}

void Application::finish_job(Job& j) {
  const SimTime now = sim_.now();
  j.finished = true;
  j.finish_time = now;
  ++jobs_completed_;
  if (tracer_ != nullptr) {
    tracer_->record({.t0 = j.submit_time,
                     .t1 = now,
                     .app = obs::IdOf(id_),
                     .job = obs::IdOf(j.id),
                     .kind = obs::EventKind::kJobSpan});
  }
  active_jobs_.erase(std::remove(active_jobs_.begin(), active_jobs_.end(), &j),
                     active_jobs_.end());

  metrics::JobRecord record;
  record.app = id_;
  record.job = j.id;
  record.submit_time = j.submit_time;
  record.input_stage_finish = j.input_stage_finish;
  record.finish_time = j.finish_time;
  record.input_tasks = j.input_tasks;
  record.local_input_tasks = j.local_input_tasks;
  metrics_.record_job(record);

  LOG_DEBUG << "app " << id_ << ": job " << j.id << " (" << j.name
            << ") finished in " << j.finish_time - j.submit_time << "s";

  // Free the metadata of finished tasks; ids are never reused.
  for (const Stage& stage : j.stages) {
    for (TaskId id : stage.tasks) tasks_.erase(id);
  }
  index_.job_removed(j.id);

  if (config_.retire_finished_jobs) {
    // Steady-state retirement: the job record (stages included) goes back
    // to the pool.  finish_job is the last user of this Job — every caller
    // up the stack only kick()s afterwards, so nothing dangles.
    jobs_by_id_.erase(j.id);
    ++jobs_retired_;
    job_pool_.destroy(&j);
  }

  manager_->on_demand_changed(*this);
}

bool Application::pool_has_useful_executor() {
  if (pool_useless_at_ == pool_epochs()) {
    ++dispatch_.pool_scans_reused;
    return false;
  }
  ++dispatch_.pool_scans_run;
  const bool useful = scan_pool_for_useful_executor();
  if (useful) {
    pool_useless_at_.reset();
  } else {
    pool_useless_at_ = pool_epochs();
  }
  return useful;
}

bool Application::scan_pool_for_useful_executor() const {
  // Demand-driven form of the old two-ledger-scan check: for each ready
  // input task not already covered by a held executor, ask the idle index
  // whether any replica node has an unallocated executor (block -> node ->
  // idle lookup), instead of materializing the whole pool's node set.
  if (cluster_.idle_count() == 0) return false;
  // Dense per-node held counts: O(1) membership per replica instead of a
  // binary search over a materialized held-node list.
  const std::vector<int>* held_counts = cluster_.held_counts(id_);

  const auto useful_block = [&](BlockId block) {
    const auto& locs = locations_of(block);
    const bool covered =
        held_counts != nullptr &&
        std::any_of(locs.begin(), locs.end(), [held_counts](NodeId n) {
          return (*held_counts)[n.value()] > 0;
        });
    if (covered) return false;  // a held executor can serve it
    for (const NodeId n : locs) {
      if (cluster_.first_idle_on(n).valid()) return true;
    }
    return false;
  };
  // The verdict is a pure existence check and depends on a ready input
  // task only through its block, so walk the index's distinct blocks with
  // ready input tasks instead of every task of every job: tasks sharing a
  // block share the answer (entries are erased when their last ready task
  // launches).  Visit order doesn't matter for a bool.
  for (const auto& [block, tasks] : index_.ready_blocks()) {
    if (useful_block(block)) return true;
  }
  return false;
}

void Application::maybe_release_idle_executors() {
  if (!config_.dynamic_executors) return;
  // Only free executors can be released.
  if (!cluster_.next_free_held(id_, ExecutorId(0)).valid()) return;

  release_scratch_.clear();
  if (count_ready_tasks() == 0) {
    // Nothing to run right now: hand idle executors back so the manager can
    // re-allocate them data-aware (the paper's proactive release message).
    cluster_.free_held(id_, release_scratch_);
  } else if (config_.locality_swap && pool_has_useful_executor()) {
    // An executor with the right data sits unallocated while we hold
    // executors that serve none of our ready input tasks locally: hand the
    // useless ones back so the next allocation round performs the swap
    // (paper Sec. IV-C: "dynamically add or remove executors to adapt to
    // the up-to-date locality requirements").
    cluster_.free_held(id_, release_scratch_);
    std::erase_if(release_scratch_, [this](ExecutorId exec) {
      return index_.any_local_ready_input(cluster_.node_of(exec));
    });
  }
  for (ExecutorId exec : release_scratch_) manager_->release_executor(exec);
}

struct Application::AuditView {
  std::uint64_t pool_epoch = 0;
  std::uint64_t index_epoch = 0;
  /// Ready blocks and their sorted locations.
  std::map<BlockId, std::vector<NodeId>> ready_locations;
  /// Idle executor ids, ascending.
  std::vector<ExecutorId> idle;
  /// This app's per-node held counts.
  std::vector<int> held;
};

std::string Application::audit_dispatch_state() {
  const std::string who = "app " + std::to_string(id_.value()) + ": ";
  std::vector<ExecutorId> pending = pending_free_;
  std::sort(pending.begin(), pending.end());
  std::vector<ExecutorId> free;
  cluster_.free_held(id_, free);
  for (const ExecutorId exec : free) {
    const NodeId node = cluster_.node_of(exec);
    if (index_.any_local_ready_input(node) &&
        !std::binary_search(pending.begin(), pending.end(), exec)) {
      return who + "free executor " + std::to_string(exec.value()) +
             " on node " + std::to_string(node.value()) +
             " has local ready input but is not a kick candidate";
    }
  }
  if (pool_useless_at_ == pool_epochs() && scan_pool_for_useful_executor()) {
    return who + "cached 'nothing useful in the pool' verdict is stale";
  }
  const SimTime now = sim_.now();
  if (null_verdict_at_ == std::pair{now, index_.epoch()}) {
    // The next kick at this instant replays the verdict instead of
    // picking: a pick for a node without local ready input must find
    // nothing, stamp no job, and need no retry that is not pending.
    for (std::size_t n = 0; n < cluster_.num_nodes(); ++n) {
      const NodeId node(static_cast<NodeId::value_type>(n));
      if (index_.any_local_ready_input(node)) continue;
      std::vector<SimTime> stamps;
      for (const Job* j : active_jobs_) stamps.push_back(j->wait_start);
      std::optional<SimTime> retry_at;
      const bool launchable =
          scheduler_.pick(node, now, active_jobs_, retry_at).has_value();
      bool stamped = false;
      for (std::size_t i = 0; i < active_jobs_.size(); ++i) {
        stamped |= active_jobs_[i]->wait_start != stamps[i];
        active_jobs_[i]->wait_start = stamps[i];
      }
      const bool retry_pending = retry_time_ >= 0.0 && retry_event_.valid() &&
                                 !retry_event_.cancelled();
      if (launchable || stamped ||
          (retry_at && !(retry_pending && retry_time_ <= *retry_at))) {
        return who + "the carried 'nothing launchable' verdict is stale";
      }
      break;
    }
  }

  auto view = std::make_unique<AuditView>();
  std::tie(view->pool_epoch, view->index_epoch) = pool_epochs();
  for (const auto& [block, tasks] : index_.ready_blocks()) {
    std::vector<NodeId> locs = locations_of(block);
    std::sort(locs.begin(), locs.end());
    view->ready_locations.emplace(block, std::move(locs));
  }
  for (const core::ExecutorInfo& e : cluster_.idle_executors()) {
    view->idle.push_back(e.id);
  }
  const std::vector<int>* held = cluster_.held_counts(id_);
  view->held =
      held != nullptr ? *held : std::vector<int>(cluster_.num_nodes(), 0);
  std::unique_ptr<AuditView> last = std::exchange(audit_view_, std::move(view));
  if (last == nullptr) return {};
  const AuditView& seen = *audit_view_;
  if (seen.index_epoch == last->index_epoch) {
    for (const auto& [block, locs] : seen.ready_locations) {
      const auto before = last->ready_locations.find(block);
      if (before == last->ready_locations.end()) {
        return who + "block " + std::to_string(block.value()) +
               " joined the ready set without an index epoch bump";
      }
      if (before->second != locs) {
        return who + "ready block " + std::to_string(block.value()) +
               " moved without an index epoch bump";
      }
    }
  }
  if (seen.pool_epoch == last->pool_epoch) {
    if (!std::includes(last->idle.begin(), last->idle.end(), seen.idle.begin(),
                       seen.idle.end())) {
      return who + "the idle pool grew without a pool epoch bump";
    }
    for (std::size_t n = 0; n < seen.held.size(); ++n) {
      if (seen.held[n] < last->held[n]) {
        return who + "holdings on node " + std::to_string(n) +
               " shrank without a pool epoch bump";
      }
    }
  }
  return {};
}

net::Network::CompletionFn Application::rebuild_flow_callback(
    FlowId /*flow*/, const net::FlowLabel& label, NodeId /*src*/, NodeId dst) {
  return flow_fn(label, dst);
}

void Application::SaveTo(snap::SnapshotWriter& w) const {
  rng_.SaveTo(w);
  w.i64(share_);
  w.i64(running_tasks_);
  w.u64(jobs_submitted_);
  w.u64(jobs_completed_);
  w.u64(jobs_retired_);
  w.u64(peak_live_tasks_);
  w.u64(spec_launches_);
  w.u64(spec_wins_);
  w.i64(achieved_.local_jobs);
  w.i64(achieved_.total_jobs);
  w.i64(achieved_.local_tasks);
  w.i64(achieved_.total_tasks);
  w.u64(breakdown_.local);
  w.u64(breakdown_.covered_busy);
  w.u64(breakdown_.uncovered);

  const bool retry_armed = retry_time_ >= 0.0 && retry_event_.valid() &&
                           !retry_event_.cancelled();
  w.b(retry_armed);
  if (retry_armed) {
    w.f64(retry_time_);
    w.f64(retry_armed_time_);
    w.u64(retry_seq_);
  }

  // Jobs in id order (map iteration order is not deterministic).
  std::vector<const Job*> jobs;
  jobs.reserve(jobs_by_id_.size());
  for (const auto& [jid, j] : jobs_by_id_) jobs.push_back(j);
  std::sort(jobs.begin(), jobs.end(),
            [](const Job* a, const Job* b) { return a->id < b->id; });
  w.size(jobs.size());
  for (const Job* j : jobs) {
    w.u32(j->id.value());
    w.str(j->name);
    w.u32(j->input_file.value());
    w.f64(j->submit_time);
    w.f64(j->input_stage_finish);
    w.f64(j->finish_time);
    w.b(j->finished);
    w.i64(j->input_tasks);
    w.i64(j->local_input_tasks);
    w.i64(j->launched_input_tasks);
    w.f64(j->wait_start);
    w.size(j->stages.size());
    for (const Stage& s : j->stages) {
      w.i64(s.index);
      w.size(s.tasks.size());
      for (TaskId t : s.tasks) w.u32(t.value());
      w.i64(s.finished);
      w.f64(s.ready_time);
      w.size(s.output_nodes.size());
      for (NodeId n : s.output_nodes) w.u32(n.value());
    }
  }
  w.size(active_jobs_.size());
  for (const Job* j : active_jobs_) w.u32(j->id.value());

  // Tasks in id order.
  std::vector<const Task*> tasks;
  tasks.reserve(tasks_.size());
  for (const auto& [tid, t] : tasks_) tasks.push_back(&t);
  std::sort(tasks.begin(), tasks.end(),
            [](const Task* a, const Task* b) { return a->id < b->id; });
  w.size(tasks.size());
  for (const Task* tp : tasks) {
    const Task& t = *tp;
    w.u32(t.id.value());
    w.u32(t.job.value());
    w.i64(t.stage);
    w.i64(t.index);
    w.u32(t.block.value());
    w.f64(t.input_bytes);
    w.f64(t.compute_secs);
    w.u8(static_cast<std::uint8_t>(t.state));
    const Attempt& primary = t.attempts[kPrimary];
    w.u32(primary.executor.value());
    w.b(primary.local);
    w.f64(t.ready_time);
    w.f64(t.launch_time);
    w.f64(t.finish_time);
    w.f64(primary.compute_start);
    w.i64(t.fetches_outstanding);
    w.size(t.fetch_sources.size());
    for (NodeId n : t.fetch_sources) w.u32(n.value());
    w.u32(t.epoch);
    SaveTimerAndFlow(w, primary);
    const Attempt& clone = t.attempts[kClone];
    w.b(t.spec_active);
    w.u32(clone.executor.value());
    w.b(clone.local);
    w.f64(clone.compute_start);
    SaveTimerAndFlow(w, clone);
  }
}

void Application::RestoreFrom(snap::SnapshotReader& r) {
  rng_.RestoreFrom(r);
  share_ = static_cast<int>(r.i64());
  running_tasks_ = static_cast<int>(r.i64());
  jobs_submitted_ = r.u64();
  jobs_completed_ = r.u64();
  jobs_retired_ = r.u64();
  peak_live_tasks_ = r.u64();
  spec_launches_ = r.u64();
  spec_wins_ = r.u64();
  achieved_.local_jobs = r.i64();
  achieved_.total_jobs = r.i64();
  achieved_.local_tasks = r.i64();
  achieved_.total_tasks = r.i64();
  breakdown_.local = r.u64();
  breakdown_.covered_busy = r.u64();
  breakdown_.uncovered = r.u64();

  retry_event_.cancel();
  if (r.b()) {
    retry_time_ = r.f64();
    retry_armed_time_ = r.f64();
    retry_seq_ = r.u64();
    retry_event_ = sim_.rearm_at(retry_armed_time_, retry_seq_,
                                 [this] { retry_fired(); });
  } else {
    retry_time_ = -1.0;
  }

  for (auto& [jid, j] : jobs_by_id_) job_pool_.destroy(j);
  jobs_by_id_.clear();
  active_jobs_.clear();
  const std::size_t num_jobs = r.size();
  for (std::size_t i = 0; i < num_jobs; ++i) {
    Job* owned = job_pool_.create();
    Job& j = *owned;
    j.id = JobId(r.u32());
    j.app = id_;
    j.name = r.str();
    j.input_file = FileId(r.u32());
    j.submit_time = r.f64();
    j.input_stage_finish = r.f64();
    j.finish_time = r.f64();
    j.finished = r.b();
    j.input_tasks = static_cast<int>(r.i64());
    j.local_input_tasks = static_cast<int>(r.i64());
    j.launched_input_tasks = static_cast<int>(r.i64());
    j.wait_start = r.f64();
    j.stages.assign(r.size(), Stage{});
    for (Stage& s : j.stages) {
      s.index = static_cast<int>(r.i64());
      s.tasks.assign(r.size(), TaskId());
      for (TaskId& t : s.tasks) t = TaskId(r.u32());
      s.finished = static_cast<int>(r.i64());
      s.ready_time = r.f64();
      s.output_nodes.assign(r.size(), NodeId());
      for (NodeId& n : s.output_nodes) n = NodeId(r.u32());
    }
    jobs_by_id_.emplace(j.id, owned);
  }
  const std::size_t num_active = r.size();
  for (std::size_t i = 0; i < num_active; ++i) {
    const JobId jid(r.u32());
    const auto it = jobs_by_id_.find(jid);
    if (it == jobs_by_id_.end()) {
      throw snap::SnapshotError("Application: active job " +
                                std::to_string(jid.value()) +
                                " missing from the job table");
    }
    active_jobs_.push_back(it->second);
  }

  // The inverse of SaveTimerAndFlow: re-arms the timer under its original
  // sequence number.
  const auto restore_timer_and_flow = [&](Task& t, int i) {
    Attempt& a = t.attempts[i];
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(TimerKind::kCompute)) {
      throw snap::SnapshotError("Application: bad attempt timer kind " +
                                std::to_string(kind));
    }
    a.kind = static_cast<TimerKind>(kind);
    if (a.kind != TimerKind::kNone) {
      a.time = r.f64();
      a.seq = r.u64();
      a.event =
          sim_.rearm_at(a.time, a.seq, timer_fn(t.id, t.epoch, a.kind, i));
    }
    a.flow = FlowId(r.u32());
  };
  tasks_.clear();
  const std::size_t num_tasks = r.size();
  for (std::size_t i = 0; i < num_tasks; ++i) {
    Task t;
    t.id = TaskId(r.u32());
    t.job = JobId(r.u32());
    t.stage = static_cast<int>(r.i64());
    t.index = static_cast<int>(r.i64());
    t.block = BlockId(r.u32());
    t.input_bytes = r.f64();
    t.compute_secs = r.f64();
    const std::uint8_t state = r.u8();
    if (state > static_cast<std::uint8_t>(TaskState::kFinished)) {
      throw snap::SnapshotError("Application: bad task state " +
                                std::to_string(state));
    }
    t.state = static_cast<TaskState>(state);
    Attempt& primary = t.attempts[kPrimary];
    primary.executor = ExecutorId(r.u32());
    primary.local = r.b();
    t.ready_time = r.f64();
    t.launch_time = r.f64();
    t.finish_time = r.f64();
    primary.compute_start = r.f64();
    t.fetches_outstanding = static_cast<int>(r.i64());
    t.fetch_sources.assign(r.size(), NodeId());
    for (NodeId& n : t.fetch_sources) n = NodeId(r.u32());
    t.epoch = r.u32();
    restore_timer_and_flow(t, kPrimary);
    Attempt& clone = t.attempts[kClone];
    t.spec_active = r.b();
    clone.executor = ExecutorId(r.u32());
    clone.local = r.b();
    clone.compute_start = r.f64();
    restore_timer_and_flow(t, kClone);
    tasks_.emplace(t.id, std::move(t));
  }

  // Rebuild the dispatch index from the restored ready tasks.  All index
  // containers are ordered sets (or order-insensitive aggregates), so
  // insertion order does not matter; locality derives from the DFS and
  // cache, which must have been restored before the applications.
  index_.clear();
  for (const auto& [tid, t] : tasks_) {
    if (t.state == TaskState::kReady) index_.task_ready(t);
  }
  // Every free held executor is a kick candidate again.  A cached pool
  // verdict cannot carry over: the cluster restore and index_.clear() both
  // bumped their epochs.
  pending_free_.clear();
  cluster_.free_held(id_, pending_free_);
  exec_idle_since_.clear();
  in_kick_ = false;
}

int Application::executors_held() const { return cluster_.owned_by(id_); }

std::vector<ExecutorId> Application::held_executors() const {
  std::vector<ExecutorId> held;
  cluster_.held_executors(id_, held);
  return held;
}

}  // namespace custody::app
