#include "oracle/alloc_oracle.h"

#include <algorithm>
#include <cassert>
#include <functional>

#include "core/intra_app.h"

namespace custody::oracle {

using core::AppAllocState;
using core::Assignment;
using core::IntraAppPassResult;
using core::IntraAppStop;
using core::JobDemand;
using core::TaskUid;

IdleExecutorPool::IdleExecutorPool(std::vector<core::ExecutorInfo> executors)
    : executors_(std::move(executors)) {
  std::sort(executors_.begin(), executors_.end(),
            [](const core::ExecutorInfo& a, const core::ExecutorInfo& b) {
              return a.id < b.id;
            });
  taken_.assign(executors_.size(), false);
  remaining_ = executors_.size();
}

ExecutorId IdleExecutorPool::claim_on(const std::vector<NodeId>& nodes) {
  for (std::size_t i = 0; i < executors_.size(); ++i) {
    ++scanned_;
    if (taken_[i]) continue;
    if (std::find(nodes.begin(), nodes.end(), executors_[i].node) ==
        nodes.end()) {
      continue;
    }
    taken_[i] = true;
    --remaining_;
    return executors_[i].id;
  }
  return ExecutorId::invalid();
}

ExecutorId IdleExecutorPool::claim_any() {
  const std::size_t n = executors_.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (scan_start_ + k) % n;
    ++scanned_;
    if (taken_[i]) continue;
    taken_[i] = true;
    --remaining_;
    scan_start_ = (i + 1) % n;
    return executors_[i].id;
  }
  return ExecutorId::invalid();
}

bool IdleExecutorPool::has_on(const std::vector<NodeId>& nodes) const {
  for (std::size_t i = 0; i < executors_.size(); ++i) {
    ++scanned_;
    if (taken_[i]) continue;
    if (std::find(nodes.begin(), nodes.end(), executors_[i].node) !=
        nodes.end()) {
      return true;
    }
  }
  return false;
}

std::optional<std::size_t> PickMinLocality(
    const std::vector<AppAllocState>& apps) {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    if (!apps[i].can_take_more()) continue;
    if (!best || core::MinLocalityLess(apps[i], apps[*best])) best = i;
  }
  return best;
}

bool IsStillMinLocality(const std::vector<AppAllocState>& apps,
                        std::size_t index) {
  const auto pick = PickMinLocality(apps);
  return pick.has_value() && *pick == index;
}

namespace {

using Emit = std::function<void(const Assignment&)>;

bool AllocateExecutor(std::vector<AppAllocState>& apps, std::size_t current,
                      ExecutorId exec, TaskUid hint, const Emit& emit,
                      bool locality_fair) {
  AppAllocState& app = apps[current];
  emit(Assignment{exec, app.app, hint});
  app.held += 1;
  if (!locality_fair) return true;
  return !IsStillMinLocality(apps, current);
}

IntraAppPassResult IntraAppAllocate(std::vector<AppAllocState>& apps,
                                    std::size_t current,
                                    std::vector<JobDemand>& jobs,
                                    IdleExecutorPool& pool,
                                    const core::BlockLocationsFn& locations,
                                    const Emit& emit, bool priority_jobs,
                                    bool locality_fair) {
  AppAllocState& app = apps[current];
  IntraAppPassResult result;
  const auto grant = [&](ExecutorId exec, TaskUid hint) {
    ++result.executors_taken;
    return AllocateExecutor(apps, current, exec, hint, emit, locality_fair);
  };

  if (priority_jobs) {
    std::sort(jobs.begin(), jobs.end(), core::JobPriorityLess);
    for (JobDemand& job : jobs) {
      if (pool.empty()) break;
      auto& tasks = job.unsatisfied;
      for (auto it = tasks.begin(); it != tasks.end();) {
        if (!app.can_take_more()) {
          result.stop = IntraAppStop::kBudgetExhausted;
          return result;
        }
        if (pool.empty()) break;
        const ExecutorId exec = pool.claim_on(locations(it->block));
        if (!exec.valid()) {
          ++it;
          continue;
        }
        const TaskUid hint = it->task;
        it = tasks.erase(it);
        app.projected.local_tasks += 1;
        if (tasks.empty()) app.projected.local_jobs += 1;
        if (grant(exec, hint)) {
          result.stop = IntraAppStop::kLostMinLocality;
          return result;
        }
      }
    }
  } else {
    std::sort(jobs.begin(), jobs.end(),
              [](const JobDemand& a, const JobDemand& b) {
                return a.job < b.job;
              });
    bool progress = true;
    while (progress) {
      progress = false;
      for (JobDemand& job : jobs) {
        if (!app.can_take_more()) {
          result.stop = IntraAppStop::kBudgetExhausted;
          return result;
        }
        if (pool.empty()) {
          progress = false;
          break;
        }
        auto& tasks = job.unsatisfied;
        for (auto it = tasks.begin(); it != tasks.end(); ++it) {
          const ExecutorId exec = pool.claim_on(locations(it->block));
          if (!exec.valid()) continue;
          const TaskUid hint = it->task;
          tasks.erase(it);
          app.projected.local_tasks += 1;
          if (tasks.empty()) app.projected.local_jobs += 1;
          progress = true;
          if (grant(exec, hint)) {
            result.stop = IntraAppStop::kLostMinLocality;
            return result;
          }
          break;
        }
      }
    }
  }

  while (app.can_take_more() && !pool.empty()) {
    const ExecutorId exec = pool.claim_any();
    assert(exec.valid());
    if (grant(exec, core::kNoTask)) {
      result.stop = IntraAppStop::kLostMinLocality;
      return result;
    }
  }

  if (!app.can_take_more()) {
    result.stop = IntraAppStop::kBudgetExhausted;
  } else if (pool.empty()) {
    result.stop = IntraAppStop::kNoMoreExecutors;
  } else {
    result.stop = IntraAppStop::kDemandSatisfied;
  }
  return result;
}

}  // namespace

core::AllocationResult Allocate(const std::vector<core::AppDemand>& demands,
                                const std::vector<core::ExecutorInfo>& idle,
                                const core::BlockLocationsFn& locations,
                                const core::AllocatorOptions& options) {
  IdleExecutorPool pool(idle);
  core::AllocationResult result;
  result.tasks_satisfied.assign(demands.size(), 0);
  result.jobs_satisfied.assign(demands.size(), 0);

  std::vector<AppAllocState> apps;
  std::vector<std::vector<JobDemand>> jobs;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    apps.push_back(core::MakeAllocState(demands[i], i));
    jobs.push_back(demands[i].jobs);
    std::uint64_t unsatisfied = 0;
    for (const JobDemand& job : demands[i].jobs) {
      unsatisfied += job.unsatisfied.size();
    }
    if (unsatisfied > 0) ++result.stats.demand_apps;
    result.stats.demanded_tasks += unsatisfied;
  }

  while (!pool.empty()) {
    const auto pick = options.locality_fair ? PickMinLocality(apps)
                                            : core::PickFewestHeld(apps);
    if (!pick) break;
    const std::size_t current = *pick;
    ++result.stats.apps_considered;
    const auto before_tasks = apps[current].projected.local_tasks;
    const auto before_jobs = apps[current].projected.local_jobs;
    const auto pass = IntraAppAllocate(
        apps, current, jobs[current], pool, locations,
        [&result](const Assignment& a) { result.assignments.push_back(a); },
        options.priority_jobs, options.locality_fair);
    result.tasks_satisfied[current] +=
        apps[current].projected.local_tasks - before_tasks;
    result.jobs_satisfied[current] +=
        apps[current].projected.local_jobs - before_jobs;
    if (pass.stop != IntraAppStop::kLostMinLocality &&
        pass.executors_taken == 0 &&
        pass.stop != IntraAppStop::kBudgetExhausted) {
      apps[current].budget = apps[current].held;
    }
  }

  for (const AppAllocState& app : apps) {
    result.projected.push_back(app.projected);
  }
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const auto has_left = [](const std::vector<JobDemand>& js) {
      return std::any_of(js.begin(), js.end(), [](const JobDemand& j) {
        return !j.unsatisfied.empty();
      });
    };
    if (has_left(demands[i].jobs) && !has_left(jobs[i])) {
      ++result.stats.demands_saturated;
    }
  }
  result.stats.executors_scanned = pool.scanned();
  result.stats.grants = result.assignments.size();
  return result;
}

}  // namespace custody::oracle
