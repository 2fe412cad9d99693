#include "cluster/manager.h"

#include <algorithm>

#include "common/snapshot.h"
#include "obs/trace.h"

namespace custody::cluster {

void ClusterManager::SaveTo(snap::SnapshotWriter& w) const {
  w.u64(stats_.allocation_rounds);
  w.u64(stats_.executors_granted);
  w.u64(stats_.executors_released);
  w.u64(stats_.offers_made);
  w.u64(stats_.offers_rejected);
  w.f64(stats_.allocation_wall_seconds);
  w.u64(stats_.executors_scanned);
  w.u64(stats_.apps_considered);
  w.u64(stats_.rounds_skipped);
  w.u64(stats_.demand_apps);
  w.u64(stats_.demanded_tasks);
  w.u64(stats_.demands_saturated);
}

void ClusterManager::RestoreFrom(snap::SnapshotReader& r) {
  stats_.allocation_rounds = r.u64();
  stats_.executors_granted = r.u64();
  stats_.executors_released = r.u64();
  stats_.offers_made = r.u64();
  stats_.offers_rejected = r.u64();
  stats_.allocation_wall_seconds = r.f64();
  stats_.executors_scanned = r.u64();
  stats_.apps_considered = r.u64();
  stats_.rounds_skipped = r.u64();
  stats_.demand_apps = r.u64();
  stats_.demanded_tasks = r.u64();
  stats_.demands_saturated = r.u64();
}

void ClusterManager::release_executor(ExecutorId exec) {
  cluster_.release(exec);
  ++stats_.executors_released;
}

void ClusterManager::grant(AppHandle& app, ExecutorId exec) {
  cluster_.assign(exec, app.id());
  ++stats_.executors_granted;
  if (tracer_ != nullptr) {
    tracer_->instant({.app = obs::IdOf(app.id()),
                      .id = obs::IdOf(exec),
                      .node = obs::IdOf(cluster_.node_of(exec)),
                      .kind = obs::EventKind::kGrant});
  }
  app.on_executor_granted(exec);
}

int ClusterManager::effective_budget(const AppHandle& app, int share) {
  return std::min(share, app.wanted_executors());
}

}  // namespace custody::cluster
