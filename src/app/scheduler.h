// Task scheduling *within* an application.
//
// Custody deliberately leaves task placement to the application (paper
// Sec. V: "all the applications use the standard delay scheduling of Spark
// to accept resource offers and schedule tasks").  Three policies share one
// implementation:
//
//   kDelay             — delay scheduling (Zaharia et al., EuroSys'10): a
//                        job with only non-local ready input tasks skips its
//                        turn for up to `locality_wait` seconds before
//                        settling for a non-local executor.
//   kLocalityPreferred — prefer local tasks but never wait (wait = 0).
//   kFifo              — ignore locality entirely; first ready task wins.
//
// Downstream (shuffle) tasks have no locality constraint and always launch
// immediately.
//
// Picks are index lookups against the application-maintained
// ReadyTaskIndex — O(log) per decision instead of the seed's O(jobs × tasks)
// rescan, with bit-identical picks (the goldens in
// tests/dispatch_equivalence_test.cpp were recorded from that scan).
// Locality inquiries use the cache's non-mutating peek so that asking
// cannot perturb LRU state.
#pragma once

#include <optional>
#include <vector>

#include "app/job.h"
#include "app/ready_index.h"
#include "common/enum_names.h"
#include "dfs/cache.h"
#include "dfs/dfs.h"

namespace custody::app {

enum class SchedulerKind { kDelay, kLocalityPreferred, kFifo };

inline constexpr EnumName<SchedulerKind> kSchedulerKindNames[] = {
    {SchedulerKind::kDelay, "delay"},
    {SchedulerKind::kLocalityPreferred, "locality_preferred"},
    {SchedulerKind::kFifo, "fifo"},
};
constexpr std::span<const EnumName<SchedulerKind>> EnumNames(SchedulerKind) {
  return kSchedulerKindNames;
}

struct SchedulerConfig {
  SchedulerKind kind = SchedulerKind::kDelay;
  /// How long a job waits for a local slot before going remote (seconds).
  SimTime locality_wait = 3.0;
};

class TaskScheduler {
 public:
  /// `index` is the application's dispatch index; it must outlive the
  /// scheduler.
  TaskScheduler(SchedulerConfig config, const dfs::Dfs& dfs,
                const ReadyTaskIndex& index)
      : config_(config), dfs_(&dfs), index_(&index) {}

  /// Attach an executor-side block cache: cached copies then count as
  /// local, per the paper's E_u = {D_x : stores or caches D_x} model.
  void set_cache(dfs::BlockCache* cache) { cache_ = cache; }

  struct Pick {
    TaskId task;
    bool local = false;
  };

  /// Choose a ready task for an idle executor on `node`.  `jobs` is the
  /// application's active job list in submission order.  When nothing may
  /// launch yet, `retry_at` (if set) is the earliest time a waiting job's
  /// locality timer expires.
  [[nodiscard]] std::optional<Pick> pick(NodeId node, SimTime now,
                                         const std::vector<Job*>& jobs,
                                         std::optional<SimTime>& retry_at);

  /// Bookkeeping after a launch chosen by pick(): resets the job's locality
  /// wait timer when the launch was local.
  void on_launched(Job& job, const Task& task);

  [[nodiscard]] const SchedulerConfig& config() const { return config_; }

  /// Locality including cached copies when a cache is attached.  A pure
  /// inquiry: cache recency and hit counters are not touched.
  [[nodiscard]] bool is_local(BlockId block, NodeId node) const;

 private:
  SchedulerConfig config_;
  const dfs::Dfs* dfs_;
  const ReadyTaskIndex* index_;
  dfs::BlockCache* cache_ = nullptr;
};

}  // namespace custody::app
