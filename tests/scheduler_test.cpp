// Tests for the in-application task schedulers: delay scheduling semantics,
// locality-preferred and FIFO variants.  Every pick test runs twice — once
// against the seed full-scan reference path and once against the
// ReadyTaskIndex-backed path — and must behave identically in both.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "app/ready_index.h"
#include "app/scheduler.h"
#include "common/units.h"
#include "dfs/cache.h"

namespace custody::app {
namespace {

using custody::units::MB;

/// Builds a self-contained scheduling scenario: a DFS with chosen block
/// locations and a single job whose input tasks read those blocks.
class SchedulerFixture {
 public:
  SchedulerFixture() : dfs_(MakeConfig(), Rng(1)) {}

  BlockId add_block(std::vector<NodeId> nodes) {
    const FileId f =
        dfs_.write_file("/b" + std::to_string(next_file_++), MB(1.0), 1);
    const BlockId b = dfs_.blocks_of(f).front();
    // Rewrite the replica set to the requested nodes.
    auto& nn = const_cast<dfs::NameNode&>(dfs_.namenode());
    for (NodeId n : nodes) {
      if (!nn.is_local(b, n)) nn.add_replica(b, n);
    }
    for (NodeId existing : std::vector<NodeId>(nn.locations(b))) {
      if (std::find(nodes.begin(), nodes.end(), existing) == nodes.end()) {
        nn.remove_replica(b, existing);
      }
    }
    return b;
  }

  Job& add_job() {
    jobs_storage_.push_back(std::make_unique<Job>());
    Job& j = *jobs_storage_.back();
    j.id = JobId(static_cast<JobId::value_type>(jobs_storage_.size()));
    j.stages.push_back(Stage{});
    jobs_.push_back(&j);
    return j;
  }

  Task& add_input_task(Job& j, BlockId block, TaskState state) {
    Task t;
    t.id = TaskId(next_task_++);
    t.job = j.id;
    t.stage = 0;
    t.block = block;
    t.state = state;
    j.stages.front().tasks.push_back(t.id);
    j.input_tasks += 1;
    auto [it, inserted] = tasks_.emplace(t.id, t);
    return it->second;
  }

  Task& add_downstream_task(Job& j, TaskState state) {
    if (j.stages.size() < 2) {
      Stage s;
      s.index = 1;
      j.stages.push_back(s);
    }
    Task t;
    t.id = TaskId(next_task_++);
    t.job = j.id;
    t.stage = 1;
    t.state = state;
    j.stages.back().tasks.push_back(t.id);
    auto [it, inserted] = tasks_.emplace(t.id, t);
    return it->second;
  }

  const dfs::Dfs& dfs() const { return dfs_; }
  const TaskTable& tasks() const { return tasks_; }
  std::vector<Job*>& jobs() { return jobs_; }

 private:
  static dfs::DfsConfig MakeConfig() {
    dfs::DfsConfig c;
    c.num_nodes = 8;
    c.default_replication = 1;
    return c;
  }

  dfs::Dfs dfs_;
  TaskTable tasks_;
  std::vector<std::unique_ptr<Job>> jobs_storage_;
  std::vector<Job*> jobs_;
  TaskId::value_type next_task_ = 0;
  int next_file_ = 0;
};

SchedulerConfig Delay(double wait = 3.0) {
  return {SchedulerKind::kDelay, wait};
}

/// Picks come from the application-maintained ReadyTaskIndex.  make() must
/// be called after the scenario is built — it snapshots the ready tasks
/// into the index, the way Application::RestoreFrom rebuilds it.  The
/// single "indexed" instance keeps the suite's test names stable now that
/// the seed full-scan instance is gone (its whole-run results are pinned
/// by the goldens in dispatch_equivalence_test.cpp).
class SchedulerPath : public testing::TestWithParam<bool> {
 protected:
  TaskScheduler make(SchedulerConfig cfg) {
    index_ = std::make_unique<ReadyTaskIndex>(f.dfs());
    for (const auto& [id, t] : f.tasks()) {
      if (t.state == TaskState::kReady) index_->task_ready(t);
    }
    return TaskScheduler(cfg, f.dfs(), *index_);
  }
  const ReadyTaskIndex& index() const { return *index_; }

  SchedulerFixture f;

 private:
  std::unique_ptr<ReadyTaskIndex> index_;
};

INSTANTIATE_TEST_SUITE_P(Paths, SchedulerPath, testing::Values(true),
                         [](const testing::TestParamInfo<bool>&) {
                           return "indexed";
                         });

TEST_P(SchedulerPath, DelayPrefersLocalInputTask) {
  Job& j = f.add_job();
  const BlockId remote = f.add_block({NodeId(5)});
  const BlockId local = f.add_block({NodeId(1)});
  f.add_input_task(j, remote, TaskState::kReady);
  Task& local_task = f.add_input_task(j, local, TaskState::kReady);

  TaskScheduler sched = make(Delay());
  std::optional<SimTime> retry;
  const auto pick = sched.pick(NodeId(1), 0.0, f.jobs(), retry);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->task, local_task.id);
  EXPECT_TRUE(pick->local);
}

TEST_P(SchedulerPath, DelayWaitsBeforeGoingRemote) {
  Job& j = f.add_job();
  f.add_input_task(j, f.add_block({NodeId(5)}), TaskState::kReady);

  TaskScheduler sched = make(Delay(3.0));
  std::optional<SimTime> retry;
  // First ask at t=0: nothing local -> the job starts its wait.
  EXPECT_FALSE(sched.pick(NodeId(1), 0.0, f.jobs(), retry));
  EXPECT_TRUE(j.waiting_since_set());
  ASSERT_TRUE(retry.has_value());
  EXPECT_DOUBLE_EQ(*retry, 3.0);
  // Still within the wait: refuse again.
  EXPECT_FALSE(sched.pick(NodeId(1), 2.9, f.jobs(), retry));
  // Wait expired: accept the remote slot.
  const auto pick = sched.pick(NodeId(1), 3.0, f.jobs(), retry);
  ASSERT_TRUE(pick.has_value());
  EXPECT_FALSE(pick->local);
}

TEST_P(SchedulerPath, DelayWaitExpiryExactTimeDoesNotSpin) {
  // Regression: the retry event fires at exactly wait_start + wait; the
  // comparison must treat that instant as expired despite fp rounding.
  Job& j = f.add_job();
  f.add_input_task(j, f.add_block({NodeId(5)}), TaskState::kReady);
  TaskScheduler sched = make(Delay(3.0));
  std::optional<SimTime> retry;
  const double start = 9.133414204015;  // awkward binary representation
  EXPECT_FALSE(sched.pick(NodeId(1), start, f.jobs(), retry));
  ASSERT_TRUE(retry.has_value());
  const auto pick =
      sched.pick(NodeId(1), *retry, f.jobs(), retry);
  EXPECT_TRUE(pick.has_value());
}

TEST_P(SchedulerPath, DelayWaitExpiryStillFiresAtSteadyStateHorizons) {
  // Regression for long horizons: one ulp of the clock at t ~ 1e9 is
  // ~2.4e-7 s, so `(wait_start + wait) - wait_start` can round short of
  // `wait` by far more than the historical absolute 1e-9 tolerance.  With
  // that constant the retry event at `expires` refused the pick and
  // re-armed itself forever; TimeEpsilonAt scales with the clock and must
  // treat the retry instant as expired.
  Job& billions = f.add_job();
  f.add_input_task(billions, f.add_block({NodeId(5)}), TaskState::kReady);
  Job& trillions = f.add_job();
  f.add_input_task(trillions, f.add_block({NodeId(5)}), TaskState::kReady);
  const struct {
    Job* job;
    double start;
    double wait;
  } cases[] = {
      {&billions, 1400734916.308764, 0.3},    // rounds ~4.8e-8 short
      {&trillions, 1364094544598.6082, 3.7},  // rounds ~4.9e-5 short
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.start);
    TaskScheduler sched = make(Delay(c.wait));
    std::vector<Job*> only{c.job};
    std::optional<SimTime> retry;
    EXPECT_FALSE(sched.pick(NodeId(1), c.start, only, retry));
    ASSERT_TRUE(retry.has_value());
    // Confirm the scenario bites: the retry instant minus the wait start is
    // genuinely short of the wait by more than the old absolute epsilon.
    ASSERT_LT(*retry - c.start, c.wait - 1e-9);
    const auto pick = sched.pick(NodeId(1), *retry, only, retry);
    EXPECT_TRUE(pick.has_value());
    EXPECT_FALSE(pick->local);
  }
}

TEST(DelayScheduler, LocalLaunchResetsWait) {
  SchedulerFixture f;
  Job& j = f.add_job();
  Task& t = f.add_input_task(j, f.add_block({NodeId(1)}), TaskState::kReady);
  j.wait_start = 5.0;
  t.attempts[kPrimary].local = true;
  const ReadyTaskIndex index(f.dfs());
  TaskScheduler sched(Delay(), f.dfs(), index);
  sched.on_launched(j, t);
  EXPECT_FALSE(j.waiting_since_set());
}

TEST(DelayScheduler, NonLocalLaunchKeepsExpiredTimer) {
  SchedulerFixture f;
  Job& j = f.add_job();
  Task& t = f.add_input_task(j, f.add_block({NodeId(5)}), TaskState::kReady);
  j.wait_start = 5.0;
  t.attempts[kPrimary].local = false;
  const ReadyTaskIndex index(f.dfs());
  TaskScheduler sched(Delay(), f.dfs(), index);
  sched.on_launched(j, t);
  // The expired timer persists so follow-up tasks launch without re-waiting.
  EXPECT_TRUE(j.waiting_since_set());
}

TEST_P(SchedulerPath, DelayDownstreamTasksLaunchAnywhere) {
  Job& j = f.add_job();
  Task& reduce = f.add_downstream_task(j, TaskState::kReady);
  TaskScheduler sched = make(Delay());
  std::optional<SimTime> retry;
  const auto pick = sched.pick(NodeId(7), 0.0, f.jobs(), retry);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->task, reduce.id);
}

TEST_P(SchedulerPath, DelaySkipsJobButServesNextOne) {
  Job& first = f.add_job();
  f.add_input_task(first, f.add_block({NodeId(5)}), TaskState::kReady);
  Job& second = f.add_job();
  Task& local = f.add_input_task(second, f.add_block({NodeId(1)}),
                                 TaskState::kReady);
  TaskScheduler sched = make(Delay());
  std::optional<SimTime> retry;
  const auto pick = sched.pick(NodeId(1), 0.0, f.jobs(), retry);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->task, local.id);  // job 1 skipped, job 2 local served
  EXPECT_TRUE(first.waiting_since_set());
}

TEST_P(SchedulerPath, DelayIgnoresNonReadyTasks) {
  Job& j = f.add_job();
  f.add_input_task(j, f.add_block({NodeId(1)}), TaskState::kBlocked);
  f.add_input_task(j, f.add_block({NodeId(1)}), TaskState::kRunning);
  f.add_input_task(j, f.add_block({NodeId(1)}), TaskState::kFinished);
  TaskScheduler sched = make(Delay());
  std::optional<SimTime> retry;
  EXPECT_FALSE(sched.pick(NodeId(1), 0.0, f.jobs(), retry));
  EXPECT_FALSE(retry.has_value());  // nothing will become pickable by time
}

TEST_P(SchedulerPath, LocalityPreferredNeverWaits) {
  Job& j = f.add_job();
  f.add_input_task(j, f.add_block({NodeId(5)}), TaskState::kReady);
  TaskScheduler sched = make({SchedulerKind::kLocalityPreferred, 3.0});
  std::optional<SimTime> retry;
  const auto pick = sched.pick(NodeId(1), 0.0, f.jobs(), retry);
  ASSERT_TRUE(pick.has_value());
  EXPECT_FALSE(pick->local);
  EXPECT_FALSE(j.waiting_since_set());
}

TEST_P(SchedulerPath, LocalityPreferredStillPrefersLocal) {
  Job& j = f.add_job();
  f.add_input_task(j, f.add_block({NodeId(5)}), TaskState::kReady);
  Task& local = f.add_input_task(j, f.add_block({NodeId(1)}),
                                 TaskState::kReady);
  TaskScheduler sched = make({SchedulerKind::kLocalityPreferred, 0.0});
  std::optional<SimTime> retry;
  const auto pick = sched.pick(NodeId(1), 0.0, f.jobs(), retry);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->task, local.id);
}

TEST_P(SchedulerPath, FifoIgnoresLocalityEntirely) {
  Job& j = f.add_job();
  Task& first = f.add_input_task(j, f.add_block({NodeId(5)}),
                                 TaskState::kReady);
  f.add_input_task(j, f.add_block({NodeId(1)}), TaskState::kReady);
  TaskScheduler sched = make({SchedulerKind::kFifo, 3.0});
  std::optional<SimTime> retry;
  const auto pick = sched.pick(NodeId(1), 0.0, f.jobs(), retry);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->task, first.id);  // stage order, not locality
  EXPECT_FALSE(pick->local);
}

TEST_P(SchedulerPath, FifoStillReportsLocalityForMetrics) {
  Job& j = f.add_job();
  f.add_input_task(j, f.add_block({NodeId(1)}), TaskState::kReady);
  TaskScheduler sched = make({SchedulerKind::kFifo, 0.0});
  std::optional<SimTime> retry;
  const auto pick = sched.pick(NodeId(1), 0.0, f.jobs(), retry);
  ASSERT_TRUE(pick.has_value());
  EXPECT_TRUE(pick->local);  // happened to be local
}

TEST_P(SchedulerPath, HasLocalReadyInput) {
  Job& j = f.add_job();
  f.add_input_task(j, f.add_block({NodeId(2)}), TaskState::kReady);
  make(Delay());  // builds the index
  EXPECT_TRUE(index().has_local_ready_input(j.id, NodeId(2)));
  EXPECT_FALSE(index().has_local_ready_input(j.id, NodeId(3)));
}

TEST_P(SchedulerPath, ZeroWaitDelayActsLikeLocalityPreferred) {
  Job& j = f.add_job();
  f.add_input_task(j, f.add_block({NodeId(5)}), TaskState::kReady);
  TaskScheduler sched = make(Delay(0.0));
  std::optional<SimTime> retry;
  EXPECT_TRUE(sched.pick(NodeId(1), 0.0, f.jobs(), retry));
}

// --- ReadyTaskIndex hooks behind the application's kick sweep --------------

/// A DFS (replication 1, 1 MB blocks) and block cache wired into one index
/// the way Application wires them: replica and cached-copy churn reach the
/// index through the DFS and cache listeners.
class IndexHooks : public testing::Test {
 protected:
  IndexHooks() : dfs_(Config(), Rng(5)), cache_(dfs_, MB(2.0)), index_(dfs_) {
    index_.set_cache(&cache_);
    index_.set_node_listener([this](NodeId n) { gained_.push_back(n); });
    dfs_listener_ = dfs_.add_replica_listener(
        [this](BlockId b, NodeId n, bool added) {
          added ? index_.replica_added(b, n) : index_.replica_removed(b, n);
        });
    cache_listener_ = cache_.add_change_listener(
        [this](BlockId b, NodeId n, bool cached) {
          cached ? index_.replica_added(b, n) : index_.replica_removed(b, n);
        });
  }
  ~IndexHooks() override {
    dfs_.remove_replica_listener(dfs_listener_);
    cache_.remove_change_listener(cache_listener_);
  }

  static dfs::DfsConfig Config() {
    dfs::DfsConfig c;
    c.num_nodes = 6;
    c.block_bytes = MB(1.0);
    c.default_replication = 1;
    return c;
  }

  /// A one-block file and a ready input task over its block.
  Task ReadyTask(int n) {
    const FileId f = dfs_.write_file("/f" + std::to_string(n), MB(1.0));
    Task t;
    t.id = TaskId(static_cast<TaskId::value_type>(n));
    t.job = JobId(1);
    t.stage = 0;
    t.block = dfs_.blocks_of(f).front();
    t.state = TaskState::kReady;
    return t;
  }
  NodeId HomeOf(const Task& t) const { return dfs_.locations(t.block)[0]; }
  static std::vector<NodeId> LiveExcept(NodeId dead) {
    std::vector<NodeId> live;
    for (std::size_t n = 0; n < Config().num_nodes; ++n) {
      const NodeId node(static_cast<NodeId::value_type>(n));
      if (node != dead) live.push_back(node);
    }
    return live;
  }

  dfs::Dfs dfs_;
  dfs::BlockCache cache_;
  ReadyTaskIndex index_;
  std::vector<NodeId> gained_;
  dfs::Dfs::ListenerId dfs_listener_ = 0;
  dfs::BlockCache::ListenerId cache_listener_ = 0;
};

TEST_F(IndexHooks, NodeListenerFiresOnlyWhenANodeGainsItsFirstLocalInput) {
  const Task a = ReadyTask(0);
  const Task b = ReadyTask(1);
  const NodeId home_a = HomeOf(a);
  const NodeId home_b = HomeOf(b);
  ASSERT_NE(home_a, home_b);  // placement under Rng(5)
  index_.task_ready(a);
  EXPECT_EQ(gained_, std::vector<NodeId>{home_a});

  // A copy of a block with no ready task changes nothing.
  cache_.insert(home_a, b.block);
  EXPECT_EQ(gained_.size(), 1u);
  // b turns ready on its disk home (new: fires) and its cached copy next
  // to a (already local: silent).
  gained_.clear();
  index_.task_ready(b);
  EXPECT_EQ(gained_, std::vector<NodeId>{home_b});

  // A cached copy on a node without local input fires once; a second
  // ready block cached there does not.
  NodeId fresh(static_cast<NodeId::value_type>(Config().num_nodes - 1));
  while (fresh == home_a || fresh == home_b) {
    fresh = NodeId(fresh.value() - 1);
  }
  gained_.clear();
  cache_.insert(fresh, a.block);
  EXPECT_EQ(gained_, std::vector<NodeId>{fresh});
  cache_.insert(fresh, b.block);
  EXPECT_EQ(gained_.size(), 1u);

  // Losing every local input and regaining it is a new 0 -> 1 step.
  index_.task_unready(a);
  index_.task_unready(b);
  EXPECT_FALSE(index_.any_local_ready_input(fresh));
  gained_.clear();
  index_.task_ready(a);
  EXPECT_EQ(gained_, (std::vector<NodeId>{home_a, fresh}));

  // Re-replication after a's home fails gives a new node local input.
  gained_.clear();
  dfs_.fail_node(home_a, LiveExcept(home_a));
  ASSERT_NE(HomeOf(a), home_a);
  ASSERT_NE(HomeOf(a), fresh);  // placement under Rng(5)
  EXPECT_EQ(gained_, std::vector<NodeId>{HomeOf(a)});
}

TEST_F(IndexHooks, EpochBumpsWheneverReadyBlocksCanGrowOrMove) {
  Task a = ReadyTask(0);
  const Task other = ReadyTask(1);  // never ready
  const auto bumps = [this](const auto& change) {
    const std::uint64_t before = index_.epoch();
    change();
    return index_.epoch() != before;
  };
  EXPECT_TRUE(bumps([&] { index_.task_ready(a); }));
  NodeId away(0);
  while (away == HomeOf(a)) away = NodeId(away.value() + 1);
  EXPECT_TRUE(bumps([&] { cache_.insert(away, a.block); }));
  // Evicting a's copy (the budget holds two blocks) removes a location.
  const Task filler1 = ReadyTask(2);
  const Task filler2 = ReadyTask(3);
  cache_.insert(away, filler1.block);
  EXPECT_TRUE(bumps([&] { cache_.insert(away, filler2.block); }));
  EXPECT_FALSE(cache_.peek_cached(away, a.block));
  // A clear() (restore) starts over from a new epoch.
  EXPECT_TRUE(bumps([&] { index_.clear(); }));
  index_.task_ready(a);
  // Disk re-replication: a's home fails, a new replica appears elsewhere.
  const NodeId home = HomeOf(a);
  EXPECT_TRUE(bumps([&] { dfs_.fail_node(home, LiveExcept(home)); }));

  // Changes that only shrink the ready set, or touch blocks that are not
  // ready, leave the epoch alone.
  EXPECT_FALSE(bumps([&] { cache_.insert(away, other.block); }));
  EXPECT_FALSE(bumps([&] { index_.task_unready(a); }));
  EXPECT_FALSE(bumps([&] { index_.job_removed(a.job); }));
}

}  // namespace
}  // namespace custody::app
