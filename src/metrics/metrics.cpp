#include "metrics/metrics.h"

#include <algorithm>
#include <stdexcept>

#include "common/snapshot.h"

namespace custody::metrics {

void MetricsCollector::enable_streaming() {
  if (!tasks_.empty() || !jobs_.empty() || !round_walls_.empty()) {
    throw std::logic_error(
        "MetricsCollector: enable_streaming after records were collected");
  }
  streaming_ = true;
}

void MetricsCollector::record_task(const TaskRecord& record) {
  if (record.ready_time < warmup_) return;
  if (streaming_) {
    if (record.is_input) sched_delay_stream_.add(record.scheduler_delay());
    return;
  }
  tasks_.push_back(record);
}

void MetricsCollector::record_job(const JobRecord& record) {
  makespan_ = std::max(makespan_, record.finish_time);
  if (record.submit_time < warmup_) return;
  ++jobs_recorded_;
  input_tasks_total_ += static_cast<std::uint64_t>(record.input_tasks);
  input_tasks_local_ += static_cast<std::uint64_t>(record.local_input_tasks);
  const bool perfect = record.perfectly_local();
  if (perfect) ++perfectly_local_jobs_;
  const auto a = static_cast<std::size_t>(record.app.value());
  if (a >= app_total_jobs_.size()) {
    app_total_jobs_.resize(a + 1, 0);
    app_local_jobs_.resize(a + 1, 0);
  }
  ++app_total_jobs_[a];
  if (perfect) ++app_local_jobs_[a];

  if (streaming_) {
    locality_stream_.add(record.locality_percent());
    jct_stream_.add(record.completion_time());
    input_stage_stream_.add(record.input_stage_duration());
    return;
  }
  jobs_.push_back(record);
}

void MetricsCollector::record_round(double wall_seconds,
                                    std::uint64_t grants) {
  ++rounds_recorded_;
  if (grants > 0) ++productive_rounds_;
  if (streaming_) {
    round_wall_stream_.add(wall_seconds);
    return;
  }
  round_walls_.push_back(wall_seconds);
}

Summary MetricsCollector::job_locality_summary() const {
  if (streaming_) return locality_stream_.summarize();
  return Summarize(per_job_locality_percent());
}

Summary MetricsCollector::jct_summary() const {
  if (streaming_) return jct_stream_.summarize();
  return Summarize(job_completion_times());
}

Summary MetricsCollector::input_stage_summary() const {
  if (streaming_) return input_stage_stream_.summarize();
  return Summarize(input_stage_durations());
}

Summary MetricsCollector::sched_delay_summary() const {
  if (streaming_) return sched_delay_stream_.summarize();
  return Summarize(input_scheduler_delays());
}

Summary MetricsCollector::round_wall_summary() const {
  if (streaming_) return round_wall_stream_.summarize();
  return Summarize(round_walls_);
}

std::vector<double> MetricsCollector::per_job_locality_percent() const {
  std::vector<double> out;
  out.reserve(jobs_.size());
  for (const JobRecord& job : jobs_) out.push_back(job.locality_percent());
  return out;
}

double MetricsCollector::overall_input_locality_percent() const {
  return input_tasks_total_ == 0
             ? 0.0
             : 100.0 * static_cast<double>(input_tasks_local_) /
                   static_cast<double>(input_tasks_total_);
}

double MetricsCollector::local_job_percent() const {
  return jobs_recorded_ == 0
             ? 0.0
             : 100.0 * static_cast<double>(perfectly_local_jobs_) /
                   static_cast<double>(jobs_recorded_);
}

std::vector<double> MetricsCollector::job_completion_times() const {
  std::vector<double> out;
  out.reserve(jobs_.size());
  for (const JobRecord& job : jobs_) out.push_back(job.completion_time());
  return out;
}

std::vector<double> MetricsCollector::input_stage_durations() const {
  std::vector<double> out;
  out.reserve(jobs_.size());
  for (const JobRecord& job : jobs_) out.push_back(job.input_stage_duration());
  return out;
}

std::vector<double> MetricsCollector::input_scheduler_delays() const {
  std::vector<double> out;
  for (const TaskRecord& task : tasks_) {
    if (task.is_input) out.push_back(task.scheduler_delay());
  }
  return out;
}

std::vector<double> MetricsCollector::per_app_local_job_fraction(
    std::size_t num_apps) const {
  std::vector<double> out(num_apps, 0.0);
  const std::size_t known = std::min(num_apps, app_total_jobs_.size());
  for (std::size_t a = 0; a < known; ++a) {
    out[a] = app_total_jobs_[a] == 0
                 ? 0.0
                 : static_cast<double>(app_local_jobs_[a]) /
                       static_cast<double>(app_total_jobs_[a]);
  }
  return out;
}

double MetricsCollector::round_yield_fraction() const {
  return rounds_recorded_ == 0
             ? 0.0
             : static_cast<double>(productive_rounds_) /
                   static_cast<double>(rounds_recorded_);
}

void MetricsCollector::SaveTo(snap::SnapshotWriter& w) const {
  w.b(streaming_);
  w.f64(warmup_);

  w.size(tasks_.size());
  for (const TaskRecord& t : tasks_) {
    w.u32(t.app.value());
    w.u32(t.job.value());
    w.i64(t.stage);
    w.b(t.is_input);
    w.b(t.local);
    w.f64(t.ready_time);
    w.f64(t.launch_time);
    w.f64(t.finish_time);
  }
  w.size(jobs_.size());
  for (const JobRecord& j : jobs_) {
    w.u32(j.app.value());
    w.u32(j.job.value());
    w.f64(j.submit_time);
    w.f64(j.input_stage_finish);
    w.f64(j.finish_time);
    w.i64(j.input_tasks);
    w.i64(j.local_input_tasks);
  }
  w.size(round_walls_.size());
  for (double v : round_walls_) w.f64(v);

  locality_stream_.SaveTo(w);
  jct_stream_.SaveTo(w);
  input_stage_stream_.SaveTo(w);
  sched_delay_stream_.SaveTo(w);
  round_wall_stream_.SaveTo(w);

  w.f64(makespan_);
  w.u64(jobs_recorded_);
  w.u64(perfectly_local_jobs_);
  w.u64(input_tasks_total_);
  w.u64(input_tasks_local_);
  w.u64(rounds_recorded_);
  w.u64(productive_rounds_);
  w.size(app_local_jobs_.size());
  for (std::uint64_t v : app_local_jobs_) w.u64(v);
  w.size(app_total_jobs_.size());
  for (std::uint64_t v : app_total_jobs_) w.u64(v);
}

void MetricsCollector::RestoreFrom(snap::SnapshotReader& r) {
  const bool streaming = r.b();
  if (streaming != streaming_) {
    throw snap::SnapshotError(
        "MetricsCollector mode mismatch: snapshot was taken in " +
        std::string(streaming ? "streaming" : "exact") +
        " mode but this collector is in " +
        std::string(streaming_ ? "streaming" : "exact") + " mode");
  }
  warmup_ = r.f64();

  tasks_.clear();
  tasks_.resize(r.size());
  for (TaskRecord& t : tasks_) {
    t.app = AppId(r.u32());
    t.job = JobId(r.u32());
    t.stage = static_cast<int>(r.i64());
    t.is_input = r.b();
    t.local = r.b();
    t.ready_time = r.f64();
    t.launch_time = r.f64();
    t.finish_time = r.f64();
  }
  jobs_.clear();
  jobs_.resize(r.size());
  for (JobRecord& j : jobs_) {
    j.app = AppId(r.u32());
    j.job = JobId(r.u32());
    j.submit_time = r.f64();
    j.input_stage_finish = r.f64();
    j.finish_time = r.f64();
    j.input_tasks = static_cast<int>(r.i64());
    j.local_input_tasks = static_cast<int>(r.i64());
  }
  round_walls_.assign(r.size(), 0.0);
  for (double& v : round_walls_) v = r.f64();

  locality_stream_.RestoreFrom(r);
  jct_stream_.RestoreFrom(r);
  input_stage_stream_.RestoreFrom(r);
  sched_delay_stream_.RestoreFrom(r);
  round_wall_stream_.RestoreFrom(r);

  makespan_ = r.f64();
  jobs_recorded_ = r.u64();
  perfectly_local_jobs_ = r.u64();
  input_tasks_total_ = r.u64();
  input_tasks_local_ = r.u64();
  rounds_recorded_ = r.u64();
  productive_rounds_ = r.u64();
  app_local_jobs_.assign(r.size(), 0);
  for (std::uint64_t& v : app_local_jobs_) v = r.u64();
  app_total_jobs_.assign(r.size(), 0);
  for (std::uint64_t& v : app_total_jobs_) v = r.u64();
}

}  // namespace custody::metrics
