// One exact-equality helper for ExperimentResult, shared by every suite that
// proves two runs identical (equivalence, sweep, snapshot, steady-state,
// tracing) and by the golden tables that pin production against outputs
// recorded from the retired reference paths.
//
// The field list lives in exactly one place (FlattenResult); the pairwise
// compare and the golden digest both walk it, so they can never disagree
// about what "identical" means.  Wall-clock diagnostics (round_wall values,
// allocation wall seconds, net wall seconds) measure real time, not
// simulated behaviour, and are never compared.  Everything else is grouped
// so a suite can leave out exactly the fields its two sides legitimately
// differ in:
//   * kSummaries  — the four figure-level distributions (streaming runs
//                   approximate these with P² quantiles);
//   * kRoundWork  — allocation-round work and input counters (the
//                   rebuild-per-round reference never skipped a round, so
//                   it scanned more and sized more demands);
//   * kNetWork    — rate-solver work counters (the recompute-per-change
//                   reference ran one solve per flow-set change);
//   * kRetirement — jobs retired through the per-app pools.
// Doubles compare with ==, bit for bit: no tolerance anywhere.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "common/snapshot.h"
#include "svc/json_api.h"
#include "workload/experiment.h"

namespace custody::testutil {

enum ResultFields : unsigned {
  kSummaries = 1u << 0,
  kRoundWork = 1u << 1,
  kNetWork = 1u << 2,
  kRetirement = 1u << 3,
  kAllFields = kSummaries | kRoundWork | kNetWork | kRetirement,
};

struct ResultField {
  std::string name;
  std::variant<std::uint64_t, double, std::string> value;
};

inline void AppendSummary(std::vector<ResultField>& out,
                          const std::string& prefix, const Summary& s) {
  out.push_back({prefix + ".count", std::uint64_t{s.count}});
  out.push_back({prefix + ".mean", s.mean});
  out.push_back({prefix + ".stddev", s.stddev});
  out.push_back({prefix + ".min", s.min});
  out.push_back({prefix + ".p25", s.p25});
  out.push_back({prefix + ".median", s.median});
  out.push_back({prefix + ".p75", s.p75});
  out.push_back({prefix + ".p95", s.p95});
  out.push_back({prefix + ".p99", s.p99});
  out.push_back({prefix + ".max", s.max});
}

/// Every deterministic field of `r` selected by `fields`, in a fixed order.
inline std::vector<ResultField> FlattenResult(
    const workload::ExperimentResult& r, unsigned fields = kAllFields) {
  using U = std::uint64_t;
  std::vector<ResultField> out;
  out.push_back({"manager_name", r.manager_name});
  if (fields & kSummaries) {
    AppendSummary(out, "job_locality", r.job_locality);
    AppendSummary(out, "jct", r.jct);
    AppendSummary(out, "input_stage", r.input_stage);
    AppendSummary(out, "sched_delay", r.sched_delay);
  }
  out.push_back({"overall_task_locality_percent",
                 r.overall_task_locality_percent});
  out.push_back({"local_job_percent", r.local_job_percent});
  out.push_back({"per_app_local_job_fraction.size",
                 U{r.per_app_local_job_fraction.size()}});
  for (std::size_t i = 0; i < r.per_app_local_job_fraction.size(); ++i) {
    out.push_back({"per_app_local_job_fraction[" + std::to_string(i) + "]",
                   r.per_app_local_job_fraction[i]});
  }
  const cluster::ManagerStats& m = r.manager_stats;
  out.push_back({"manager_stats.allocation_rounds", U{m.allocation_rounds}});
  out.push_back({"manager_stats.executors_granted", U{m.executors_granted}});
  out.push_back({"manager_stats.executors_released", U{m.executors_released}});
  out.push_back({"manager_stats.offers_made", U{m.offers_made}});
  out.push_back({"manager_stats.offers_rejected", U{m.offers_rejected}});
  out.push_back({"manager_stats.apps_considered", U{m.apps_considered}});
  if (fields & kRoundWork) {
    out.push_back({"manager_stats.executors_scanned", U{m.executors_scanned}});
    out.push_back({"manager_stats.rounds_skipped", U{m.rounds_skipped}});
    out.push_back({"manager_stats.demand_apps", U{m.demand_apps}});
    out.push_back({"manager_stats.demanded_tasks", U{m.demanded_tasks}});
    out.push_back({"manager_stats.demands_saturated", U{m.demands_saturated}});
  }
  // round_wall values are wall-clock; only the round count is simulated.
  out.push_back({"round_wall.count", U{r.round_wall.count}});
  out.push_back({"round_yield_fraction", r.round_yield_fraction});
  if (fields & kNetWork) {
    const net::NetStats& n = r.net_stats;
    out.push_back(
        {"net_stats.recomputes_requested", U{n.recomputes_requested}});
    out.push_back({"net_stats.recomputes_run", U{n.recomputes_run}});
    out.push_back({"net_stats.recomputes_batched", U{n.recomputes_batched}});
    out.push_back({"net_stats.flows_scanned", U{n.flows_scanned}});
    out.push_back({"net_stats.links_scanned", U{n.links_scanned}});
    out.push_back({"net_stats.rounds", U{n.rounds}});
  }
  out.push_back({"net_bytes_delivered", r.net_bytes_delivered});
  out.push_back({"cache_insertions", U{r.cache_insertions}});
  out.push_back({"cache_hits", U{r.cache_hits}});
  out.push_back({"speculative_launches", U{r.speculative_launches}});
  out.push_back({"speculative_wins", U{r.speculative_wins}});
  out.push_back({"nodes_failed", static_cast<U>(r.nodes_failed)});
  out.push_back({"launches_local", U{r.launches_local}});
  out.push_back({"launches_covered_busy", U{r.launches_covered_busy}});
  out.push_back({"launches_uncovered", U{r.launches_uncovered}});
  out.push_back({"makespan", r.makespan});
  out.push_back({"events_processed", U{r.events_processed}});
  out.push_back({"jobs_completed", U{r.jobs_completed}});
  if (fields & kRetirement) {
    out.push_back({"jobs_retired", U{r.jobs_retired}});
  }
  out.push_back({"peak_live_tasks", U{r.peak_live_tasks}});
  return out;
}

inline void ExpectFieldsIdentical(const std::vector<ResultField>& a,
                                  const std::vector<ResultField>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(a[i].name, b[i].name) << "field lists diverge";
    if (const auto* x = std::get_if<double>(&a[i].value)) {
      EXPECT_EQ(*x, std::get<double>(b[i].value)) << a[i].name;
    } else if (const auto* u = std::get_if<std::uint64_t>(&a[i].value)) {
      EXPECT_EQ(*u, std::get<std::uint64_t>(b[i].value)) << a[i].name;
    } else {
      EXPECT_EQ(std::get<std::string>(a[i].value),
                std::get<std::string>(b[i].value))
          << a[i].name;
    }
  }
  EXPECT_EQ(a.size(), b.size()) << "field counts differ";
}

inline void ExpectSummariesIdentical(const Summary& a, const Summary& b) {
  std::vector<ResultField> fa;
  std::vector<ResultField> fb;
  AppendSummary(fa, "summary", a);
  AppendSummary(fb, "summary", b);
  ExpectFieldsIdentical(fa, fb);
}

/// Exact compare of every field selected by `fields` (default: all).
inline void ExpectResultsIdentical(const workload::ExperimentResult& a,
                                   const workload::ExperimentResult& b,
                                   unsigned fields = kAllFields) {
  ExpectFieldsIdentical(FlattenResult(a, fields), FlattenResult(b, fields));
}

/// FNV-1a over the selected fields: names, then values (doubles by bit
/// pattern).  This is what the golden tables store.
inline std::uint64_t ResultDigest(const workload::ExperimentResult& r,
                                  unsigned fields = kAllFields) {
  std::vector<std::uint8_t> bytes;
  const auto put = [&bytes](const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes.insert(bytes.end(), p, p + n);
  };
  for (const ResultField& f : FlattenResult(r, fields)) {
    put(f.name.data(), f.name.size());
    if (const auto* x = std::get_if<double>(&f.value)) {
      std::uint64_t raw = 0;
      std::memcpy(&raw, x, sizeof raw);
      put(&raw, sizeof raw);
    } else if (const auto* u = std::get_if<std::uint64_t>(&f.value)) {
      put(u, sizeof *u);
    } else {
      const std::string& s = std::get<std::string>(f.value);
      put(s.data(), s.size());
    }
  }
  return snap::Fnv1a(bytes.data(), bytes.size());
}

/// Production run vs a golden digest; on mismatch print the production
/// result so the offending field can be found against the recorded side.
inline void ExpectDigest(const workload::ExperimentResult& production,
                         std::uint64_t golden, unsigned fields = kAllFields) {
  const std::uint64_t got = ResultDigest(production, fields);
  EXPECT_EQ(got, golden) << "production result: "
                         << svc::ResultToJson(production);
}

}  // namespace custody::testutil
