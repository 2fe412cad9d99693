// The one field table of ExperimentConfig.
//
// ForEachConfigField lists every independently settable value of the
// config once: its dotted path, a typed reference, its per-field bound and
// whether it is hashed and settable over HTTP.  Every consumer walks this
// table instead of keeping its own list:
//
//   ConfigHash      — hashes path + value of every `hashed` field;
//   ValidateConfig  — enforces every `bound` (and finiteness of every
//                     double), then the hand-written cross-field rules;
//   svc codec       — ConfigToJson / ConfigFromJson move every `http`
//                     field, nesting objects by path prefix;
//   config_fields_test — perturbs every entry and fails on a struct member
//                     that has no entry.
//
// Adding a knob is one line here.  Entries sharing a path prefix must be
// contiguous (the codec opens one JSON object per prefix run).
#pragma once

#include <concepts>
#include <cstdint>
#include <type_traits>

#include "workload/experiment.h"

namespace custody::workload {

/// A per-field range rule.  ValidateConfig writes each as `!(v > lo)` and
/// the like, so NaN fails every bound.  On a list, kPositive means
/// non-empty.
enum class Bound {
  kNone,
  kPositive,     ///< > 0
  kNonNegative,  ///< >= 0
  kUnit,         ///< in [0, 1]
  kUnitOpen,     ///< in [0, 1)
};

struct ConfigField {
  const char* path;
  Bound bound = Bound::kNone;
  /// Part of ConfigHash: it can change the simulated trajectory.
  bool hashed = true;
  /// Settable through the svc JSON codec.
  bool http = true;
};

/// Largest value a 64-bit integer field may hold.  JSON carries numbers as
/// doubles; below 2^53 every integer is exact and no neighbour rounds onto
/// it, so every accepted config round-trips through the codec bit-exactly.
inline constexpr std::uint64_t kMaxWireInteger = (std::uint64_t{1} << 53) - 1;

/// Calls `visit(const ConfigField&, field&)` once per entry, in table
/// order.  `Config` is ExperimentConfig or const ExperimentConfig.
template <typename Config, typename Visit>
  requires std::same_as<std::remove_const_t<Config>, ExperimentConfig>
void ForEachConfigField(Config& c, Visit&& visit) {
  using enum Bound;
  // Cluster (paper Sec. VI-A1).
  visit(ConfigField{"num_nodes", kPositive}, c.num_nodes);
  visit(ConfigField{"executors_per_node", kPositive}, c.executors_per_node);
  visit(ConfigField{"disk_mbps", kPositive}, c.disk_mbps);
  visit(ConfigField{"uplink_gbps", kPositive}, c.uplink_gbps);
  visit(ConfigField{"downlink_gbps", kPositive}, c.downlink_gbps);
  visit(ConfigField{"core_gbps", kNonNegative}, c.core_gbps);
  // DFS.
  visit(ConfigField{"block_mb", kPositive}, c.block_mb);
  visit(ConfigField{"replication", kPositive}, c.replication);
  visit(ConfigField{"dataset.popularity_replication"},
        c.dataset.popularity_replication);
  visit(ConfigField{"dataset.popularity_extra_replicas", kNonNegative},
        c.dataset.popularity_extra_replicas);
  visit(ConfigField{"dataset.hot_fraction", kUnit}, c.dataset.hot_fraction);
  visit(ConfigField{"cache_mb_per_node", kNonNegative}, c.cache_mb_per_node);
  // Scheduling.
  visit(ConfigField{"manager"}, c.manager);
  visit(ConfigField{"allocator.locality_fair"}, c.allocator.locality_fair);
  visit(ConfigField{"allocator.priority_jobs"}, c.allocator.priority_jobs);
  visit(ConfigField{"scheduler.kind"}, c.scheduler.kind);
  visit(ConfigField{"scheduler.locality_wait"}, c.scheduler.locality_wait);
  visit(ConfigField{"shuffle_fan_in", kPositive}, c.shuffle_fan_in);
  visit(ConfigField{"speculation"}, c.speculation);
  visit(ConfigField{"speculation_multiplier"}, c.speculation_multiplier);
  // Heterogeneity and failures.
  visit(ConfigField{"slow_node_fraction", kUnit}, c.slow_node_fraction);
  visit(ConfigField{"slow_node_factor", kPositive}, c.slow_node_factor);
  visit(ConfigField{"node_failures", kNonNegative}, c.node_failures);
  visit(ConfigField{"failure_start"}, c.failure_start);
  visit(ConfigField{"failure_interval"}, c.failure_interval);
  // Workload.
  visit(ConfigField{"kinds", kPositive}, c.kinds);
  visit(ConfigField{"trace.num_apps", kPositive}, c.trace.num_apps);
  visit(ConfigField{"trace.jobs_per_app", kPositive}, c.trace.jobs_per_app);
  visit(ConfigField{"trace.mean_interarrival", kPositive},
        c.trace.mean_interarrival);
  visit(ConfigField{"trace.zipf_skew", kNonNegative}, c.trace.zipf_skew);
  visit(ConfigField{"trace.files_per_kind", kPositive},
        c.trace.files_per_kind);
  visit(ConfigField{"params.pagerank_iterations", kNonNegative},
        c.params.pagerank_iterations);
  visit(ConfigField{"params.pagerank_compute_per_byte", kNonNegative},
        c.params.pagerank_compute_per_byte);
  visit(ConfigField{"params.pagerank_shuffle_ratio", kNonNegative},
        c.params.pagerank_shuffle_ratio);
  visit(ConfigField{"params.pagerank_iter_compute_per_byte", kNonNegative},
        c.params.pagerank_iter_compute_per_byte);
  visit(ConfigField{"params.wordcount_compute_per_byte", kNonNegative},
        c.params.wordcount_compute_per_byte);
  visit(ConfigField{"params.wordcount_shuffle_ratio", kNonNegative},
        c.params.wordcount_shuffle_ratio);
  visit(ConfigField{"params.wordcount_reduce_secs", kNonNegative},
        c.params.wordcount_reduce_secs);
  visit(ConfigField{"params.sort_compute_per_byte", kNonNegative},
        c.params.sort_compute_per_byte);
  visit(ConfigField{"params.sort_shuffle_ratio", kNonNegative},
        c.params.sort_shuffle_ratio);
  visit(ConfigField{"params.sort_reduce_compute_per_byte", kNonNegative},
        c.params.sort_reduce_compute_per_byte);
  // Steady-state streaming.
  visit(ConfigField{"steady.enabled"}, c.steady.enabled);
  visit(ConfigField{"steady.retire_jobs"}, c.steady.retire_jobs);
  visit(ConfigField{"steady.streaming_metrics"}, c.steady.streaming_metrics);
  visit(ConfigField{"steady.warmup", kNonNegative}, c.steady.warmup);
  visit(ConfigField{"steady.diurnal_amplitude", kUnitOpen},
        c.steady.diurnal_amplitude);
  visit(ConfigField{"steady.diurnal_period"}, c.steady.diurnal_period);
  // Observability and checkpoints never change the simulated trajectory;
  // checkpoint paths are server-side file I/O, not a remote knob.
  visit(ConfigField{.path = "tracing.enabled", .hashed = false},
        c.tracing.enabled);
  visit(ConfigField{.path = "tracing.capacity", .hashed = false},
        c.tracing.capacity);
  visit(ConfigField{.path = "checkpoint.every", .bound = kNonNegative,
                    .hashed = false, .http = false},
        c.checkpoint.every);
  visit(ConfigField{.path = "checkpoint.directory", .hashed = false,
                    .http = false},
        c.checkpoint.directory);
  visit(ConfigField{.path = "checkpoint.resume_path", .hashed = false,
                    .http = false},
        c.checkpoint.resume_path);
  visit(ConfigField{"seed"}, c.seed);
}

}  // namespace custody::workload
