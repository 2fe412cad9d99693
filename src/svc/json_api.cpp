#include "svc/json_api.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "common/enum_names.h"
#include "workload/config_fields.h"

namespace custody::svc {

using workload::ExperimentConfig;
using workload::ExperimentResult;

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument("number: JSON cannot carry non-finite values");
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

namespace {

using workload::ConfigField;
using workload::kMaxWireInteger;

/// The wire shape of ExperimentConfig, read off the field table once: the
/// HTTP-settable leaf paths, the object paths that hold them, and the
/// paths that exist but are not settable over HTTP.
struct WireSchema {
  std::set<std::string> leaves;
  std::set<std::string> objects;
  std::set<std::string> server_only;

  WireSchema() {
    ExperimentConfig defaults;
    workload::ForEachConfigField(
        defaults, [this](const ConfigField& field, const auto&) {
          const std::string path = field.path;
          (field.http ? leaves : server_only).insert(path);
          for (std::size_t dot = path.find('.'); dot != std::string::npos;
               dot = path.find('.', dot + 1)) {
            (field.http ? objects : server_only).insert(path.substr(0, dot));
          }
        });
  }
};

const WireSchema& Schema() {
  static const WireSchema schema;
  return schema;
}

void RequireObject(const JsonValue& value, const std::string& path) {
  if (!value.is_object()) {
    throw std::invalid_argument(path + " must be a JSON object (got " +
                                value.kind_name() + ")");
  }
}

/// Strict unknown-key rejection, so a typo never silently runs a default.
void CheckKeys(const JsonValue& object, const std::string& prefix) {
  const WireSchema& schema = Schema();
  for (const auto& [key, value] : object.members()) {
    const std::string path = prefix.empty() ? key : prefix + "." + key;
    if (schema.leaves.count(path) != 0) continue;
    if (schema.objects.count(path) != 0) {
      RequireObject(value, path);
      CheckKeys(value, path);
    } else if (schema.server_only.count(path) != 0) {
      throw std::invalid_argument(
          path + " is not settable over HTTP (server-side file I/O)");
    } else {
      throw std::invalid_argument(path + " is not a recognized config field");
    }
  }
}

/// The member at dotted `path`, or null when absent.  CheckKeys has
/// already made every object on the way an object.
const JsonValue* Find(const JsonValue& document, std::string_view path) {
  const JsonValue* at = &document;
  for (;;) {
    const std::size_t dot = path.find('.');
    at = at->find(std::string(path.substr(0, dot)));
    if (at == nullptr || dot == std::string_view::npos) return at;
    path.remove_prefix(dot + 1);
  }
}

/// An integer in (-2^53, 2^53): the range JSON numbers carry exactly, so
/// a literal beyond it (which parses onto a neighbour) is refused rather
/// than silently changed.
long long Integer(const JsonValue& v, const std::string& path) {
  if (!v.is_number() || v.as_number() != std::floor(v.as_number()) ||
      !(std::fabs(v.as_number()) <= static_cast<double>(kMaxWireInteger))) {
    throw std::invalid_argument(path + " must be an integer of magnitude"
                                " below 2^53");
  }
  return static_cast<long long>(v.as_number());
}

template <typename E>
E EnumValue(const JsonValue& v, const std::string& path) {
  const std::optional<E> value =
      v.is_string() ? EnumFromName<E>(v.as_string()) : std::nullopt;
  if (!value) {
    throw std::invalid_argument(path + " must be one of " + EnumChoices<E>() +
                                " (got " + (v.is_string()
                                                ? "\"" + v.as_string() + "\""
                                                : v.kind_name()) +
                                ")");
  }
  return *value;
}

/// Type and range-of-type checks only; value rules are ValidateConfig's.
template <typename T>
void Decode(const JsonValue& v, const std::string& path, T& out) {
  const auto mistyped = [&](const char* expected) {
    throw std::invalid_argument(path + " must be " + expected + " (got " +
                                v.kind_name() + ")");
  };
  if constexpr (std::is_same_v<T, bool>) {
    if (!v.is_bool()) mistyped("a boolean");
    out = v.as_bool();
  } else if constexpr (std::is_same_v<T, double>) {
    if (!v.is_number()) mistyped("a number");
    out = v.as_number();
  } else if constexpr (std::is_same_v<T, int>) {
    const long long n = Integer(v, path);
    if (n < std::numeric_limits<int>::min() ||
        n > std::numeric_limits<int>::max()) {
      throw std::invalid_argument(path + " must fit in a 32-bit int (got " +
                                  std::to_string(n) + ")");
    }
    out = static_cast<int>(n);
  } else if constexpr (std::is_unsigned_v<T>) {
    const long long n = Integer(v, path);
    if (n < 0) {
      throw std::invalid_argument(path + " must be a non-negative integer");
    }
    out = static_cast<T>(n);
  } else if constexpr (std::is_enum_v<T>) {
    out = EnumValue<T>(v, path);
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!v.is_string()) mistyped("a string");
    out = v.as_string();
  } else {
    if (!v.is_array()) mistyped("an array");
    out.clear();
    for (const JsonValue& item : v.items()) {
      out.push_back(EnumValue<typename T::value_type>(item, path));
    }
  }
}

void Encode(std::string& out, bool v) { out += v ? "true" : "false"; }
void Encode(std::string& out, double v) { out += JsonNumber(v); }
void Encode(std::string& out, const std::string& v) { out += JsonQuote(v); }
template <typename T>
  requires std::is_integral_v<T>
void Encode(std::string& out, T v) {
  out += std::to_string(v);
}
template <typename E>
  requires std::is_enum_v<E>
void Encode(std::string& out, E v) {
  out += JsonQuote(EnumToName(v));
}
template <typename E>
void Encode(std::string& out, const std::vector<E>& items) {
  out += '[';
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    Encode(out, items[i]);
  }
  out += ']';
}

}  // namespace

ExperimentConfig ConfigFromJson(const JsonValue& document) {
  RequireObject(document, "config");
  CheckKeys(document, "");
  ExperimentConfig config;
  workload::ForEachConfigField(
      config, [&document](const ConfigField& field, auto& value) {
        if (!field.http) return;
        if (const JsonValue* v = Find(document, field.path)) {
          Decode(*v, field.path, value);
        }
      });
  return config;
}

ExperimentConfig ConfigFromJsonText(const std::string& text) {
  return ConfigFromJson(JsonReader::Parse(text));
}

std::string ConfigToJson(const ExperimentConfig& config) {
  std::string out = "{";
  // The objects currently open, as a dotted prefix ("" at the root).
  std::string_view open;
  workload::ForEachConfigField(
      config, [&](const ConfigField& field, const auto& value) {
        if (!field.http) return;
        const std::string_view path = field.path;
        const std::size_t dot = path.rfind('.');
        const std::string_view parent =
            dot == std::string_view::npos ? "" : path.substr(0, dot);
        // Table entries sharing a prefix are contiguous, so one close and
        // one open per prefix change suffice (nesting is one level deep).
        if (parent != open) {
          if (!open.empty()) out += '}';
          if (out.size() > 1) out += ',';
          if (!parent.empty()) {
            out += '"';
            out += parent;
            out += "\":{";
          }
          open = parent;
        } else if (out.size() > 1) {
          out += ',';
        }
        out += '"';
        out += path.substr(dot + 1);
        out += "\":";
        Encode(out, value);
      });
  if (!open.empty()) out += '}';
  out += '}';
  return out;
}

std::string SummaryToJson(const Summary& summary) {
  std::string out = "{";
  out += "\"count\":" + std::to_string(summary.count) + ",";
  out += "\"mean\":" + JsonNumber(summary.mean) + ",";
  out += "\"stddev\":" + JsonNumber(summary.stddev) + ",";
  out += "\"min\":" + JsonNumber(summary.min) + ",";
  out += "\"p25\":" + JsonNumber(summary.p25) + ",";
  out += "\"median\":" + JsonNumber(summary.median) + ",";
  out += "\"p75\":" + JsonNumber(summary.p75) + ",";
  out += "\"p95\":" + JsonNumber(summary.p95) + ",";
  out += "\"p99\":" + JsonNumber(summary.p99) + ",";
  out += "\"max\":" + JsonNumber(summary.max) + "}";
  return out;
}

std::string ResultToJson(const ExperimentResult& result) {
  std::string out = "{";
  out += "\"manager_name\":" + JsonQuote(result.manager_name) + ",";
  out += "\"job_locality\":" + SummaryToJson(result.job_locality) + ",";
  out += "\"overall_task_locality_percent\":" +
         JsonNumber(result.overall_task_locality_percent) + ",";
  out += "\"local_job_percent\":" + JsonNumber(result.local_job_percent) +
         ",";
  out += "\"jct\":" + SummaryToJson(result.jct) + ",";
  out += "\"input_stage\":" + SummaryToJson(result.input_stage) + ",";
  out += "\"sched_delay\":" + SummaryToJson(result.sched_delay) + ",";
  out += "\"per_app_local_job_fraction\":[";
  for (std::size_t i = 0; i < result.per_app_local_job_fraction.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonNumber(result.per_app_local_job_fraction[i]);
  }
  out += "],";
  out += "\"manager_stats\":{";
  out += "\"allocation_rounds\":" +
         std::to_string(result.manager_stats.allocation_rounds) + ",";
  out += "\"executors_granted\":" +
         std::to_string(result.manager_stats.executors_granted) + ",";
  out += "\"executors_released\":" +
         std::to_string(result.manager_stats.executors_released) + ",";
  out += "\"offers_made\":" + std::to_string(result.manager_stats.offers_made) +
         ",";
  out += "\"offers_rejected\":" +
         std::to_string(result.manager_stats.offers_rejected) + ",";
  out += "\"executors_scanned\":" +
         std::to_string(result.manager_stats.executors_scanned) + ",";
  out += "\"apps_considered\":" +
         std::to_string(result.manager_stats.apps_considered) + "},";
  out += "\"round_count\":" + std::to_string(result.round_wall.count) + ",";
  out += "\"round_yield_fraction\":" + JsonNumber(result.round_yield_fraction) +
         ",";
  out += "\"net_stats\":{";
  out += "\"recomputes_requested\":" +
         std::to_string(result.net_stats.recomputes_requested) + ",";
  out += "\"recomputes_run\":" +
         std::to_string(result.net_stats.recomputes_run) + ",";
  out += "\"recomputes_batched\":" +
         std::to_string(result.net_stats.recomputes_batched) + ",";
  out += "\"flows_scanned\":" +
         std::to_string(result.net_stats.flows_scanned) + ",";
  out += "\"links_scanned\":" +
         std::to_string(result.net_stats.links_scanned) + ",";
  out += "\"rounds\":" + std::to_string(result.net_stats.rounds) + ",";
  out += "\"components_total\":" +
         std::to_string(result.net_stats.components_total) + ",";
  out += "\"components_dirty\":" +
         std::to_string(result.net_stats.components_dirty) + ",";
  out += "\"rates_changed\":" +
         std::to_string(result.net_stats.rates_changed) + ",";
  out += "\"completion_rescans\":" +
         std::to_string(result.net_stats.completion_rescans) + "},";
  out += "\"net_bytes_delivered\":" + JsonNumber(result.net_bytes_delivered) +
         ",";
  out += "\"cache_insertions\":" + std::to_string(result.cache_insertions) +
         ",";
  out += "\"cache_hits\":" + std::to_string(result.cache_hits) + ",";
  out += "\"speculative_launches\":" +
         std::to_string(result.speculative_launches) + ",";
  out += "\"speculative_wins\":" + std::to_string(result.speculative_wins) +
         ",";
  out += "\"nodes_failed\":" + std::to_string(result.nodes_failed) + ",";
  out += "\"launches_local\":" + std::to_string(result.launches_local) + ",";
  out += "\"launches_covered_busy\":" +
         std::to_string(result.launches_covered_busy) + ",";
  out += "\"launches_uncovered\":" + std::to_string(result.launches_uncovered) +
         ",";
  out += "\"makespan\":" + JsonNumber(result.makespan) + ",";
  out += "\"events_processed\":" + std::to_string(result.events_processed) +
         ",";
  out += "\"jobs_completed\":" + std::to_string(result.jobs_completed) + ",";
  out += "\"jobs_retired\":" + std::to_string(result.jobs_retired) + ",";
  out += "\"peak_live_tasks\":" + std::to_string(result.peak_live_tasks) +
         "}";
  return out;
}

}  // namespace custody::svc
