// Completeness of the ExperimentConfig field table (workload/config_fields.h).
//
// For every entry:
//  - perturbing the field changes ConfigHash exactly when the entry is
//    hashed;
//  - the field round-trips bit-exactly through ConfigToJson/ConfigFromJson
//    when it is settable over HTTP, and is not carried when it is not;
//  - a violation of its bound (and, for a double, a non-finite value; for
//    a 64-bit integer, one beyond 2^53) is rejected naming its path.
// And the table covers the struct: a member added to ExperimentConfig or
// one of its nested structs without a table entry fails the arity check.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "svc/json_api.h"
#include "workload/config_fields.h"
#include "workload/harness.h"

namespace custody::workload {
namespace {

// ---------------------------------------------------------------------------
// Aggregate arity: the most initializers T{...} accepts.
// ---------------------------------------------------------------------------

struct AnyMember {
  template <typename T>
  operator T() const;  // never called: only used in unevaluated contexts
};

template <typename T, typename... Members>
constexpr std::size_t Arity() {
  if constexpr (requires { T{Members{}..., AnyMember{}}; }) {
    return Arity<T, Members..., AnyMember>();
  } else {
    return sizeof...(Members);
  }
}

std::size_t EntryCount() {
  std::size_t n = 0;
  ExperimentConfig config;
  ForEachConfigField(config, [&n](const ConfigField&, auto&) { ++n; });
  return n;
}

TEST(ConfigFields, TableCoversEveryMemberExactlyOnce) {
  static_assert(std::is_aggregate_v<ExperimentConfig>);
  // ExperimentConfig's own members, with each nested struct replaced by
  // its members.  A new member anywhere changes this sum.
  constexpr std::size_t kNested = 8;
  constexpr std::size_t leaves =
      Arity<ExperimentConfig>() - kNested + Arity<DatasetConfig>() +
      Arity<core::AllocatorOptions>() + Arity<app::SchedulerConfig>() +
      Arity<TraceConfig>() + Arity<WorkloadParams>() +
      Arity<SteadyStateConfig>() + Arity<obs::TracerConfig>() +
      Arity<CheckpointConfig>();
  EXPECT_EQ(EntryCount(), leaves);

  // ...and no member is listed twice (which could hide a missing one).
  ExperimentConfig config;
  std::set<const void*> members;
  std::set<std::string> paths;
  ForEachConfigField(config, [&](const ConfigField& field, auto& value) {
    EXPECT_TRUE(members.insert(&value).second) << field.path;
    EXPECT_TRUE(paths.insert(field.path).second) << field.path;
  });
  EXPECT_EQ(members.size(), leaves);
}

// ---------------------------------------------------------------------------
// Per-entry checks
// ---------------------------------------------------------------------------

/// Apply `fn(field, value)` to the `index`-th table entry of `config`.
template <typename Fn>
void AtEntry(ExperimentConfig& config, std::size_t index, Fn&& fn) {
  std::size_t i = 0;
  ForEachConfigField(config, [&](const ConfigField& field, auto& value) {
    if (i++ == index) fn(field, value);
  });
}

ConfigField EntryAt(std::size_t index) {
  ExperimentConfig config;
  ConfigField out{""};
  AtEntry(config, index, [&out](const ConfigField& field, auto&) {
    out = field;
  });
  return out;
}

/// A different value of the same type that keeps the field's own bound.
template <typename T>
void Perturb(T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = !v;
  } else if constexpr (std::is_same_v<T, double>) {
    v = v == 0.0 ? 0.5 : v * 0.75;  // stays in [0, 1) / > 0 / >= 0
  } else if constexpr (std::is_integral_v<T>) {
    v += 1;
  } else if constexpr (std::is_enum_v<T>) {
    const auto names = EnumNames(T{});
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i].value == v) {
        v = names[(i + 1) % names.size()].value;
        return;
      }
    }
  } else if constexpr (std::is_same_v<T, std::string>) {
    v += "-x";
  } else {
    v.push_back(WorkloadKind::kSort);
  }
}

/// Every field as exact text (doubles by bit pattern), in table order.
std::vector<std::string> Values(ExperimentConfig config) {
  std::vector<std::string> out;
  ForEachConfigField(config, [&out](const ConfigField&, const auto& value) {
    using T = std::decay_t<decltype(value)>;
    if constexpr (std::is_same_v<T, double>) {
      std::uint64_t raw = 0;
      std::memcpy(&raw, &value, sizeof raw);
      out.push_back(std::to_string(raw));
    } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
      out.push_back(std::to_string(static_cast<long long>(value)));
    } else if constexpr (std::is_same_v<T, std::string>) {
      out.push_back(value);
    } else {
      std::string items;
      for (const auto item : value) {
        items += std::to_string(static_cast<int>(item)) + ",";
      }
      out.push_back(items);
    }
  });
  return out;
}

TEST(ConfigFields, PerturbationChangesTheHashExactlyWhenHashed) {
  const ExperimentConfig base;
  const std::uint64_t base_hash = ConfigHash(base, base.manager);
  for (std::size_t i = 0; i < EntryCount(); ++i) {
    const ConfigField field = EntryAt(i);
    SCOPED_TRACE(field.path);
    ExperimentConfig perturbed = base;
    AtEntry(perturbed, i, [](const ConfigField&, auto& v) { Perturb(v); });
    ASSERT_NE(Values(perturbed), Values(base));
    EXPECT_EQ(ConfigHash(perturbed, perturbed.manager) != base_hash,
              field.hashed);
  }
}

TEST(ConfigFields, ManagerArgumentOverridesConfigManager) {
  ExperimentConfig config;
  config.manager = ManagerKind::kCustody;
  ExperimentConfig other = config;
  other.manager = ManagerKind::kPool;
  EXPECT_EQ(ConfigHash(config, ManagerKind::kOffer),
            ConfigHash(other, ManagerKind::kOffer));
  EXPECT_NE(ConfigHash(config, ManagerKind::kOffer),
            ConfigHash(config, ManagerKind::kCustody));
}

TEST(ConfigFields, HttpFieldsRoundTripBitExactlyAndOthersStayDefault) {
  const ExperimentConfig base;
  const std::vector<std::string> defaults = Values(base);
  for (std::size_t i = 0; i < EntryCount(); ++i) {
    const ConfigField field = EntryAt(i);
    SCOPED_TRACE(field.path);
    ExperimentConfig perturbed = base;
    AtEntry(perturbed, i, [](const ConfigField&, auto& v) { Perturb(v); });
    const ExperimentConfig decoded =
        svc::ConfigFromJsonText(svc::ConfigToJson(perturbed));
    const std::vector<std::string> sent = Values(perturbed);
    const std::vector<std::string> got = Values(decoded);
    ASSERT_EQ(got.size(), sent.size());
    for (std::size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j], j == i && !field.http ? defaults[j] : sent[j])
          << "entry " << EntryAt(j).path;
    }
  }
  // A non-representable double and the largest accepted 64-bit integer.
  ExperimentConfig edge = base;
  edge.trace.mean_interarrival = 0.1 + 0.2;
  edge.seed = kMaxWireInteger;
  EXPECT_NO_THROW(ValidateConfig(edge));
  EXPECT_EQ(Values(svc::ConfigFromJsonText(svc::ConfigToJson(edge))),
            Values(edge));
}

/// ValidateConfig on `config` must fail with a message leading with `path`.
void ExpectRejectedNaming(const ExperimentConfig& config,
                          const std::string& path) {
  try {
    ValidateConfig(config);
    ADD_FAILURE() << "accepted a bad " << path;
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()).rfind("ExperimentConfig: " + path + " ",
                                              0),
              0u)
        << error.what();
  }
}

/// Values that break `bound` for a field of type T (none for kNone).
template <typename T>
std::vector<T> Violations(Bound bound) {
  if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
    std::vector<T> out;
    constexpr bool kSigned = std::is_signed_v<T>;
    switch (bound) {
      case Bound::kNone:
        break;
      case Bound::kPositive:
        out.push_back(T{0});
        if constexpr (kSigned) out.push_back(T{-1});
        break;
      case Bound::kNonNegative:
        if constexpr (kSigned) out.push_back(T{-1});
        break;
      case Bound::kUnit:
        if constexpr (kSigned) out.push_back(T{-1});
        out.push_back(T{2});
        break;
      case Bound::kUnitOpen:
        if constexpr (kSigned) out.push_back(T{-1});
        out.push_back(T{1});
        break;
    }
    if constexpr (std::is_floating_point_v<T>) {
      out.push_back(std::numeric_limits<T>::infinity());
      out.push_back(-std::numeric_limits<T>::infinity());
      if (bound != Bound::kNone) {
        out.push_back(std::numeric_limits<T>::quiet_NaN());
      }
    }
    if constexpr (std::is_unsigned_v<T>) out.push_back(kMaxWireInteger + 1);
    return out;
  } else {
    return {};
  }
}

TEST(ConfigFields, EveryBoundViolationNamesThePath) {
  const ExperimentConfig base;
  ASSERT_NO_THROW(ValidateConfig(base));
  std::size_t checked = 0;
  for (std::size_t i = 0; i < EntryCount(); ++i) {
    const ConfigField field = EntryAt(i);
    SCOPED_TRACE(field.path);
    ExperimentConfig probe = base;
    AtEntry(probe, i, [&](const ConfigField&, auto& value) {
      using T = std::decay_t<decltype(value)>;
      if constexpr (std::is_same_v<T, std::vector<WorkloadKind>>) {
        if (field.bound != Bound::kPositive) return;
        value.clear();
        ExpectRejectedNaming(probe, field.path);
        ++checked;
      } else {
        const std::vector<T> bad = Violations<T>(field.bound);
        if (field.bound != Bound::kNone) {
          EXPECT_FALSE(bad.empty()) << "a bound on an unboundable type";
        }
        for (const T& v : bad) {
          value = v;
          ExpectRejectedNaming(probe, field.path);
          ++checked;
        }
      }
    });
  }
  EXPECT_GT(checked, EntryCount());
}

}  // namespace
}  // namespace custody::workload
