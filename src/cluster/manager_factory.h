// The single seam that knows every concrete cluster-manager type.
//
// The experiment harness (and anything else that wants "a manager by
// name") describes what it needs in a ManagerSpec and lets MakeManager
// perform the 4-way dispatch that used to live inline in
// workload::RunExperiment.  New manager kinds plug in here without the
// harness, benches or tests learning a fifth constructor.
#pragma once

#include <cstdint>
#include <memory>

#include "cluster/cluster.h"
#include "cluster/manager.h"
#include "common/enum_names.h"
#include "core/allocator.h"
#include "sim/simulator.h"

namespace custody::cluster {

enum class ManagerKind { kStandalone, kCustody, kOffer, kPool };

inline constexpr EnumName<ManagerKind> kManagerKindNames[] = {
    {ManagerKind::kStandalone, "standalone"},
    {ManagerKind::kCustody, "custody"},
    {ManagerKind::kOffer, "offer"},
    {ManagerKind::kPool, "pool"},
};
constexpr std::span<const EnumName<ManagerKind>> EnumNames(ManagerKind) {
  return kManagerKindNames;
}

[[nodiscard]] inline const char* ManagerName(ManagerKind kind) {
  return EnumToName(kind);
}

/// Everything the concrete managers need that the caller decides.  Fields
/// irrelevant to the chosen kind are ignored (e.g. only kStandalone and
/// kPool consume a seed; only kCustody consumes the allocator options).
struct ManagerSpec {
  ManagerKind kind = ManagerKind::kCustody;
  int expected_apps = 4;
  std::uint64_t standalone_seed = 1;
  std::uint64_t pool_seed = 1;
  core::AllocatorOptions allocator;
};

/// Construct the manager described by `spec`.  `locations` is the NameNode
/// oracle Custody plans against; the data-unaware managers ignore it.
[[nodiscard]] std::unique_ptr<ClusterManager> MakeManager(
    const ManagerSpec& spec, sim::Simulator& sim, Cluster& cluster,
    core::BlockLocationsFn locations);

}  // namespace custody::cluster
