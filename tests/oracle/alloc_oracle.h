// Test oracle: the seed's allocation round, kept verbatim in spirit so the
// production round (CustodyAllocator over IdleExecutorIndex round views and
// the incremental MinLocalityTracker) can be compared against it claim for
// claim.  Linked only by targets under tests/.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/allocator.h"
#include "core/inter_app.h"
#include "core/model.h"

namespace custody::oracle {

/// The seed's linear-scan idle pool: `claim_on` returns the lowest-id idle
/// executor on any of the nodes, `claim_any` the first idle executor at or
/// after a rotating scan start (wrapping once).  Every query walks the
/// executor array; `scanned()` counts the slots inspected.
class IdleExecutorPool {
 public:
  explicit IdleExecutorPool(std::vector<core::ExecutorInfo> executors);

  ExecutorId claim_on(const std::vector<NodeId>& nodes);
  ExecutorId claim_any();
  [[nodiscard]] bool has_on(const std::vector<NodeId>& nodes) const;
  [[nodiscard]] bool empty() const { return remaining_ == 0; }
  [[nodiscard]] std::size_t size() const { return remaining_; }
  [[nodiscard]] std::uint64_t scanned() const { return scanned_; }

 private:
  std::vector<core::ExecutorInfo> executors_;  // sorted by executor id
  std::vector<bool> taken_;
  std::size_t remaining_ = 0;
  std::size_t scan_start_ = 0;
  mutable std::uint64_t scanned_ = 0;
};

/// MINLOCALITY as a linear argmin over the apps that can take more
/// executors (first index wins full key ties); nullopt when all are full.
std::optional<std::size_t> PickMinLocality(
    const std::vector<core::AppAllocState>& apps);

/// The seed's ALLOCATEEXECUTOR re-check: a full PickMinLocality rescan.
bool IsStillMinLocality(const std::vector<core::AppAllocState>& apps,
                        std::size_t index);

/// One seed allocation round: a fresh linear pool over `idle`, Algorithm 1
/// by PickMinLocality (or PickFewestHeld under the naive-fairness
/// ablation) and Algorithm 2 with a full MINLOCALITY rescan per grant.
core::AllocationResult Allocate(const std::vector<core::AppDemand>& demands,
                                const std::vector<core::ExecutorInfo>& idle,
                                const core::BlockLocationsFn& locations,
                                const core::AllocatorOptions& options = {});

}  // namespace custody::oracle
