#include "oracle/net_oracle.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace custody::oracle {

std::vector<double> MaxMinFairRates(
    const std::vector<std::vector<std::size_t>>& flow_links,
    const std::vector<double>& capacity, net::SolveCounters* counters) {
  const std::size_t num_flows = flow_links.size();
  const std::size_t num_links = capacity.size();
  std::vector<double> rate(num_flows, 0.0);
  if (num_flows == 0) return rate;

  std::vector<double> rem_cap = capacity;
  std::vector<std::size_t> unassigned_on(num_links, 0);
  std::vector<bool> assigned(num_flows, false);
  for (const auto& links : flow_links) {
    for (std::size_t l : links) {
      assert(l < num_links);
      ++unassigned_on[l];
    }
  }

  std::size_t remaining = num_flows;
  // A flow that traverses no link is never frozen by any bottleneck: give
  // it unbounded rate up front.
  for (std::size_t f = 0; f < num_flows; ++f) {
    if (flow_links[f].empty()) {
      rate[f] = std::numeric_limits<double>::infinity();
      assigned[f] = true;
      --remaining;
    }
  }
  while (remaining > 0) {
    // The bottleneck: smallest fair share among links that still carry
    // unassigned flows (the first such link on ties).
    double best_share = std::numeric_limits<double>::infinity();
    std::size_t best_link = num_links;
    for (std::size_t l = 0; l < num_links; ++l) {
      if (unassigned_on[l] == 0) continue;
      const double share = rem_cap[l] / static_cast<double>(unassigned_on[l]);
      if (share < best_share) {
        best_share = share;
        best_link = l;
      }
    }
    assert(best_link < num_links);

    // Freeze every unassigned flow that traverses the bottleneck.
    for (std::size_t f = 0; f < num_flows; ++f) {
      if (assigned[f]) continue;
      const auto& links = flow_links[f];
      if (std::find(links.begin(), links.end(), best_link) == links.end()) {
        continue;
      }
      rate[f] = best_share;
      assigned[f] = true;
      --remaining;
      for (std::size_t l : links) {
        rem_cap[l] = std::max(0.0, rem_cap[l] - best_share);
        --unassigned_on[l];
      }
    }
    if (counters != nullptr) {
      ++counters->rounds;
      counters->links_scanned += num_links;
      counters->flows_scanned += num_flows;
    }
  }
  return rate;
}

}  // namespace custody::oracle
