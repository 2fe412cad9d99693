// Test oracle: the seed's max-min fair rate computation, a from-scratch
// progressive-filling pass that rescans every link and every flow per
// bottleneck round.  Production's MaxMinFairSolver must match it bit for
// bit.  Linked only by targets under tests/.
#pragma once

#include <cstddef>
#include <vector>

#include "net/maxmin.h"

namespace custody::oracle {

/// `flow_links[i]` lists the link indices flow i traverses; `capacity[l]`
/// is the capacity of link l.  Returns one rate per flow (infinity for a
/// flow crossing no link).  `counters` (optional) accumulates the work.
std::vector<double> MaxMinFairRates(
    const std::vector<std::vector<std::size_t>>& flow_links,
    const std::vector<double>& capacity,
    net::SolveCounters* counters = nullptr);

}  // namespace custody::oracle
