// Test oracle: the seed's max-min fair rate computation, a from-scratch
// progressive-filling pass that rescans every link and every flow per
// bottleneck round.  Production's MaxMinFairSolver must match it bit for
// bit.  Linked only by targets under tests/.
#pragma once

#include <cstddef>
#include <string>
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

/// From-scratch audit of the solver's certified state after a solve.
/// Rebuilds every flow's links from the incidence lists alone, recomputes
/// each source share c_u / n_u and each non-source link's certificate
/// verdict, and compares them with the maintained ones (there are none to
/// check while some flow misfits the layout).  When every certificate
/// holds, also demands that each flow's `rates` entry (if given) is its
/// source's share.  `ties` (optional)
/// counts passing source groups whose link share equalled sigma exactly.
/// Returns "" when consistent, else the first disagreement.
std::string AuditCertificates(const net::MaxMinFairSolver& solver,
                              const std::vector<double>* rates = nullptr,
                              std::size_t* ties = nullptr);

/// Every slot whose rate differs between `before` and `after` (bitwise;
/// slots past `before` count as 0, solve()'s fill value) must be listed in
/// `delta`.  Returns "" or the first unreported slot.
std::string AuditDelta(const std::vector<double>& before,
                       const std::vector<double>& after,
                       const net::SolveDelta& delta);

}  // namespace custody::oracle
