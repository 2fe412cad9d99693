#include "oracle/net_oracle.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <utility>

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

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

std::string AuditCertificates(const net::MaxMinFairSolver& solver,
                              const std::vector<double>* rates,
                              std::size_t* ties) {
  const std::size_t num_links = solver.link_count();
  const std::size_t num_sources = solver.source_count();
  // Each flow's source from the incidence lists: its one link below
  // num_sources, or none when it has zero or several (a misfit).
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> source_of;
  std::vector<int> sources_seen;
  for (std::size_t l = 0; l < num_links; ++l) {
    for (const std::uint32_t slot : solver.link_flows(l)) {
      if (slot >= source_of.size()) {
        source_of.resize(slot + 1, kNone);
        sources_seen.resize(slot + 1, 0);
      }
      if (l < num_sources) {
        source_of[slot] = l;
        ++sources_seen[slot];
      }
    }
  }
  // While a flow misfits, every solve falls back and nothing is certified.
  for (std::size_t l = 0; l < num_links; ++l) {
    for (const std::uint32_t slot : solver.link_flows(l)) {
      if (sources_seen[slot] != 1) return "";
    }
  }
  std::vector<double> sigma(num_sources, 0.0);
  for (std::size_t u = 0; u < num_sources; ++u) {
    const std::size_t n = solver.link_flows(u).size();
    if (n == 0) continue;
    sigma[u] = solver.capacity(u) / static_cast<double>(n);
    if (!SameBits(sigma[u], solver.source_share(u))) {
      return "source " + std::to_string(u) + " share " +
             std::to_string(solver.source_share(u)) + ", recomputed " +
             std::to_string(sigma[u]);
    }
  }
  bool all_hold = true;
  for (std::size_t l = num_sources; l < num_links; ++l) {
    double sum = 0.0;
    std::vector<std::pair<double, std::size_t>> keys;
    for (const std::uint32_t slot : solver.link_flows(l)) {
      sum += sigma[source_of[slot]];
      keys.emplace_back(sigma[source_of[slot]], source_of[slot]);
    }
    bool holds = sum <= solver.capacity(l);
    if (holds) {
      // Replay in the order progressive filling pops the feeding sources.
      std::sort(keys.begin(), keys.end());
      double rem = solver.capacity(l);
      std::size_t unassigned = keys.size();
      for (std::size_t i = 0; i < keys.size() && holds; ++i) {
        if (i == 0 || keys[i] != keys[i - 1]) {
          const double share = rem / static_cast<double>(unassigned);
          if (!(share >= keys[i].first)) holds = false;
          if (holds && share == keys[i].first && ties != nullptr) ++*ties;
        }
        rem = std::max(0.0, rem - keys[i].first);
        --unassigned;
      }
    }
    if (holds != solver.certified(l)) {
      return "link " + std::to_string(l) + " certificate " +
             (solver.certified(l) ? "holds" : "fails") +
             ", recomputed " + (holds ? "holds" : "fails");
    }
    all_hold = all_hold && holds;
  }
  if (rates == nullptr || !all_hold) return "";
  for (std::size_t slot = 0; slot < source_of.size(); ++slot) {
    if (source_of[slot] == kNone) continue;
    if (slot >= rates->size() ||
        !SameBits((*rates)[slot], sigma[source_of[slot]])) {
      return "certified flow " + std::to_string(slot) +
             " is not at its source share";
    }
  }
  return "";
}

std::string AuditDelta(const std::vector<double>& before,
                       const std::vector<double>& after,
                       const net::SolveDelta& delta) {
  std::vector<bool> listed(after.size(), false);
  for (const std::uint32_t slot : delta.changed_slots) listed[slot] = true;
  for (const std::uint32_t slot : delta.unconstrained_slots) {
    listed[slot] = true;
  }
  for (std::size_t slot = 0; slot < after.size(); ++slot) {
    // solve() grows the rate table with zeros.
    const double prev = slot < before.size() ? before[slot] : 0.0;
    if (!SameBits(prev, after[slot]) && !listed[slot]) {
      return "slot " + std::to_string(slot) + " changed but is not in the delta";
    }
  }
  return "";
}

}  // namespace custody::oracle
