#include "oracle/dfs_oracle.h"

namespace custody::oracle {

SeedDfs::SeedDfs(dfs::DfsConfig config, Rng rng)
    : config_(config), rng_(rng), node_bytes_(config.num_nodes, 0.0) {}

FileId SeedDfs::write_file(const std::string& path, double bytes) {
  const int replication = config_.default_replication;
  const FileId id =
      namenode_.create_file(path, bytes, config_.block_bytes, replication);
  for (BlockId b : namenode_.blocks_of(id)) {
    const dfs::BlockInfo& block = namenode_.block(b);
    for (NodeId n : policy_.place(block, replication, *this, rng_)) {
      namenode_.add_replica(b, n);
      node_bytes_[n.value()] += block.bytes;
    }
  }
  return id;
}

void SeedDfs::fail_node(NodeId node, const std::vector<NodeId>& live_nodes) {
  for (BlockId b : namenode_.all_blocks()) {
    if (!namenode_.is_local(b, node)) continue;
    const double bytes = namenode_.block(b).bytes;
    std::vector<NodeId> candidates;
    for (NodeId live : live_nodes) {
      if (live != node && !namenode_.is_local(b, live)) {
        candidates.push_back(live);
      }
    }
    if (!candidates.empty()) {
      const NodeId target = rng_.pick(candidates);
      namenode_.add_replica(b, target);
      node_bytes_[target.value()] += bytes;
    }
    if (namenode_.locations(b).size() > 1) {
      namenode_.remove_replica(b, node);
      node_bytes_[node.value()] -= bytes;
    }
  }
}

}  // namespace custody::oracle
