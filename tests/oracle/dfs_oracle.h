// Test oracle: the seed's DFS failover — a full block-map scan that builds
// a candidate vector per block held by the dead node and picks a target
// uniformly from it.  SeedDfs mirrors Dfs's write path (RandomPlacement
// over the same RNG stream) so an identically seeded pair can be failed in
// lockstep and compared replica for replica.  Linked only by targets under
// tests/.
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "dfs/dfs.h"
#include "dfs/namenode.h"
#include "dfs/placement.h"

namespace custody::oracle {

class SeedDfs final : public dfs::PlacementView {
 public:
  SeedDfs(dfs::DfsConfig config, Rng rng);

  /// Create a file with the default replication and place its blocks.
  FileId write_file(const std::string& path, double bytes);

  /// The seed failover: scan every block, re-replicate each one `node` held
  /// onto a uniform pick among `live_nodes` (in the given order) that do
  /// not hold it yet, then drop the dead copy unless it is the last one.
  void fail_node(NodeId node, const std::vector<NodeId>& live_nodes);

  [[nodiscard]] const std::vector<BlockId>& blocks_of(FileId file) const {
    return namenode_.blocks_of(file);
  }
  [[nodiscard]] const std::vector<NodeId>& locations(BlockId block) const {
    return namenode_.locations(block);
  }

  [[nodiscard]] std::size_t num_nodes() const override {
    return config_.num_nodes;
  }
  [[nodiscard]] double bytes_on(NodeId node) const override {
    return node_bytes_[node.value()];
  }

 private:
  dfs::DfsConfig config_;
  Rng rng_;
  dfs::RandomPlacement policy_;
  dfs::NameNode namenode_;
  std::vector<double> node_bytes_;
};

}  // namespace custody::oracle
