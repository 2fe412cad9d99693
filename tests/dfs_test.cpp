// Tests for the simulated distributed filesystem: NameNode metadata,
// block carving, replica management, placement policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/units.h"
#include "dfs/dfs.h"
#include "oracle/dfs_oracle.h"

namespace custody::dfs {
namespace {

using custody::units::GB;
using custody::units::MB;

DfsConfig Config(std::size_t nodes = 10, int replication = 3) {
  DfsConfig c;
  c.num_nodes = nodes;
  c.block_bytes = MB(128.0);
  c.default_replication = replication;
  return c;
}

TEST(NameNode, CarvesFileIntoBlocks) {
  NameNode nn;
  const FileId f = nn.create_file("/a", MB(300.0), MB(128.0), 3);
  const auto& blocks = nn.blocks_of(f);
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_DOUBLE_EQ(nn.block(blocks[0]).bytes, MB(128.0));
  EXPECT_DOUBLE_EQ(nn.block(blocks[1]).bytes, MB(128.0));
  EXPECT_DOUBLE_EQ(nn.block(blocks[2]).bytes, MB(44.0));  // tail block
  EXPECT_EQ(nn.block(blocks[2]).index, 2u);
  EXPECT_EQ(nn.block(blocks[0]).file, f);
}

TEST(NameNode, ExactMultipleHasNoTailBlock) {
  NameNode nn;
  const FileId f = nn.create_file("/a", MB(256.0), MB(128.0), 3);
  ASSERT_EQ(nn.blocks_of(f).size(), 2u);
  EXPECT_DOUBLE_EQ(nn.block(nn.blocks_of(f)[1]).bytes, MB(128.0));
}

TEST(NameNode, LookupByPath) {
  NameNode nn;
  const FileId f = nn.create_file("/x/y", MB(10.0), MB(128.0), 1);
  EXPECT_EQ(nn.lookup("/x/y"), f);
  EXPECT_FALSE(nn.lookup("/missing").has_value());
}

TEST(NameNode, RejectsDuplicatePath) {
  NameNode nn;
  nn.create_file("/a", MB(10.0), MB(128.0), 1);
  EXPECT_THROW(nn.create_file("/a", MB(10.0), MB(128.0), 1),
               std::invalid_argument);
}

TEST(NameNode, RejectsBadSizes) {
  NameNode nn;
  EXPECT_THROW(nn.create_file("/a", 0.0, MB(128.0), 1), std::invalid_argument);
  EXPECT_THROW(nn.create_file("/b", MB(1.0), 0.0, 1), std::invalid_argument);
  EXPECT_THROW(nn.create_file("/c", MB(1.0), MB(128.0), 0),
               std::invalid_argument);
}

TEST(NameNode, ReplicaAddRemoveAndLocality) {
  NameNode nn;
  const FileId f = nn.create_file("/a", MB(10.0), MB(128.0), 1);
  const BlockId b = nn.blocks_of(f).front();
  nn.add_replica(b, NodeId(3));
  nn.add_replica(b, NodeId(1));
  EXPECT_TRUE(nn.is_local(b, NodeId(1)));
  EXPECT_TRUE(nn.is_local(b, NodeId(3)));
  EXPECT_FALSE(nn.is_local(b, NodeId(2)));
  EXPECT_EQ(nn.locations(b), (std::vector<NodeId>{NodeId(1), NodeId(3)}));
  nn.remove_replica(b, NodeId(3));
  EXPECT_FALSE(nn.is_local(b, NodeId(3)));
}

TEST(NameNode, RefusesToRemoveLastReplica) {
  NameNode nn;
  const FileId f = nn.create_file("/a", MB(10.0), MB(128.0), 1);
  const BlockId b = nn.blocks_of(f).front();
  nn.add_replica(b, NodeId(0));
  EXPECT_THROW(nn.remove_replica(b, NodeId(0)), std::logic_error);
}

TEST(NameNode, RejectsDuplicateReplica) {
  NameNode nn;
  const FileId f = nn.create_file("/a", MB(10.0), MB(128.0), 1);
  const BlockId b = nn.blocks_of(f).front();
  nn.add_replica(b, NodeId(0));
  EXPECT_THROW(nn.add_replica(b, NodeId(0)), std::invalid_argument);
}

TEST(NameNode, DeleteFileRemovesMetadata) {
  NameNode nn;
  const FileId f = nn.create_file("/a", MB(300.0), MB(128.0), 3);
  const BlockId b = nn.blocks_of(f).front();
  nn.delete_file(f);
  EXPECT_EQ(nn.num_files(), 0u);
  EXPECT_EQ(nn.num_blocks(), 0u);
  EXPECT_FALSE(nn.lookup("/a").has_value());
  EXPECT_THROW((void)nn.locations(b), std::invalid_argument);
}

TEST(Dfs, WriteFilePlacesAllReplicas) {
  Dfs dfs(Config(), Rng(1));
  const FileId f = dfs.write_file("/data", GB(1.0));
  for (BlockId b : dfs.blocks_of(f)) {
    const auto& locs = dfs.locations(b);
    EXPECT_EQ(locs.size(), 3u);
    // Replicas on distinct nodes.
    std::set<NodeId> unique(locs.begin(), locs.end());
    EXPECT_EQ(unique.size(), locs.size());
    for (NodeId n : locs) EXPECT_LT(n.value(), dfs.num_nodes());
  }
}

TEST(Dfs, BytesOnTracksPlacement) {
  Dfs dfs(Config(4, 2), Rng(2));
  dfs.write_file("/data", MB(256.0));
  double total = 0.0;
  for (std::size_t n = 0; n < dfs.num_nodes(); ++n) {
    total += dfs.bytes_on(NodeId(static_cast<NodeId::value_type>(n)));
  }
  EXPECT_DOUBLE_EQ(total, MB(256.0) * 2);  // 2 replicas of every byte
}

TEST(Dfs, ExplicitReplicationOverride) {
  Dfs dfs(Config(10, 3), Rng(3));
  const FileId f = dfs.write_file("/data", MB(128.0), 5);
  EXPECT_EQ(dfs.locations(dfs.blocks_of(f).front()).size(), 5u);
}

TEST(Dfs, RejectsReplicationBeyondClusterSize) {
  Dfs dfs(Config(3), Rng(4));
  EXPECT_THROW(dfs.write_file("/data", MB(10.0), 4), std::invalid_argument);
}

TEST(Dfs, BoostReplicationAddsDistinctNodes) {
  Dfs dfs(Config(10, 2), Rng(5));
  const FileId f = dfs.write_file("/hot", MB(256.0));
  dfs.boost_replication(f, 3);
  for (BlockId b : dfs.blocks_of(f)) {
    const auto& locs = dfs.locations(b);
    EXPECT_EQ(locs.size(), 5u);
    std::set<NodeId> unique(locs.begin(), locs.end());
    EXPECT_EQ(unique.size(), 5u);
  }
}

TEST(Dfs, BoostZeroIsNoop) {
  Dfs dfs(Config(), Rng(6));
  const FileId f = dfs.write_file("/a", MB(128.0));
  dfs.boost_replication(f, 0);
  EXPECT_EQ(dfs.locations(dfs.blocks_of(f).front()).size(), 3u);
}

TEST(Dfs, DeterministicForSameSeed) {
  Dfs a(Config(), Rng(77));
  Dfs b(Config(), Rng(77));
  const FileId fa = a.write_file("/d", GB(2.0));
  const FileId fb = b.write_file("/d", GB(2.0));
  ASSERT_EQ(a.blocks_of(fa).size(), b.blocks_of(fb).size());
  for (std::size_t i = 0; i < a.blocks_of(fa).size(); ++i) {
    EXPECT_EQ(a.locations(a.blocks_of(fa)[i]), b.locations(b.blocks_of(fb)[i]));
  }
}

TEST(NameNode, BlocksOnTracksReplicaChurn) {
  NameNode nn;
  const FileId f = nn.create_file("/a", MB(300.0), MB(128.0), 3);
  const BlockId b0 = nn.blocks_of(f)[0];
  const BlockId b1 = nn.blocks_of(f)[1];
  nn.add_replica(b0, NodeId(2));
  nn.add_replica(b1, NodeId(2));
  nn.add_replica(b1, NodeId(4));
  EXPECT_EQ(nn.blocks_on(NodeId(2)), (std::set<BlockId>{b0, b1}));
  EXPECT_EQ(nn.blocks_on(NodeId(4)), (std::set<BlockId>{b1}));
  EXPECT_TRUE(nn.blocks_on(NodeId(7)).empty());
  nn.remove_replica(b1, NodeId(2));
  EXPECT_EQ(nn.blocks_on(NodeId(2)), (std::set<BlockId>{b0}));
  nn.delete_file(f);
  EXPECT_TRUE(nn.blocks_on(NodeId(2)).empty());
  EXPECT_TRUE(nn.blocks_on(NodeId(4)).empty());
}

/// An identically seeded production Dfs and seed oracle (full block-map
/// scan, tests/oracle/) with several failures applied must agree
/// block-for-block: the order-statistics sampler consumes identical RNG
/// draws and chooses identical targets by construction.
TEST(Dfs, IndexedFailoverMatchesReferenceForFixedSeed) {
  for (const std::uint64_t seed : {11u, 29u, 47u, 63u, 81u}) {
    const DfsConfig config = Config(12, 3);
    Dfs indexed(config, Rng(seed));
    oracle::SeedDfs reference(config, Rng(seed));

    std::vector<FileId> indexed_files;
    std::vector<FileId> reference_files;
    for (int i = 0; i < 6; ++i) {
      const std::string path = "/f" + std::to_string(i);
      indexed_files.push_back(indexed.write_file(path, MB(400.0)));
      reference_files.push_back(reference.write_file(path, MB(400.0)));
    }

    auto live_without = [](std::initializer_list<NodeId::value_type> dead) {
      std::vector<NodeId> live;
      for (NodeId::value_type n = 0; n < 12; ++n) {
        if (std::find(dead.begin(), dead.end(), n) == dead.end()) {
          live.emplace_back(n);
        }
      }
      return live;
    };
    indexed.fail_node(NodeId(3), live_without({3}));
    reference.fail_node(NodeId(3), live_without({3}));
    indexed.fail_node(NodeId(7), live_without({3, 7}));
    reference.fail_node(NodeId(7), live_without({3, 7}));

    for (std::size_t i = 0; i < indexed_files.size(); ++i) {
      const auto& ib = indexed.blocks_of(indexed_files[i]);
      const auto& rb = reference.blocks_of(reference_files[i]);
      ASSERT_EQ(ib.size(), rb.size());
      for (std::size_t k = 0; k < ib.size(); ++k) {
        EXPECT_EQ(indexed.locations(ib[k]), reference.locations(rb[k]))
            << "seed=" << seed << " file=" << i << " block=" << k;
      }
    }
    for (NodeId::value_type n = 0; n < 12; ++n) {
      EXPECT_EQ(indexed.bytes_on(NodeId(n)), reference.bytes_on(NodeId(n)))
          << "seed=" << seed << " node=" << n;
    }
  }
}

TEST(Dfs, FailNodeRejectsUnsortedOrDuplicateLiveNodes) {
  // The order-statistics sampler needs a strictly ascending live list; any
  // other list is rejected before the filesystem changes.
  Dfs dfs(Config(10, 2), Rng(5));
  const FileId f = dfs.write_file("/d", MB(600.0));
  std::vector<std::vector<NodeId>> before;
  for (const BlockId b : dfs.blocks_of(f)) before.push_back(dfs.locations(b));
  const double bytes_before = dfs.bytes_on(NodeId(0));

  const std::vector<NodeId> shuffled{NodeId(9), NodeId(1), NodeId(4),
                                     NodeId(8), NodeId(2), NodeId(6),
                                     NodeId(5), NodeId(7), NodeId(3)};
  EXPECT_THROW(dfs.fail_node(NodeId(0), shuffled), std::invalid_argument);
  const std::vector<NodeId> duplicated{NodeId(1), NodeId(2), NodeId(2),
                                       NodeId(3)};
  EXPECT_THROW(dfs.fail_node(NodeId(0), duplicated), std::invalid_argument);

  for (std::size_t k = 0; k < before.size(); ++k) {
    EXPECT_EQ(dfs.locations(dfs.blocks_of(f)[k]), before[k]) << "block " << k;
  }
  EXPECT_EQ(dfs.bytes_on(NodeId(0)), bytes_before);
  // Ascending lists (empty and single-node included) are accepted.
  EXPECT_NO_THROW(dfs.fail_node(NodeId(0), {NodeId(1), NodeId(2)}));
  EXPECT_NO_THROW(dfs.fail_node(NodeId(1), {}));
}

TEST(Dfs, ReplicaListenerSeesFailoverChurn) {
  DfsConfig config = Config(8, 2);
  Dfs dfs(config, Rng(21));
  const FileId f = dfs.write_file("/a", MB(256.0));
  struct Event {
    BlockId block;
    NodeId node;
    bool added;
  };
  std::vector<Event> events;
  const Dfs::ListenerId id = dfs.add_replica_listener(
      [&events](BlockId b, NodeId n, bool added) {
        events.push_back({b, n, added});
      });
  std::vector<NodeId> live;
  for (NodeId::value_type n = 1; n < 8; ++n) live.emplace_back(n);
  dfs.fail_node(NodeId(0), live);
  for (const Event& e : events) {
    if (!e.added) {
      EXPECT_EQ(e.node, NodeId(0));  // only the dead node loses replicas
    } else {
      EXPECT_TRUE(dfs.is_local(e.block, e.node));  // adds landed
    }
  }
  // Every add is paired with the dead-node remove of the same block.
  const auto adds = std::count_if(events.begin(), events.end(),
                                  [](const Event& e) { return e.added; });
  const auto removes = static_cast<std::ptrdiff_t>(events.size()) - adds;
  EXPECT_EQ(adds, removes);
  dfs.remove_replica_listener(id);
  dfs.boost_replication(f, 1);
  EXPECT_EQ(adds + removes, static_cast<std::ptrdiff_t>(events.size()));
}

TEST(Placement, SampleDistinctNodesExcludes) {
  Rng rng(8);
  const std::vector<NodeId> exclude{NodeId(0), NodeId(1)};
  for (int trial = 0; trial < 20; ++trial) {
    const auto nodes = SampleDistinctNodes(5, 3, exclude, rng);
    EXPECT_EQ(nodes.size(), 3u);
    std::set<NodeId> unique(nodes.begin(), nodes.end());
    EXPECT_EQ(unique.size(), 3u);
    for (NodeId n : nodes) {
      EXPECT_NE(n, NodeId(0));
      EXPECT_NE(n, NodeId(1));
    }
  }
}

TEST(Placement, SampleDistinctNodesRejectsOverflow) {
  Rng rng(9);
  EXPECT_THROW(SampleDistinctNodes(3, 4, {}, rng), std::invalid_argument);
  EXPECT_THROW(SampleDistinctNodes(3, 2, {NodeId(0), NodeId(1)}, rng),
               std::invalid_argument);
}

TEST(Placement, RandomCoversClusterEventually) {
  DfsConfig config = Config(8, 1);
  Dfs dfs(config, Rng(10));
  for (int i = 0; i < 40; ++i) {
    dfs.write_file("/f" + std::to_string(i), MB(128.0));
  }
  int nodes_with_data = 0;
  for (std::size_t n = 0; n < 8; ++n) {
    if (dfs.bytes_on(NodeId(static_cast<NodeId::value_type>(n))) > 0) {
      ++nodes_with_data;
    }
  }
  EXPECT_GE(nodes_with_data, 7);
}

TEST(Placement, LoadBalancedIsMoreEvenThanRandom) {
  auto spread = [](Dfs& dfs) {
    for (int i = 0; i < 60; ++i) {
      dfs.write_file("/f" + std::to_string(i), MB(128.0));
    }
    double max_bytes = 0.0;
    double min_bytes = 1e18;
    for (std::size_t n = 0; n < dfs.num_nodes(); ++n) {
      const double b = dfs.bytes_on(NodeId(static_cast<NodeId::value_type>(n)));
      max_bytes = std::max(max_bytes, b);
      min_bytes = std::min(min_bytes, b);
    }
    return max_bytes - min_bytes;
  };
  DfsConfig config = Config(10, 1);
  Dfs random_dfs(config, Rng(20));
  Dfs balanced_dfs(config, Rng(20),
                   std::make_unique<LoadBalancedPlacement>(4));
  EXPECT_LE(spread(balanced_dfs), spread(random_dfs));
}

}  // namespace
}  // namespace custody::dfs
