// Namenode: file-system metadata for the simulated DFS. Tracks files, their
// blocks and replica placement. Placement follows the HDFS policy the paper's
// Hadoop 0.20.1 used: first replica on the writer, second on a different
// rack, third on the second replica's rack.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "net/topology.hpp"

namespace asyncmr::dfs {

using BlockId = uint64_t;

struct BlockMeta {
  BlockId id = 0;
  uint64_t size_bytes = 0;
  uint32_t checksum = 0;
  std::vector<net::NodeId> replicas;  // placement order = write pipeline order
  std::vector<bool> replica_corrupt;  // fault-injection flag per replica
};

struct FileMeta {
  std::string path;
  uint64_t size_bytes = 0;
  std::vector<BlockMeta> blocks;
};

class NameNode {
 public:
  NameNode(const net::Topology& topology, uint32_t replication, uint64_t seed)
      : topology_(topology), replication_(replication), rng_(seed) {}

  bool Exists(const std::string& path) const { return files_.contains(path); }

  Result<const FileMeta*> Stat(const std::string& path) const;

  /// Registers a file; fails if it already exists.
  Status Create(FileMeta meta);

  Status Delete(const std::string& path);

  /// All nodes holding at least one replica of at least one block of `path`
  /// (for locality-aware scheduling).
  std::vector<net::NodeId> Locations(const std::string& path) const;

  /// Chooses replica nodes for a new block written from `writer`.
  std::vector<net::NodeId> PlaceReplicas(net::NodeId writer);

  /// Marks one replica of every block of `path` corrupt (fault injection).
  Status CorruptReplica(const std::string& path, uint32_t replica_index);

  BlockId NextBlockId() { return next_block_id_++; }

 private:
  const net::Topology& topology_;
  uint32_t replication_;
  Rng rng_;
  BlockId next_block_id_ = 1;
  std::unordered_map<std::string, FileMeta> files_;
};

}  // namespace asyncmr::dfs
