#include "dfs/namenode.hpp"

#include <algorithm>
#include <unordered_set>

namespace asyncmr::dfs {

Result<const FileMeta*> NameNode::Stat(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  return &it->second;
}

Status NameNode::Create(FileMeta meta) {
  if (files_.contains(meta.path)) {
    return Status::AlreadyExists("file exists: " + meta.path);
  }
  files_.emplace(meta.path, std::move(meta));
  return Status::Ok();
}

Status NameNode::Delete(const std::string& path) {
  if (files_.erase(path) == 0) return Status::NotFound("no such file: " + path);
  return Status::Ok();
}

std::vector<net::NodeId> NameNode::Locations(const std::string& path) const {
  std::unordered_set<net::NodeId> nodes;
  auto it = files_.find(path);
  if (it == files_.end()) return {};
  for (const auto& block : it->second.blocks) {
    nodes.insert(block.replicas.begin(), block.replicas.end());
  }
  std::vector<net::NodeId> out(nodes.begin(), nodes.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<net::NodeId> NameNode::PlaceReplicas(net::NodeId writer) {
  const uint32_t n = topology_.num_nodes();
  const uint32_t want = std::min(replication_, n);
  std::vector<net::NodeId> replicas;
  replicas.reserve(want);
  std::unordered_set<net::NodeId> used;

  // First replica: on the writer (HDFS local-write policy).
  replicas.push_back(writer);
  used.insert(writer);

  // Second replica: a random node on a different rack, if one exists.
  if (want >= 2) {
    std::vector<net::NodeId> off_rack;
    for (net::NodeId v = 0; v < n; ++v) {
      if (!used.contains(v) && !topology_.SameRack(writer, v)) off_rack.push_back(v);
    }
    if (off_rack.empty()) {
      for (net::NodeId v = 0; v < n; ++v) {
        if (!used.contains(v)) off_rack.push_back(v);
      }
    }
    if (!off_rack.empty()) {
      const auto pick = off_rack[rng_.NextBounded(off_rack.size())];
      replicas.push_back(pick);
      used.insert(pick);
    }
  }

  // Remaining replicas: same rack as the second one, then anywhere.
  while (replicas.size() < want) {
    const net::NodeId anchor = replicas.size() >= 2 ? replicas[1] : writer;
    std::vector<net::NodeId> candidates;
    for (net::NodeId v : topology_.RackMembers(anchor)) {
      if (!used.contains(v)) candidates.push_back(v);
    }
    if (candidates.empty()) {
      for (net::NodeId v = 0; v < n; ++v) {
        if (!used.contains(v)) candidates.push_back(v);
      }
    }
    if (candidates.empty()) break;  // cluster smaller than replication factor
    const auto pick = candidates[rng_.NextBounded(candidates.size())];
    replicas.push_back(pick);
    used.insert(pick);
  }
  return replicas;
}

Status NameNode::CorruptReplica(const std::string& path, uint32_t replica_index) {
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no such file: " + path);
  for (auto& block : it->second.blocks) {
    if (replica_index >= block.replicas.size()) {
      return Status::OutOfRange("replica index out of range");
    }
    block.replica_corrupt[replica_index] = true;
  }
  return Status::Ok();
}

}  // namespace asyncmr::dfs
