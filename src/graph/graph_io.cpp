#include "graph/graph_io.hpp"

#include "serde/serde.hpp"

namespace asyncmr::graph {

serde::Buffer EncodePartitionImage(const Digraph& g,
                                   const std::vector<VertexId>& members) {
  serde::Buffer buf;
  serde::Writer w(buf);
  w.WriteVarU64(members.size());
  const bool weighted = g.weighted();
  w.WriteBool(weighted);
  for (VertexId v : members) {
    w.WriteVarU64(v);
    const auto neighbors = g.OutNeighbors(v);
    const auto weights = g.OutWeights(v);
    w.WriteVarU64(neighbors.size());
    for (size_t i = 0; i < neighbors.size(); ++i) {
      w.WriteVarU64(neighbors[i]);
      if (weighted) w.WriteF64(weights[i]);
    }
  }
  return buf;
}

std::vector<serde::Buffer> EncodeAllPartitionImages(const Digraph& g,
                                                    const Partitioning& p) {
  const auto members = p.Members();
  std::vector<serde::Buffer> images;
  images.reserve(members.size());
  for (const auto& part_members : members) {
    images.push_back(EncodePartitionImage(g, part_members));
  }
  return images;
}

}  // namespace asyncmr::graph
