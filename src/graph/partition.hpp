// Vertex partitionings and their quality metrics. The paper's key locality
// lever: a min-cut partitioning makes most edges internal, so local
// MapReduce iterations cover most of the work and global synchronizations
// carry little.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace asyncmr::graph {

struct Partitioning {
  uint32_t num_parts = 1;
  std::vector<uint32_t> part_of;  // vertex -> part

  /// Vertices of each part, ascending.
  std::vector<std::vector<VertexId>> Members() const;

  /// Vertex count per part.
  std::vector<uint64_t> Sizes() const;
};

struct PartitionQuality {
  uint64_t cut_edges = 0;       // directed edges crossing parts
  uint64_t internal_edges = 0;  // edges within a part
  double cut_fraction = 0.0;    // cut / total
  uint64_t max_part = 0;
  uint64_t min_part = 0;
  double imbalance = 0.0;       // max_part / (n / k) - 1

  std::string ToString() const;
};

PartitionQuality EvaluatePartition(const Digraph& g, const Partitioning& p);

/// Boundary vertices: having at least one out- or in-edge crossing parts
/// (these are the vertices whose PageRank "requires a global reduction").
std::vector<bool> BoundaryVertices(const Digraph& g, const Partitioning& p);

}  // namespace asyncmr::graph
