// Compressed-sparse-row directed graph: the substrate for PageRank and
// Shortest Path. Immutable after construction; optionally edge-weighted.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace asyncmr::graph {

using VertexId = uint32_t;

struct Edge {
  VertexId src;
  VertexId dst;
  double weight = 1.0;
};

class Digraph {
 public:
  Digraph() = default;

  /// Builds from an edge list (copies are sorted internally; parallel edges
  /// and self-loops are kept unless the caller removed them).
  static Digraph FromEdges(VertexId num_vertices, std::vector<Edge> edges,
                           bool weighted = false);

  VertexId num_vertices() const { return num_vertices_; }
  uint64_t num_edges() const { return targets_.size(); }
  bool weighted() const { return !weights_.empty(); }

  std::span<const VertexId> OutNeighbors(VertexId v) const {
    AMR_DCHECK(v < num_vertices_);
    return {targets_.data() + offsets_[v], targets_.data() + offsets_[v + 1]};
  }

  std::span<const double> OutWeights(VertexId v) const {
    AMR_DCHECK(v < num_vertices_);
    if (weights_.empty()) return {};
    return {weights_.data() + offsets_[v], weights_.data() + offsets_[v + 1]};
  }

  uint32_t OutDegree(VertexId v) const {
    AMR_DCHECK(v < num_vertices_);
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// In-degree of every vertex (one O(m) pass).
  std::vector<uint32_t> InDegrees() const;

  /// All edges, in CSR order.
  std::vector<Edge> ToEdges() const;

  std::string Describe() const;

  /// Raw CSR target array (every row's neighbors, concatenated).
  const std::vector<VertexId>& targets() const { return targets_; }

 private:
  VertexId num_vertices_ = 0;
  std::vector<uint64_t> offsets_;   // size n+1
  std::vector<VertexId> targets_;   // size m
  std::vector<double> weights_;     // size m, or empty if unweighted
};

}  // namespace asyncmr::graph
