#include "graph/graph.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace asyncmr::graph {

Digraph Digraph::FromEdges(VertexId num_vertices, std::vector<Edge> edges,
                           bool weighted) {
  Digraph g;
  g.num_vertices_ = num_vertices;
  g.offsets_.assign(static_cast<size_t>(num_vertices) + 1, 0);

  for (const Edge& e : edges) {
    AMR_CHECK(e.src < num_vertices && e.dst < num_vertices)
        << "edge (" << e.src << "," << e.dst << ") out of range n=" << num_vertices;
    g.offsets_[e.src + 1]++;
  }
  std::partial_sum(g.offsets_.begin(), g.offsets_.end(), g.offsets_.begin());

  g.targets_.resize(edges.size());
  if (weighted) g.weights_.resize(edges.size());
  std::vector<uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const Edge& e : edges) {
    const uint64_t pos = cursor[e.src]++;
    g.targets_[pos] = e.dst;
    if (weighted) g.weights_[pos] = e.weight;
  }
  // Sort each adjacency row for determinism and cache-friendly scans.
  for (VertexId v = 0; v < num_vertices; ++v) {
    const uint64_t lo = g.offsets_[v], hi = g.offsets_[v + 1];
    if (!weighted) {
      std::sort(g.targets_.begin() + lo, g.targets_.begin() + hi);
    } else {
      std::vector<std::pair<VertexId, double>> row;
      row.reserve(hi - lo);
      for (uint64_t i = lo; i < hi; ++i) row.emplace_back(g.targets_[i], g.weights_[i]);
      std::sort(row.begin(), row.end());
      for (uint64_t i = lo; i < hi; ++i) {
        g.targets_[i] = row[i - lo].first;
        g.weights_[i] = row[i - lo].second;
      }
    }
  }
  return g;
}

std::vector<uint32_t> Digraph::InDegrees() const {
  std::vector<uint32_t> degrees(num_vertices_, 0);
  for (VertexId t : targets_) degrees[t]++;
  return degrees;
}

std::vector<Edge> Digraph::ToEdges() const {
  std::vector<Edge> edges;
  edges.reserve(targets_.size());
  for (VertexId v = 0; v < num_vertices_; ++v) {
    const auto neighbors = OutNeighbors(v);
    const auto ws = OutWeights(v);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      edges.push_back({v, neighbors[i], ws.empty() ? 1.0 : ws[i]});
    }
  }
  return edges;
}

std::string Digraph::Describe() const {
  std::ostringstream os;
  os << num_vertices_ << " vertices, " << num_edges() << " edges"
     << (weighted() ? " (weighted)" : "");
  return os.str();
}

}  // namespace asyncmr::graph
