// Per-partition subgraph images: what gets staged onto the simulated DFS as
// gmap input files, so their encoded size drives the map-input cost model.
#pragma once

#include <vector>

#include "graph/partition.hpp"
#include "serde/buffer.hpp"

namespace asyncmr::graph {

/// Encodes the subgraph image a gmap task needs for one partition: the
/// partition's vertices with their full out-adjacency (including cross edges,
/// which the task must know to emit global contributions).
serde::Buffer EncodePartitionImage(const Digraph& g,
                                   const std::vector<VertexId>& members);

/// Encoded image sizes for every partition (for DFS staging / cost model).
std::vector<serde::Buffer> EncodeAllPartitionImages(const Digraph& g,
                                                    const Partitioning& p);

}  // namespace asyncmr::graph
