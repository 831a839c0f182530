// Staging helpers: place per-partition input files on the simulated DFS so
// map tasks get realistic locality and input-read costs, and refresh split
// descriptors between iterations of an iterative job.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "mr/types.hpp"

namespace asyncmr::core {

/// Writes one DFS file per partition (`<prefix>/part-<i>`, payload is the
/// given serialized partition image) from round-robin writer nodes, waits for
/// all writes, and returns SplitDescs carrying the replica locations. The
/// staging cost is paid in virtual time before this returns — callers measure
/// iterations from after staging, matching the paper (Metis partitioning and
/// input load are excluded from reported runtimes).
std::vector<mr::SplitDesc> StagePartitionFiles(
    cluster::SimCluster& cluster, const std::string& prefix,
    const std::vector<serde::Buffer>& partition_images);

}  // namespace asyncmr::core
