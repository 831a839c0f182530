#include "core/partition_io.hpp"

#include "common/check.hpp"
#include "mr/driver.hpp"

namespace asyncmr::core {

std::vector<mr::SplitDesc> StagePartitionFiles(
    cluster::SimCluster& cluster, const std::string& prefix,
    const std::vector<serde::Buffer>& partition_images) {
  AMR_CHECK(!partition_images.empty());
  const uint32_t num_nodes = cluster.spec().num_nodes();
  std::vector<std::string> paths;
  paths.reserve(partition_images.size());

  uint32_t pending = static_cast<uint32_t>(partition_images.size());
  for (uint32_t p = 0; p < partition_images.size(); ++p) {
    const std::string path = prefix + "/part-" + std::to_string(p);
    paths.push_back(path);
    const net::NodeId writer = p % num_nodes;
    serde::Buffer copy = partition_images[p];
    cluster.dfs().WriteFile(writer, path, std::move(copy), [&pending, path](Status s) {
      AMR_CHECK(s.ok()) << "staging " << path << ": " << s.ToString();
      --pending;
    });
  }
  cluster.RunUntilIdle();
  AMR_CHECK_EQ(pending, 0u);
  return mr::SplitsFromDfs(cluster, paths);
}

}  // namespace asyncmr::core
