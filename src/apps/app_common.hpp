// Helpers shared by the benchmark applications (PageRank, SSSP, K-Means,
// and the extension apps): per-partition graph views and dense contribution
// accumulators used to pre-combine map emissions efficiently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "async/async_engine.hpp"
#include "core/metrics.hpp"
#include "graph/partition.hpp"

namespace asyncmr::apps {

/// Sentinel for "unreached" distances.
inline constexpr double kInfDistance = std::numeric_limits<double>::infinity();

/// The single aggregate round every async app reports: engine time span,
/// ops, bytes pushed, total worker iterations (as local_iterations) and the
/// final residual.
core::RunTrace AsyncRunTrace(const std::string& name,
                             const async::AsyncResult& result);

/// Per-partition view of a digraph: members plus, for each member, its
/// out-neighbors split into partition-internal targets and all targets.
/// Built once per (graph, partitioning); iterations only read it.
struct PartitionView {
  // Flattened member list per partition.
  std::vector<std::vector<graph::VertexId>> members;
  // For each partition, for each member (parallel to members[p]):
  // indices into the graph's CSR row of targets inside the same partition.
  std::vector<std::vector<std::vector<uint32_t>>> internal_target_index;

  static PartitionView Build(const graph::Digraph& g, const graph::Partitioning& p);
};

/// Number of distinct targets in a target-sorted boundary edge group of
/// (target, source local index) pairs: the length of a per-target array
/// indexed by target ordinal (see ForEachBoundaryTargetSum).
inline size_t CountBoundaryTargets(
    const std::vector<std::pair<graph::VertexId, uint32_t>>& edges) {
  size_t count = 0;
  for (size_t e = 0; e < edges.size(); ++e) {
    if (e == 0 || edges[e].first != edges[e - 1].first) ++count;
  }
  return count;
}

/// Folds one target-sorted boundary edge group into per-target sums: calls
/// sink(ordinal, target, sum of contrib(source local index)) once per
/// distinct target, in ascending target order, where ordinal counts the
/// distinct targets seen so far (0-based) and indexes a sender's per-target
/// delta filter. Seeding and the per-iteration push must group and sum
/// identically or the senders' delta filters desynchronize from the
/// receivers' state.
template <typename ContribFn, typename SinkFn>
void ForEachBoundaryTargetSum(
    const std::vector<std::pair<graph::VertexId, uint32_t>>& edges,
    ContribFn contrib, SinkFn sink) {
  size_t ordinal = 0;
  for (size_t e = 0; e < edges.size(); ++ordinal) {
    const graph::VertexId t = edges[e].first;
    double sum = 0.0;
    for (; e < edges.size() && edges[e].first == t; ++e) {
      sum += contrib(edges[e].second);
    }
    sink(ordinal, t, sum);
  }
}

/// Dense accumulator for pre-combining (target, double) contributions inside
/// one map task without hashing: O(edges + touched) per use, reusable across
/// tasks. Touched entries are returned sorted for determinism.
class DenseAccumulator {
 public:
  explicit DenseAccumulator(uint32_t size)
      : values_(size, 0.0), touched_flags_(size, 0) {}

  void Add(uint32_t index, double value) {
    if (!touched_flags_[index]) {
      touched_flags_[index] = 1;
      touched_.push_back(index);
    }
    values_[index] += value;
  }

  /// Minimum-combine variant (SSSP).
  void Min(uint32_t index, double value) {
    if (!touched_flags_[index]) {
      touched_flags_[index] = 1;
      touched_.push_back(index);
      values_[index] = value;
    } else if (value < values_[index]) {
      values_[index] = value;
    }
  }

  /// Sorted (index, value) pairs; clears the accumulator for reuse.
  std::vector<std::pair<uint32_t, double>> DrainSorted();

  size_t touched_count() const { return touched_.size(); }

 private:
  std::vector<double> values_;
  std::vector<uint8_t> touched_flags_;
  std::vector<uint32_t> touched_;
};

}  // namespace asyncmr::apps
