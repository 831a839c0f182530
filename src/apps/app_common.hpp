// Helpers shared by the benchmark applications (PageRank, SSSP, K-Means,
// and the extension apps): the async runs' trace and dense contribution
// accumulators used to pre-combine map emissions efficiently. The async
// graph apps' boundary exchange lives in apps/boundary_exchange.hpp.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "async/async_engine.hpp"
#include "core/metrics.hpp"
#include "graph/graph.hpp"

namespace asyncmr::apps {

/// Sentinel for "unreached" distances.
inline constexpr double kInfDistance = std::numeric_limits<double>::infinity();

/// The single aggregate round every async app reports: engine time span,
/// ops, bytes pushed, total worker iterations (as local_iterations) and the
/// final residual.
core::RunTrace AsyncRunTrace(const std::string& name,
                             const async::AsyncResult& result);

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
