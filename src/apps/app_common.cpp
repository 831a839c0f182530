#include "apps/app_common.hpp"

#include <algorithm>

namespace asyncmr::apps {

core::RunTrace AsyncRunTrace(const std::string& name,
                             const async::AsyncResult& result) {
  core::RunTrace run(name);
  core::RoundTrace trace;
  trace.round = 0;
  trace.start_seconds = result.start_seconds;
  trace.end_seconds = result.end_seconds;
  trace.ops = result.total_ops;
  trace.shuffle_bytes = result.bytes_sent;
  trace.local_iterations = static_cast<uint32_t>(result.total_iterations);
  trace.residual = result.final_residual;
  run.AddRound(trace);
  return run;
}

std::vector<std::pair<uint32_t, double>> DenseAccumulator::DrainSorted() {
  std::sort(touched_.begin(), touched_.end());
  std::vector<std::pair<uint32_t, double>> out;
  out.reserve(touched_.size());
  for (uint32_t idx : touched_) {
    out.emplace_back(idx, values_[idx]);
    touched_flags_[idx] = 0;
    values_[idx] = 0.0;
  }
  touched_.clear();
  return out;
}

}  // namespace asyncmr::apps
