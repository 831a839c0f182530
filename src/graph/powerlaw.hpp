// Degree-distribution analysis for Table II: the paper reports that the
// best-fit power-law exponent of the input graphs' in-degree distribution
// "demonstrat[es] their conformity with the hubs-and-spokes model".
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace asyncmr::graph {

struct DegreeDistribution {
  /// count[d] = number of vertices with degree d.
  std::vector<uint64_t> count;
  uint32_t max_degree = 0;
  double mean = 0.0;
};

DegreeDistribution InDegreeDistribution(const Digraph& g);

struct PowerLawFit {
  double exponent = 0.0;    // alpha in p(k) ~ k^-alpha (MLE)
  double ls_exponent = 0.0; // least-squares slope on the log-log histogram
  double r2 = 0.0;          // fit quality of the log-log regression
  uint32_t k_min = 1;
};

/// Fits the in-degree tail (k >= k_min) both by MLE and by log-log least
/// squares (the paper's "best-fit for inlinks").
PowerLawFit FitInDegreePowerLaw(const Digraph& g, uint32_t k_min = 3);

}  // namespace asyncmr::graph
