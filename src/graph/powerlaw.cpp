#include "graph/powerlaw.hpp"

#include <cmath>

#include "common/stats.hpp"

namespace asyncmr::graph {

namespace {

DegreeDistribution Distribution(const std::vector<uint32_t>& degrees) {
  DegreeDistribution dist;
  for (uint32_t d : degrees) dist.max_degree = std::max(dist.max_degree, d);
  dist.count.assign(static_cast<size_t>(dist.max_degree) + 1, 0);
  double sum = 0.0;
  for (uint32_t d : degrees) {
    dist.count[d]++;
    sum += d;
  }
  dist.mean = degrees.empty() ? 0.0 : sum / static_cast<double>(degrees.size());
  return dist;
}

}  // namespace

DegreeDistribution InDegreeDistribution(const Digraph& g) {
  return Distribution(g.InDegrees());
}

PowerLawFit FitInDegreePowerLaw(const Digraph& g, uint32_t k_min) {
  PowerLawFit fit;
  fit.k_min = k_min;

  const std::vector<uint32_t> in = g.InDegrees();
  std::vector<uint64_t> samples;
  samples.reserve(in.size());
  for (uint32_t d : in) {
    if (d >= k_min) samples.push_back(d);
  }
  fit.exponent = FitPowerLawExponent(samples, k_min);

  // Log-log least squares over the degree histogram tail.
  const DegreeDistribution dist = Distribution(in);
  std::vector<double> xs, ys;
  for (uint32_t d = k_min; d <= dist.max_degree; ++d) {
    if (dist.count[d] == 0) continue;
    xs.push_back(std::log(static_cast<double>(d)));
    ys.push_back(std::log(static_cast<double>(dist.count[d])));
  }
  if (xs.size() >= 2) {
    const LineFit line = FitLine(xs, ys);
    fit.ls_exponent = -line.slope;
    fit.r2 = line.r2;
  }
  return fit;
}

}  // namespace asyncmr::graph
