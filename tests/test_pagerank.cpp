// Application tests: PageRank — General and Eager vs the serial oracle,
// trace semantics, degenerate partitionings.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/pagerank.hpp"
#include "graph/generator.hpp"
#include "graph/partitioner.hpp"

namespace asyncmr::apps {
namespace {

cluster::ClusterSpec QuietSpec() {
  auto spec = cluster::ClusterSpec::Ec2Large8();
  spec.straggler_prob = 0.0;
  spec.speed_jitter = 0.0;
  return spec;
}

graph::Digraph TestGraph(graph::VertexId n = 3000, uint64_t seed = 7) {
  graph::PrefAttachConfig config;
  config.num_vertices = n;
  config.num_in = 3;
  config.num_out = 3;
  config.locality_window = std::max<graph::VertexId>(4, n / 150);
  config.max_edge_age = 4 * config.locality_window;
  config.seed = seed;
  return graph::PreferentialAttachment(config);
}

double MaxDiff(const std::vector<double>& a, const std::vector<double>& b) {
  double m = 0;
  for (size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

TEST(SerialPageRank, FixedPointSatisfiesEquation) {
  const auto g = TestGraph(500);
  PageRankConfig config;
  const auto ranks = SerialPageRank(g, config);
  // Verify PR(d) = (1-chi) + chi * sum(PR(s)/out(s)) directly.
  std::vector<double> sums(g.num_vertices(), 0.0);
  for (graph::VertexId u = 0; u < g.num_vertices(); ++u) {
    if (g.OutDegree(u) == 0) continue;
    for (graph::VertexId t : g.OutNeighbors(u)) {
      sums[t] += ranks[u] / g.OutDegree(u);
    }
  }
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(ranks[v], 0.15 + 0.85 * sums[v], 1e-3);
  }
}

TEST(SerialPageRank, ReportsIterations) {
  const auto g = TestGraph(500);
  PageRankConfig config;
  uint32_t iters = 0;
  SerialPageRank(g, config, &iters);
  EXPECT_GT(iters, 5u);
  EXPECT_LT(iters, 2000u);
}

TEST(GeneralPageRank, MatchesSerialOracle) {
  const auto g = TestGraph();
  const auto part = graph::MultilevelPartition(g, 8);
  PageRankConfig config;
  cluster::SimCluster sim(QuietSpec());
  const auto result = GeneralPageRank(sim, g, part, config);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(MaxDiff(result.ranks, SerialPageRank(g, config)), 1e-3);
  EXPECT_EQ(result.trace.total_local_iterations(), 0u);  // no partial syncs
}

TEST(GeneralPageRank, FaultInjectionIsDeterministic) {
  // The wave path's fault-tolerance story is deterministic replay: a failed
  // attempt re-runs the same pure task, so the same spec.seed must reproduce
  // the same failures, the same retry counts, the same virtual timeline, and
  // bit-identical output. (Regression guard for the seed discipline the
  // async engine's crash injection shares.)
  const auto g = TestGraph(1500, 17);
  const auto part = graph::MultilevelPartition(g, 8);
  PageRankConfig config;
  config.max_global_iterations = 12;  // bounded run; convergence not the point
  auto run = [&](uint64_t* fired) {
    auto spec = cluster::ClusterSpec::Ec2Large8();
    spec.task_failure_prob = 0.1;
    spec.seed = 1234;
    cluster::SimCluster sim(spec);
    auto result = GeneralPageRank(sim, g, part, config);
    *fired = sim.queue().fired_count();
    return result;
  };
  uint64_t a_fired = 0;
  uint64_t b_fired = 0;
  const auto a = run(&a_fired);
  const auto b = run(&b_fired);
  // Failures actually fired, and identically so.
  EXPECT_GT(a.trace.total_failed_attempts(), 0u);
  EXPECT_EQ(a.trace.total_failed_attempts(), b.trace.total_failed_attempts());
  ASSERT_EQ(a.trace.rounds().size(), b.trace.rounds().size());
  for (size_t i = 0; i < a.trace.rounds().size(); ++i) {
    EXPECT_EQ(a.trace.rounds()[i].failed_attempts,
              b.trace.rounds()[i].failed_attempts);
  }
  // Bit-identical output and timeline.
  EXPECT_EQ(MaxDiff(a.ranks, b.ranks), 0.0);
  EXPECT_DOUBLE_EQ(a.trace.total_seconds(), b.trace.total_seconds());
  EXPECT_EQ(a_fired, b_fired);
  EXPECT_GT(a_fired, 0u);
}

TEST(EagerPageRank, MatchesSerialOracle) {
  const auto g = TestGraph();
  const auto part = graph::MultilevelPartition(g, 8);
  PageRankConfig config;
  cluster::SimCluster sim(QuietSpec());
  const auto result = EagerPageRank(sim, g, part, config);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(MaxDiff(result.ranks, SerialPageRank(g, config)), 1e-3);
  EXPECT_GT(result.trace.total_local_iterations(), 0u);
}

TEST(EagerPageRank, FewerGlobalIterationsThanGeneral) {
  const auto g = TestGraph(4000);
  const auto part = graph::MultilevelPartition(g, 8);
  PageRankConfig config;
  cluster::SimCluster sim1(QuietSpec());
  const auto general = GeneralPageRank(sim1, g, part, config);
  cluster::SimCluster sim2(QuietSpec());
  const auto eager = EagerPageRank(sim2, g, part, config);
  EXPECT_LT(eager.trace.global_iterations(), general.trace.global_iterations());
  EXPECT_LT(eager.trace.total_seconds(), general.trace.total_seconds());
  // The paper's tradeoff: eager does MORE serial operations overall...
  EXPECT_GT(eager.trace.total_ops() + eager.trace.total_local_iterations(),
            general.trace.total_ops() / 2);
  // ...and more total synchronizations, but fewer global ones.
  EXPECT_GT(eager.trace.total_synchronizations(),
            eager.trace.global_iterations());
}

TEST(EagerPageRank, SinglePartitionConvergesInOneishRound) {
  // One partition: the whole graph converges inside a single gmap, so the
  // global loop should finish almost immediately (paper: "if the number of
  // partitions is decreased to one ... its local MapReduce would compute the
  // final PageRanks of all the nodes").
  const auto g = TestGraph(800);
  const auto part = graph::RangePartition(g, 1);
  PageRankConfig config;
  config.max_local_iterations = 2000;
  cluster::SimCluster sim(QuietSpec());
  const auto result = EagerPageRank(sim, g, part, config);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.trace.global_iterations(), 3u);
  EXPECT_LT(MaxDiff(result.ranks, SerialPageRank(g, config)), 1e-3);
}

TEST(EagerPageRank, SingletonPartitionsDegenerateToGeneral) {
  // Partition size one: each map handles a single adjacency list; Eager
  // becomes General (paper Section V.B.4).
  const auto g = TestGraph(300);
  const auto part = graph::RangePartition(g, g.num_vertices());
  PageRankConfig config;
  cluster::SimCluster sim1(QuietSpec());
  const auto eager = EagerPageRank(sim1, g, part, config);
  cluster::SimCluster sim2(QuietSpec());
  const auto general = GeneralPageRank(sim2, g, part, config);
  // Same fixed point. With singleton partitions each Eager round degenerates
  // to Jacobi sweeps (one local + one global), so its global iteration count
  // sits between half of General's and General's.
  EXPECT_LT(MaxDiff(eager.ranks, general.ranks), 1e-4);
  EXPECT_LE(eager.trace.global_iterations(), general.trace.global_iterations());
  EXPECT_GE(2 * eager.trace.global_iterations() + 2,
            general.trace.global_iterations());
  // No internal edges => each gmap's local MapReduce settles within ~2
  // iterations (the degeneration the paper describes in Section V.B.4).
  EXPECT_LE(eager.trace.total_local_iterations(),
            3u * eager.trace.global_iterations() * g.num_vertices());
}

TEST(PageRank, TraceAccountingConsistent) {
  const auto g = TestGraph(1000);
  const auto part = graph::MultilevelPartition(g, 4);
  PageRankConfig config;
  cluster::SimCluster sim(QuietSpec());
  const auto result = EagerPageRank(sim, g, part, config);
  double prev_end = 0.0;
  for (const auto& round : result.trace.rounds()) {
    EXPECT_GE(round.start_seconds, prev_end);
    EXPECT_GT(round.end_seconds, round.start_seconds);
    EXPECT_GT(round.ops, 0u);
    EXPECT_GT(round.shuffle_bytes, 0u);
    prev_end = round.end_seconds;
  }
  // Residuals decrease overall (monotone within noise of async updates).
  const auto& rounds = result.trace.rounds();
  ASSERT_GE(rounds.size(), 2u);
  EXPECT_LT(rounds.back().residual, rounds.front().residual);
}

TEST(PageRank, DanglingNodesHandledConsistently) {
  // A graph with sinks: all three implementations share the same fixed point.
  graph::Digraph g = graph::Digraph::FromEdges(
      5, {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {0, 4, 1}});  // 3 and 4 dangle
  graph::Partitioning part;
  part.num_parts = 2;
  part.part_of = {0, 0, 1, 1, 0};
  PageRankConfig config;
  cluster::SimCluster sim1(QuietSpec());
  const auto general = GeneralPageRank(sim1, g, part, config);
  cluster::SimCluster sim2(QuietSpec());
  const auto eager = EagerPageRank(sim2, g, part, config);
  const auto serial = SerialPageRank(g, config);
  EXPECT_LT(MaxDiff(general.ranks, serial), 1e-4);
  EXPECT_LT(MaxDiff(eager.ranks, serial), 1e-4);
}

TEST(PageRank, DeterministicAcrossRuns) {
  const auto g = TestGraph(800);
  const auto part = graph::MultilevelPartition(g, 4);
  PageRankConfig config;
  auto run = [&] {
    cluster::SimCluster sim(QuietSpec());
    return EagerPageRank(sim, g, part, config);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.trace.global_iterations(), b.trace.global_iterations());
  EXPECT_DOUBLE_EQ(a.trace.total_seconds(), b.trace.total_seconds());
  EXPECT_EQ(MaxDiff(a.ranks, b.ranks), 0.0);
}

}  // namespace
}  // namespace asyncmr::apps
