// Unit tests: topology, fluid-flow network model (incremental rebalancer
// differentially tested against the retained O(F) reference), RPC layer.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "net/rpc.hpp"
#include "net/topology.hpp"
#include "serde/serde.hpp"
#include "sim/event_queue.hpp"

namespace asyncmr::net {
namespace {

TopologyConfig SmallTopo() {
  TopologyConfig cfg;
  cfg.num_nodes = 8;
  cfg.nodes_per_rack = 4;
  return cfg;
}

TEST(Topology, RackAssignment) {
  Topology topo(SmallTopo());
  EXPECT_EQ(topo.num_racks(), 2u);
  EXPECT_EQ(topo.RackOf(0), 0u);
  EXPECT_EQ(topo.RackOf(3), 0u);
  EXPECT_EQ(topo.RackOf(4), 1u);
  EXPECT_TRUE(topo.SameRack(1, 2));
  EXPECT_FALSE(topo.SameRack(3, 4));
}

TEST(Topology, LatencyOrdering) {
  Topology topo(SmallTopo());
  EXPECT_LT(topo.Latency(0, 0), topo.Latency(0, 1));
  EXPECT_LT(topo.Latency(0, 1), topo.Latency(0, 5));
}

TEST(Topology, RackMembers) {
  Topology topo(SmallTopo());
  EXPECT_EQ(topo.RackMembers(5), (std::vector<NodeId>{4, 5, 6, 7}));
}

TEST(Topology, PartialLastRack) {
  TopologyConfig cfg;
  cfg.num_nodes = 6;
  cfg.nodes_per_rack = 4;
  Topology topo(cfg);
  EXPECT_EQ(topo.num_racks(), 2u);
  EXPECT_EQ(topo.RackMembers(5), (std::vector<NodeId>{4, 5}));
}

TEST(Network, SingleFlowTakesBandwidthTime) {
  sim::EventQueue q;
  Network net(q, Topology(SmallTopo()));
  const uint64_t bytes = 125'000'000;  // 1 second at 1 Gb/s
  double done_at = -1;
  net.Transfer(0, 1, bytes, [&] { done_at = q.now(); });
  q.RunUntilEmpty();
  EXPECT_NEAR(done_at, 1.0 + 0.5e-3, 1e-6);
  EXPECT_EQ(net.stats().bytes_transferred, bytes);
}

TEST(Network, TwoFlowsShareSourceNic) {
  sim::EventQueue q;
  Network net(q, Topology(SmallTopo()));
  const uint64_t bytes = 125'000'000;
  double d1 = -1, d2 = -1;
  net.Transfer(0, 1, bytes, [&] { d1 = q.now(); });
  net.Transfer(0, 2, bytes, [&] { d2 = q.now(); });
  q.RunUntilEmpty();
  // Both flows leave node 0's NIC: each sees half bandwidth.
  EXPECT_NEAR(d1, 2.0, 1e-2);
  EXPECT_NEAR(d2, 2.0, 1e-2);
}

TEST(Network, DisjointFlowsDoNotContend) {
  sim::EventQueue q;
  Network net(q, Topology(SmallTopo()));
  const uint64_t bytes = 125'000'000;
  double d1 = -1, d2 = -1;
  net.Transfer(0, 1, bytes, [&] { d1 = q.now(); });
  net.Transfer(2, 3, bytes, [&] { d2 = q.now(); });
  q.RunUntilEmpty();
  EXPECT_NEAR(d1, 1.0, 1e-2);
  EXPECT_NEAR(d2, 1.0, 1e-2);
}

TEST(Network, CrossRackSlower) {
  sim::EventQueue q;
  Network net(q, Topology(SmallTopo()));
  const uint64_t bytes = 125'000'000;
  double intra = -1, inter = -1;
  net.Transfer(0, 1, bytes, [&] { intra = q.now(); });
  q.RunUntilEmpty();
  sim::EventQueue q2;
  Network net2(q2, Topology(SmallTopo()));
  net2.Transfer(0, 5, bytes, [&] { inter = q2.now(); });
  q2.RunUntilEmpty();
  EXPECT_GT(inter, intra * 1.5);
  EXPECT_EQ(net2.stats().bytes_cross_rack, bytes);
}

TEST(Network, LoopbackIsFast) {
  sim::EventQueue q;
  Network net(q, Topology(SmallTopo()));
  double done = -1;
  net.Transfer(3, 3, 125'000'000, [&] { done = q.now(); });
  q.RunUntilEmpty();
  EXPECT_LT(done, 0.1);
}

TEST(Network, ZeroByteTransferCostsLatencyOnly) {
  sim::EventQueue q;
  Network net(q, Topology(SmallTopo()));
  double done = -1;
  net.Transfer(0, 1, 0, [&] { done = q.now(); });
  q.RunUntilEmpty();
  EXPECT_NEAR(done, 0.5e-3, 1e-9);
}

TEST(Network, FlowCompletionFreesBandwidth) {
  sim::EventQueue q;
  Network net(q, Topology(SmallTopo()));
  // Small flow finishes, big flow should then speed up: total time is less
  // than if both shared for the whole duration.
  double big_done = -1;
  net.Transfer(0, 1, 125'000'000, [&] { big_done = q.now(); });
  net.Transfer(0, 2, 12'500'000, [&] {});
  q.RunUntilEmpty();
  EXPECT_LT(big_done, 1.3);
  EXPECT_GT(big_done, 1.0);
}

TEST(Network, StatsCountFlows) {
  sim::EventQueue q;
  Network net(q, Topology(SmallTopo()));
  for (int i = 0; i < 5; ++i) net.Transfer(0, 1, 1000, [] {});
  q.RunUntilEmpty();
  EXPECT_EQ(net.stats().flows_started, 5u);
  EXPECT_EQ(net.stats().flows_completed, 5u);
  EXPECT_EQ(net.active_flows(), 0u);
}

// --- incremental vs full-reference rebalancer -------------------------------

/// One deterministic churn workload: `n_flows` transfers with pseudo-random
/// endpoints, sizes and staggered start times (some loopback, some intra- and
/// inter-rack), identical across invocations. Returns per-flow completion
/// times indexed by issue order. `check` (optional) runs after every flow
/// completion while other flows are still active.
std::vector<double> RunChurnWorkload(Network& net, sim::EventQueue& q,
                                     uint32_t n_flows,
                                     const std::function<void()>& check = {}) {
  const uint32_t nodes = net.topology().num_nodes();
  asyncmr::Rng rng(1234);
  std::vector<double> done(n_flows, -1.0);
  for (uint32_t i = 0; i < n_flows; ++i) {
    const NodeId src = static_cast<NodeId>(rng.NextBounded(nodes));
    // ~1/8 loopback, rest anywhere (same or cross rack).
    const NodeId dst = rng.NextBounded(8) == 0
                           ? src
                           : static_cast<NodeId>(rng.NextBounded(nodes));
    const uint64_t bytes = 1'000'000 + rng.NextBounded(30'000'000);
    const double start = 0.001 * static_cast<double>(rng.NextBounded(2000));
    q.ScheduleAfter(start, [&net, &q, &done, &check, i, src, dst, bytes] {
      net.Transfer(src, dst, bytes, [&q, &done, &check, i] {
        done[i] = q.now();
        if (check) check();
      });
    });
  }
  q.RunUntilEmpty();
  return done;
}

TEST(NetworkDifferential, CompletionTimesMatchReference) {
  constexpr uint32_t kFlows = 400;
  TopologyConfig cfg;
  cfg.num_nodes = 16;
  cfg.nodes_per_rack = 4;

  sim::EventQueue q_inc;
  Network inc(q_inc, Topology(cfg), RebalanceMode::kIncremental);
  const auto t_inc = RunChurnWorkload(inc, q_inc, kFlows);

  sim::EventQueue q_ref;
  Network ref(q_ref, Topology(cfg), RebalanceMode::kFullReference);
  const auto t_ref = RunChurnWorkload(ref, q_ref, kFlows);

  // The incremental model advances a flow's bytes lazily (only at its own
  // rate changes), so the floating-point segmentation differs from the
  // reference's advance-everything-every-event — but the fluid trajectories
  // are mathematically identical, and completion times must agree to 1e-9.
  for (uint32_t i = 0; i < kFlows; ++i) {
    ASSERT_GE(t_inc[i], 0.0) << "flow " << i << " never completed";
    EXPECT_NEAR(t_inc[i], t_ref[i], 1e-9) << "flow " << i;
  }
  EXPECT_EQ(inc.stats().flows_completed, ref.stats().flows_completed);
  EXPECT_EQ(inc.stats().bytes_transferred, ref.stats().bytes_transferred);
  EXPECT_EQ(inc.stats().rebalances, ref.stats().rebalances);
  // The whole point: the incremental mode retimes far fewer completions.
  EXPECT_LT(inc.stats().flow_rate_updates, ref.stats().flow_rate_updates / 2);
}

TEST(NetworkDifferential, RatesNeverExceedFairShares) {
  TopologyConfig cfg;
  cfg.num_nodes = 16;
  cfg.nodes_per_rack = 4;
  sim::EventQueue q;
  Network net(q, Topology(cfg), RebalanceMode::kIncremental);

  uint64_t checks = 0;
  auto check = [&] {
    // Per-flow: a re-rated flow never exceeds its fair share of either
    // endpoint NIC. Per-node: active flows incident to a node never sum past
    // the NIC bandwidth (loopback runs on the memory bus, not the NIC).
    std::vector<double> nic_load(cfg.num_nodes, 0.0);
    net.ForEachActiveFlow([&](NodeId src, NodeId dst, double rate) {
      if (src == dst) {
        EXPECT_LE(rate, cfg.loopback_bandwidth_Bps * (1 + 1e-12));
        return;
      }
      EXPECT_LE(rate, cfg.node_bandwidth_Bps / net.flows_at(src) * (1 + 1e-12));
      EXPECT_LE(rate, cfg.node_bandwidth_Bps / net.flows_at(dst) * (1 + 1e-12));
      nic_load[src] += rate;
      nic_load[dst] += rate;
      ++checks;
    });
    for (uint32_t n = 0; n < cfg.num_nodes; ++n) {
      EXPECT_LE(nic_load[n], cfg.node_bandwidth_Bps * (1 + 1e-9));
    }
  };
  RunChurnWorkload(net, q, 300, check);
  EXPECT_GT(checks, 0u);
}

TEST(NetworkDifferential, QuantizedRatesStayWithinTolerance) {
  // fluid_rate_tolerance > 0 lets incident rates go stale by a bounded
  // relative factor in exchange for amortized O(1) rebalancing. Completion
  // times must track the exact model within ~2x the tolerance (one endpoint
  // each), and the walk count must collapse.
  // Dense enough that nodes carry ~100 incident flows: the quantized trigger
  // only pays off when a single start/complete moves the share by less than
  // the tolerance, i.e. at count >~ 1/tolerance.
  constexpr uint32_t kFlows = 2000;
  constexpr double kTolerance = 0.05;
  TopologyConfig cfg;
  cfg.num_nodes = 16;
  cfg.nodes_per_rack = 4;

  sim::EventQueue q_exact;
  Network exact(q_exact, Topology(cfg));
  const auto t_exact = RunChurnWorkload(exact, q_exact, kFlows);

  cfg.fluid_rate_tolerance = kTolerance;
  sim::EventQueue q_quant;
  Network quant(q_quant, Topology(cfg));
  const auto t_quant = RunChurnWorkload(quant, q_quant, kFlows);

  for (uint32_t i = 0; i < kFlows; ++i) {
    ASSERT_GE(t_quant[i], 0.0) << "flow " << i << " never completed";
    // Completion = start + transfer; rate staleness compounds along the
    // flow's lifetime, so allow a few multiples of the per-endpoint bound.
    EXPECT_NEAR(t_quant[i], t_exact[i], 6 * kTolerance * t_exact[i] + 1e-6)
        << "flow " << i;
  }
  EXPECT_EQ(quant.stats().flows_completed, exact.stats().flows_completed);
  EXPECT_LT(quant.stats().flow_rate_updates,
            exact.stats().flow_rate_updates / 2);
}

TEST(NetworkStats, BusySecondsIsIntervalUnionNotPerFlowSum) {
  sim::EventQueue q;
  Network net(q, Topology(SmallTopo()));
  // Two flows share node 0's NIC for their whole lifetime: each takes ~2s
  // wall, fully overlapping. Per-flow-duration summing would report ~4s
  // "busy"; interval tracking must report ~2s (and never exceed the clock).
  const uint64_t bytes = 125'000'000;
  net.Transfer(0, 1, bytes, [] {});
  net.Transfer(0, 2, bytes, [] {});
  q.RunUntilEmpty();
  EXPECT_LE(net.stats().busy_seconds, q.now());
  EXPECT_NEAR(net.stats().busy_seconds, 2.0, 0.05);
}

TEST(NetworkStats, CountsRebalancesAndRateUpdates) {
  sim::EventQueue q;
  Network net(q, Topology(SmallTopo()));
  net.Transfer(0, 1, 125'000'000, [] {});
  net.Transfer(0, 2, 125'000'000, [] {});
  q.RunUntilEmpty();
  // Two payload-bearing starts + two completions.
  EXPECT_EQ(net.stats().rebalances, 4u);
  // Start 1: flow 1 rated. Start 2: both re-rated (share halves). Completion
  // of the first: survivor re-rated back up. Completion of the last: nothing
  // left to touch.
  EXPECT_EQ(net.stats().flow_rate_updates, 4u);
}

TEST(Rpc, EchoCall) {
  sim::EventQueue q;
  Network net(q, Topology(SmallTopo()));
  RpcSystem rpc(net);
  rpc.RegisterHandler(3, "echo", [](NodeId, const serde::Buffer& req) {
    return Result<serde::Buffer>(req);
  });
  std::string reply_text;
  rpc.Call(0, 3, "echo", serde::Encode(std::string("hello")),
           [&](Result<serde::Buffer> reply) {
             ASSERT_TRUE(reply.ok());
             auto decoded = serde::Decode<std::string>(*reply);
             ASSERT_TRUE(decoded.ok());
             reply_text = *decoded;
           });
  q.RunUntilEmpty();
  EXPECT_EQ(reply_text, "hello");
  EXPECT_EQ(rpc.calls_made(), 1u);
}

TEST(Rpc, UnknownMethodReturnsNotFound) {
  sim::EventQueue q;
  Network net(q, Topology(SmallTopo()));
  RpcSystem rpc(net);
  StatusCode code = StatusCode::kOk;
  rpc.Call(0, 1, "nope", serde::Buffer{}, [&](Result<serde::Buffer> reply) {
    code = reply.status().code();
  });
  q.RunUntilEmpty();
  EXPECT_EQ(code, StatusCode::kNotFound);
}

TEST(Rpc, CallTakesNetworkTime) {
  sim::EventQueue q;
  Network net(q, Topology(SmallTopo()));
  RpcSystem rpc(net);
  rpc.RegisterHandler(5, "ping", [](NodeId, const serde::Buffer&) {
    return Result<serde::Buffer>(serde::Buffer{});
  });
  double done = -1;
  rpc.Call(0, 5, "ping", serde::Buffer{},
           [&](Result<serde::Buffer>) { done = q.now(); });
  q.RunUntilEmpty();
  // Two cross-rack latencies plus envelope transfer time.
  EXPECT_GT(done, 2 * 1.5e-3);
  EXPECT_LT(done, 0.05);
}

// --- adversarial link faults -------------------------------------------------

TEST(NetworkFaults, LossProbOneFailsEveryLossAwareFlow) {
  TopologyConfig cfg = SmallTopo();
  cfg.flow_loss_prob = 1.0;
  sim::EventQueue q;
  Network net(q, Topology(cfg));
  int completed = 0, failed = 0;
  for (int i = 0; i < 4; ++i) {
    net.Transfer(0, 1, 1'000'000, [&] { ++completed; }, [&] { ++failed; });
  }
  q.RunUntilEmpty();
  EXPECT_EQ(completed, 0);
  EXPECT_EQ(failed, 4);
  EXPECT_EQ(net.stats().flows_failed, 4u);
  EXPECT_GT(net.stats().bytes_lost, 0u);
  // A doomed flow's delivered fraction consumed bandwidth but is not counted
  // as transferred: that counts completed flows only.
  EXPECT_EQ(net.stats().bytes_transferred, 0u);
}

TEST(NetworkFaults, HandlerLessFlowsAreReliableTransport) {
  // No on_failed handler = reliable transport (DFS pipeline, wave shuffle):
  // never dropped even at loss probability 1.
  TopologyConfig cfg = SmallTopo();
  cfg.flow_loss_prob = 1.0;
  sim::EventQueue q;
  Network net(q, Topology(cfg));
  int completed = 0;
  net.Transfer(0, 1, 1'000'000, [&] { ++completed; });
  q.RunUntilEmpty();
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(net.stats().flows_failed, 0u);
}

TEST(NetworkFaults, LossyCompletionsAreSeededDeterministic) {
  TopologyConfig cfg = SmallTopo();
  cfg.flow_loss_prob = 0.5;
  auto run = [&](uint64_t seed) {
    sim::EventQueue q;
    Network net(q, Topology(cfg), RebalanceMode::kIncremental, seed);
    std::vector<int> outcome;
    for (int i = 0; i < 32; ++i) {
      net.Transfer(0, 1, 100'000, [&, i] { outcome.push_back(i); },
                   [&, i] { outcome.push_back(-i); });
    }
    q.RunUntilEmpty();
    EXPECT_EQ(net.stats().flows_failed + net.stats().flows_completed, 32u);
    EXPECT_GT(net.stats().flows_failed, 0u);
    EXPECT_GT(net.stats().flows_completed, 0u);
    return outcome;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // the seed actually feeds the loss stream
}

TEST(NetworkFaults, PartitionWindowKillsInFlightAndTimesOutNewFlows) {
  TopologyConfig cfg = SmallTopo();
  cfg.partitions = {{/*start_s=*/1.0, /*end_s=*/5.0, /*isolated_racks=*/{1}}};
  cfg.partition_detect_s = 0.5;
  sim::EventQueue q;
  Network net(q, Topology(cfg));
  // Cross-rack loss-aware flow too large to finish before the window opens:
  // killed at t=1.
  double killed_at = -1, timeout_at = -1;
  bool long_completed = false;
  net.Transfer(0, 5, 250'000'000, [&] { long_completed = true; },
               [&] { killed_at = q.now(); });
  // A severed transfer started inside the window fails after detect_s.
  q.Schedule(2.0, [&] {
    net.Transfer(0, 5, 1000, [] {}, [&] { timeout_at = q.now(); });
  });
  // Intra-rack traffic inside the window is unaffected.
  bool intra_done = false;
  q.Schedule(2.0, [&] { net.Transfer(4, 5, 1000, [&] { intra_done = true; }); });
  q.RunUntilEmpty();
  EXPECT_FALSE(long_completed);
  EXPECT_DOUBLE_EQ(killed_at, 1.0);
  // Latency (1.5 ms cross-rack) is paid before the severed link is detected,
  // then the sender waits partition_detect_s.
  EXPECT_NEAR(timeout_at, 2.0 + 1.5e-3 + 0.5, 1e-9);
  EXPECT_TRUE(intra_done);
  EXPECT_EQ(net.stats().flows_failed, 2u);
}

TEST(NetworkFaults, ReachableTracksWindows) {
  TopologyConfig cfg = SmallTopo();
  cfg.partitions = {{1.0, 5.0, {1}}};
  Topology topo(cfg);
  EXPECT_TRUE(topo.Reachable(0, 5, 0.5));   // before the window
  EXPECT_FALSE(topo.Reachable(0, 5, 1.0));  // inside (closed start)
  EXPECT_FALSE(topo.Reachable(5, 0, 4.9));  // symmetric
  EXPECT_TRUE(topo.Reachable(4, 5, 2.0));   // intra-rack never severed
  EXPECT_TRUE(topo.Reachable(0, 5, 5.0));   // healed (open end)
}

TEST(NetworkFaults, DegradedEpisodesSlowFlowsDeterministically) {
  // With a near-certain degrade episode active from t~0, the same transfer
  // takes longer than on a healthy network, and identically across runs.
  TopologyConfig cfg = SmallTopo();
  cfg.degrade_rate = 50.0;  // episodes essentially always on
  cfg.degrade_duration_s = 100.0;
  cfg.degrade_factor = 0.25;
  auto run = [&] {
    sim::EventQueue q;
    Network net(q, Topology(cfg));
    double done = -1;
    net.Transfer(0, 1, 125'000'000, [&] { done = q.now(); });
    q.RunUntilEmpty();
    return done;
  };
  const double degraded = run();
  sim::EventQueue q;
  Network healthy(q, Topology(SmallTopo()));
  double base = -1;
  healthy.Transfer(0, 1, 125'000'000, [&] { base = q.now(); });
  q.RunUntilEmpty();
  EXPECT_GT(degraded, base * 1.5);
  EXPECT_DOUBLE_EQ(run(), degraded);
}

}  // namespace
}  // namespace asyncmr::net
