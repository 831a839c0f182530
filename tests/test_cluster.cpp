// Unit tests: SimCluster wave execution — scheduling, locality, stragglers,
// failure/replay, speculation, determinism.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"

namespace asyncmr::cluster {
namespace {

ClusterSpec QuietSpec() {
  ClusterSpec spec = ClusterSpec::Ec2Large8();
  spec.straggler_prob = 0.0;
  spec.speed_jitter = 0.0;
  spec.task_failure_prob = 0.0;
  return spec;
}

TaskSpec SimpleTask(const std::string& name, uint64_t ops,
                    std::function<void()> side_effect = nullptr) {
  TaskSpec t;
  t.name = name;
  t.work = [ops, side_effect] {
    if (side_effect) side_effect();
    return WorkReport{ops, 0};
  };
  return t;
}

TEST(SimCluster, RunsAllTasks) {
  SimCluster cluster(QuietSpec());
  int executed = 0;
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back(SimpleTask("t" + std::to_string(i), 1000,
                               [&executed] { ++executed; }));
  }
  const WaveResult result = cluster.RunWaveBlocking(std::move(tasks), SlotType::kMap);
  EXPECT_EQ(executed, 10);
  EXPECT_EQ(result.tasks.size(), 10u);
  EXPECT_EQ(result.total_ops, 10'000u);
  EXPECT_GT(result.makespan(), 0.0);
}

TEST(SimCluster, EmptyWaveCompletesImmediately) {
  SimCluster cluster(QuietSpec());
  const WaveResult result = cluster.RunWaveBlocking({}, SlotType::kMap);
  EXPECT_TRUE(result.tasks.empty());
  EXPECT_DOUBLE_EQ(result.makespan(), 0.0);
}

TEST(SimCluster, SlotLimitCreatesWaves) {
  // 8 nodes x 2 map slots = 16 concurrent tasks; 32 equal tasks need 2 waves.
  ClusterSpec spec = QuietSpec();
  spec.heartbeat_interval_s = 0.0;  // remove scheduling jitter
  SimCluster cluster(spec);
  const uint64_t ops = 200'000'000;  // 10 s of compute at 5e-8 s/op
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 32; ++i) tasks.push_back(SimpleTask("t", ops));
  const WaveResult result = cluster.RunWaveBlocking(std::move(tasks), SlotType::kMap);
  const double one_task = ops * spec.per_op_seconds + spec.task_startup_s;
  EXPECT_NEAR(result.makespan(), 2 * one_task, 0.5);
}

TEST(SimCluster, MapAndReduceSlotsIndependent) {
  SimCluster cluster(QuietSpec());
  EXPECT_EQ(cluster.free_slots(0, SlotType::kMap), 2u);
  EXPECT_EQ(cluster.free_slots(0, SlotType::kReduce), 2u);
  cluster.RunWaveBlocking({SimpleTask("m", 100)}, SlotType::kMap);
  // Slots returned after the wave.
  EXPECT_EQ(cluster.free_slots(0, SlotType::kMap), 2u);
}

TEST(SimCluster, LocalityPreferred) {
  ClusterSpec spec = QuietSpec();
  SimCluster cluster(spec);
  std::vector<TaskSpec> tasks;
  for (uint32_t i = 0; i < 8; ++i) {
    TaskSpec t = SimpleTask("t" + std::to_string(i), 1000);
    t.data_nodes = {static_cast<net::NodeId>(i)};
    t.input_bytes = 1 << 20;
    tasks.push_back(std::move(t));
  }
  const WaveResult result = cluster.RunWaveBlocking(std::move(tasks), SlotType::kMap);
  // With 16 free slots and 8 tasks each pinned to a distinct node, the
  // locality scheduler should place every task on its data node.
  EXPECT_EQ(result.data_local_tasks, 8u);
  for (const TaskOutcome& o : result.tasks) {
    EXPECT_TRUE(o.data_local);
  }
}

TEST(SimCluster, TransientFailuresRetryAndComplete) {
  ClusterSpec spec = QuietSpec();
  spec.task_failure_prob = 0.3;
  spec.seed = 99;
  SimCluster cluster(spec);
  int executions = 0;
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 20; ++i) {
    tasks.push_back(SimpleTask("t", 1'000'000, [&executions] { ++executions; }));
  }
  const WaveResult result = cluster.RunWaveBlocking(std::move(tasks), SlotType::kMap);
  EXPECT_EQ(result.tasks.size(), 20u);
  EXPECT_GT(result.failed_attempts, 0u);
  // Deterministic replay contract: the work closure ran exactly once per task
  // even though attempts were retried.
  EXPECT_EQ(executions, 20);
}

TEST(SimCluster, CertainFailureStopsAtAttemptCap) {
  // Every attempt that may fail does; the last of kMaxTaskAttempts is forced
  // to succeed, so each task fails exactly kMaxTaskAttempts - 1 times.
  ClusterSpec spec = QuietSpec();
  spec.task_failure_prob = 1.0;
  SimCluster cluster(spec);
  constexpr uint32_t kTasks = 12;
  std::vector<TaskSpec> tasks;
  for (uint32_t i = 0; i < kTasks; ++i) tasks.push_back(SimpleTask("t", 1'000'000));
  const WaveResult result = cluster.RunWaveBlocking(std::move(tasks), SlotType::kMap);
  ASSERT_EQ(result.tasks.size(), kTasks);
  EXPECT_EQ(result.failed_attempts, kTasks * (kMaxTaskAttempts - 1));
  for (const TaskOutcome& o : result.tasks) EXPECT_EQ(o.attempts, kMaxTaskAttempts);
}

TEST(SimCluster, FailuresExtendMakespan) {
  ClusterSpec base = QuietSpec();
  base.heartbeat_interval_s = 0.1;
  SimCluster healthy(base);
  std::vector<TaskSpec> tasks1, tasks2;
  for (int i = 0; i < 16; ++i) {
    tasks1.push_back(SimpleTask("t", 100'000'000));
    tasks2.push_back(SimpleTask("t", 100'000'000));
  }
  const double t_healthy =
      healthy.RunWaveBlocking(std::move(tasks1), SlotType::kMap).makespan();
  ClusterSpec faulty = base;
  faulty.task_failure_prob = 0.5;
  SimCluster flaky(faulty);
  const double t_flaky =
      flaky.RunWaveBlocking(std::move(tasks2), SlotType::kMap).makespan();
  EXPECT_GT(t_flaky, t_healthy);
}

TEST(SimCluster, StragglersSlowTheWave) {
  ClusterSpec fast = QuietSpec();
  SimCluster cluster_fast(fast);
  ClusterSpec slow = QuietSpec();
  slow.straggler_prob = 1.0;
  slow.straggler_slowdown_min = 3.0;
  slow.straggler_slowdown_max = 3.0;
  SimCluster cluster_slow(slow);
  auto mk = [] {
    std::vector<TaskSpec> tasks;
    for (int i = 0; i < 16; ++i) tasks.push_back(SimpleTask("t", 100'000'000));
    return tasks;
  };
  const double t_fast = cluster_fast.RunWaveBlocking(mk(), SlotType::kMap).makespan();
  const double t_slow = cluster_slow.RunWaveBlocking(mk(), SlotType::kMap).makespan();
  EXPECT_GT(t_slow, t_fast * 1.5);
}

TEST(SimCluster, SpeculativeExecutionCutsStragglerTail) {
  auto mk = [] {
    std::vector<TaskSpec> tasks;
    for (int i = 0; i < 17; ++i) tasks.push_back(SimpleTask("t", 100'000'000));
    return tasks;
  };
  ClusterSpec spec = QuietSpec();
  spec.straggler_prob = 0.10;
  spec.straggler_slowdown_min = 8.0;
  spec.straggler_slowdown_max = 8.0;
  spec.seed = 3;
  SimCluster no_spec(spec);
  const double t_plain = no_spec.RunWaveBlocking(mk(), SlotType::kMap).makespan();
  spec.speculative_factor = 1.5;
  SimCluster with_spec(spec);
  const WaveResult spec_result = with_spec.RunWaveBlocking(mk(), SlotType::kMap);
  EXPECT_GT(spec_result.speculative_attempts, 0u);
  EXPECT_LT(spec_result.makespan(), t_plain);
}

TEST(SimCluster, HeterogeneousNodesAffectDuration) {
  ClusterSpec spec = QuietSpec();
  spec.nodes[0].speed_factor = 0.25;  // one slow node
  spec.heartbeat_interval_s = 0.0;
  SimCluster cluster(spec);
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 16; ++i) tasks.push_back(SimpleTask("t", 100'000'000));
  const WaveResult result = cluster.RunWaveBlocking(std::move(tasks), SlotType::kMap);
  double max_dur = 0, min_dur = 1e18;
  for (const auto& o : result.tasks) {
    max_dur = std::max(max_dur, o.finish_time - o.start_time);
    min_dur = std::min(min_dur, o.finish_time - o.start_time);
  }
  EXPECT_GT(max_dur, 3.0 * min_dur);
}

TEST(SimCluster, DeterministicGivenSeed) {
  auto run = [] {
    ClusterSpec spec = ClusterSpec::Ec2Large8();
    spec.task_failure_prob = 0.2;
    spec.seed = 1234;
    SimCluster cluster(spec);
    std::vector<TaskSpec> tasks;
    for (int i = 0; i < 30; ++i) {
      TaskSpec t;
      t.name = "t";
      t.work = [i] { return WorkReport{static_cast<uint64_t>(1000 * (i + 1)), 500}; };
      tasks.push_back(std::move(t));
    }
    return cluster.RunWaveBlocking(std::move(tasks), SlotType::kMap);
  };
  const WaveResult a = run();
  const WaveResult b = run();
  EXPECT_DOUBLE_EQ(a.finish_time, b.finish_time);
  EXPECT_EQ(a.failed_attempts, b.failed_attempts);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].node, b.tasks[i].node);
    EXPECT_DOUBLE_EQ(a.tasks[i].finish_time, b.tasks[i].finish_time);
  }
}

TEST(SimCluster, FetchPhaseDelaysCompute) {
  ClusterSpec spec = QuietSpec();
  spec.heartbeat_interval_s = 0.0;
  SimCluster cluster(spec);
  TaskSpec with_fetch = SimpleTask("f", 1000);
  with_fetch.fetches = {{0, 125'000'000}, {1, 125'000'000}};  // ~1 s each
  const double t0 = cluster.now();
  const WaveResult r = cluster.RunWaveBlocking({std::move(with_fetch)}, SlotType::kReduce);
  EXPECT_GT(r.finish_time - t0, 1.0);
}

TEST(ClusterSpec, Ec2Large8MatchesTableI) {
  const ClusterSpec spec = ClusterSpec::Ec2Large8();
  EXPECT_EQ(spec.num_nodes(), 8u);
  EXPECT_EQ(spec.total_map_slots(), 16u);
  EXPECT_EQ(spec.total_reduce_slots(), 16u);
}

TEST(LocalityScheduler, PickOrder) {
  net::TopologyConfig cfg;
  cfg.num_nodes = 8;
  cfg.nodes_per_rack = 4;
  net::Topology topo(cfg);
  LocalityScheduler sched(topo);
  std::vector<TaskSpec> specs(3);
  specs[0].data_nodes = {7};  // off-rack for node 0
  specs[1].data_nodes = {2};  // same rack as node 0
  specs[2].data_nodes = {0};  // node-local for node 0
  sched.Enqueue({0, 1, 2});
  EXPECT_EQ(sched.PickForNode(0, specs).value(), 2u);  // node-local first
  EXPECT_EQ(sched.PickForNode(0, specs).value(), 1u);  // then rack-local
  EXPECT_EQ(sched.PickForNode(0, specs).value(), 0u);  // then FIFO head
  EXPECT_FALSE(sched.PickForNode(0, specs).has_value());
  EXPECT_EQ(sched.node_local_picks(), 1u);
  EXPECT_EQ(sched.rack_local_picks(), 1u);
  EXPECT_EQ(sched.remote_picks(), 1u);
}

}  // namespace
}  // namespace asyncmr::cluster
