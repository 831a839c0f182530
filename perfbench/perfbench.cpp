// perfbench — the repo benchmark: host and virtual time to oracle quality.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// Each workload is a closed batch job with one client: the next pipeline run
// starts only after the previous one finishes. The seed generates every
// input (graph, partitioning, dataset, ClusterSpec); the library receives
// only those inputs and runs with its defaults (heap event queue, serial
// DES) unless the workload says otherwise. Single-threaded throughout.
//
// --trace 0 measures the end-to-end metrics with tracing off over
// kInstances instances of the workload, each with inputs from its own
// seed-derived seed. Every instance is set up once (the first three times;
// setup_s is the median pass), then the instances run round-robin, the first
// one twice at least, until --seconds of engine time have been measured.
// wall_s is the median pipeline run; virtual_s and oracle_err are the
// medians over the instances. wall_s and setup_s are in reference seconds:
// host seconds scaled by a host-speed probe taken on either side of each
// setup pass and pipeline run (see ReferenceKernelSeconds).
//
// --trace 1 is the separate traced run: one plain pipeline run, then one run
// with an obs::TraceSink attached and allocation counting on, then the
// isolated layer drives (sim, net, serde) shaped from the traced counts. It
// prints the per-layer metrics and writes spans, per-span virtual seconds,
// allocation counts and layer counters to --trace-out as JSON.
//
// Correctness gate, applied to every pipeline run (a miss counts in
// "failed"): the run converged, its answer is within the app's oracle
// tolerance, workload sanity bounds hold, and its virtual time and every
// deterministic counter equal the first run's exactly (for the traced run:
// equal the plain run's). run.py additionally compares the digest against
// the recorded golden values for the default and held-out seeds.
//
// Output: human-readable lines on stderr; the last stdout line is one JSON
// object {"correct","attempted","failed","metrics","digest"}.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/dataset.hpp"
#include "apps/kmeans.hpp"
#include "apps/pagerank.hpp"
#include "async/async_engine.hpp"
#include "cluster/cluster.hpp"
#include "cluster/spec.hpp"
#include "common/rng.hpp"
#include "graph/generator.hpp"
#include "graph/partition.hpp"
#include "graph/partitioner.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"

// --- allocation counting ------------------------------------------------------
// The global operator new is replaced in this binary only. Counting is on
// only during the traced pipeline run, which is single-threaded (kSerial
// DES), so plain counters suffice. Aligned new/delete keep the library's
// implementation; they pair malloc-family storage with free as these do.
namespace {
bool g_count_allocs = false;
uint64_t g_alloc_count = 0;
uint64_t g_alloc_bytes = 0;

void* CountedAlloc(std::size_t n) {
  if (g_count_allocs) {
    ++g_alloc_count;
    g_alloc_bytes += n;
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* CountedAllocOrThrow(std::size_t n) {
  void* p = CountedAlloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return CountedAllocOrThrow(n); }
void* operator new[](std::size_t n) { return CountedAllocOrThrow(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

using namespace asyncmr;

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// An end-to-end run measures this many instances of its workload, each
/// with its own inputs from a seed derived from --seed: graph-to-graph
/// variation in work (about 8% in events fired) spreads one instance's host
/// time across seeds, and the median over several narrows it.
constexpr uint32_t kInstances = 5;

uint64_t InstanceSeed(uint64_t seed, uint32_t instance) {
  return instance == 0 ? seed : MixSeed(seed, instance);
}

/// A run stops starting new pipeline runs once this much wall time has gone,
/// so one run always ends well inside its 180 s budget.
constexpr double kRunBudgetS = 140.0;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- host-speed reference -------------------------------------------------------

// Host speed on a shared VM drifts: one pipeline run of fixed work took
// 3.4-5.3 s within minutes, with thread CPU time equal to wall time, and the
// reference kernel below read anywhere from 0.056 to 0.17 s. The end-to-end
// host times are therefore reported in reference seconds: each timed section
// is bracketed by probes of the reference kernel, and its host seconds are
// scaled by (kReferenceKernelS / mean of the two probes) ^ kHostSpeedElasticity.
// The raw host seconds are printed beside them on stderr.

/// A fixed amount of simulator-shaped work that touches no library code: a
/// binary-heap event loop over 4096 pending events, random gathers from an
/// 8 MB table, a hash-map delta accumulator and a short-lived heap buffer per
/// event. Returns its host seconds. Its time moves only with the host's
/// speed, so it is the yardstick host times are scaled by.
double ReferenceKernelSeconds(double* sink) {
  constexpr uint32_t kTableBits = 20;
  constexpr uint64_t kEvents = 200'000;
  static const std::vector<double> table(1u << kTableBits, 1.0);
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  using Event = std::pair<double, uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  std::unordered_map<uint32_t, double> deltas;
  const auto t0 = Clock::now();
  for (uint32_t i = 0; i < 4096; ++i) heap.push({static_cast<double>(next() % 1000), i});
  double acc = 0.0;
  for (uint64_t k = 0; k < kEvents; ++k) {
    const Event e = heap.top();
    heap.pop();
    for (int j = 0; j < 8; ++j) acc += table[next() & ((1u << kTableBits) - 1)];
    deltas[static_cast<uint32_t>(next() % 65536)] += acc;
    std::vector<double> buf(16 + next() % 48, acc);
    acc = buf.back() * 1e-9;
    heap.push({e.first + static_cast<double>(next() % 1000), e.second});
  }
  *sink += acc + static_cast<double>(deltas.size());
  return Seconds(t0, Clock::now());
}

/// The reference kernel's time on the host in its fast phase (4-vCPU x86-64
/// VM, GCC 12, Release): reference seconds are host seconds on such a host.
constexpr double kReferenceKernelS = 0.08;

/// One host-speed probe: the median of five reference-kernel passes. The
/// kernel's own pass-to-pass noise is as large as the drift it tracks, so a
/// probe takes several passes.
double ProbeHost(double* sink) {
  std::vector<double> t(5);
  for (double& v : t) v = ReferenceKernelSeconds(sink);
  return Median(t);
}

/// How far the engines' host time moves per unit of the kernel's, in log
/// terms. The kernel's random gathers make it more sensitive to contention
/// than the engines: on pagerank-async, three sets of runs with median probes
/// of 0.071, 0.085 and 0.131 s had median engine times 5.50, 6.38 and 8.60 s
/// (pairwise elasticities 0.70-0.81), and a fit over 60 single runs with log
/// events fired as a covariate gave 0.58, which probe noise biases low. Full
/// scaling (1.0) turned slow phases into the fastest readings, and 0.7 left
/// them about 8% slow.
constexpr double kHostSpeedElasticity = 0.8;

/// Host seconds of a section between two probes, in reference seconds.
double ToReferenceSeconds(double host_s, double probe_before, double probe_after) {
  const double probe = 0.5 * (probe_before + probe_after);
  return host_s * std::pow(kReferenceKernelS / probe, kHostSpeedElasticity);
}

// --- host-time spans ------------------------------------------------------------

struct HostSpan {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// In-memory host-time spans around each public call the benchmark makes,
/// in seconds since `origin` (the process start, shared by every log).
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  template <typename F>
  double Time(const std::string& name, F&& fn) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    spans_.push_back({name, Seconds(origin_, t0), Seconds(origin_, t1)});
    return Seconds(t0, t1);
  }

  double Total(const std::string& name) const {
    double s = 0.0;
    for (const auto& span : spans_) {
      if (span.name == name) s += span.end_s - span.start_s;
    }
    return s;
  }

  const std::vector<HostSpan>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<HostSpan> spans_;
};

// --- per-run outcome ------------------------------------------------------------

/// Deterministic per-layer counters of one pipeline run, keyed by metric
/// name. Every value is a function of the seed alone, so two runs of one
/// seed must agree on all of them exactly.
using Counters = std::map<std::string, double>;

struct RunOutcome {
  bool converged = false;
  double wall_s = 0.0;     // host seconds inside the engine call(s)
  double virtual_s = 0.0;  // simulated seconds of the engine call(s)
  double oracle_err = 0.0;
  Counters layers;
  std::vector<std::string> problems;  // correctness-gate misses
};

void AddClusterCounters(cluster::SimCluster& sim, Counters& c) {
  c["sim.events"] += static_cast<double>(sim.queue().fired_count());
  const auto& n = sim.network().stats();
  c["net.flows"] += static_cast<double>(n.flows_started);
  c["net.rebalances"] += static_cast<double>(n.rebalances);
  c["net.rate_updates"] += static_cast<double>(n.flow_rate_updates);
  c["net.bytes"] += static_cast<double>(n.bytes_transferred);
  c["net.bytes_cross_rack"] += static_cast<double>(n.bytes_cross_rack);
  c["net.busy_vs"] += n.busy_seconds;
  c["net.flows_failed"] += static_cast<double>(n.flows_failed);
  const auto& d = sim.dfs().stats();
  c["dfs.bytes_written"] += static_cast<double>(d.bytes_written);
  c["dfs.bytes_read"] += static_cast<double>(d.bytes_read);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t i = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)];
}

void AddAsyncCounters(const async::AsyncResult& s, Counters& c) {
  c["async.worker_iters"] = static_cast<double>(s.total_iterations);
  std::vector<double> iters;
  for (const auto& w : s.workers) iters.push_back(w.iterations);
  c["async.worker_iters_p50"] = Percentile(iters, 0.5);
  c["async.worker_iters_max"] = Percentile(iters, 1.0);
  c["async.merge_ops"] = static_cast<double>(s.total_merge_ops);
  c["async.staleness_p95"] = s.staleness_p95;
  c["async.token_circuits"] = s.token_circuits;
  c["async.ckpts"] = s.checkpoints_written;
  c["async.ckpt_bytes"] = static_cast<double>(s.checkpoint_bytes);
  c["async.recoveries"] = s.recoveries;
  c["async.restarts"] = s.worker_restarts;
  c["async.node_crashes"] = s.node_crashes;
  c["async.mttr_s"] = s.mttr_seconds;
  c["async.tokens_lost"] = static_cast<double>(s.tokens_lost);
  c["async.token_regens"] = s.token_regenerations;
  c["async.batch_retries"] = static_cast<double>(s.batch_retries);
  c["serde.batches"] = static_cast<double>(s.update_batches);
  c["serde.records"] = static_cast<double>(s.update_records);
  c["serde.bytes"] = static_cast<double>(s.bytes_sent);
  c["serde.coalesced_batches"] = static_cast<double>(s.coalesced_batches);
  c["apps.ops"] += static_cast<double>(s.total_ops);
}

double InfNormDiff(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return INFINITY;
  double m = 0.0;
  for (size_t i = 0; i < a.size(); ++i) m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

/// PageRank answers must sit within this inf-norm of the serial oracle. The
/// engines stop at a 1e-5 residual and land 4e-5 to 6e-5 from the oracle,
/// so 1e-3 separates "converged to the oracle's fixed point" from
/// "stopped somewhere else".
constexpr double kPageRankOracleTol = 1e-3;
/// K-Means answers must match the serial Lloyd objective to this relative
/// SSE difference.
constexpr double kKMeansOracleTol = 0.01;

// --- workloads --------------------------------------------------------------------

/// What the isolated layer drives need from a workload.
struct DriveShape {
  cluster::ClusterSpec spec;
  bool kmeans_records = false;  // serde drive: KmPartialUpdate, else PrBoundaryUpdate
  uint32_t kmeans_dims = 0;
  double records_per_batch = 1.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs from `seed`, partitions them, runs the serial
  /// oracle and builds (then drops) one cluster — one span per public call.
  virtual void Setup(uint64_t seed, SpanLog& log) = 0;
  /// One pipeline run on fresh clusters: build, engine call(s), verification.
  virtual RunOutcome Run(const obs::Observability& obs, SpanLog& log) = 0;
  /// A fingerprint of the generated inputs; every setup of one seed must
  /// produce the same one.
  virtual std::string InputDigest() const = 0;
  virtual DriveShape Shape(const RunOutcome& run) const = 0;
};

/// The crawl-locality preferential-attachment graph of bench/scale_async.
graph::Digraph CrawlGraph(uint64_t seed) {
  graph::PrefAttachConfig gc;
  gc.num_vertices = 50'000;
  gc.num_in = 3;
  gc.num_out = 3;
  gc.locality_window = gc.num_vertices / 1000;
  gc.max_edge_age = 4 * gc.locality_window;
  gc.seed = seed;
  return graph::PreferentialAttachment(gc);
}

std::string GraphDigest(const graph::Digraph& g, const graph::Partitioning& part,
                        const std::vector<double>& oracle) {
  double sum = 0.0;
  for (double r : oracle) sum += r;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "v=%u e=%llu cut=%.17g oracle_sum=%.17g",
                g.num_vertices(), static_cast<unsigned long long>(g.num_edges()),
                graph::EvaluatePartition(g, part).cut_fraction, sum);
  return buf;
}

/// AsyncPageRank, P = 512 on Cloud(64), to the 1e-5 tolerance; with
/// `faults`, node crashes and light flow loss on top.
class PageRankAsyncWorkload final : public Workload {
 public:
  explicit PageRankAsyncWorkload(bool faults) : faults_(faults) {}

  /// Node crashes per node per virtual second and per-flow loss probability
  /// for pagerank-faults, sized for Cloud(64): a handful of node crashes per
  /// run (each takes its 8 resident workers down), and flow loss low enough
  /// that a 512-hop token circuit usually survives. Racks never fail
  /// together here: one rack episode takes 160 workers at once.
  static constexpr double kNodeCrashRate = 0.02;
  static constexpr double kFlowLossProb = 2e-5;
  /// pagerank-faults replays one fault schedule (the cluster RNG stream that
  /// draws crash times, jitter and stragglers) against every seed's graph.
  /// Poisson crashes are self-exciting here — each node crash costs ~0.4
  /// virtual seconds, and a longer run draws more crashes — so a per-seed
  /// schedule spread virtual time over 1.4-215 s and no bound could hold.
  static constexpr uint64_t kFaultScheduleSeed = 42;
  /// Sanity bound on worker restarts for pagerank-faults; a run past it is a
  /// crash storm, not the workload, and fails the gate.
  static constexpr uint32_t kMaxRestarts = 400;

  void Setup(uint64_t seed, SpanLog& log) override {
    log.Time("generate", [&] { g_ = CrawlGraph(seed); });
    log.Time("partition",
             [&] { part_ = graph::MultilevelPartition(g_, kPartitions, seed); });
    config_ = apps::PageRankConfig{};
    config_.async_tuning.coalesce_batches = true;
    config_.async_tuning.adaptive_token_backoff = true;
    log.Time("oracle", [&] { oracle_ = apps::SerialPageRank(g_, config_); });
    spec_ = cluster::ClusterSpec::Cloud(64);
    spec_.topology.fluid_rate_tolerance = 0.05;
    spec_.seed = seed;
    if (faults_) {
      spec_.seed = kFaultScheduleSeed;
      spec_.node_crash_rate = kNodeCrashRate;
      spec_.node_repair_s = 0.5;
      spec_.worker_restart_delay_s = 0.05;
      spec_.topology.flow_loss_prob = kFlowLossProb;
      config_.async_tuning.token_regen_timeout_s = 1.0;
    }
    log.Time("cluster-build", [&] { cluster::SimCluster probe(spec_); });
    cut_fraction_ = graph::EvaluatePartition(g_, part_).cut_fraction;
  }

  RunOutcome Run(const obs::Observability& obs, SpanLog& log) override {
    RunOutcome out;
    std::unique_ptr<cluster::SimCluster> sim;
    log.Time("cluster-build",
             [&] { sim = std::make_unique<cluster::SimCluster>(spec_); });
    apps::PageRankConfig config = config_;
    config.async_tuning.obs = obs;
    async::AsyncResult stats;
    apps::PageRankResult result;
    out.wall_s = log.Time("engine:AsyncPageRank", [&] {
      result = apps::AsyncPageRank(*sim, g_, part_, config,
                                   async::kUnboundedStaleness, &stats);
    });
    log.Time("verify", [&] { out.oracle_err = InfNormDiff(result.ranks, oracle_); });
    out.converged = result.converged && stats.converged;
    out.virtual_s = stats.seconds();
    AddClusterCounters(*sim, out.layers);
    AddAsyncCounters(stats, out.layers);
    out.layers["graph.cut_fraction"] = cut_fraction_;
    if (!out.converged) out.problems.push_back("did not converge");
    if (!(out.oracle_err <= kPageRankOracleTol)) out.problems.push_back("oracle error");
    if (faults_ && stats.worker_restarts > kMaxRestarts) {
      out.problems.push_back("restarts past the sanity bound");
    }
    return out;
  }

  std::string InputDigest() const override { return GraphDigest(g_, part_, oracle_); }

  DriveShape Shape(const RunOutcome& run) const override {
    DriveShape s;
    s.spec = spec_;
    const double batches = run.layers.at("serde.batches");
    s.records_per_batch = batches > 0 ? run.layers.at("serde.records") / batches : 1.0;
    return s;
  }

 private:
  static constexpr uint32_t kPartitions = 512;
  bool faults_;
  graph::Digraph g_;
  graph::Partitioning part_;
  apps::PageRankConfig config_;
  std::vector<double> oracle_;
  cluster::ClusterSpec spec_;
  double cut_fraction_ = 0.0;
};

/// AsyncKMeans, k = 8 over 30k x 16-dim census-like points, P = 128 on
/// Cloud(16), coalescing on, until converged.
///
/// Not a gated workload (see manifest.json): async K-Means' iteration count
/// from a random start swings with the seed (virtual time 0.7-7.3 s) and its
/// SSE gap to the oracle ranges from exactly 0 to 3e-4, so no bound holds
/// across seeds. It stays runnable for the net-heavy per-layer split.
class KMeansWorkload final : public Workload {
 public:
  void Setup(uint64_t seed, SpanLog& log) override {
    apps::CensusLikeConfig dc;
    dc.num_points = 30'000;
    dc.dims = 16;
    dc.planted_clusters = 8;
    dc.seed = seed;
    log.Time("generate", [&] { data_ = apps::GenerateCensusLike(dc); });
    config_ = apps::KMeansConfig{};
    config_.k = 8;
    config_.num_partitions = 128;
    config_.threshold = 0.01;
    config_.seed = seed + 5;
    config_.async_tuning.coalesce_batches = true;
    config_.async_tuning.adaptive_token_backoff = true;
    log.Time("oracle", [&] { oracle_sse_ = apps::SerialLloyd(data_, config_).sse; });
    spec_ = cluster::ClusterSpec::Cloud(16);
    spec_.topology.fluid_rate_tolerance = 0.05;
    spec_.seed = seed;
    log.Time("cluster-build", [&] { cluster::SimCluster probe(spec_); });
  }

  RunOutcome Run(const obs::Observability& obs, SpanLog& log) override {
    RunOutcome out;
    std::unique_ptr<cluster::SimCluster> sim;
    log.Time("cluster-build",
             [&] { sim = std::make_unique<cluster::SimCluster>(spec_); });
    apps::KMeansConfig config = config_;
    config.async_tuning.obs = obs;
    async::AsyncResult stats;
    apps::KMeansResult result;
    out.wall_s = log.Time("engine:AsyncKMeans", [&] {
      result = apps::AsyncKMeans(*sim, data_, config, async::kUnboundedStaleness,
                                 &stats);
    });
    log.Time("verify", [&] {
      out.oracle_err = oracle_sse_ > 0 ? std::fabs(result.sse / oracle_sse_ - 1.0)
                                       : INFINITY;
    });
    out.converged = result.converged && stats.converged;
    out.virtual_s = stats.seconds();
    AddClusterCounters(*sim, out.layers);
    AddAsyncCounters(stats, out.layers);
    if (!out.converged) out.problems.push_back("did not converge");
    if (!(out.oracle_err <= kKMeansOracleTol)) out.problems.push_back("oracle error");
    return out;
  }

  std::string InputDigest() const override {
    double sum = 0.0;
    for (uint32_t i = 0; i < data_.num_points(); ++i) {
      for (float x : data_.Point(i)) sum += x;
    }
    char buf[128];
    std::snprintf(buf, sizeof(buf), "n=%u d=%u sum=%.17g oracle_sse=%.17g",
                  data_.num_points(), data_.dims(), sum, oracle_sse_);
    return buf;
  }

  DriveShape Shape(const RunOutcome& run) const override {
    DriveShape s;
    s.spec = spec_;
    s.kmeans_records = true;
    s.kmeans_dims = data_.dims();
    const double batches = run.layers.at("serde.batches");
    s.records_per_batch = batches > 0 ? run.layers.at("serde.records") / batches : 1.0;
    return s;
  }

 private:
  apps::Dataset data_{0, 0};
  apps::KMeansConfig config_;
  double oracle_sse_ = 0.0;
  cluster::ClusterSpec spec_;
};

/// The paper's experiment: GeneralPageRank, then EagerPageRank, on Graph A
/// (50k vertices, k = 100) on Ec2Large8, both to the 1e-5 tolerance.
class PaperWavesWorkload final : public Workload {
 public:
  void Setup(uint64_t seed, SpanLog& log) override {
    auto gc = graph::PrefAttachConfig::PaperGraphA(seed);
    gc.num_vertices = 50'000;
    gc.locality_window = gc.num_vertices / 1000;
    gc.max_edge_age = 4 * gc.locality_window;
    log.Time("generate", [&] { g_ = graph::PreferentialAttachment(gc); });
    log.Time("partition",
             [&] { part_ = graph::MultilevelPartition(g_, kPartitions, seed); });
    config_ = apps::PageRankConfig{};
    log.Time("oracle", [&] { oracle_ = apps::SerialPageRank(g_, config_); });
    spec_ = cluster::ClusterSpec::Ec2Large8();
    spec_.seed = seed;
    log.Time("cluster-build", [&] {
      cluster::SimCluster general(spec_);
      cluster::SimCluster eager(spec_);
    });
    cut_fraction_ = graph::EvaluatePartition(g_, part_).cut_fraction;
  }

  RunOutcome Run(const obs::Observability& obs, SpanLog& log) override {
    RunOutcome out;
    std::unique_ptr<cluster::SimCluster> general_sim;
    std::unique_ptr<cluster::SimCluster> eager_sim;
    log.Time("cluster-build", [&] {
      general_sim = std::make_unique<cluster::SimCluster>(spec_);
      eager_sim = std::make_unique<cluster::SimCluster>(spec_);
    });
    for (auto* sim : {general_sim.get(), eager_sim.get()}) {
      sim->set_trace(obs.trace);
      sim->network().set_trace(obs.trace);
    }
    apps::PageRankResult general;
    apps::PageRankResult eager;
    const double general_wall = log.Time("engine:GeneralPageRank", [&] {
      general = apps::GeneralPageRank(*general_sim, g_, part_, config_);
    });
    const double eager_wall = log.Time("engine:EagerPageRank", [&] {
      eager = apps::EagerPageRank(*eager_sim, g_, part_, config_);
    });
    for (auto* sim : {general_sim.get(), eager_sim.get()}) {
      sim->set_trace(nullptr);
      sim->network().set_trace(nullptr);
    }
    out.wall_s = general_wall + eager_wall;
    log.Time("verify", [&] {
      out.oracle_err = std::max(InfNormDiff(general.ranks, oracle_),
                                InfNormDiff(eager.ranks, oracle_));
    });
    out.converged = general.converged && eager.converged;
    const double general_vs = general.trace.total_seconds();
    const double eager_vs = eager.trace.total_seconds();
    out.virtual_s = general_vs + eager_vs;
    AddClusterCounters(*general_sim, out.layers);
    AddClusterCounters(*eager_sim, out.layers);
    auto& c = out.layers;
    c["mr.general_vs"] = general_vs;
    c["core.eager_vs"] = eager_vs;
    c["waves.speedup_virtual"] = eager_vs > 0 ? general_vs / eager_vs : 0.0;
    c["mr.global_iters"] =
        general.trace.global_iterations() + eager.trace.global_iterations();
    c["mr.shuffle_bytes"] = static_cast<double>(general.trace.total_shuffle_bytes() +
                                                eager.trace.total_shuffle_bytes());
    c["core.local_iters"] = static_cast<double>(eager.trace.total_local_iterations());
    c["apps.ops"] =
        static_cast<double>(general.trace.total_ops() + eager.trace.total_ops());
    c["graph.cut_fraction"] = cut_fraction_;
    if (!out.converged) out.problems.push_back("did not converge");
    if (!(out.oracle_err <= kPageRankOracleTol)) out.problems.push_back("oracle error");
    if (!(eager_vs < general_vs)) out.problems.push_back("eager did not beat general");
    return out;
  }

  std::string InputDigest() const override { return GraphDigest(g_, part_, oracle_); }

  DriveShape Shape(const RunOutcome&) const override {
    DriveShape s;
    s.spec = spec_;
    // No async batches here: a gmap's global-reduce emission is one record
    // per boundary contribution of its partition, ~vertices per partition.
    s.records_per_batch = static_cast<double>(g_.num_vertices()) / kPartitions;
    return s;
  }

 private:
  static constexpr uint32_t kPartitions = 100;
  graph::Digraph g_;
  graph::Partitioning part_;
  apps::PageRankConfig config_;
  std::vector<double> oracle_;
  cluster::ClusterSpec spec_;
  double cut_fraction_ = 0.0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "pagerank-async") return std::make_unique<PageRankAsyncWorkload>(false);
  if (name == "pagerank-faults") return std::make_unique<PageRankAsyncWorkload>(true);
  if (name == "kmeans-alltoall") return std::make_unique<KMeansWorkload>();
  if (name == "paper-waves") return std::make_unique<PaperWavesWorkload>();
  return nullptr;
}

// --- virtual time per span name (traced run) ----------------------------------

struct VirtualSpans {
  std::map<std::string, double> by_name;  // summed durations, virtual seconds
  double flow_s = 0.0;     // summed "flow" span durations
  double compute_s = 0.0;  // summed "compute"/"keepalive" span durations
};

VirtualSpans SumVirtualSpans(const obs::TraceSink& sink) {
  VirtualSpans v;
  for (const char* name : {"gate-blocked", "slot-wait", "down", "recovering",
                           "ckpt-write"}) {
    v.by_name[name] = 0.0;
  }
  for (const auto& e : sink.events()) {
    if (e.phase != obs::TraceSink::Phase::kSpan || e.name == nullptr) continue;
    const std::string name = e.name;
    auto it = v.by_name.find(name);
    if (it != v.by_name.end()) it->second += e.dur_s;
    if (name == "flow" || name == "flow-drop") v.flow_s += e.dur_s;
    if (name == "compute" || name == "keepalive") v.compute_s += e.dur_s;
  }
  return v;
}

// --- isolated layer drives ------------------------------------------------------
// Each drive calls one layer's public API directly, shaped from the traced
// run's counts, and reports an isolated per-operation host cost.

/// sim::EventQueue: a pending set of `pending` event chains with the
/// workload's mean event horizon (Little's law: virtual time x pending /
/// events); each RunOne fires one event, which schedules its successor, and
/// Reschedule/Cancel calls follow the workload's per-event ratios (the fluid
/// network's re-rates and kills). Returns ns per fired event.
double DriveEventQueue(double pending, double horizon_s, double reschedules_per_event,
                       double cancels_per_event, uint64_t fire_target) {
  struct Chains {
    sim::EventQueue q;
    Rng rng{0x51D0};
    double horizon = 1.0;
    std::vector<sim::EventId> head;
    double Delay() { return -horizon * std::log1p(-rng.NextDouble()); }
    void Arm(uint32_t chain) {
      head[chain] = q.ScheduleAfter(Delay(), [this, chain] { Arm(chain); });
    }
  };
  Chains c;
  c.horizon = horizon_s > 0 ? horizon_s : 1e-3;
  const uint32_t n = static_cast<uint32_t>(std::max(1.0, std::round(pending)));
  c.head.assign(n, 0);
  for (uint32_t i = 0; i < n; ++i) c.Arm(i);
  double acc_r = 0.0;
  double acc_c = 0.0;
  const auto t0 = Clock::now();
  for (uint64_t k = 0; k < fire_target; ++k) {
    c.q.RunOne();
    for (acc_r += reschedules_per_event; acc_r >= 1.0; acc_r -= 1.0) {
      const auto chain = static_cast<uint32_t>(c.rng.NextBounded(n));
      c.head[chain] = c.q.Reschedule(c.head[chain], c.q.now() + c.Delay());
    }
    for (acc_c += cancels_per_event; acc_c >= 1.0; acc_c -= 1.0) {
      const auto chain = static_cast<uint32_t>(c.rng.NextBounded(n));
      c.q.Cancel(c.head[chain]);
      c.Arm(chain);
    }
  }
  return Seconds(t0, Clock::now()) * 1e9 / static_cast<double>(fire_target);
}

/// net::Network on the workload's topology: `active` concurrent flows of the
/// workload's mean size between random node pairs; each completion starts
/// the next flow until `flow_target` flows have run. Returns ns per flow
/// event (start or completion, including the DES events they schedule).
double DriveNetwork(const cluster::ClusterSpec& spec, double active, double mean_bytes,
                    uint64_t flow_target) {
  sim::EventQueue q;
  net::Network network(q, net::Topology(spec.topology));
  Rng rng(0x4E7);
  const uint32_t nodes = spec.num_nodes();
  uint64_t started = 0;
  uint64_t completed = 0;
  std::function<void()> start = [&] {
    const auto src = static_cast<net::NodeId>(rng.NextBounded(nodes));
    auto dst = static_cast<net::NodeId>(rng.NextBounded(nodes - 1));
    if (dst >= src) ++dst;
    const auto bytes =
        static_cast<uint64_t>(std::max(1.0, mean_bytes * rng.NextDouble(0.5, 1.5)));
    ++started;
    network.Transfer(src, dst, bytes, [&] {
      ++completed;
      if (started < flow_target) start();
    });
  };
  const auto t0 = Clock::now();
  const uint64_t initial = static_cast<uint64_t>(std::max(1.0, std::round(active)));
  for (uint64_t i = 0; i < initial && started < flow_target; ++i) start();
  q.RunUntilEmpty();
  const double wall = Seconds(t0, Clock::now());
  return wall * 1e9 / static_cast<double>(started + completed);
}

/// serde: encode a batch of `per_batch` update records with AppendUpdate and
/// decode it with ForEachUpdate, repeated for `record_target` records.
/// Returns ns per record (one encode plus one decode).
template <typename U>
double DriveSerde(const std::vector<U>& records, uint64_t record_target,
                  double* checksum) {
  async::UpdateBatch batch;
  uint64_t done = 0;
  const auto t0 = Clock::now();
  while (done < record_target) {
    batch.clear();
    for (const U& r : records) async::AppendUpdate(batch, r);
    async::ForEachUpdate<U>(batch, [&](const U& u) {
      if constexpr (std::is_same_v<U, apps::PrBoundaryUpdate>) {
        *checksum += u.contribution;
      } else {
        *checksum += static_cast<double>(u.count) + u.sum[0];
      }
    });
    done += records.size();
  }
  return Seconds(t0, Clock::now()) * 1e9 / static_cast<double>(done);
}

double DriveSerdeFor(const DriveShape& shape, double* checksum) {
  const auto per_batch =
      static_cast<uint32_t>(std::max(1.0, std::round(shape.records_per_batch)));
  constexpr uint64_t kRecords = 4'000'000;
  Rng rng(0x5E7D);
  if (shape.kmeans_records) {
    std::vector<apps::KmPartialUpdate> recs(per_batch);
    for (uint32_t i = 0; i < per_batch; ++i) {
      recs[i].centroid = i % 8;
      recs[i].count = rng.NextBounded(1000);
      recs[i].sum.resize(std::max<uint32_t>(1, shape.kmeans_dims));
      for (double& x : recs[i].sum) x = rng.NextDouble(-10, 10);
    }
    return DriveSerde(recs, kRecords / 4, checksum);
  }
  std::vector<apps::PrBoundaryUpdate> recs(per_batch);
  for (uint32_t i = 0; i < per_batch; ++i) {
    recs[i].vertex = static_cast<uint32_t>(rng.NextBounded(50'000));
    recs[i].contribution = rng.NextDouble(0, 2);
  }
  return DriveSerde(recs, kRecords, checksum);
}

// --- output ------------------------------------------------------------------------

/// Every per-layer metric a traced run reports (0 where the workload does
/// not exercise the layer), with its unit.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.ns_per_event", "ns"},
    {"sim.pending_mean", "count"},
    {"net.flows", "count"},
    {"net.rebalances", "count"},
    {"net.rate_updates", "count"},
    {"net.rate_updates_per_flow", "ratio"},
    {"net.bytes", "B"},
    {"net.bytes_cross_rack", "B"},
    {"net.busy_vs", "s"},
    {"net.flows_failed", "count"},
    {"net.ns_per_flow_event", "ns"},
    {"serde.batches", "count"},
    {"serde.records", "count"},
    {"serde.records_per_batch", "ratio"},
    {"serde.bytes", "B"},
    {"serde.coalesced_batches", "count"},
    {"serde.ns_per_record", "ns"},
    {"async.worker_iters", "count"},
    {"async.worker_iters_p50", "count"},
    {"async.worker_iters_max", "count"},
    {"async.merge_ops", "count"},
    {"async.staleness_p95", "count"},
    {"async.token_circuits", "count"},
    {"async.gate_blocked_vs", "s"},
    {"async.ckpts", "count"},
    {"async.ckpt_bytes", "B"},
    {"async.ckpt_used_ratio", "ratio"},
    {"async.ckpt_write_vs", "s"},
    {"async.restarts", "count"},
    {"async.mttr_s", "s"},
    {"async.down_vs", "s"},
    {"async.recovering_vs", "s"},
    {"async.tokens_lost", "count"},
    {"async.token_regens", "count"},
    {"async.batch_retries", "count"},
    {"apps.ops", "count"},
    {"apps.oracle_s", "s"},
    {"graph.generate_s", "s"},
    {"graph.partition_s", "s"},
    {"graph.cut_fraction", "ratio"},
    {"cluster.build_s", "s"},
    {"cluster.slot_wait_vs", "s"},
    {"mr.general_wall_s", "s"},
    {"mr.general_vs", "s"},
    {"mr.global_iters", "count"},
    {"mr.shuffle_bytes", "B"},
    {"core.eager_wall_s", "s"},
    {"core.eager_vs", "s"},
    {"core.local_iters", "count"},
    {"waves.speedup_virtual", "ratio"},
    {"dfs.bytes_written", "B"},
    {"dfs.bytes_read", "B"},
    {"alloc.count", "count"},
    {"alloc.bytes", "B"},
    {"obs.trace_events", "count"},
    {"obs.overhead", "ratio"},
    {"bench.verify_s", "s"},
};

const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"virtual_s", "s"},
    {"peak_rss_mb", "MB"},
    {"oracle_err", "ratio"},
};

/// Counters that must agree exactly between runs of one seed.
std::map<std::string, double> Digest(const RunOutcome& r) {
  std::map<std::string, double> d = r.layers;
  d["virtual_s"] = r.virtual_s;
  d["oracle_err"] = r.oracle_err;
  return d;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string JsonObject(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += JsonString(k) + ":" + JsonNumber(v);
  }
  return out + "}";
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a->trace = value == "1";
    } else if (flag == "--trace-out") {
      a->trace_out = value;
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

/// Marks every run whose digest differs from `ref`'s; returns the miss count.
int CheckSameAs(const RunOutcome& ref, std::vector<RunOutcome>& runs, const char* what) {
  int misses = 0;
  const auto want = Digest(ref);
  for (auto& r : runs) {
    const auto got = Digest(r);
    for (const auto& [k, v] : want) {
      const auto it = got.find(k);
      if (it == got.end() || !(it->second == v)) {
        r.problems.push_back(std::string(what) + " differs at " + k);
        ++misses;
        break;
      }
    }
  }
  return misses;
}

void WriteTraceJson(const std::string& path, const Args& args,
                    const std::vector<std::pair<const char*, const SpanLog*>>& logs,
                    const VirtualSpans& vspans, const Counters& layers,
                    uint64_t alloc_count, uint64_t alloc_bytes) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::string spans = "{";
  for (const auto& [label, log] : logs) {
    if (spans.size() > 1) spans += ",";
    spans += JsonString(label) + ":[";
    bool first = true;
    for (const auto& s : log->spans()) {
      if (!first) spans += ",";
      first = false;
      spans += "{\"name\":" + JsonString(s.name) + ",\"start_s\":" +
               JsonNumber(s.start_s) + ",\"end_s\":" + JsonNumber(s.end_s) + "}";
    }
    spans += "]";
  }
  spans += "}";
  std::fprintf(f,
               "{\"workload\":%s,\"seed\":%llu,\"host_spans\":%s,"
               "\"virtual_span_s\":%s,\"alloc\":{\"count\":%llu,\"bytes\":%llu},"
               "\"layers\":%s}\n",
               JsonString(args.workload).c_str(),
               static_cast<unsigned long long>(args.seed), spans.c_str(),
               JsonObject(vspans.by_name).c_str(),
               static_cast<unsigned long long>(alloc_count),
               static_cast<unsigned long long>(alloc_bytes), JsonObject(layers).c_str());
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <path>]\n");
    return 2;
  }
  if (MakeWorkload(args.workload) == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const auto start = Clock::now();

  // One workload instance per derived seed (only the first in a traced run).
  // Every instance is set up once and the first twice more: its input
  // fingerprints must agree, and the five passes give setup_s its median.
  const uint32_t num_instances = args.trace ? 1 : kInstances;
  std::vector<std::unique_ptr<Workload>> instances;
  // Every setup pass and every pipeline run sits between two host probes.
  double probe_sink = 0.0;
  double probe = ProbeHost(&probe_sink);
  std::vector<double> probes = {probe};
  auto next_probe = [&] {
    const double before = probe;
    probe = ProbeHost(&probe_sink);
    probes.push_back(probe);
    return before;
  };
  std::vector<double> setup_times;      // reference seconds
  std::vector<double> raw_setup_times;  // host seconds
  SpanLog setup_log(start);
  auto setup = [&](uint32_t i) {
    SpanLog log(start);
    instances[i]->Setup(InstanceSeed(args.seed, i), log);
    double total = 0.0;
    for (const auto& span : log.spans()) total += span.end_s - span.start_s;
    const double before = next_probe();
    setup_times.push_back(ToReferenceSeconds(total, before, probe));
    raw_setup_times.push_back(total);
    if (i == 0) setup_log = log;
    std::fprintf(stderr, "[perfbench] %s instance %u (seed %llu) inputs: %s\n",
                 args.workload.c_str(), i,
                 static_cast<unsigned long long>(InstanceSeed(args.seed, i)),
                 instances[i]->InputDigest().c_str());
  };
  for (uint32_t i = 0; i < num_instances; ++i) {
    instances.push_back(MakeWorkload(args.workload));
    setup(i);
  }
  const std::string first_inputs = instances[0]->InputDigest();
  bool inputs_stable = true;
  for (int extra = 0; extra < (args.trace ? 0 : 2); ++extra) {
    setup(0);
    inputs_stable = inputs_stable && instances[0]->InputDigest() == first_inputs;
  }

  std::vector<RunOutcome> runs;
  std::map<std::string, double> metrics;
  SpanLog run_log(start);
  if (!args.trace) {
    // Round-robin over the instances until --seconds of engine time: every
    // instance at least once and the first twice, so each run checks that a
    // rerun equals its instance's first run.
    std::vector<std::vector<RunOutcome>> by_instance(num_instances);
    double engine_s = 0.0;
    double last_run_s = 0.0;
    std::vector<double> walls;      // reference seconds
    std::vector<double> raw_walls;  // host seconds
    for (uint32_t k = 0;; ++k) {
      const uint32_t i = k % num_instances;
      const auto t0 = Clock::now();
      by_instance[i].push_back(instances[i]->Run({}, run_log));
      const RunOutcome& r = by_instance[i].back();
      last_run_s = Seconds(t0, Clock::now());
      const double before = next_probe();
      walls.push_back(ToReferenceSeconds(r.wall_s, before, probe));
      raw_walls.push_back(r.wall_s);
      engine_s += r.wall_s;
      std::fprintf(stderr,
                   "[perfbench] instance %u run %zu: %.3f s wall (%.3f reference s), "
                   "%.6f s virtual, %.0f events\n",
                   i, by_instance[i].size(), r.wall_s, walls.back(), r.virtual_s,
                   r.layers.count("sim.events") ? r.layers.at("sim.events") : 0.0);
      const bool all_ran = k >= num_instances;
      if (all_ran && (engine_s >= args.seconds ||
                      Seconds(start, Clock::now()) + last_run_s >= kRunBudgetS)) {
        break;
      }
    }
    std::vector<double> virtuals;
    std::vector<double> errors;
    for (auto& inst : by_instance) {
      CheckSameAs(inst.front(), inst, "rerun");
      virtuals.push_back(inst.front().virtual_s);
      errors.push_back(inst.front().oracle_err);
    }
    std::fprintf(stderr,
                 "[perfbench] host seconds: engine median %.4f, setup median %.4f; "
                 "reference kernel %.4f-%.4f s over %zu probes, median %.4f "
                 "(checksum %g)\n",
                 Median(raw_walls), Median(raw_setup_times),
                 *std::min_element(probes.begin(), probes.end()),
                 *std::max_element(probes.begin(), probes.end()), probes.size(),
                 Median(probes), probe_sink);
    for (auto& inst : by_instance) runs.insert(runs.end(), inst.begin(), inst.end());
    metrics["wall_s"] = Median(walls);
    metrics["setup_s"] = Median(setup_times);
    metrics["virtual_s"] = Median(virtuals);
    metrics["peak_rss_mb"] = PeakRssMb();
    metrics["oracle_err"] = Median(errors);
  } else {
    Workload* workload = instances[0].get();
    SpanLog plain_log(start);
    const RunOutcome plain = workload->Run({}, plain_log);

    obs::TraceSink sink;
    obs::Observability obs;
    obs.trace = &sink;
    g_alloc_count = 0;
    g_alloc_bytes = 0;
    g_count_allocs = true;
    RunOutcome traced = workload->Run(obs, run_log);
    g_count_allocs = false;
    const uint64_t alloc_count = g_alloc_count;
    const uint64_t alloc_bytes = g_alloc_bytes;
    runs = {plain, traced};
    CheckSameAs(plain, runs, "traced run");

    Counters c = plain.layers;
    const VirtualSpans vs = SumVirtualSpans(sink);
    c["async.gate_blocked_vs"] = vs.by_name.at("gate-blocked");
    c["cluster.slot_wait_vs"] = vs.by_name.at("slot-wait");
    c["async.down_vs"] = vs.by_name.at("down");
    c["async.recovering_vs"] = vs.by_name.at("recovering");
    c["async.ckpt_write_vs"] = vs.by_name.at("ckpt-write");
    const double events = c["sim.events"];
    const double flows = c["net.flows"];
    c["sim.events_per_s"] = plain.wall_s > 0 ? events / plain.wall_s : 0.0;
    c["net.rate_updates_per_flow"] = flows > 0 ? c["net.rate_updates"] / flows : 0.0;
    c["serde.records_per_batch"] =
        c["serde.batches"] > 0 ? c["serde.records"] / c["serde.batches"] : 0.0;
    c["async.ckpt_used_ratio"] =
        c["async.ckpts"] > 0 ? c["async.recoveries"] / c["async.ckpts"] : 0.0;
    c["apps.oracle_s"] = setup_log.Total("oracle");
    c["graph.generate_s"] = setup_log.Total("generate");
    c["graph.partition_s"] = setup_log.Total("partition");
    c["cluster.build_s"] = setup_log.Total("cluster-build");
    c["mr.general_wall_s"] = plain_log.Total("engine:GeneralPageRank");
    c["core.eager_wall_s"] = plain_log.Total("engine:EagerPageRank");
    c["bench.verify_s"] = plain_log.Total("verify");
    c["alloc.count"] = static_cast<double>(alloc_count);
    c["alloc.bytes"] = static_cast<double>(alloc_bytes);
    c["obs.trace_events"] = static_cast<double>(sink.num_events());
    c["obs.overhead"] = plain.wall_s > 0 ? traced.wall_s / plain.wall_s - 1.0 : 0.0;

    // Layer drives, shaped from this run. The pending set is estimated as
    // the mean number of in-flight flows and computing workers (each holds
    // one completion event) plus the termination token.
    const double vsum = plain.virtual_s > 0 ? plain.virtual_s : 1.0;
    const double active_flows = vs.flow_s / vsum;
    const double pending = active_flows + vs.compute_s / vsum + 1.0;
    c["sim.pending_mean"] = pending;
    const double horizon = events > 0 ? plain.virtual_s * pending / events : 1e-3;
    c["sim.ns_per_event"] = DriveEventQueue(
        pending, horizon, events > 0 ? c["net.rate_updates"] / events : 0.0,
        events > 0 ? c["net.flows_failed"] / events : 0.0,
        std::clamp<uint64_t>(static_cast<uint64_t>(events), 500'000, 2'000'000));
    const DriveShape shape = workload->Shape(plain);
    c["net.ns_per_flow_event"] = DriveNetwork(
        shape.spec, std::max(1.0, active_flows),
        flows > 0 ? c["net.bytes"] / flows : 1e6,
        std::clamp<uint64_t>(static_cast<uint64_t>(flows), 50'000, 200'000));
    double checksum = 0.0;
    c["serde.ns_per_record"] = DriveSerdeFor(shape, &checksum);
    std::fprintf(stderr,
                 "[perfbench] isolated per-operation costs (layer drives, not "
                 "in-run time): sim %.1f ns/event (pending %.0f), net %.1f "
                 "ns/flow event (%.0f active), serde %.1f ns/record (%.0f per "
                 "batch; checksum %g)\n",
                 c["sim.ns_per_event"], pending, c["net.ns_per_flow_event"],
                 active_flows, c["serde.ns_per_record"], shape.records_per_batch,
                 checksum);

    for (const auto& [name, unit] : kPerLayer) metrics[name] = c.count(name) ? c[name] : 0.0;
    if (!args.trace_out.empty()) {
      WriteTraceJson(args.trace_out, args,
                     {{"setup", &setup_log}, {"plain_run", &plain_log},
                      {"traced_run", &run_log}},
                     vs, c, alloc_count, alloc_bytes);
    }
  }

  int failed = 0;
  if (!inputs_stable) {
    std::fprintf(stderr, "[perfbench] FAIL: setups of one seed built different inputs\n");
  }
  for (const auto& r : runs) {
    if (!r.problems.empty() || !inputs_stable) {
      ++failed;
      for (const auto& p : r.problems) std::fprintf(stderr, "[perfbench] FAIL: %s\n", p.c_str());
    }
  }

  const auto& units = args.trace ? kPerLayer : kEndToEnd;
  std::string metrics_json = "{";
  for (const auto& [name, unit] : units) {
    std::fprintf(stderr, "  %-28s %-22s %s\n", name, JsonNumber(metrics[name]).c_str(), unit);
    if (metrics_json.size() > 1) metrics_json += ",";
    metrics_json += JsonString(name) + ":{\"value\":" + JsonNumber(metrics[name]) +
                    ",\"unit\":" + JsonString(unit) + "}";
  }
  metrics_json += "}";
  if (!args.trace) {
    // The paper's ratio, shown beside the end-to-end metrics it explains.
    const auto& l = runs.front().layers;
    if (l.count("waves.speedup_virtual")) {
      std::fprintf(stderr, "  %-28s %-22s %s\n", "(waves.speedup_virtual)",
                   JsonNumber(l.at("waves.speedup_virtual")).c_str(), "ratio");
    }
  }

  std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%d,\"metrics\":%s,"
              "\"digest\":%s}\n",
              failed == 0 ? "true" : "false", runs.size(), failed,
              metrics_json.c_str(), JsonObject(Digest(runs.front())).c_str());
  return 0;
}
