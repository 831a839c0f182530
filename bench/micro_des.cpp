// micro_des — DES-kernel throughput benchmark and perf trajectory anchor.
//
// Measures:
//   1. EventQueue events/sec on two synthetic workloads (timer churn and a
//      cancel-heavy pattern mirroring network-flow rebalancing), for both the
//      current slab-based queue and an embedded copy of the pre-slab
//      implementation (std::function callbacks + hash-map bookkeeping), so
//      the speedup is measured, not asserted.
//   2. End-to-end wall-clock of the two iterative workloads that dominate
//      experiment time: async PageRank (the ablation_async headline variant)
//      and general/eager PageRank waves (the fig4 flavor), on the power-law
//      graph scenario.
//
// Output: human-readable lines to stderr and ONE machine-readable JSON line
// to stdout — append it to BENCH_micro_des.json to extend the perf
// trajectory. Schema (all numbers):
//
//   {"bench":"micro_des","schema_version":V,"scale":S,"seed":N,
//    "churn_events_per_sec":E,"churn_legacy_events_per_sec":E,
//    "cancel_events_per_sec":E,"cancel_legacy_events_per_sec":E,
//    "queue_speedup":X,"retime_events_per_sec":E,
//    "net_churn_events_per_sec":E,"net_churn_reference_events_per_sec":E,
//    "net_rebalance_speedup":X,
//    "async_pagerank_wall_s":T,"wave_pagerank_wall_s":T,
//    "async_virtual_s":T,"async_total_iterations":N}
//
// The net_churn_* fields measure the fluid network itself: start/complete N
// overlapping flows on a 64-node topology and count flow events (starts +
// completions) per wall-second, for the incremental endpoint-local
// rebalancer vs the retained O(F) full-reference rebalancer.
//
// retime_events_per_sec is the rebalancer's access pattern on the slab
// queue alone: ~20 live completion events, each firing followed by several
// in-place Reschedule calls (see RetimeEventsPerSec).
//
// Honours AMR_SCALE / AMR_SEED like the figure benches.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "apps/pagerank.hpp"
#include "bench_common.hpp"
#include "graph/partitioner.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"

using namespace asyncmr;

namespace {

double WallSeconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// The pre-slab EventQueue, verbatim: one std::function heap allocation per
// event plus hash-map insert/erase and a cancelled-set probe. Kept here as
// the measured baseline for queue_speedup.
class LegacyEventQueue {
 public:
  using EventId = uint64_t;

  sim::SimTime now() const { return now_; }

  EventId Schedule(sim::SimTime at, std::function<void()> fn) {
    const EventId id = next_id_++;
    heap_.push(Event{at, id});
    callbacks_.emplace(id, std::move(fn));
    return id;
  }

  EventId ScheduleAfter(sim::SimTime delay, std::function<void()> fn) {
    return Schedule(now_ + delay, std::move(fn));
  }

  bool Cancel(EventId id) {
    auto it = callbacks_.find(id);
    if (it == callbacks_.end()) return false;
    callbacks_.erase(it);
    cancelled_.insert(id);
    return true;
  }

  bool RunOne() {
    while (!heap_.empty()) {
      const Event ev = heap_.top();
      heap_.pop();
      auto cancelled_it = cancelled_.find(ev.id);
      if (cancelled_it != cancelled_.end()) {
        cancelled_.erase(cancelled_it);
        continue;
      }
      auto cb_it = callbacks_.find(ev.id);
      std::function<void()> fn = std::move(cb_it->second);
      callbacks_.erase(cb_it);
      now_ = ev.time;
      ++fired_;
      fn();
      return true;
    }
    return false;
  }

  void RunUntilEmpty() {
    while (RunOne()) {
    }
  }

  uint64_t fired_count() const { return fired_; }

 private:
  struct Event {
    sim::SimTime time;
    EventId id;
    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return id > other.id;
    }
  };

  sim::SimTime now_ = 0.0;
  EventId next_id_ = 1;
  uint64_t fired_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
  std::unordered_map<EventId, std::function<void()>> callbacks_;
  std::unordered_set<EventId> cancelled_;
};

/// Shared per-run state the event callables point into.
struct ChainState {
  uint64_t remaining = 0;
  uint64_t processed = 0;
  std::vector<uint64_t> armed;  // cancel workload: armed timer per lane
};

/// Event callables carry a trivially-copyable payload sized like a typical
/// simulator capture list ([this, hop_src, hop_dst, state, ...]): 40-48
/// bytes with the queue pointer. That exceeds libstdc++'s 16-byte
/// std::function small-object buffer, so the legacy queue heap-allocates
/// per event, while the slab queue stores every callable here inline
/// (all are <= EventFn::kInlineBytes = 48; static_asserts below).
struct EventPayload {
  ChainState* state = nullptr;
  uint32_t lane = 0;
  uint64_t salt[2] = {0, 0};
};

struct NoopEvent {
  EventPayload p;
  void operator()() const {}
};

/// Timer churn: W self-rescheduling chains modelled on the slot-lease loop —
/// each iteration is a zero-delay grant hop (SimCluster::AcquireSlot grants
/// free slots via ScheduleAfter(0.0)) followed by a timed compute event.
/// Returns events fired per wall-second.
template <typename Queue>
struct ChurnEvent {
  Queue* q = nullptr;
  EventPayload p;
  bool grant_hop = false;
  void operator()() const {
    if (p.state->remaining == 0) return;
    --p.state->remaining;
    if (grant_hop) {
      q->ScheduleAfter(0.5 + 0.001 * p.lane, ChurnEvent{q, p, false});
    } else {
      q->ScheduleAfter(0.0, ChurnEvent{q, p, true});
    }
  }
};

template <typename Queue>
double ChurnEventsPerSec(uint64_t total_events, uint32_t width) {
  static_assert(sizeof(ChurnEvent<Queue>) <= sim::EventFn::kInlineBytes,
                "churn callable must exercise the inline-storage path");
  Queue q;
  ChainState state;
  state.remaining = total_events;
  const double wall = WallSeconds([&] {
    for (uint32_t lane = 0; lane < width; ++lane) {
      q.ScheduleAfter(0.001 * lane,
                      ChurnEvent<Queue>{&q, EventPayload{&state, lane, {}}});
    }
    q.RunUntilEmpty();
  });
  return static_cast<double>(q.fired_count()) / wall;
}

/// Cancel-heavy: each firing event is a link rebalance that cancels and
/// re-arms the completion timers of kFlowsPerLane in-flight transfers —
/// exactly what net::Network::Rebalance does when a flow starts or finishes
/// on a shared link, and the reason most scheduled events never fire.
/// Returns (fired + cancelled + re-armed) bookkeeping operations per
/// wall-second.
inline constexpr uint32_t kFlowsPerLane = 8;

template <typename Queue>
struct CancelEvent {
  Queue* q = nullptr;
  EventPayload p;
  void operator()() const {
    ChainState& s = *p.state;
    if (s.remaining == 0) return;
    --s.remaining;
    ++s.processed;
    // Rebalance: every in-flight completion estimate on this "link" moves.
    for (uint32_t f = 0; f < kFlowsPerLane; ++f) {
      uint64_t& armed = s.armed[p.lane * kFlowsPerLane + f];
      if (armed != 0 && q->Cancel(armed)) ++s.processed;
      armed = q->ScheduleAfter(0.3 + 0.01 * f, NoopEvent{p});
      ++s.processed;
    }
    q->ScheduleAfter(0.25 + 0.001 * p.lane, CancelEvent{*this});
  }
};

template <typename Queue>
double CancelEventsPerSec(uint64_t total_events, uint32_t width) {
  static_assert(sizeof(CancelEvent<Queue>) <= sim::EventFn::kInlineBytes &&
                    sizeof(NoopEvent) <= sim::EventFn::kInlineBytes,
                "cancel callables must exercise the inline-storage path");
  Queue q;
  ChainState state;
  state.remaining = total_events / kFlowsPerLane;
  state.armed.assign(static_cast<size_t>(width) * kFlowsPerLane, 0);
  const double wall = WallSeconds([&] {
    for (uint32_t lane = 0; lane < width; ++lane) {
      q.ScheduleAfter(0.001 * lane,
                      CancelEvent<Queue>{&q, EventPayload{&state, lane, {}}});
    }
    q.RunUntilEmpty();
  });
  return static_cast<double>(state.processed) / wall;
}

/// Rebalancer-shaped retime: kRetimeLive flow-completion events stay live.
/// Each firing completes a flow, starts its successor (log-uniform duration,
/// 10 ms to 2.56 s, so long flows outlive many short ones), and then — like
/// net::Network::ReRateNode after a flow starts or ends — rescales
/// kRetimesPerFire other flows' remaining time by a rate-change factor in
/// [0.5, 2) (kept within [1 ms, 5.12 s], as a flow's bytes bound it) and
/// moves their completion events in place with Reschedule. A long flow is
/// retimed many times before it completes: the pattern that filled the
/// pre-index heap with stale keys. Returns (fired + retimed) queue
/// operations per wall-second.
inline constexpr uint32_t kRetimeLive = 20;
inline constexpr uint32_t kRetimesPerFire = 4;

struct RetimeState {
  uint64_t remaining = 0;
  uint64_t processed = 0;
  uint64_t rng = 0x9E3779B97F4A7C15ull;
  std::array<sim::EventId, kRetimeLive> ids{};  // 0 once a lane has stopped
  std::array<sim::SimTime, kRetimeLive> due{};

  double Uniform() {  // xorshift64: deterministic, cheap next to the queue ops
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return static_cast<double>(rng >> 11) * 0x1.0p-53;
  }
  void Start(sim::EventQueue& q, uint32_t lane);
};

struct RetimeEvent {
  sim::EventQueue* q = nullptr;
  RetimeState* s = nullptr;
  uint32_t lane = 0;
  void operator()() const {
    ++s->processed;
    s->ids[lane] = 0;
    if (s->remaining == 0) return;
    --s->remaining;
    s->Start(*q, lane);
    for (uint32_t k = 0; k < kRetimesPerFire; ++k) {
      const auto other = static_cast<uint32_t>(
          lane + 1 + s->Uniform() * (kRetimeLive - 1)) % kRetimeLive;
      if (s->ids[other] == 0) continue;
      const sim::SimTime now = q->now();
      const double left =
          (s->due[other] - now) * std::exp2(2.0 * s->Uniform() - 1.0);
      s->due[other] = now + std::clamp(left, 0.001, 5.12);
      s->ids[other] = q->Reschedule(s->ids[other], s->due[other]);
      ++s->processed;
    }
  }
};

void RetimeState::Start(sim::EventQueue& q, uint32_t lane) {
  due[lane] = q.now() + 0.01 * std::exp2(8.0 * Uniform());
  ids[lane] = q.Schedule(due[lane], RetimeEvent{&q, this, lane});
}

double RetimeEventsPerSec(uint64_t total_ops) {
  static_assert(sizeof(RetimeEvent) <= sim::EventFn::kInlineBytes,
                "retime callable must exercise the inline-storage path");
  sim::EventQueue q;
  RetimeState state;
  state.remaining = total_ops / (1 + kRetimesPerFire);
  const double wall = WallSeconds([&] {
    for (uint32_t lane = 0; lane < kRetimeLive; ++lane) state.Start(q, lane);
    q.RunUntilEmpty();
  });
  return static_cast<double>(state.processed) / wall;
}

/// Network churn: `lanes` concurrent flow chains over a 64-node cloud-ish
/// topology. Each lane keeps exactly one flow in the fluid model (the next
/// starts when the previous completes), so the active population holds at
/// ~lanes while starts and completions continuously churn the rebalancer —
/// the access pattern a large async-engine run produces. Endpoints and sizes
/// come from a deterministic hash, identical across modes. Returns flow
/// events (starts + completions) per wall-second.
double NetChurnEventsPerSec(net::RebalanceMode mode, uint64_t total_flows,
                            uint32_t lanes) {
  net::TopologyConfig cfg;
  cfg.num_nodes = 64;
  cfg.nodes_per_rack = 8;
  sim::EventQueue q;
  net::Network net(q, net::Topology(cfg), mode);
  uint64_t remaining = total_flows;
  std::function<void(uint32_t)> next = [&](uint32_t lane) {
    if (remaining == 0) return;
    --remaining;
    uint64_t h = (remaining + 1) * 0x9E3779B97F4A7C15ull + lane;
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 32;
    const auto src = static_cast<net::NodeId>(h % cfg.num_nodes);
    const auto dst = static_cast<net::NodeId>((h >> 8) % cfg.num_nodes);
    const uint64_t bytes = 200'000 + (h >> 16) % 4'000'000;
    net.Transfer(src, dst, bytes, [&next, lane] { next(lane); });
  };
  const double wall = WallSeconds([&] {
    for (uint32_t lane = 0; lane < lanes; ++lane) next(lane);
    q.RunUntilEmpty();
  });
  return static_cast<double>(net.stats().flows_started +
                             net.stats().flows_completed) /
         wall;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = BenchOptions::FromEnv(argc, argv);
  // This bench IS the overhead yardstick, so nothing here attaches the
  // sinks to a measured run — requesting --trace-out/--metrics-out yields
  // valid empty documents rather than a perturbed perf anchor.
  bench::ObsSession obs_session(opts);
  // Banner to stderr: stdout carries exactly one JSON line.
  std::fprintf(stderr,
               "=== micro_des — DES kernel throughput + end-to-end anchors ===\n"
               "scale: %.2fx paper size (AMR_SCALE), seed %llu\n",
               opts.scale, static_cast<unsigned long long>(opts.seed));

  // --- queue microbenchmarks -------------------------------------------------
  const uint64_t n_events = static_cast<uint64_t>(opts.Scaled(4'000'000, 400'000));
  // Concurrent event population: matches the default ablation scenario
  // (16 workers with a few in-flight transfers each), so the heap depth —
  // a cost both queues share — is realistic rather than inflated.
  const uint32_t width = static_cast<uint32_t>(GetEnvInt("AMR_DES_WIDTH", 64));

  const double churn = ChurnEventsPerSec<sim::EventQueue>(n_events, width);
  const double churn_legacy = ChurnEventsPerSec<LegacyEventQueue>(n_events, width);
  const double cancel = CancelEventsPerSec<sim::EventQueue>(n_events, width);
  const double cancel_legacy =
      CancelEventsPerSec<LegacyEventQueue>(n_events, width);
  const double speedup =
      0.5 * (churn / churn_legacy) + 0.5 * (cancel / cancel_legacy);

  std::fprintf(stderr, "churn:  %12.0f ev/s   (legacy %12.0f ev/s, %.2fx)\n",
               churn, churn_legacy, churn / churn_legacy);
  std::fprintf(stderr, "cancel: %12.0f op/s   (legacy %12.0f op/s, %.2fx)\n",
               cancel, cancel_legacy, cancel / cancel_legacy);

  const double retime = RetimeEventsPerSec(n_events);
  std::fprintf(stderr, "retime: %12.0f op/s   (%u live, %u retimes per fire)\n",
               retime, kRetimeLive, kRetimesPerFire);

  // --- fluid-network churn micro --------------------------------------------
  // ~1024 flows concurrently active on 64 nodes: the full-reference
  // rebalancer touches all of them on every start/completion, the
  // incremental one only the two endpoints' incident lists (~32 flows).
  const uint64_t n_net_flows =
      static_cast<uint64_t>(opts.Scaled(200'000, 20'000));
  const uint32_t net_lanes =
      static_cast<uint32_t>(GetEnvInt("AMR_NET_LANES", 1024));
  const double net_churn =
      NetChurnEventsPerSec(net::RebalanceMode::kIncremental, n_net_flows,
                           net_lanes);
  // Throughput is a steady-state measure, so the O(F^2) reference gets the
  // same active population but far fewer total flows — at 1024 active flows
  // it runs two orders of magnitude slower, and equal totals would make the
  // reference leg dominate the whole bench's wall time.
  const uint64_t n_ref_flows =
      std::max<uint64_t>(4 * net_lanes, n_net_flows / 50);
  const double net_churn_ref = NetChurnEventsPerSec(
      net::RebalanceMode::kFullReference, n_ref_flows, net_lanes);
  std::fprintf(stderr,
               "net:    %12.0f ev/s   (O(F) ref %12.0f ev/s, %.2fx) at %u "
               "active flows\n",
               net_churn, net_churn_ref, net_churn / net_churn_ref, net_lanes);

  // --- end-to-end anchors ----------------------------------------------------
  // The ablation_async graph scenario, built by the shared helper so this
  // anchor measures exactly what the ablation runs.
  const auto scenario = bench::BuildAblationGraphScenario(opts);
  const auto& g = scenario.g;
  const auto& part = scenario.part;

  apps::PageRankConfig pr;
  async::AsyncResult async_stats;
  double async_wall = 0.0;
  double wave_wall = 0.0;
  {
    cluster::SimCluster sim(cluster::ClusterSpec::Ec2Large8());
    async_wall = WallSeconds([&] {
      apps::AsyncPageRank(sim, g, part, pr, async::kUnboundedStaleness,
                          &async_stats);
    });
  }
  {
    cluster::SimCluster sim(cluster::ClusterSpec::Ec2Large8());
    wave_wall = WallSeconds([&] { apps::EagerPageRank(sim, g, part, pr); });
  }
  std::fprintf(stderr,
               "async PageRank: %.3fs wall (%.1fs virtual, %llu iterations); "
               "wave PageRank: %.3fs wall\n",
               async_wall, async_stats.seconds(),
               static_cast<unsigned long long>(async_stats.total_iterations),
               wave_wall);

  // --- the JSON trajectory line ----------------------------------------------
  std::printf(
      "{\"bench\":\"micro_des\",\"schema_version\":%d,\"scale\":%g,\"seed\":%llu,"
      "\"churn_events_per_sec\":%.0f,\"churn_legacy_events_per_sec\":%.0f,"
      "\"cancel_events_per_sec\":%.0f,\"cancel_legacy_events_per_sec\":%.0f,"
      "\"queue_speedup\":%.3f,\"retime_events_per_sec\":%.0f,"
      "\"net_churn_events_per_sec\":%.0f,"
      "\"net_churn_reference_events_per_sec\":%.0f,"
      "\"net_rebalance_speedup\":%.3f,"
      "\"async_pagerank_wall_s\":%.4f,\"wave_pagerank_wall_s\":%.4f,"
      "\"async_virtual_s\":%.4f,\"async_total_iterations\":%llu}\n",
      bench::kBenchSchemaVersion, opts.scale,
      static_cast<unsigned long long>(opts.seed), churn,
      churn_legacy, cancel, cancel_legacy, speedup, retime, net_churn,
      net_churn_ref,
      net_churn / net_churn_ref, async_wall, wave_wall, async_stats.seconds(),
      static_cast<unsigned long long>(async_stats.total_iterations));
  obs_session.FlushOrWarn();
  return 0;
}
