// AsyncEngine observability: trace rows and instants, metric probes. All of
// it only reads engine state, so runs are bit-identical with sinks on or off.
#include "async/async_engine.hpp"

#include <algorithm>
#include <string>

namespace asyncmr::async {

void AsyncEngine::TraceWorker(const char* name, const char* cat, uint32_t p,
                              obs::TraceSink::Arg a,
                              obs::TraceSink::Arg b) const {
  if (config_.obs.trace == nullptr) return;
  config_.obs.trace->Instant(name, cat, obs::kPidWorkers, p, cluster_.now(), a,
                             b);
}

void AsyncEngine::EmitBlockedSpan(uint32_t p) {
  if (config_.obs.trace == nullptr) return;
  const Worker& w = workers_[p];
  config_.obs.trace->Span("gate-blocked", "worker", obs::kPidWorkers, p,
                          w.blocked_since, cluster_.now(),
                          {"iter", static_cast<double>(w.stats.iterations)});
}

void AsyncEngine::InstallObservability() {
  obs::TraceSink* trace = config_.obs.trace;
  if (trace != nullptr) {
    cluster_.network().set_trace(trace);
    cluster_.set_trace(trace);
    checkpoints_.set_trace(trace);
    trace_installed_ = true;
    trace->SetProcessName(obs::kPidWorkers, "workers (" + config_.name + ")");
    trace->SetProcessName(obs::kPidNetwork, "network");
    trace->SetProcessName(obs::kPidControl, "control");
    trace->SetThreadName(obs::kPidControl, 0, "termination token");
    for (uint32_t p = 0; p < num_partitions_; ++p) {
      trace->SetThreadName(obs::kPidWorkers, p, "worker " + std::to_string(p));
    }
  }

  obs::MetricsRegistry* m = config_.obs.metrics;
  if (m == nullptr) return;
  auto probe = [&](std::string name, std::function<double()> fn) {
    metric_probe_ids_.push_back(m->AddProbe(std::move(name), std::move(fn)));
  };
  auto count_phase = [this](WorkerPhase phase) {
    uint32_t n = 0;
    for (const Worker& w : workers_) n += w.phase == phase ? 1 : 0;
    return static_cast<double>(n);
  };
  // Registered first: caches the minimum for the per-worker skew probes
  // below (probes are sampled in registration order).
  probe("clock.min", [this] {
    uint32_t lo = workers_[0].stats.iterations;
    for (const Worker& w : workers_) lo = std::min(lo, w.stats.iterations);
    cached_min_clock_ = lo;
    return static_cast<double>(lo);
  });
  probe("clock.max", [this] {
    uint32_t hi = 0;
    for (const Worker& w : workers_) hi = std::max(hi, w.stats.iterations);
    return static_cast<double>(hi);
  });
  probe("workers.computing",
        [count_phase] { return count_phase(WorkerPhase::kComputing); });
  probe("workers.blocked",
        [count_phase] { return count_phase(WorkerPhase::kBlocked); });
  probe("workers.waiting_slot",
        [count_phase] { return count_phase(WorkerPhase::kWaitingSlot); });
  probe("workers.down",
        [count_phase] { return count_phase(WorkerPhase::kDown); });
  probe("pending.records", [this] {
    uint64_t n = 0;
    for (const Worker& w : workers_) n += w.unmerged_records;
    return static_cast<double>(n);
  });
  probe("pending.workers", [this] {
    uint32_t n = 0;
    for (const Worker& w : workers_) n += w.pending_input ? 1 : 0;
    return static_cast<double>(n);
  });
  probe("net.active_flows",
        [this] { return static_cast<double>(cluster_.network().active_flows()); });
  probe("restarts", [this] { return static_cast<double>(TotalRestarts()); });
  // Robustness counters: flat sums over workers, cheap relative to the
  // phase scans above.
  auto sum = [this](auto WorkerStats::*field) {
    return [this, field] {
      double s = 0.0;
      for (const Worker& w : workers_) s += static_cast<double>(w.stats.*field);
      return s;
    };
  };
  probe("flow_drops", sum(&WorkerStats::flow_drops));
  probe("batch_retries", sum(&WorkerStats::batch_retries));
  probe("retry_backoff_seconds", sum(&WorkerStats::retry_backoff_seconds));
  probe("peers_suspected",
        [this] { return static_cast<double>(result_.peers_suspected); });
  probe("partition_heal_reannouncements", [this] {
    return static_cast<double>(result_.partition_heal_reannouncements);
  });
  // Recovery gauge family (node-level failure-domain telemetry).
  probe("recovery.recoveries",
        [this] { return static_cast<double>(downtime_.total()); });
  probe("recovery.downtime_seconds", sum(&WorkerStats::downtime_seconds));
  probe("recovery.node_crashes",
        [this] { return static_cast<double>(result_.node_crashes); });
  probe("recovery.token_regenerations",
        [this] { return static_cast<double>(termination_.regenerations()); });
  probe("recovery.speculative_wins",
        [this] { return static_cast<double>(result_.speculative_wins); });
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    probe("worker.skew.p" + std::to_string(p), [this, p] {
      return static_cast<double>(workers_[p].stats.iterations) -
             static_cast<double>(cached_min_clock_);
    });
  }
}

AsyncEngine::~AsyncEngine() {
  // Detach everything InstallObservability leaked into longer-lived objects
  // (termination_ unregisters its own RPC handlers): the trace pointers
  // installed into the cluster/network would dangle once the caller's sink
  // dies, and the metric probes capture `this`.
  if (trace_installed_) {
    cluster_.network().set_trace(nullptr);
    cluster_.set_trace(nullptr);
  }
  if (config_.obs.metrics != nullptr) {
    for (size_t id : metric_probe_ids_) config_.obs.metrics->RemoveProbe(id);
  }
}

}  // namespace asyncmr::async
