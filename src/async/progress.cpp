#include "async/progress.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"

namespace asyncmr::async {

TerminationDetector::TerminationDetector(cluster::SimCluster& cluster,
                                         const std::string& name,
                                         const TokenTuning& tuning,
                                         obs::TraceSink* trace, Ring ring)
    : cluster_(cluster),
      method_("amr.async." + name + ".token"),
      tuning_(tuning),
      trace_(trace),
      ring_(std::move(ring)) {
  AMR_CHECK(ring_.size > 0) << "termination detection needs at least one "
                            << "partition";
  // The timer reschedules itself at now + timeout: a non-positive timeout
  // would collapse the regeneration backoff to zero.
  AMR_CHECK(!CanBeLost() || tuning_.token_regen_timeout_s > 0.0)
      << "a fault model that can lose the termination token requires "
      << "token_regen_timeout_s > 0 (got " << tuning_.token_regen_timeout_s
      << ")";
}

TerminationDetector::~TerminationDetector() {
  if (!registered_) return;
  for (net::NodeId node = 0; node < cluster_.spec().num_nodes(); ++node) {
    cluster_.rpc().UnregisterHandler(node, method_);
  }
}

bool TerminationDetector::CanBeLost() const {
  const net::TopologyConfig& topo = cluster_.network().topology().config();
  const cluster::ClusterSpec& spec = cluster_.spec();
  return topo.flow_loss_prob > 0.0 || !topo.partitions.empty() ||
         spec.node_crash_rate > 0.0 || spec.rack_crash_rate > 0.0;
}

void TerminationDetector::Start() {
  registered_ = true;
  // Register on EVERY node, not just the initial placement footprint: a
  // relaunched worker can land on any surviving node, and the token must be
  // able to follow it there. Registration is bookkeeping, not an event, so
  // the extra handlers cost nothing in virtual time.
  for (net::NodeId node = 0; node < cluster_.spec().num_nodes(); ++node) {
    cluster_.rpc().RegisterHandler(
        node, method_,
        [this, node](net::NodeId /*from*/,
                     const serde::Buffer& request) -> Result<serde::Buffer> {
          auto token = serde::Decode<ProgressToken>(request);
          AMR_CHECK(token.ok()) << token.status().ToString();
          if (ring_.node_down(node)) {
            // The token arrived at a dead machine: it dies with it. The
            // initiator's regeneration timer is what recovers from this.
            ++tokens_lost_;
            return serde::Buffer{};
          }
          HandleAt(token.value().position, token.value());
          return serde::Buffer{};  // ack
        });
  }
  StartCircuit();
}

void TerminationDetector::Send(net::NodeId from, net::NodeId to,
                               const ProgressToken& token) {
  // The on_failed callback opts the token's request leg into the network's
  // loss/partition fault model: control traffic traverses the same faulty
  // fabric as data. A swallowed token is recovered by the regeneration timer;
  // counting it here just makes the loss observable.
  cluster_.rpc().Call(from, to, method_, serde::Encode(token),
                      [](Result<serde::Buffer>) {}, [this] { ++tokens_lost_; });
}

void TerminationDetector::StartCircuit() {
  circuit_start_time_ = cluster_.now();
  ProgressToken token;
  token.circuit = circuits_;
  token.position = 0;
  Send(ring_.node_of(ring_.size - 1), ring_.node_of(0), token);
  ArmRegenTimer();
}

void TerminationDetector::ArmRegenTimer() {
  // Only armed when some fault mode can actually eat a token — in clean runs
  // the timer never exists, so the event timeline is untouched and stored
  // trajectories stay bit-identical.
  if (!CanBeLost()) return;
  const uint32_t gen = circuits_;
  // Exponential backoff on consecutive regenerations: if the timeout is set
  // shorter than an honest slow circuit, doubling it guarantees the timer
  // eventually outwaits the circuit instead of livelocking the control plane.
  const double timeout =
      tuning_.token_regen_timeout_s *
      static_cast<double>(1u << std::min(consecutive_regens_, 6u));
  cluster_.queue().ScheduleAfter(timeout, [this, gen] {
    if (done_) return;
    // The generation moved on (circuit completed, or an earlier timer already
    // regenerated): this timer is stale, let it die.
    if (circuits_ != gen) return;
    ++regenerations_;
    ++consecutive_regens_;
    // Abandon the stranded generation: bumping the live counter makes every
    // handler drop the old token if it ever limps home.
    ++circuits_;
    if (trace_ != nullptr) {
      trace_->Instant("token-regen", "token", obs::kPidControl, 0,
                      cluster_.now(), {"gen", static_cast<double>(circuits_)});
    }
    AMR_LOG_DEBUG << "token generation " << gen << " presumed lost at t="
                  << cluster_.now() << "; regenerating as " << circuits_;
    StartCircuit();
  });
}

void TerminationDetector::HandleAt(uint32_t position, ProgressToken token) {
  if (done_) return;
  if (token.circuit != circuits_) {
    // A regenerated circuit has superseded this token's generation (its
    // circuit id doubles as one): a stranded token that finally escaped a
    // partition must not finish a circuit the initiator already wrote off —
    // two live tokens could otherwise double-complete.
    ++stale_dropped_;
    return;
  }
  ring_.visit(position, token);
  if (position + 1 < ring_.size) {
    token.position = position + 1;
    Send(ring_.node_of(position), ring_.node_of(token.position), token);
  } else {
    Complete(token);
  }
}

void TerminationDetector::Complete(const ProgressToken& token) {
  // Generation contract: only the live generation can complete a circuit —
  // the HandleAt drop must have filtered everything stale.
  AMR_IF_AUDIT(AuditTokenGeneration(token.circuit, circuits_);)
  // An honest circuit came home: reset the regeneration backoff.
  consecutive_regens_ = 0;
  ++circuits_;
  const bool proved = token.ProvesTermination(ring_.total_restarts());
  if (trace_ != nullptr) {
    trace_->Span("token-circuit", "token", obs::kPidControl, 0,
                 circuit_start_time_, cluster_.now(),
                 {"circuit", static_cast<double>(circuits_ - 1)},
                 {"proved", proved ? 1.0 : 0.0});
  }
  if (proved) {
    done_ = true;
    ring_.on_proved(token);
    return;
  }
  double backoff = tuning_.token_backoff_s;
  if (tuning_.adaptive_token_backoff) {
    // Pause for as long as the failed circuit itself took (P RPC hops plus
    // worker-visit latencies), so token traffic stays a bounded fraction of
    // the control plane at any partition count.
    backoff = std::clamp(cluster_.now() - circuit_start_time_,
                         tuning_.token_backoff_s,
                         std::max(tuning_.token_backoff_s, kTokenBackoffMaxS));
  }
  cluster_.queue().ScheduleAfter(backoff, [this] {
    if (!done_) StartCircuit();
  });
}

}  // namespace asyncmr::async
