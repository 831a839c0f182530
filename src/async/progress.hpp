// Barrier-free global progress detection for the asynchronous engine.
//
// There is no shuffle barrier to piggyback convergence checks on, so the
// engine circulates a Safra-style token over the RPC layer: partition 0 ->
// 1 -> ... -> P-1 -> decide, each hop a real (latency- and byte-costed) RPC
// between the partitions' host nodes. The token aggregates each worker's
// state as it passes:
//
//   residual   — max of the workers' last-iteration residuals,
//   sent/recv  — cumulative update batches sent and received,
//   tainted    — some visited worker changed state since the token's
//                previous visit (Safra's "black machine"),
//   quiescent  — every visited worker was idle or gated when visited,
//   restarts   — sum of visited workers' crash/recovery counts (a circuit
//                that misses a restart is stale and must re-circulate).
//
// A circuit proves global termination when it returns untainted with all
// workers quiescent, sent == received (no update in flight anywhere) and no
// restart missed: messages delivered after a visit re-dirty their receiver,
// so a stale snapshot can never satisfy all of them at once. The run
// converged if the aggregated residual is below the engine's threshold; a
// quiescent-but-hot circuit (workers capped out on iterations) terminates
// with converged = false instead of spinning forever.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "cluster/cluster.hpp"
#include "common/check.hpp"
#include "obs/obs.hpp"
#include "serde/serde.hpp"

namespace asyncmr::async {

/// The token circulated over RPC (one visit per partition per circuit).
struct ProgressToken {
  uint32_t position = 0;  // partition the receiving node must visit next
  uint32_t circuit = 0;   // completed circuits before this one
  double residual = 0.0;  // max last-iteration residual seen this circuit
  uint64_t sent = 0;      // sum of visited workers' batches_sent
  uint64_t received = 0;  // sum of visited workers' batches_received
  bool tainted = false;   // a visited worker was dirty (Safra black)
  bool all_quiescent = true;
  /// Cleared when a visited worker has completed zero iterations: its ledger
  /// residual is the +inf "not yet measured" sentinel and must not leak into
  /// the aggregate. A terminating circuit with residual_known == false ends
  /// the run converged = false (the residual cannot prove convergence).
  bool residual_known = true;
  /// Sum of visited workers' restart counts (crash/recovery epochs). A
  /// completed circuit whose sum trails the engine's total proves a worker
  /// crashed *after* the token's visit — its quiescence observation is stale
  /// — so the circuit is treated as tainted and re-circulates.
  uint32_t restarts = 0;

  AMR_SERDE_FIELDS(position, circuit, residual, sent, received, tainted,
                   all_quiescent, residual_known, restarts)

  /// Does this completed circuit prove global termination? A token that
  /// observed fewer restarts than have happened (`total_restarts`) visited
  /// some worker before it crashed: that quiescence observation is stale.
  /// Restart counts only grow, so a crash after the visit is exactly a sum
  /// mismatch at completion.
  bool ProvesTermination(uint32_t total_restarts) const {
    return !tainted && all_quiescent && sent == received &&
           restarts == total_restarts;
  }
};

/// Safra ledger-balance contract, checked by the engine at every token
/// evaluation under AMR_AUDIT: summed over all workers, batches sent minus
/// batches received must equal the loss-aware batch flows currently on the
/// wire. Every wire attempt increments a sender ledger exactly once, and
/// every terminal outcome (delivery ack or sender self-ack on failure)
/// increments a receiver ledger exactly once, so any other difference means
/// an update was double-counted or silently dropped — which would let a
/// termination circuit prove sent == received while an update is still in
/// flight. Exposed as a free function so negative tests can feed it
/// corrupted ledgers directly (tests/test_audit.cpp).
inline void AuditSafraBalance(uint64_t sent, uint64_t received,
                              uint64_t in_flight) {
  AUDIT_CHECK(sent == received + in_flight)
      << "Safra ledger imbalance: sent=" << sent << " received=" << received
      << " batch flows in flight=" << in_flight;
}

/// Token-generation contract, checked under AMR_AUDIT when a circuit
/// completes at the initiator. The token's circuit id doubles as its
/// generation: regeneration after a suspected loss abandons the stranded id
/// by bumping the engine's live counter, and every handler drops tokens
/// whose id trails it. A completed circuit is therefore only reachable by
/// the current generation — two tokens of the same generation finishing
/// (double-termination) or a stale one slipping past the drop means the
/// generation discipline is broken. Free function so negative tests can feed
/// it mismatched generations directly (tests/test_audit.cpp).
inline void AuditTokenGeneration(uint32_t token_generation,
                                 uint32_t live_generation) {
  AUDIT_CHECK(token_generation == live_generation)
      << "stale token generation completed a circuit: token="
      << token_generation << " live=" << live_generation;
}

/// Node-ledger contract for node-level failure domains: the engine's cached
/// per-node resident-worker counts (maintained incrementally across
/// relaunches and speculative fencing) must match a fresh scan of worker
/// placements. Checked under AMR_AUDIT when a node crash enumerates its
/// victims — a drifted ledger would crash the wrong worker set or relaunch
/// onto phantom capacity. Free function for negative tests
/// (tests/test_audit.cpp).
inline void AuditNodeLedger(uint32_t resident_workers, uint32_t ledger_count) {
  AUDIT_CHECK(resident_workers == ledger_count)
      << "node worker-ledger drift: scan found " << resident_workers
      << " resident workers but ledger says " << ledger_count;
}

/// The termination token's pacing and loss-recovery knobs. EngineTuning
/// derives from it, so apps and benches set them like every other engine knob.
struct TokenTuning {
  /// Adaptive inter-circuit pause: back off by the previous circuit's own
  /// (virtual) duration, clamped to [token_backoff_s, kTokenBackoffMaxS].
  /// A circuit is P sequential RPC hops, so at P in the thousands a fixed
  /// small backoff keeps the ring saturated with control traffic; scaling
  /// the pause to the measured circuit time bounds token overhead at ~50%
  /// of the RPC path regardless of P, deterministically (virtual time only).
  bool adaptive_token_backoff = false;
  /// Pause between termination-token circuits that fail to prove termination
  /// (the minimum pause in adaptive mode).
  double token_backoff_s = 0.25;
  /// Safra-token loss recovery: base timeout after which the initiator
  /// presumes the circulating token lost and regenerates it under a fresh
  /// generation (the token's circuit id; handlers drop tokens from abandoned
  /// generations). The timer backs off exponentially across consecutive
  /// regenerations of the same logical circuit so a merely-slow ring cannot
  /// be regenerated into a livelock, and it is armed at all ONLY when the
  /// configured network/failure knobs can actually lose or strand a token —
  /// clean runs schedule no timer and stay bit-identical. Must be > 0
  /// whenever the token can be lost (the detector's constructor checks).
  double token_regen_timeout_s = 3.0;
};

/// Upper clamp of the adaptive inter-circuit pause.
inline constexpr double kTokenBackoffMaxS = 30.0;

/// The Safra token protocol on the cluster's RPC layer. Ring position p is
/// partition p; the detector registers a handler on every node (a relaunched
/// worker can land anywhere), launches circuit after circuit from position 0,
/// regenerates circuits a lossy fabric ate, and calls Ring::on_proved once a
/// circuit proves termination — after which it goes quiet, so the event
/// queue drains. It sees the workers only through the Ring callbacks, so a
/// test can drive it over a fake ring.
class TerminationDetector {
 public:
  /// The detector's whole view of the workers.
  struct Ring {
    uint32_t size = 0;
    /// Host node of ring position p (the token hops between these).
    std::function<net::NodeId(uint32_t position)> node_of;
    /// Is the node down right now? A token arriving there dies.
    std::function<bool(net::NodeId node)> node_down;
    /// Folds the worker at `position` into the token and clears its dirty
    /// bit (Safra's recolouring to white).
    std::function<void(uint32_t position, ProgressToken& token)> visit;
    /// Crash/recovery cycles across all workers so far.
    std::function<uint32_t()> total_restarts;
    /// A circuit proved termination; called once.
    std::function<void(const ProgressToken& token)> on_proved;
  };

  /// `name` keys the RPC method, so engines sharing a cluster never collide.
  TerminationDetector(cluster::SimCluster& cluster, const std::string& name,
                      const TokenTuning& tuning, obs::TraceSink* trace,
                      Ring ring);
  /// The handlers capture `this`; they must not outlive the detector in the
  /// longer-lived cluster.
  ~TerminationDetector();

  TerminationDetector(const TerminationDetector&) = delete;
  TerminationDetector& operator=(const TerminationDetector&) = delete;

  /// Registers the handlers and launches the first circuit.
  void Start();

  /// A circuit proved termination.
  bool done() const { return done_; }
  /// Circuits completed or abandoned (the live generation).
  uint32_t circuits() const { return circuits_; }
  /// Token request hops dropped by the faulty network or addressed to a down
  /// node, initiator regenerations after a presumed loss, and stale-
  /// generation tokens discarded by handlers.
  uint64_t tokens_lost() const { return tokens_lost_; }
  uint32_t regenerations() const { return regenerations_; }
  uint32_t stale_dropped() const { return stale_dropped_; }

 private:
  /// Can the configured fault model lose or strand a token? Gates the
  /// regeneration timer: when false the token is provably reliable, no timer
  /// is armed, and clean runs schedule zero extra events.
  bool CanBeLost() const;
  void StartCircuit();
  void Send(net::NodeId from, net::NodeId to, const ProgressToken& token);
  void HandleAt(uint32_t position, ProgressToken token);
  void Complete(const ProgressToken& token);
  /// One-shot regeneration timer armed per circuit: if the circuit it
  /// watches has neither completed nor been superseded when it fires, the
  /// initiator abandons that generation and starts a fresh circuit.
  void ArmRegenTimer();

  cluster::SimCluster& cluster_;
  const std::string method_;
  const TokenTuning tuning_;
  obs::TraceSink* const trace_;
  const Ring ring_;
  bool registered_ = false;
  bool done_ = false;
  /// The live generation: the circuit id a token must carry to count.
  uint32_t circuits_ = 0;
  double circuit_start_time_ = 0.0;
  /// Regenerations since the last completed circuit; drives the regen
  /// timer's exponential backoff.
  uint32_t consecutive_regens_ = 0;
  uint64_t tokens_lost_ = 0;
  uint32_t regenerations_ = 0;
  uint32_t stale_dropped_ = 0;
};

}  // namespace asyncmr::async
