#include "async/async_engine.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.hpp"

namespace asyncmr::async {

namespace {

/// Sender-side retry for update batches whose flow FAILED (dropped by a lossy
/// link, killed or timed out by a partition). Attempt k waits
/// min(kRetryBackoffBaseS * 2^k, kRetryBackoffMaxS) * (1 + jitter), jitter
/// uniform in [0, kRetryJitterFrac). After kMaxBatchRetries attempts the
/// batch is abandoned and the sender's delta filter is forced to re-announce
/// toward that peer instead (the repair path a peer restart uses), so no
/// update is ever silently lost. Retries draw RNG and schedule events only
/// when a flow actually fails: with all link-fault knobs off, runs stay
/// bit-identical.
constexpr uint32_t kMaxBatchRetries = 16;
constexpr double kRetryBackoffBaseS = 0.05;
constexpr double kRetryBackoffMaxS = 10.0;
constexpr double kRetryJitterFrac = 0.2;

}  // namespace

AsyncEngine::AsyncEngine(cluster::SimCluster& cluster, uint32_t num_partitions,
                         AsyncConfig config)
    : cluster_(cluster),
      num_partitions_(num_partitions),
      config_(std::move(config)),
      termination_(cluster, config_.name, config_, config_.obs.trace,
             {.size = num_partitions,
              .node_of = [this](uint32_t p) { return workers_[p].node; },
              .node_down = [this](net::NodeId n) { return NodeDownNow(n); },
              .visit = [this](uint32_t p,
                              ProgressToken& t) { VisitForToken(p, t); },
              .total_restarts = [this] { return TotalRestarts(); },
              .on_proved = [this](const ProgressToken& t) { Finish(t); }}),
      checkpoints_(cluster.dfs()) {
  // termination_ has already rejected num_partitions == 0.
  workers_.resize(num_partitions_);
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    workers_[p].node = p % cluster_.spec().num_nodes();  // round-robin
  }
}

void AsyncEngine::BuildTopology() {
  send_peers_.assign(num_partitions_, {});
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    std::vector<uint32_t> out;
    if (out_peers_) {
      out = out_peers_(p);
    } else {
      out.reserve(num_partitions_ - 1);
      for (uint32_t q = 0; q < num_partitions_; ++q) {
        if (q != p) out.push_back(q);
      }
    }
    for (uint32_t q : out) {
      AMR_CHECK(q < num_partitions_ && q != p)
          << "bad out-peer " << q << " for partition " << p;
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    send_peers_[p] = std::move(out);
  }

  if (config_.staleness_bound != kUnboundedStaleness) {
    // Symmetrize: clocks must propagate along every edge they gate, so each
    // directed peer edge carries (possibly empty) batches both ways.
    std::vector<std::vector<uint32_t>> sym = send_peers_;
    for (uint32_t p = 0; p < num_partitions_; ++p) {
      for (uint32_t q : send_peers_[p]) sym[q].push_back(p);
    }
    for (uint32_t p = 0; p < num_partitions_; ++p) {
      std::sort(sym[p].begin(), sym[p].end());
      sym[p].erase(std::unique(sym[p].begin(), sym[p].end()), sym[p].end());
    }
    send_peers_ = std::move(sym);
    clocks_.clear();
    clocks_.reserve(num_partitions_);
    for (uint32_t p = 0; p < num_partitions_; ++p) {
      clocks_.emplace_back(send_peers_[p]);
    }
    if (config_.suspicion_timeout_s > 0.0) {
      suspected_.assign(num_partitions_, {});
      suspected_count_.assign(num_partitions_, 0);
      for (uint32_t p = 0; p < num_partitions_; ++p) {
        suspected_[p].assign(clocks_[p].peers().size(), 0);
      }
    }
  }

  senders_to_.assign(num_partitions_, {});
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    for (uint32_t q : send_peers_[p]) senders_to_[q].push_back(p);
  }

  for (uint32_t p = 0; p < num_partitions_; ++p) {
    workers_[p].out.assign(send_peers_[p].size(), UpdateBatch{});
    if (config_.coalesce_batches) {
      workers_[p].links.assign(send_peers_[p].size(), Worker::PeerLink{});
    }
  }
}

bool AsyncEngine::KeepaliveDue(const Worker& w, uint32_t p) const {
  // An idle worker must take a clock-bearing iteration once a peer pulls
  // ahead of the staleness window, or lockstep peers would gate on it
  // forever.
  if (config_.staleness_bound == kUnboundedStaleness || w.capped) return false;
  if (clocks_[p].peers().empty()) return false;
  return static_cast<uint64_t>(clocks_[p].max_clock()) >
         static_cast<uint64_t>(w.stats.iterations) + config_.staleness_bound;
}

void AsyncEngine::TryStartIteration(uint32_t p) {
  if (finished()) return;
  Worker& w = workers_[p];
  if (w.phase != WorkerPhase::kIdle && w.phase != WorkerPhase::kBlocked) return;
  const bool was_blocked = w.phase == WorkerPhase::kBlocked;
  // force_iteration (granted once per peer restart, see RestoreWorker) lets
  // a capped sender take the recovery re-announce iteration the protocol
  // depends on: the cap bounds convergence work, and without this the
  // restored peer would recompute against permanently stale input.
  if (w.stats.iterations >= config_.max_iterations_per_worker &&
      !w.force_iteration) {
    if (was_blocked) EmitBlockedSpan(p);
    w.capped = true;
    w.phase = WorkerPhase::kIdle;
    return;
  }
  if (config_.staleness_bound != kUnboundedStaleness &&
      !GateAdmits(p, w.stats.iterations + 1)) {
    if (!was_blocked) {
      w.blocked_since = cluster_.now();
      ArmSuspicionTimer(p);
    }
    w.phase = WorkerPhase::kBlocked;
    return;
  }
  if (was_blocked) EmitBlockedSpan(p);
  w.phase = WorkerPhase::kWaitingSlot;
  const uint32_t epoch = w.epoch;
  const net::NodeId node = w.node;
  cluster_.AcquireSlot(node, kSlot,
                       [this, p, epoch, node] { BeginCompute(p, epoch, node); });
}

void AsyncEngine::BeginCompute(uint32_t p, uint32_t epoch,
                               net::NodeId grant_node) {
  Worker& w = workers_[p];
  if (finished()) {
    cluster_.ReleaseSlot(grant_node, kSlot);
    return;
  }
  if (w.epoch != epoch || w.phase != WorkerPhase::kWaitingSlot) {
    // The incarnation that queued this slot request died (and its
    // replacement — possibly relocated to another node — may already hold or
    // await another slot): the grant goes straight back to the node that
    // made it.
    cluster_.ReleaseSlot(grant_node, kSlot);
    return;
  }
  // Live path: relocation always bumps the epoch, so the guard above proves
  // the worker still sits on the node whose slot this grant holds.
  // An iteration forced only by the keepalive rule has no new input and an
  // already-converged state: it exists to advance the clock, so skip the
  // application compute and just carry the residual — charging a full block
  // solve would distort the async cost model.
  const bool keepalive_only =
      w.stats.iterations > 0 && !w.pending_input &&
      w.stats.last_residual < config_.convergence_threshold;

  w.phase = WorkerPhase::kComputing;
  w.pending_input = false;
  w.force_iteration = false;
  w.compute_started_at = cluster_.now();
  w.keepalive = keepalive_only;
  // Batches applied since the previous iteration are merged "now": their
  // per-record cost lands in this iteration's virtual time.
  const uint64_t merge_ops = static_cast<uint64_t>(
      std::llround(config_.merge_ops_per_record *
                   static_cast<double>(w.unmerged_records)));
  w.unmerged_records = 0;

  // The real work runs exactly once, now; its virtual duration is charged
  // from the same cost model as wave tasks. Emissions accumulate in the
  // worker's reused per-peer buffers (cleared here, capacity kept).
  for (UpdateBatch& b : w.out) b.clear();
  AsyncContext ctx;
  ctx.partition_ = p;
  ctx.iteration_ = w.stats.iterations + 1;
  ctx.peers_ = &send_peers_[p];
  ctx.slots_ = &w.out;
  if (keepalive_only) {
    ctx.residual_ = w.stats.last_residual;
  } else {
    compute_(p, ctx);
  }

  const cluster::ClusterSpec& spec = cluster_.spec();
  Rng& rng = cluster_.rng();
  double slowdown = 1.0 + spec.speed_jitter * (2.0 * rng.NextDouble() - 1.0);
  if (rng.NextBool(spec.straggler_prob)) {
    slowdown =
        rng.NextDouble(spec.straggler_slowdown_min, spec.straggler_slowdown_max);
  }
  // Per-node speed spread, background-load episodes, and gray-failure
  // episodes (the heterogeneity and sick-machine knobs) scale compute
  // exactly like they do for wave tasks. All are x1.0 identities when off.
  const double load =
      cluster_.NodeLoadFactor(w.node) * cluster_.NodeGrayFactor(w.node);

  const uint64_t ops = ctx.ops_ + merge_ops;
  const double compute_s = static_cast<double>(ops) * spec.per_op_seconds *
                           config_.compute_time_scale * slowdown * load /
                           spec.nodes[w.node].speed_factor;

  if (config_.obs.trace != nullptr && load > 1.0) {
    // A background-load episode is stretching this iteration: future-date the
    // span over the whole slowed compute so the straggling shows in traces.
    config_.obs.trace->Span("straggling", "fault", obs::kPidWorkers, p,
                            cluster_.now(), cluster_.now() + compute_s,
                            {"load", load});
  }

  const double residual = ctx.residual_;
  cluster_.queue().ScheduleAfter(
      compute_s, [this, p, epoch, ops, merge_ops, residual] {
        FinishCompute(p, epoch, ops, merge_ops, residual);
      });
}

void AsyncEngine::FinishCompute(uint32_t p, uint32_t epoch, uint64_t ops,
                                uint64_t merge_ops, double residual) {
  Worker& w = workers_[p];
  if (w.epoch != epoch) {
    // The computing incarnation crashed mid-iteration: its results die with
    // it (nothing was sent yet) and CrashWorker already freed the slot.
    return;
  }
  cluster_.ReleaseSlot(w.node, kSlot);
  ++w.stats.iterations;
  w.stats.ops += ops;
  w.stats.merge_ops += merge_ops;
  w.stats.last_residual = residual;
  w.dirty = true;
  if (config_.obs.trace != nullptr) {
    config_.obs.trace->Span(w.keepalive ? "keepalive" : "compute", "worker",
                            obs::kPidWorkers, p, w.compute_started_at,
                            cluster_.now(),
                            {"iter", static_cast<double>(w.stats.iterations)},
                            {"ops", static_cast<double>(ops)});
  }

  // Batches sit in w.out, index-aligned with the sorted send_peers_[p] (so
  // send order — and thus the DES trace — is deterministic, ascending by
  // peer as before). Each non-empty batch is moved, not copied, into its
  // network payload (or merged into the edge's pending batch when
  // coalescing); the emptied slots are reused next iteration.
  const uint32_t clock = w.stats.iterations;
  const std::vector<uint32_t>& peers = send_peers_[p];
  if (config_.staleness_bound != kUnboundedStaleness) {
    // Bounded window: every peer edge carries the new clock each iteration,
    // with an empty batch when there is no payload.
    for (size_t i = 0; i < peers.size(); ++i) {
      EmitBatch(p, i, std::move(w.out[i]), clock);
    }
  } else {
    for (size_t i = 0; i < peers.size(); ++i) {
      if (!w.out[i].empty()) EmitBatch(p, i, std::move(w.out[i]), clock);
    }
  }

  if (snapshot_ && config_.checkpoint_interval > 0 &&
      w.stats.iterations % config_.checkpoint_interval == 0) {
    TakeCheckpoint(p, /*free_write=*/false);
  }

  w.phase = WorkerPhase::kIdle;
  if (residual >= config_.convergence_threshold || w.pending_input ||
      KeepaliveDue(w, p)) {
    TryStartIteration(p);
  }
}

void AsyncEngine::OnBatchDelivered(uint32_t to, uint32_t from,
                                   uint32_t from_clock, uint32_t from_epoch,
                                   const UpdateBatch& batch, uint64_t flow_id) {
  Worker& w = workers_[to];
  if (config_.obs.trace != nullptr && flow_id != 0) {
    // Arrow head at the receiver, bound to the FlowBegin OpenFlow emitted
    // (dropped deliveries still get their arrow — the network moved the
    // bytes either way).
    config_.obs.trace->FlowEnd("batch", "net", obs::kPidWorkers, to,
                               cluster_.now(), flow_id);
  }
  // Every delivery counts as received, applied or not: the sender counted it
  // at send time, and the Safra proof needs the global sums to balance. The
  // counters belong to the node runtime, not the (crashable) worker process.
  ++w.stats.batches_received;
  AMR_IF_AUDIT(--audit_batch_flows_in_flight_;);
  w.dirty = true;
  if (w.phase == WorkerPhase::kDown) return;  // process down: delivery lost
  if (from_epoch != workers_[from].epoch) {
    // In flight when its sender crashed. The replacement's trajectory
    // supersedes this batch's content — and its delta filters do not know
    // the batch was ever sent, so applying it could never be repaired.
    return;
  }
  if (!batch.empty()) {
    // Staleness lag at apply time: how far the receiver's clock had advanced
    // past the sender's when it emitted. Negative = sender ahead.
    staleness_.Add(static_cast<double>(w.stats.iterations) -
                       static_cast<double>(from_clock));
    apply_(to, from, from_clock, from_epoch, batch);
    w.pending_input = true;
    w.unmerged_records += batch.records;
  }
  if (config_.staleness_bound != kUnboundedStaleness) {
    clocks_[to].Observe(from, from_clock);
    if (!suspected_.empty() && suspected_count_[to] > 0) {
      // Any delivery from a suspected peer clears the suspicion: the peer is
      // reachable again, so the gate resumes waiting on its real clock.
      const size_t idx = clocks_[to].IndexOf(from);
      if (suspected_[to][idx] != 0) {
        suspected_[to][idx] = 0;
        --suspected_count_[to];
        TraceWorker("peer-healed", "fault", to,
                    {"peer", static_cast<double>(from)});
      }
    }
  }
  if (finished()) return;
  if (w.phase == WorkerPhase::kBlocked ||
      (w.phase == WorkerPhase::kIdle && (w.pending_input || KeepaliveDue(w, to)))) {
    TryStartIteration(to);
  }
}

void AsyncEngine::EmitBatch(uint32_t p, size_t peer_index, UpdateBatch batch,
                            uint32_t clock) {
  Worker& w = workers_[p];
  if (config_.coalesce_batches) {
    Worker::PeerLink& link = w.links[peer_index];
    if (link.in_flight) {
      // A flow to this peer is still in the pipe: append to the pending
      // batch instead of opening another flow. Records keep emission order,
      // so a receiver applying the merged batch sees the same sequence of
      // Put()s; the merged batch carries the newest clock (Observe is a max,
      // and equal-version Puts are accepted, so skipping intermediate clock
      // stamps loses nothing).
      link.pending.payload.Append(batch.payload.data(), batch.payload.size());
      link.pending.records += batch.records;
      link.pending_clock = clock;
      link.has_pending = true;
      ++w.stats.coalesced_batches;
      w.stats.coalesced_bytes_saved += kUpdateEnvelopeBytes;
      return;
    }
    link.in_flight = true;
  }
  w.stats.records_sent += batch.records;
  OpenFlow(p, peer_index, std::make_shared<UpdateBatch>(std::move(batch)),
           clock, w.epoch, /*attempt=*/0);
}

void AsyncEngine::OpenFlow(uint32_t p, size_t peer_index,
                           std::shared_ptr<UpdateBatch> payload, uint32_t clock,
                           uint32_t epoch, uint32_t attempt) {
  Worker& w = workers_[p];
  const uint32_t q = send_peers_[p][peer_index];
  // Every wire attempt counts as sent — and every terminal outcome counts as
  // received (the receiver acks a delivery, the SENDER self-acks a failure in
  // OnFlowFailed) — so the Safra sums always balance, retries included.
  ++w.stats.batches_sent;
  AMR_IF_AUDIT(++audit_batch_flows_in_flight_;);
  const uint64_t bytes = kUpdateEnvelopeBytes + payload->payload.size();
  result_.bytes_sent += bytes;
  uint64_t fid = 0;
  if (config_.obs.trace != nullptr) {
    // Arrow tail at the sender, bound to the id Transfer is about to assign
    // (and that the network's own flow span carries).
    fid = cluster_.network().next_flow_id();
    config_.obs.trace->FlowBegin(
        "batch", "net", obs::kPidWorkers, p, cluster_.now(), fid,
        {"records", static_cast<double>(payload->records)},
        {"clock", static_cast<double>(clock)});
  }
  cluster_.network().Transfer(
      w.node, workers_[q].node, bytes,
      [this, q, p, peer_index, clock, epoch, payload, fid] {
        OnBatchDelivered(q, p, clock, epoch, *payload, fid);
        OnFlowDelivered(p, peer_index, epoch);
      },
      [this, p, peer_index, payload, clock, epoch, attempt] {
        OnFlowFailed(p, peer_index, payload, clock, epoch, attempt);
      });
}

void AsyncEngine::OnFlowFailed(uint32_t p, size_t peer_index,
                               std::shared_ptr<UpdateBatch> payload,
                               uint32_t clock, uint32_t epoch,
                               uint32_t attempt) {
  Worker& w = workers_[p];
  // Sender self-ack: this attempt reached a terminal outcome, so it balances
  // its own sent count — mirroring the dead-epoch accounting, where the
  // node runtime acks batches the process never applied.
  ++w.stats.batches_received;
  AMR_IF_AUDIT(--audit_batch_flows_in_flight_;);
  ++w.stats.flow_drops;
  w.dirty = true;
  if (finished()) return;
  if (w.epoch != epoch) return;  // dead incarnation; its restore re-announces
  const uint32_t q = send_peers_[p][peer_index];
  if (attempt + 1 < kMaxBatchRetries) {
    // Exponential backoff with jitter; the jitter draw happens only on an
    // actual retry, so fault-free runs never touch the RNG stream.
    double backoff = std::min(
        kRetryBackoffBaseS * std::pow(2.0, static_cast<double>(attempt)),
        kRetryBackoffMaxS);
    backoff *= 1.0 + kRetryJitterFrac * cluster_.rng().NextDouble();
    ++w.stats.batch_retries;
    w.stats.retry_backoff_seconds += backoff;
    ++w.pending_retries;
    TraceWorker("batch-retry", "fault", p, {"peer", static_cast<double>(q)},
                {"attempt", static_cast<double>(attempt + 1)});
    cluster_.queue().ScheduleAfter(
        backoff, [this, p, peer_index, payload, clock, epoch, attempt] {
          // The decrement is unconditional — exactly one per increment — so
          // the pending count stays exact across crashes and termination.
          --workers_[p].pending_retries;
          if (finished()) return;
          if (workers_[p].epoch != epoch) return;
          OpenFlow(p, peer_index, payload, clock, epoch, attempt + 1);
        });
    return;
  }
  // Out of retries: drop the payload and repair by force-re-announcing
  // everything q gates on — the same path a peer restart uses, so the lost
  // records are superseded rather than resent.
  ++w.stats.batches_abandoned;
  TraceWorker("batch-abandoned", "fault", p, {"peer", static_cast<double>(q)});
  OnFlowDelivered(p, peer_index, epoch);  // free the coalescing edge
  ForceSenderReannounce(p, q);
}

void AsyncEngine::ScheduleRecurring(std::function<double()> next_delay,
                                    std::function<void()> fire) {
  const double delay = next_delay();
  if (!std::isfinite(delay)) return;
  cluster_.queue().ScheduleAfter(
      delay, [this, next_delay = std::move(next_delay),
              fire = std::move(fire)]() mutable {
        if (finished()) return;
        fire();
        ScheduleRecurring(std::move(next_delay), std::move(fire));
      });
}

void AsyncEngine::ForceSenderReannounce(uint32_t p, uint32_t q) {
  Worker& w = workers_[p];
  if (on_peer_restart_) on_peer_restart_(p, q);
  if (w.phase == WorkerPhase::kDown) return;
  w.pending_input = true;
  w.dirty = true;
  if (w.capped) {
    // Un-cap for the forced re-announce iteration (also keeps the worker
    // non-quiescent until it flows); TryStartIteration re-caps afterwards.
    w.capped = false;
    w.force_iteration = true;
  }
  if (w.phase == WorkerPhase::kIdle || w.phase == WorkerPhase::kBlocked) {
    TryStartIteration(p);
  }
}


// --- peer suspicion ----------------------------------------------------------

bool AsyncEngine::GateAdmits(uint32_t p, uint32_t next_iteration) const {
  const ClockTable& table = clocks_[p];
  if (suspected_.empty() || suspected_count_[p] == 0) {
    return table.AdmitsIteration(next_iteration, config_.staleness_bound);
  }
  const int64_t need = static_cast<int64_t>(next_iteration) - 1 -
                       static_cast<int64_t>(config_.staleness_bound);
  if (need <= 0) return true;
  const std::vector<uint32_t>& clocks = table.clock_values();
  const std::vector<uint8_t>& suspected = suspected_[p];
  for (size_t i = 0; i < clocks.size(); ++i) {
    if (suspected[i] != 0) continue;  // unreachable peer: don't wait on it
    if (static_cast<int64_t>(clocks[i]) < need) return false;
  }
  return true;
}

void AsyncEngine::ArmSuspicionTimer(uint32_t p) {
  if (config_.suspicion_timeout_s <= 0.0 ||
      config_.staleness_bound == kUnboundedStaleness) {
    return;
  }
  const uint32_t epoch = workers_[p].epoch;
  const double since = workers_[p].blocked_since;
  cluster_.queue().ScheduleAfter(
      config_.suspicion_timeout_s, [this, p, epoch, since] {
        if (finished()) return;
        const Worker& w = workers_[p];
        // Only the very blocked stretch this timer was armed for counts; any
        // unblock (or crash) in between makes the timer stale.
        if (w.epoch != epoch || w.phase != WorkerPhase::kBlocked ||
            w.blocked_since != since) {
          return;
        }
        SuspectBlockingPeers(p);
      });
}

void AsyncEngine::SuspectBlockingPeers(uint32_t p) {
  Worker& w = workers_[p];
  const int64_t need = static_cast<int64_t>(w.stats.iterations) + 1 - 1 -
                       static_cast<int64_t>(config_.staleness_bound);
  if (need <= 0) return;
  const ClockTable& table = clocks_[p];
  const std::vector<uint32_t>& clocks = table.clock_values();
  bool any = false;
  for (size_t i = 0; i < clocks.size(); ++i) {
    if (suspected_[p][i] != 0) continue;
    if (static_cast<int64_t>(clocks[i]) >= need) continue;
    suspected_[p][i] = 1;
    ++suspected_count_[p];
    ++result_.peers_suspected;
    any = true;
    TraceWorker("peer-suspected", "fault", p,
                {"peer", static_cast<double>(table.peers()[i])},
                {"clock", static_cast<double>(clocks[i])});
  }
  if (any) TryStartIteration(p);
}

void AsyncEngine::OnFlowDelivered(uint32_t p, size_t peer_index,
                                  uint32_t epoch) {
  if (!config_.coalesce_batches) return;
  Worker& w = workers_[p];
  if (w.epoch != epoch) return;  // sender restarted; CrashWorker reset links
  Worker::PeerLink& link = w.links[peer_index];
  link.in_flight = false;
  if (!link.has_pending || finished()) return;
  // The pending batch was never counted sent, so the Safra sums stayed
  // balanced around it; launching it here (same event as the delivery that
  // balanced the previous flow) re-opens the sent > received window before
  // any token hop can observe the gap.
  UpdateBatch batch = std::move(link.pending);
  link.pending.clear();
  link.has_pending = false;
  EmitBatch(p, peer_index, std::move(batch), link.pending_clock);
}

// --- termination hooks -------------------------------------------------------

void AsyncEngine::VisitForToken(uint32_t p, ProgressToken& token) {
  AMR_IF_AUDIT({
    // Safra ledger-balance contract at every token visit: summed over all
    // workers, sent - received must equal the batch flows currently on the
    // wire (see AuditSafraBalance). O(P), so audit builds only.
    uint64_t audit_sent = 0;
    uint64_t audit_received = 0;
    for (const Worker& aw : workers_) {
      audit_sent += aw.stats.batches_sent;
      audit_received += aw.stats.batches_received;
    }
    AuditSafraBalance(audit_sent, audit_received, audit_batch_flows_in_flight_);
  });
  Worker& w = workers_[p];
  if (w.stats.iterations == 0) {
    // Never completed an iteration: its residual is the +inf "not yet
    // measured" sentinel, which must not leak into the aggregate. The global
    // residual is unknown for this circuit instead.
    token.residual_known = false;
  } else {
    token.residual = std::max(token.residual, w.stats.last_residual);
  }
  token.sent += w.stats.batches_sent;
  token.received += w.stats.batches_received;
  token.restarts += w.epoch;
  if (w.dirty) token.tainted = true;
  w.dirty = false;
  // A pending retry WILL re-open a flow: during its backoff gap the ledgers
  // balance (the failed attempt self-acked), so without this the circuit
  // could prove termination with an undelivered batch still owed.
  if (!QuiescentForTermination(w.phase, w.capped, w.pending_input) ||
      w.pending_retries > 0) {
    token.all_quiescent = false;
  }
}

uint32_t AsyncEngine::TotalRestarts() const {
  uint32_t n = 0;
  for (const Worker& w : workers_) n += w.epoch;
  return n;
}

void AsyncEngine::Finish(const ProgressToken& token) {
  // An unknown residual (some worker never iterated) can terminate — the
  // workers are provably done — but never *converged*.
  result_.converged =
      token.residual_known && token.residual < config_.convergence_threshold;
  result_.final_residual = token.residual;
  result_.residual_known = token.residual_known;
  result_.end_seconds = cluster_.now();
  AMR_LOG_DEBUG << "async engine '" << config_.name << "' terminated at t="
                << cluster_.now() << " converged=" << result_.converged
                << " residual=" << token.residual
                << " residual_known=" << token.residual_known;
}

AsyncResult AsyncEngine::Run() {
  AMR_CHECK(compute_) << "async engine needs a compute callback";
  AMR_CHECK(apply_) << "async engine needs an apply callback";
  AMR_CHECK(!running_) << "async engine is single-use";
  running_ = true;
  const bool crashes = cluster_.spec().worker_crash_rate > 0.0;
  const bool node_faults = cluster_.spec().node_crash_rate > 0.0 ||
                           cluster_.spec().rack_crash_rate > 0.0;
  const bool speculation = config_.speculation_factor > 0.0;
  AMR_CHECK(!(crashes || node_faults || speculation) ||
            (snapshot_ && restore_))
      << "crash injection and speculation require snapshot and restore "
      << "callbacks (checkpoint/replay is the async engine's only recovery "
      << "path, and backups incubate from checkpoints)";
  // The scan reschedules itself at now + interval: a non-positive interval
  // would re-fire at the same instant forever.
  AMR_CHECK(!speculation || config_.speculation_check_interval_s > 0.0)
      << "speculation_factor > 0 requires speculation_check_interval_s > 0 "
      << "(got " << config_.speculation_check_interval_s << ")";

  BuildTopology();
  InstallObservability();
  checkpoints_.ResetPartitions(num_partitions_);
  if (config_.checkpoint_corruption_prob > 0.0) {
    checkpoints_.set_corruption(config_.checkpoint_corruption_prob,
                                cluster_.spec().seed);
  }
  if (snapshot_) {
    // The free iteration-0 snapshot: the staged input, durable before the
    // run starts, so a worker crashing before its first checkpoint interval
    // still has a restore target.
    for (uint32_t p = 0; p < num_partitions_; ++p) {
      TakeCheckpoint(p, /*free_write=*/true);
    }
  }
  result_.start_seconds = cluster_.now();
  if (config_.obs.metrics != nullptr) {
    config_.obs.metrics->Sample(cluster_.now());  // t = start row
    // Probes only read engine state: the tick events renumber event sequence
    // ids but keep the relative firing order of all other events, so the
    // simulation stays bit-identical with metrics on or off.
    const double interval = std::max(config_.obs.metrics_interval_s, 1e-6);
    ScheduleRecurring([interval] { return interval; },
                      [this] { config_.obs.metrics->Sample(cluster_.now()); });
  }
  for (uint32_t p = 0; p < num_partitions_; ++p) TryStartIteration(p);
  ArmRecovery(crashes, node_faults, speculation);
  termination_.Start();
  cluster_.RunUntilIdle();
  AMR_CHECK(finished())
      << "async engine drained the event queue without terminating";
  if (config_.obs.metrics != nullptr) {
    config_.obs.metrics->Sample(cluster_.now());  // end-of-run row
  }

  AsyncResult& r = result_;
  r.token_circuits = termination_.circuits();
  r.tokens_lost = termination_.tokens_lost();
  r.token_regenerations = termination_.regenerations();
  r.stale_tokens_dropped = termination_.stale_dropped();
  const CheckpointStore::Stats& ckpt = checkpoints_.stats();
  r.checkpoints_written = static_cast<uint32_t>(ckpt.checkpoints_written);
  r.checkpoint_bytes = ckpt.bytes_written;
  r.checkpoint_write_seconds = ckpt.write_seconds;
  r.checkpoint_corruptions_detected = ckpt.corruptions_detected;
  r.checkpoint_writes_lost = ckpt.writes_lost;
  r.staleness_samples = staleness_.total();
  r.staleness_p50 = staleness_.Percentile(50);
  r.staleness_p95 = staleness_.Percentile(95);
  r.staleness_min = staleness_.min_seen();
  r.staleness_max = staleness_.max_seen();
  if (config_.obs.metrics != nullptr) {
    config_.obs.metrics
        ->AddHistogram("staleness_lag", Histogram(staleness_.bounds()))
        ->Merge(staleness_);
  }
  // Per-worker counters are summed exactly once, here.
  r.workers.reserve(num_partitions_);
  for (const Worker& w : workers_) {
    WorkerStats s = w.stats;
    s.restarts = w.epoch;
    s.residual_known = s.iterations > 0;
    if (!s.residual_known) s.last_residual = 0.0;
    r.total_iterations += s.iterations;
    r.total_ops += s.ops;
    r.total_merge_ops += s.merge_ops;
    r.update_batches += s.batches_sent;
    r.update_records += s.records_sent;
    r.coalesced_batches += s.coalesced_batches;
    r.coalesced_bytes_saved += s.coalesced_bytes_saved;
    r.worker_restarts += s.restarts;
    r.flow_drops += s.flow_drops;
    r.batch_retries += s.batch_retries;
    r.retry_backoff_seconds += s.retry_backoff_seconds;
    r.batches_abandoned += s.batches_abandoned;
    r.downtime_seconds += s.downtime_seconds;
    r.workers.push_back(s);
  }
  r.recoveries = static_cast<uint32_t>(downtime_.total());
  if (r.recoveries > 0) {
    r.mttr_seconds = r.downtime_seconds / static_cast<double>(r.recoveries);
    r.downtime_p95 = downtime_.Percentile(95);
  }
  return std::move(result_);
}

}  // namespace asyncmr::async
