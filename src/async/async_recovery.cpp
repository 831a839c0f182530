// AsyncEngine recovery: checkpoints, worker/node/rack crashes, relaunch,
// partition-heal re-announcement and speculative backups.
#include "async/async_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/logging.hpp"

namespace asyncmr::async {

void AsyncEngine::OnPartitionHealed(size_t window_index) {
  if (finished()) return;
  const net::Topology& topo = cluster_.network().topology();
  const net::PartitionWindow& window = topo.config().partitions[window_index];
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    for (uint32_t q : send_peers_[p]) {
      if (!topo.WindowSevers(window, workers_[p].node, workers_[q].node)) {
        continue;
      }
      ++result_.partition_heal_reannouncements;
      TraceWorker("heal-reannounce", "fault", p,
                  {"peer", static_cast<double>(q)});
      ForceSenderReannounce(p, q);
    }
  }
}

void AsyncEngine::TakeCheckpoint(uint32_t p, bool free_write) {
  Worker& w = workers_[p];
  WorkerSnapshot snap;
  snap.partition = p;
  snap.epoch = w.epoch;
  snap.iterations = w.stats.iterations;
  snap.unmerged_records = w.unmerged_records;
  snap.last_residual = w.stats.last_residual;
  if (config_.staleness_bound != kUnboundedStaleness) {
    snap.peer_clocks = clocks_[p].clock_values();
  }
  serde::Buffer app_state;
  serde::Writer app_writer(app_state);
  snapshot_(p, app_writer);
  snap.app_state.assign(reinterpret_cast<const char*>(app_state.data()),
                        app_state.size());

  serde::Buffer encoded = serde::Encode(snap);
  // Round-trip the image before the store records its CRC (and before the
  // corruption knob can touch it): see AuditCheckpointImage.
  AMR_IF_AUDIT(AuditCheckpointImage(encoded);)
  if (!free_write) {
    ++w.stats.checkpoints;
    w.stats.checkpoint_bytes += encoded.size();
    TraceWorker("checkpoint", "ckpt", p,
                {"iter", static_cast<double>(w.stats.iterations)},
                {"bytes", static_cast<double>(encoded.size())});
  }
  checkpoints_.Write(p, std::move(encoded), cluster_.now(), free_write);
}

void AsyncEngine::ArmRecovery(bool crashes, bool node_faults,
                              bool speculation) {
  const uint32_t nodes = cluster_.spec().num_nodes();
  if (node_faults || speculation) {
    // The relaunch/speculation placement ledger. Sized lazily so plain runs
    // never pay for it (and NodeDownNow stays a trivial `empty()` no).
    node_down_until_.assign(nodes, 0.0);
    node_worker_count_.assign(nodes, 0);
    for (const Worker& w : workers_) ++node_worker_count_[w.node];
  }
  // Poisson crash chains. They keep drawing while their target is down — a
  // crash landing on a dead process or machine is skipped, not deferred — so
  // fault pressure is memoryless.
  if (crashes) {
    for (uint32_t p = 0; p < num_partitions_; ++p) {
      ScheduleRecurring([this] { return cluster_.NextWorkerCrashDelay(); },
                        [this, p] {
                          if (workers_[p].phase != WorkerPhase::kDown) {
                            CrashWorker(p, /*node_failure=*/false);
                          }
                        });
    }
  }
  if (node_faults) {
    for (net::NodeId n = 0; n < nodes; ++n) {
      ScheduleRecurring([this] { return cluster_.NextNodeCrashDelay(); },
                        [this, n] {
                          if (!NodeDownNow(n)) OnNodeCrash(n);
                        });
    }
    const uint32_t racks = cluster_.network().topology().num_racks();
    for (uint32_t r = 0; r < racks; ++r) {
      ScheduleRecurring([this] { return cluster_.NextRackCrashDelay(); },
                        [this, r] { OnRackCrash(r); });
    }
  }
  if (speculation) {
    backups_.assign(num_partitions_, {});
    iters_at_scan_.assign(num_partitions_, 0);
    last_scan_time_ = cluster_.now();
    ScheduleRecurring(
        [this] { return config_.speculation_check_interval_s; },
        [this] { SpeculationScan(); });
  }
  // Partition-heal boundary re-announcements: at each window's end every
  // send edge the window severed re-announces, riding the force-resend path.
  const auto& windows = cluster_.network().topology().config().partitions;
  for (size_t i = 0; i < windows.size(); ++i) {
    if (windows[i].end_s <= cluster_.now()) continue;  // healed before Run
    cluster_.queue().Schedule(windows[i].end_s,
                              [this, i] { OnPartitionHealed(i); });
  }
}

void AsyncEngine::FenceWorker(uint32_t p) {
  Worker& w = workers_[p];
  ++w.epoch;  // in-flight batches/grants/completions of the old epoch die
  if (w.phase == WorkerPhase::kComputing) {
    // Process death frees the slot immediately; the scheduled FinishCompute
    // sees the epoch bump and drops out. A kWaitingSlot grant returns its
    // slot when it fires (BeginCompute's epoch guard).
    cluster_.ReleaseSlot(w.node, kSlot);
  }
  w.phase = WorkerPhase::kDown;
  w.pending_input = false;
  w.force_iteration = false;
  w.unmerged_records = 0;
  w.dirty = true;  // taints any in-progress token circuit
  // Coalescing state dies with the process: pending batches were never
  // counted sent (the recovery re-announcement supersedes them), and the
  // in-flight flags belong to dead-epoch flows whose landing callbacks will
  // see the epoch bump and leave the restored links alone.
  for (Worker::PeerLink& link : w.links) {
    link.in_flight = false;
    link.has_pending = false;
    link.pending.clear();
  }
}

void AsyncEngine::CrashWorker(uint32_t p, bool node_failure) {
  Worker& w = workers_[p];
  const WorkerPhase phase_at_crash = w.phase;
  FenceWorker(p);

  const double now = cluster_.now();
  w.down_since = now;
  if (!node_failure) {
    // The dying incarnation's own write pipeline is aborted cleanly. In the
    // node-failure case OnNodeCrash already marked those writes LOST (the
    // durability, not just the incarnation, died with the machine).
    checkpoints_.AbortPending(p, now);
  }
  if (NodeDownNow(w.node)) {
    // The host machine is gone: relaunch on the best surviving node. When no
    // node survives, stay put — RestoreWorker defers until the first repair.
    const std::optional<net::NodeId> target = PickRelaunchNode(w.node);
    if (target.has_value()) MoveWorker(p, *target);
  }
  // Verified pick: a corrupt newest snapshot is detected (and quarantined)
  // here, falling back to the previous retained one — the pinned free
  // initial snapshot is never corrupted, so a restore target always exists.
  const serde::Buffer* snapshot = checkpoints_.LatestDurableVerified(p, now);
  AMR_CHECK(snapshot != nullptr)
      << "worker " << p << " crashed with no durable checkpoint (the engine "
      << "writes a free initial snapshot at Run)";
  const double restart_delay = cluster_.spec().worker_restart_delay_s;
  const double delay = restart_delay + checkpoints_.ReadSeconds(*snapshot);
  result_.recovery_seconds += delay;
  if (config_.obs.trace != nullptr) {
    // The outage is future-dated at crash time: its length is already
    // deterministic here, and this way a run that terminates mid-recovery
    // still shows the outage that was in progress.
    if (phase_at_crash == WorkerPhase::kBlocked) EmitBlockedSpan(p);
    config_.obs.trace->Instant("crash", "fault", obs::kPidWorkers, p, now,
                               {"epoch", static_cast<double>(w.epoch)});
    config_.obs.trace->Span("down", "fault", obs::kPidWorkers, p, now,
                            now + restart_delay);
    config_.obs.trace->Span("recovering", "fault", obs::kPidWorkers, p,
                            now + restart_delay, now + delay);
  }
  AMR_LOG_DEBUG << "async worker " << p << " crashed at t=" << now
                << "; restoring in " << delay << " s (epoch " << w.epoch << ")";
  const uint32_t epoch = w.epoch;
  cluster_.queue().ScheduleAfter(delay,
                                 [this, p, epoch] { RestoreWorker(p, epoch); });
}

void AsyncEngine::RestoreWorker(uint32_t p, uint32_t epoch) {
  if (finished()) return;
  Worker& w = workers_[p];
  if (w.epoch != epoch || w.phase != WorkerPhase::kDown) return;

  if (NodeDownNow(w.node)) {
    // The host died (again) while the worker was mid-recovery. Relaunch on a
    // survivor if one exists; with the whole cluster down, defer the restore
    // to the earliest repair (only genuinely-future repair times qualify —
    // up nodes hold stale past values).
    const std::optional<net::NodeId> target = PickRelaunchNode(w.node);
    if (!target.has_value()) {
      double wake = std::numeric_limits<double>::infinity();
      for (double until : node_down_until_) {
        if (until > cluster_.now()) wake = std::min(wake, until);
      }
      AMR_CHECK(std::isfinite(wake));  // w.node itself is down
      cluster_.queue().Schedule(wake,
                                [this, p, epoch] { RestoreWorker(p, epoch); });
      return;
    }
    MoveWorker(p, *target);
  }

  // The crash froze the restore target (the in-flight writes were aborted or
  // marked lost, CrashWorker's verified pick quarantined anything corrupt,
  // and nothing new was written while down).
  const serde::Buffer* encoded =
      checkpoints_.LatestDurableVerified(p, cluster_.now());
  AMR_CHECK(encoded != nullptr);

  const double downtime = cluster_.now() - w.down_since;
  w.stats.downtime_seconds += downtime;
  downtime_.Add(downtime);  // one sample per completed recovery

  RestoreFromImage(p, *encoded);
}

void AsyncEngine::RestoreFromImage(uint32_t p, const serde::Buffer& encoded) {
  Worker& w = workers_[p];
  auto snap = serde::Decode<WorkerSnapshot>(encoded);
  AMR_CHECK(snap.ok()) << "corrupt worker checkpoint: "
                       << snap.status().ToString();
  AMR_CHECK_EQ(snap.value().partition, p);

  serde::Reader app_reader(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(snap.value().app_state.data()),
      snap.value().app_state.size()));
  restore_(p, app_reader);

  w.stats.iterations = snap.value().iterations;
  w.unmerged_records = snap.value().unmerged_records;
  w.stats.last_residual = snap.value().last_residual;
  w.dirty = true;
  w.capped = false;  // recomputed against the rolled-back clock
  // Force a full recompute whatever the snapshot held: input delivered after
  // the checkpoint was lost with the process, and the re-announcements below
  // arrive with arbitrary delay.
  w.pending_input = true;
  w.phase = WorkerPhase::kIdle;

  if (config_.staleness_bound != kUnboundedStaleness) {
    ClockTable& table = clocks_[p];
    table.RestoreClockValues(snap.value().peer_clocks);
    // Master-assisted refresh: the snapshot's view of peers may lag far
    // enough that the SSP gate blocks on peers that converged and went
    // silent (they only re-announce once — below — which advances their
    // clock by a single tick), or may be INFLATED relative to a peer that
    // itself rolled back since the snapshot was taken. The control plane
    // knows every worker's true clock, so set (not monotone-observe) each
    // entry; a real implementation would fetch these from the master on
    // restart. A peer that is currently down still reads as its pre-crash
    // clock here — its own restore resets everyone's view of it below.
    for (uint32_t q : table.peers()) {
      table.Reset(q, workers_[q].stats.iterations);
    }
  }

  // Peers: their gating view of p must reflect the rollback, their app-level
  // view of p's dead epochs must be dropped/re-announced, and each sender to
  // p takes one forced iteration so the re-announcement actually flows even
  // if it had converged and parked — or capped out (force_iteration bypasses
  // the cap once; a capped worker that stays silent would leave p computing
  // against permanently stale input). A sender that is itself down is
  // skipped: its own restore re-announces to every peer anyway.
  for (uint32_t q : senders_to_[p]) {
    if (config_.staleness_bound != kUnboundedStaleness) {
      clocks_[q].Reset(p, w.stats.iterations);
    }
    ForceSenderReannounce(q, p);
  }

  TraceWorker("restored", "fault", p,
              {"iter", static_cast<double>(w.stats.iterations)},
              {"epoch", static_cast<double>(w.epoch)});
  AMR_LOG_DEBUG << "async worker " << p << " restored at t=" << cluster_.now()
                << " to iteration " << w.stats.iterations << " (epoch "
                << w.epoch << ")";
  TryStartIteration(p);
}

// --- node-level failure domains ----------------------------------------------

bool AsyncEngine::NodeDownNow(net::NodeId node) const {
  return !node_down_until_.empty() && cluster_.now() < node_down_until_[node];
}

void AsyncEngine::OnNodeCrash(net::NodeId node) {
  const double now = cluster_.now();
  node_down_until_[node] = now + cluster_.spec().node_repair_s;
  ++result_.node_crashes;
  AMR_IF_AUDIT({
    // Node-ledger contract: the cached resident count this crash is about to
    // act on must match a fresh placement scan (see AuditNodeLedger).
    uint32_t resident = 0;
    for (const Worker& aw : workers_) resident += aw.node == node ? 1 : 0;
    AuditNodeLedger(resident, node_worker_count_[node]);
  });
  if (config_.obs.trace != nullptr) {
    config_.obs.trace->Instant("node-crash", "fault", obs::kPidControl, node,
                               now,
                               {"repair_s", cluster_.spec().node_repair_s});
  }
  AMR_LOG_DEBUG << "node " << node << " crashed at t=" << now << " (repair "
                << cluster_.spec().node_repair_s << " s)";
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    Worker& w = workers_[p];
    if (w.node != node || w.phase == WorkerPhase::kDown) continue;
    // The machine's write-behind DFS pipeline dies first: this worker's
    // in-flight checkpoint writes are LOST (never restorable), not merely
    // aborted — recovery falls back through the keep-last-two chain to the
    // newest image that actually flushed.
    checkpoints_.MarkPendingLost(p, now);
    CrashWorker(p, /*node_failure=*/true);
  }
}

void AsyncEngine::OnRackCrash(uint32_t rack) {
  ++result_.rack_crash_episodes;
  const uint32_t npr = cluster_.network().topology().config().nodes_per_rack;
  const uint32_t n = cluster_.spec().num_nodes();
  if (config_.obs.trace != nullptr) {
    config_.obs.trace->Instant("rack-crash", "fault", obs::kPidControl, rack,
                               cluster_.now());
  }
  const uint32_t first = rack * npr;
  for (net::NodeId node = first; node < std::min(first + npr, n); ++node) {
    if (!NodeDownNow(node)) OnNodeCrash(node);
  }
}

std::optional<net::NodeId> AsyncEngine::PickRelaunchNode(
    net::NodeId avoid) const {
  std::optional<net::NodeId> best;
  const std::vector<cluster::NodeSpec>& nodes = cluster_.spec().nodes;
  for (net::NodeId n = 0; n < cluster_.spec().num_nodes(); ++n) {
    if (n == avoid || NodeDownNow(n)) continue;
    if (!best.has_value()) {
      best = n;
      continue;
    }
    // Strictly-better replacement: ties keep the lowest node id.
    if (nodes[n].speed_factor > nodes[*best].speed_factor ||
        (nodes[n].speed_factor == nodes[*best].speed_factor &&
         node_worker_count_[n] < node_worker_count_[*best])) {
      best = n;
    }
  }
  return best;
}

void AsyncEngine::MoveWorker(uint32_t p, net::NodeId target) {
  Worker& w = workers_[p];
  if (w.node == target) return;
  AMR_CHECK(!node_worker_count_.empty());
  --node_worker_count_[w.node];
  ++node_worker_count_[target];
  TraceWorker("relaunch", "fault", p, {"from", static_cast<double>(w.node)},
              {"to", static_cast<double>(target)});
  AMR_LOG_DEBUG << "worker " << p << " relaunching on node " << target
                << " (was " << w.node << ")";
  w.node = target;
}

// --- speculative backup workers ----------------------------------------------

void AsyncEngine::SpeculationScan() {
  const double now = cluster_.now();
  const double dt = now - last_scan_time_;
  if (dt <= 0.0) return;
  last_scan_time_ = now;

  // Iteration rates observed since the previous scan. Restores roll clocks
  // back, so the delta is computed in doubles and clamped at zero — an
  // unsigned wrap would read as an absurdly fast worker.
  std::vector<double> rates(num_partitions_, 0.0);
  std::vector<double> live_rates;
  live_rates.reserve(num_partitions_);
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    const Worker& w = workers_[p];
    rates[p] = std::max(0.0, static_cast<double>(w.stats.iterations) -
                                 static_cast<double>(iters_at_scan_[p])) /
               dt;
    iters_at_scan_[p] = w.stats.iterations;
    if (w.phase != WorkerPhase::kDown && !w.capped && rates[p] > 0.0) {
      live_rates.push_back(rates[p]);
    }
  }
  // The median yardstick needs a quorum of progressing workers, like the
  // wave engine's median-completed-duration rule needs completed tasks.
  if (live_rates.size() < 3) return;
  std::nth_element(live_rates.begin(), live_rates.begin() + live_rates.size() / 2,
                   live_rates.end());
  const double median = live_rates[live_rates.size() / 2];
  if (median <= 0.0) return;

  for (uint32_t p = 0; p < num_partitions_; ++p) {
    const Worker& w = workers_[p];
    if (backups_[p].active) continue;  // one incubating backup per partition
    // Not a straggler candidate: down (crash recovery owns it), gate-blocked
    // (a replica would block on the same peers), capped, or converged and
    // parked (zero rate by design).
    if (w.phase == WorkerPhase::kDown || w.phase == WorkerPhase::kBlocked ||
        w.capped) {
      continue;
    }
    if (w.phase == WorkerPhase::kIdle && !w.pending_input &&
        w.stats.last_residual < config_.convergence_threshold) {
      continue;
    }
    if (rates[p] * config_.speculation_factor >= median) continue;
    LaunchBackup(p);
  }
}

void AsyncEngine::LaunchBackup(uint32_t p) {
  const serde::Buffer* snapshot =
      checkpoints_.LatestDurableVerified(p, cluster_.now());
  if (snapshot == nullptr) return;  // nothing durable to seed a replica from
  const std::optional<net::NodeId> target = PickRelaunchNode(workers_[p].node);
  if (!target.has_value()) return;  // no other live node to host it
  Backup& b = backups_[p];
  b.active = true;
  ++b.seq;
  b.launch_iters = workers_[p].stats.iterations;
  b.launch_epoch = workers_[p].epoch;
  b.target = *target;
  // COPY the image: the store prunes and quarantines slots underneath any
  // long-lived pointer, and the straggler may checkpoint again meanwhile.
  b.image = *snapshot;
  ++result_.speculative_launches;
  TraceWorker("backup-launch", "spec", p,
              {"target", static_cast<double>(*target)},
              {"iter", static_cast<double>(b.launch_iters)});
  // Incubation = replacement spawn + checkpoint read, the same recovery cost
  // a crash pays. First to progress wins; the check happens at readiness.
  const double incubate = cluster_.spec().worker_restart_delay_s +
                          checkpoints_.ReadSeconds(b.image);
  const uint32_t seq = b.seq;
  cluster_.queue().ScheduleAfter(incubate,
                                 [this, p, seq] { OnBackupReady(p, seq); });
}

void AsyncEngine::OnBackupReady(uint32_t p, uint32_t seq) {
  if (finished()) return;
  Backup& b = backups_[p];
  if (!b.active || b.seq != seq) return;
  b.active = false;
  Worker& w = workers_[p];
  // First to progress wins. The straggler wins by advancing its clock or by
  // having gone through a crash/restore (new epoch — the recovery already
  // re-announced, and this image may predate it); the backup also loses if
  // its target node has since died.
  const bool straggler_progressed =
      w.epoch != b.launch_epoch || w.stats.iterations > b.launch_iters;
  if (straggler_progressed || w.phase == WorkerPhase::kDown ||
      NodeDownNow(b.target)) {
    ++result_.speculative_losses;
    TraceWorker("backup-lost", "spec", p);
    b.image = serde::Buffer{};
    return;
  }
  // The backup wins: fence the straggler out of the epoch (its in-flight
  // batches and events die as dead-epoch, exactly like a crash) and bring
  // the replica up in its place — no downtime, the replacement is live now.
  ++result_.speculative_wins;
  TraceWorker("backup-win", "spec", p,
              {"target", static_cast<double>(b.target)});
  AMR_LOG_DEBUG << "speculative backup for worker " << p << " wins at t="
                << cluster_.now() << "; fencing straggler on node " << w.node;
  FenceWorker(p);
  MoveWorker(p, b.target);
  RestoreFromImage(p, b.image);
  b.image = serde::Buffer{};
}

}  // namespace asyncmr::async
