// One boundary-exchange layer for the graph apps on the async engine.
//
// In the paper's partial-synchronization model the only traffic between
// partitions is the values on cut edges. BoundaryExchange owns one
// partition's side of that exchange:
//  * its outgoing cut edges, grouped by receiving peer in ascending peer
//    order (also the engine's out-peer list);
//  * per group, a dense delta filter: the last value pushed to each distinct
//    target, indexed by the target's ordinal (its rank among the group's
//    distinct targets), starting at kNeverSent;
//  * the recovery re-announcement, which resets filter entries to
//    kNeverSent: ForceResend() after a restore, ForceResendTo(peer) when the
//    engine asks for a re-announce toward one peer. A filter cleared to zero
//    would not do: a value within the send threshold of zero would stay
//    silent while the peer holds a stale dead-epoch value.
// InstallBoundaryExchange sets all three recovery hooks in one call, so no
// app can forget one.
//
// The edge type fixes a group's layout. CutEdge groups are sorted by
// (target, source), so each target's contributions fold in one pass
// (PushFolded: sums for PageRank and Jacobi, minima for Components).
// WeightedCutEdge groups keep the app's build order (PushPerEdge: SSSP's
// source-major order, one candidate per edge).
//
// AdditiveExchange adds what PageRank and Jacobi share: the receivers' views
// and summed contributions, the block solve, apply, snapshot and restore.
// Apps pass their math as lambdas into templates, so no std::function or
// virtual call runs per target or per record.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <type_traits>
#include <utility>
#include <vector>

#include "async/async_engine.hpp"
#include "async/state_store.hpp"
#include "common/check.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "serde/serde.hpp"

namespace asyncmr::apps {

/// A cut edge of a target-folded group (PushFolded). `source` is whatever
/// the app's contribution reads: a local member index or a vertex id.
struct CutEdge {
  graph::VertexId target = 0;
  uint32_t source = 0;
};

/// A weighted cut edge, one candidate per edge in build order (SSSP,
/// PushPerEdge).
struct WeightedCutEdge {
  graph::VertexId source = 0;
  graph::VertexId target = 0;
  double weight = 0.0;
};

template <typename Edge, typename Value = double>
class BoundaryExchange {
 public:
  /// The layout the edge type fixes (see file comment).
  static constexpr bool kFoldsByTarget = std::is_same_v<Edge, CutEdge>;

  /// Filter entry of a target not pushed since the last (re)start: every
  /// delta filter in src/apps/ passes a value against it.
  static constexpr Value kNeverSent =
      std::numeric_limits<Value>::has_infinity
          ? std::numeric_limits<Value>::infinity()
          : std::numeric_limits<Value>::max();

  struct Group {
    uint32_t peer = 0;
    std::vector<Edge> edges;
    /// Per-edge groups only: per edge, its target's ordinal in `sent`.
    std::vector<uint32_t> ordinal;
    /// Delta filter: the last value pushed per target ordinal.
    std::vector<Value> sent;
  };

  BoundaryExchange() = default;

  /// Groups `by_peer`'s cut edges; a std::map yields ascending peer order.
  explicit BoundaryExchange(std::map<uint32_t, std::vector<Edge>> by_peer) {
    groups_.reserve(by_peer.size());
    for (auto& [peer, edges] : by_peer) {
      Group group;
      group.peer = peer;
      group.edges = std::move(edges);
      std::vector<graph::VertexId> targets;
      targets.reserve(group.edges.size());
      for (const Edge& e : group.edges) targets.push_back(e.target);
      std::sort(targets.begin(), targets.end());
      targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
      if constexpr (kFoldsByTarget) {
        std::sort(group.edges.begin(), group.edges.end(),
                  [](const Edge& a, const Edge& b) {
                    return a.target != b.target ? a.target < b.target
                                                : a.source < b.source;
                  });
      } else {
        group.ordinal.reserve(group.edges.size());
        for (const Edge& e : group.edges) {
          group.ordinal.push_back(static_cast<uint32_t>(
              std::lower_bound(targets.begin(), targets.end(), e.target) -
              targets.begin()));
        }
      }
      group.sent.assign(targets.size(), kNeverSent);
      groups_.push_back(std::move(group));
    }
  }

  const std::vector<Group>& groups() const { return groups_; }

  /// The receiving peers, ascending: the engine's out-peer list.
  std::vector<uint32_t> OutPeers() const {
    std::vector<uint32_t> peers;
    peers.reserve(groups_.size());
    for (const Group& group : groups_) peers.push_back(group.peer);
    return peers;
  }

  /// Records `value` as the last push to every target of every group.
  void AssumeSent(Value value) {
    for (Group& group : groups_) {
      std::fill(group.sent.begin(), group.sent.end(), value);
    }
  }

  /// Re-announces every target of every group on the next push (restore).
  void ForceResend() { AssumeSent(kNeverSent); }

  /// Re-announces every target of `peer`'s group on the next push; a no-op
  /// when this partition has no cut edge to `peer`.
  void ForceResendTo(uint32_t peer) {
    const auto it = std::lower_bound(
        groups_.begin(), groups_.end(), peer,
        [](const Group& group, uint32_t q) { return group.peer < q; });
    if (it != groups_.end() && it->peer == peer) {
      std::fill(it->sent.begin(), it->sent.end(), kNeverSent);
    }
  }

  /// Folds a target-sorted group per distinct target: calls sink(ordinal,
  /// target, combine(...combine(init, contrib(e0))..., contrib(ek))) once per
  /// target, in ascending target (= ordinal) order. Seeding and pushing must
  /// fold identically or the senders' filters desynchronize from the
  /// receivers' state.
  template <typename Contrib, typename Combine, typename Sink>
  static void FoldTargets(const Group& group, Value init, Contrib contrib,
                          Combine combine, Sink sink) {
    static_assert(kFoldsByTarget, "only CutEdge groups are sorted by target");
    const std::vector<Edge>& edges = group.edges;
    size_t ordinal = 0;
    for (size_t e = 0; e < edges.size(); ++ordinal) {
      const graph::VertexId t = edges[e].target;
      Value acc = init;
      for (; e < edges.size() && edges[e].target == t; ++e) {
        acc = combine(acc, contrib(edges[e]));
      }
      sink(ordinal, t, acc);
    }
  }

  /// Records every target's folded value as sent, without a filter, and
  /// hands it to sink(peer, target, value): the seed of a synchronized round
  /// zero, whose receivers take the values directly.
  template <typename Contrib, typename Combine, typename Sink>
  void SeedFolded(Value init, Contrib contrib, Combine combine, Sink sink) {
    for (Group& group : groups_) {
      FoldTargets(group, init, contrib, combine,
                  [&](size_t k, graph::VertexId t, Value value) {
                    group.sent[k] = value;
                    sink(group.peer, t, value);
                  });
    }
  }

  /// One delta-filtered push over every group: each target's folded value
  /// goes out, via emit(peer, target, value), iff changed(value, last
  /// sent); it is then recorded as sent. Returns the cut edges visited.
  template <typename Contrib, typename Combine, typename Changed, typename Emit>
  uint64_t PushFolded(Value init, Contrib contrib, Combine combine,
                      Changed changed, Emit emit) {
    uint64_t visited = 0;
    for (Group& group : groups_) {
      FoldTargets(group, init, contrib, combine,
                  [&](size_t k, graph::VertexId t, Value value) {
                    if (Admit(group.sent[k], value, changed)) {
                      emit(group.peer, t, value);
                    }
                  });
      visited += group.edges.size();
    }
    return visited;
  }

  /// One delta-filtered push over every group, edge by edge in build
  /// order: value_of(edge) goes out iff changed(value, last sent to the
  /// edge's target). Returns the cut edges visited.
  template <typename ValueOf, typename Changed, typename Emit>
  uint64_t PushPerEdge(ValueOf value_of, Changed changed, Emit emit) {
    static_assert(!kFoldsByTarget, "CutEdge groups push through PushFolded");
    uint64_t visited = 0;
    for (Group& group : groups_) {
      for (size_t e = 0; e < group.edges.size(); ++e) {
        const Value value = value_of(group.edges[e]);
        if (Admit(group.sent[group.ordinal[e]], value, changed)) {
          emit(group.peer, group.edges[e].target, value);
        }
      }
      visited += group.edges.size();
    }
    return visited;
  }

 private:
  template <typename Changed>
  static bool Admit(Value& sent, Value value, Changed changed) {
    if (!changed(value, sent)) return false;
    sent = value;
    return true;
  }

  std::vector<Group> groups_;
};

/// Installs the boundary exchange's recovery wiring on `engine` (an
/// async::AsyncEngine, or a test's stand-in with the same three setters),
/// with exchange_of(p) returning partition p's BoundaryExchange:
///  * out-peers are the cut-edge groups' peers;
///  * restore runs the app's `restore`, then re-announces every group;
///  * the peer-restart hook forces the filter toward that one peer.
template <typename Engine, typename ExchangeOf, typename RestoreFn>
void InstallBoundaryExchange(Engine& engine, ExchangeOf exchange_of,
                             RestoreFn restore) {
  engine.set_out_peers(
      [exchange_of](uint32_t p) { return exchange_of(p).OutPeers(); });
  engine.set_restore([exchange_of, restore](uint32_t p, serde::Reader& r) {
    restore(p, r);
    // The receivers' views of this partition belong to the dead epoch.
    exchange_of(p).ForceResend();
  });
  engine.set_on_peer_restart([exchange_of](uint32_t p, uint32_t peer) {
    exchange_of(p).ForceResendTo(peer);
  });
}

/// The exchange of an additive app: partition p iterates x = update(i,
/// internal sum, ext) over its sub-graph with ext, the summed contributions
/// its in-peers pushed, frozen; then pushes each cut target's contribution
/// sum through the delta filter as an `Update{target, sum}`. Receivers keep
/// the latest sum per (sender, target) in a StateStore, so an out-of-order or
/// dead-epoch record is rejected, and fold each replacement into ext.
template <typename Update>
class AdditiveExchange {
 public:
  struct Part {
    std::vector<graph::VertexId> members;
    // Internal adjacency in local indices (the partition's sub-graph).
    std::vector<std::vector<uint32_t>> internal_targets;
    uint64_t internal_edges = 0;
    BoundaryExchange<CutEdge> exchange;  // sources are local indices
    std::vector<double> x;    // the iterate, per member
    std::vector<double> ext;  // per member: summed in-peer contributions
    async::StateStore<double> store;  // latest sum per (sender, target)
    // Block-solve scratch, reused across iterations.
    std::vector<double> before, acc, next;
  };

  struct LocalSolve {
    uint32_t max_sweeps = 0;
    double tolerance = 0.0;  // stop sweeping once a sweep moves x less
    double send_eps = 0.0;   // sum changes up to this are not re-pushed
  };

  AdditiveExchange(const graph::Digraph& g, const graph::Partitioning& partitioning,
                   double x0, LocalSolve solve)
      : solve_(solve), local_of_(g.num_vertices()), parts_(partitioning.num_parts) {
    const uint32_t num_parts = partitioning.num_parts;
    auto members = partitioning.Members();
    // Partitions are disjoint, so one vertex -> local index array serves all.
    for (uint32_t p = 0; p < num_parts; ++p) {
      for (uint32_t i = 0; i < members[p].size(); ++i) local_of_[members[p][i]] = i;
    }
    std::vector<std::vector<uint32_t>> in_peers(num_parts);
    for (uint32_t p = 0; p < num_parts; ++p) {
      Part& part = parts_[p];
      part.members = std::move(members[p]);
      const uint32_t m = static_cast<uint32_t>(part.members.size());
      part.internal_targets.resize(m);
      part.x.assign(m, x0);
      part.ext.assign(m, 0.0);
      part.before.resize(m);
      part.acc.resize(m);
      part.next.resize(m);
      std::map<uint32_t, std::vector<CutEdge>> cut;
      for (uint32_t i = 0; i < m; ++i) {
        for (graph::VertexId t : g.OutNeighbors(part.members[i])) {
          const uint32_t q = partitioning.part_of[t];
          if (q == p) {
            part.internal_targets[i].push_back(local_of_[t]);
            ++part.internal_edges;
          } else {
            cut[q].push_back({t, i});
          }
        }
      }
      part.exchange = BoundaryExchange<CutEdge>(std::move(cut));
      for (uint32_t q : part.exchange.OutPeers()) in_peers[q].push_back(p);
    }
    for (uint32_t p = 0; p < num_parts; ++p) {
      parts_[p].store = async::StateStore<double>(std::move(in_peers[p]));
    }
  }

  // The engine hooks Install sets capture `this`.
  AdditiveExchange(const AdditiveExchange&) = delete;
  AdditiveExchange& operator=(const AdditiveExchange&) = delete;

  Part& part(uint32_t p) { return parts_[p]; }

  /// Seeds partition p's outgoing sums at the initial iterate: each target's
  /// sum of contrib(source) is recorded as sent and put into the receiver's
  /// view and ext at clock 0, as a synchronized round zero would leave them.
  /// Call for p ascending; receivers sum their ext in that order.
  template <typename Contrib>
  void Seed(uint32_t p, Contrib contrib) {
    parts_[p].exchange.SeedFolded(
        0.0, [&](const CutEdge& e) { return contrib(e.source); }, std::plus<>(),
        [&](uint32_t q, graph::VertexId t, double sum) {
          Part& peer = parts_[q];
          peer.store.Put(p, t, sum, /*clock=*/0);
          peer.ext[local_of_[t]] += sum;
        });
  }

  /// One engine iteration of partition p: block-solve to local convergence
  /// (the paper's lmap/lreduce loop, computed directly), report the change
  /// as the residual, then push the refreshed sums. contrib(i) is what
  /// member i sends along each out-edge at the current x; update(i, acc,
  /// ext) is member i's next value from its internal and external sums.
  template <typename Contrib, typename UpdateFn>
  void Iterate(uint32_t p, async::AsyncContext& ctx, Contrib contrib,
               UpdateFn update) {
    Part& part = parts_[p];
    const uint32_t m = static_cast<uint32_t>(part.members.size());
    if (m == 0) return;
    part.before = part.x;
    uint64_t ops = 0;
    for (uint32_t sweep = 0; sweep < solve_.max_sweeps; ++sweep) {
      std::fill(part.acc.begin(), part.acc.end(), 0.0);
      for (uint32_t i = 0; i < m; ++i) {
        const double c = contrib(i);
        for (uint32_t t : part.internal_targets[i]) part.acc[t] += c;
      }
      double sweep_residual = 0.0;
      for (uint32_t i = 0; i < m; ++i) {
        part.next[i] = update(i, part.acc[i], part.ext[i]);
        sweep_residual = std::max(sweep_residual, std::abs(part.next[i] - part.x[i]));
      }
      part.x.swap(part.next);
      ops += part.internal_edges + 2 * m;
      if (sweep_residual < solve_.tolerance) break;
    }

    double residual = 0.0;
    for (uint32_t i = 0; i < m; ++i) {
      residual = std::max(residual, std::abs(part.x[i] - part.before[i]));
    }
    ctx.set_residual(residual);

    const double eps = solve_.send_eps;
    ops += part.exchange.PushFolded(
        0.0, [&](const CutEdge& e) { return contrib(e.source); }, std::plus<>(),
        [eps](double sum, double sent) { return std::abs(sum - sent) > eps; },
        [&](uint32_t peer, graph::VertexId t, double sum) {
          ctx.Emit(peer, Update{t, sum});
        });
    ctx.AddOps(ops);
  }

  /// Installs apply, snapshot, restore and the boundary-exchange hooks. The
  /// app installs its own compute, calling Iterate.
  void Install(async::AsyncEngine& engine) {
    engine.set_apply([this](uint32_t p, uint32_t from, uint32_t from_clock,
                            uint32_t from_epoch, const async::UpdateBatch& batch) {
      Part& part = parts_[p];
      part.store.ObserveClock(from, from_clock);
      async::ForEachUpdate<Update>(batch, [&](const Update& u) {
        const auto& [vertex, sum] = u;
        const auto put = part.store.Put(from, vertex, sum, from_clock, from_epoch);
        if (!put.applied) return;  // out-of-order stale delivery
        part.ext[local_of_[vertex]] += sum - put.replaced.value_or(0.0);
      });
    });
    engine.set_snapshot([this](uint32_t p, serde::Writer& w) {
      const Part& part = parts_[p];
      serde::Serde<std::vector<double>>::Write(w, part.x);
      serde::Serde<std::vector<double>>::Write(w, part.ext);
      part.store.SnapshotTo(w);
    });
    InstallBoundaryExchange(
        engine,
        [this](uint32_t p) -> BoundaryExchange<CutEdge>& { return parts_[p].exchange; },
        [this](uint32_t p, serde::Reader& r) {
          Part& part = parts_[p];
          AMR_CHECK(serde::Serde<std::vector<double>>::Read(r, part.x).ok());
          AMR_CHECK(serde::Serde<std::vector<double>>::Read(r, part.ext).ok());
          AMR_CHECK(part.store.RestoreFrom(r).ok());
        });
  }

  /// The iterate in global vertex order.
  std::vector<double> Gather() const {
    std::vector<double> out(local_of_.size());
    for (const Part& part : parts_) {
      for (size_t i = 0; i < part.members.size(); ++i) out[part.members[i]] = part.x[i];
    }
    return out;
  }

 private:
  LocalSolve solve_;
  std::vector<uint32_t> local_of_;
  std::vector<Part> parts_;
};

}  // namespace asyncmr::apps
