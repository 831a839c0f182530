#include "apps/components.hpp"

#include <algorithm>
#include <map>
#include <numeric>

#include "apps/app_common.hpp"
#include "apps/boundary_exchange.hpp"
#include "common/check.hpp"

namespace asyncmr::apps {

namespace {

/// Zero-weight edges turn SSSP's min-plus relaxation into min-label flooding.
graph::Digraph ZeroWeighted(const graph::Digraph& g) {
  std::vector<graph::Edge> edges = g.ToEdges();
  for (auto& e : edges) e.weight = 0.0;
  return graph::Digraph::FromEdges(g.num_vertices(), std::move(edges),
                                   /*weighted=*/true);
}

std::vector<double> IdentityLabels(uint32_t n) {
  std::vector<double> init(n);
  std::iota(init.begin(), init.end(), 0.0);
  return init;
}

/// Number of distinct labels. Labels are vertex ids, so one flag per vertex
/// counts them.
uint32_t CountDistinctLabels(const std::vector<graph::VertexId>& labels) {
  std::vector<uint8_t> seen(labels.size(), 0);
  uint32_t distinct = 0;
  for (graph::VertexId label : labels) {
    AMR_CHECK_LT(label, labels.size());
    if (seen[label] == 0) {
      seen[label] = 1;
      ++distinct;
    }
  }
  return distinct;
}

ComponentsResult FromSssp(SsspResult&& sssp, uint32_t n) {
  ComponentsResult result;
  result.trace = std::move(sssp.trace);
  result.converged = sssp.converged;
  result.labels.resize(n);
  for (uint32_t v = 0; v < n; ++v) {
    result.labels[v] = static_cast<graph::VertexId>(sssp.distances[v]);
  }
  result.num_components = CountDistinctLabels(result.labels);
  return result;
}

SsspConfig ToSsspConfig(const ComponentsConfig& config, uint32_t n) {
  SsspConfig sssp;
  sssp.max_global_iterations = config.max_global_iterations;
  sssp.max_local_iterations = config.max_local_iterations;
  sssp.num_reducers = config.num_reducers;
  sssp.job_prefix = config.job_prefix;
  sssp.initial_distances = IdentityLabels(n);
  return sssp;
}

}  // namespace

graph::Digraph Symmetrized(const graph::Digraph& g) {
  std::vector<graph::Edge> edges = g.ToEdges();
  const size_t forward = edges.size();
  edges.reserve(forward * 2);
  for (size_t i = 0; i < forward; ++i) {
    edges.push_back({edges[i].dst, edges[i].src, edges[i].weight});
  }
  return graph::Digraph::FromEdges(g.num_vertices(), std::move(edges), g.weighted());
}

std::vector<graph::VertexId> SerialComponents(const graph::Digraph& g) {
  const uint32_t n = g.num_vertices();
  std::vector<graph::VertexId> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  std::function<graph::VertexId(graph::VertexId)> find =
      [&](graph::VertexId v) -> graph::VertexId {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];  // path halving
      v = parent[v];
    }
    return v;
  };
  for (graph::VertexId u = 0; u < n; ++u) {
    for (graph::VertexId t : g.OutNeighbors(u)) {
      const graph::VertexId ru = find(u), rt = find(t);
      if (ru != rt) parent[std::max(ru, rt)] = std::min(ru, rt);
    }
  }
  std::vector<graph::VertexId> labels(n);
  for (graph::VertexId v = 0; v < n; ++v) labels[v] = find(v);
  return labels;
}

ComponentsResult GeneralComponents(cluster::SimCluster& cluster,
                                   const graph::Digraph& g,
                                   const graph::Partitioning& partitioning,
                                   const ComponentsConfig& config) {
  const graph::Digraph undirected = ZeroWeighted(Symmetrized(g));
  auto sssp = GeneralSssp(cluster, undirected, partitioning,
                          ToSsspConfig(config, g.num_vertices()));
  return FromSssp(std::move(sssp), g.num_vertices());
}

ComponentsResult EagerComponents(cluster::SimCluster& cluster,
                                 const graph::Digraph& g,
                                 const graph::Partitioning& partitioning,
                                 const ComponentsConfig& config) {
  const graph::Digraph undirected = ZeroWeighted(Symmetrized(g));
  auto sssp = EagerSssp(cluster, undirected, partitioning,
                        ToSsspConfig(config, g.num_vertices()));
  return FromSssp(std::move(sssp), g.num_vertices());
}

// ---------------------------------------------------------------------------
// Async components: chaotic min-label propagation on async::AsyncEngine.
// ---------------------------------------------------------------------------

namespace {

/// Labels pushed over cut edges whose sources are vertex ids.
using LabelExchange = BoundaryExchange<CutEdge, uint32_t>;

/// Per-partition worker state for the asynchronous engine.
struct AsyncCcPartition {
  std::vector<graph::VertexId> members;
  // Internal symmetrized adjacency per member (global target vertex ids).
  std::vector<std::vector<graph::VertexId>> internal;
  uint64_t internal_edges = 0;
  // Cut edges folded to one minimum per target; each target's filter entry
  // is the best label pushed (monotone decreasing).
  LabelExchange exchange;
};

}  // namespace

ComponentsResult AsyncComponents(cluster::SimCluster& cluster,
                                 const graph::Digraph& g,
                                 const graph::Partitioning& partitioning,
                                 const ComponentsConfig& config,
                                 uint32_t staleness,
                                 async::AsyncResult* engine_stats) {
  const uint32_t n = g.num_vertices();
  const uint32_t num_parts = partitioning.num_parts;
  const graph::Digraph sym = Symmetrized(g);
  const auto members = partitioning.Members();

  std::vector<AsyncCcPartition> parts(num_parts);
  for (uint32_t p = 0; p < num_parts; ++p) {
    AsyncCcPartition& part = parts[p];
    part.members = members[p];
    part.internal.resize(part.members.size());
    std::map<uint32_t, std::vector<CutEdge>> cut;
    for (size_t i = 0; i < part.members.size(); ++i) {
      const graph::VertexId u = part.members[i];
      for (graph::VertexId t : sym.OutNeighbors(u)) {
        if (partitioning.part_of[t] == p) {
          part.internal[i].push_back(t);
          ++part.internal_edges;
        } else {
          cut[partitioning.part_of[t]].push_back({t, u});
        }
      }
    }
    part.exchange = LabelExchange(std::move(cut));
  }

  ComponentsResult result;
  result.labels.resize(n);
  std::iota(result.labels.begin(), result.labels.end(), 0);
  std::vector<graph::VertexId>& labels = result.labels;

  async::AsyncConfig engine_config;
  static_cast<async::EngineTuning&>(engine_config) = config.async_tuning;
  engine_config.staleness_bound = staleness;
  // Residual is the count of changed labels; terminate when none anywhere.
  engine_config.convergence_threshold = 0.5;
  engine_config.max_iterations_per_worker = config.max_global_iterations;
  engine_config.checkpoint_interval = config.async_checkpoint_interval;
  engine_config.name = config.job_prefix + "-async";
  async::AsyncEngine engine(cluster, num_parts, engine_config);

  engine.set_compute([&](uint32_t p, async::AsyncContext& ctx) {
    AsyncCcPartition& part = parts[p];
    uint64_t ops = 0;
    uint64_t changed = 0;

    // Flood labels through this partition's symmetrized sub-graph to a fixed
    // point before pushing anything over the cut.
    for (uint32_t sweep = 0; sweep < config.max_local_iterations; ++sweep) {
      uint64_t sweep_changed = 0;
      for (size_t i = 0; i < part.members.size(); ++i) {
        const graph::VertexId lu = labels[part.members[i]];
        for (graph::VertexId t : part.internal[i]) {
          if (lu < labels[t]) {
            labels[t] = lu;
            ++sweep_changed;
          }
        }
      }
      ops += part.internal_edges + part.members.size();
      changed += sweep_changed;
      if (sweep_changed == 0) break;
    }
    ctx.set_residual(static_cast<double>(changed));

    // Push improved labels over cut edges, min-folded per target.
    ops += part.exchange.PushFolded(
        LabelExchange::kNeverSent,
        [&](const CutEdge& e) { return labels[e.source]; },
        [](uint32_t a, uint32_t b) { return std::min(a, b); },
        [](uint32_t label, uint32_t best) { return label < best; },
        [&](uint32_t peer, graph::VertexId t, uint32_t label) {
          ctx.Emit(peer, CcLabelUpdate{t, label});
        });
    ctx.AddOps(ops);
  });

  // Min-combine is reorder- and epoch-safe; apply ignores version metadata.
  engine.set_apply([&](uint32_t /*p*/, uint32_t /*from*/, uint32_t /*from_clock*/,
                       uint32_t /*from_epoch*/, const async::UpdateBatch& batch) {
    async::ForEachUpdate<CcLabelUpdate>(batch, [&](const CcLabelUpdate& u) {
      if (u.label < labels[u.vertex]) labels[u.vertex] = u.label;
    });
  });

  // Worker state is this partition's slice of the label vector.
  engine.set_snapshot([&](uint32_t p, serde::Writer& w) {
    const AsyncCcPartition& part = parts[p];
    std::vector<uint32_t> slice;
    slice.reserve(part.members.size());
    for (graph::VertexId v : part.members) slice.push_back(labels[v]);
    serde::Serde<std::vector<uint32_t>>::Write(w, slice);
  });
  // Restore re-announces every label, and so does a peer's restart toward
  // it. Labels only shrink (min-combine), so dead-epoch facts stand; the
  // restarted worker itself rolled back to older (larger) labels and needs
  // its in-peers' minima again.
  InstallBoundaryExchange(
      engine,
      [&](uint32_t p) -> LabelExchange& { return parts[p].exchange; },
      [&](uint32_t p, serde::Reader& r) {
        const AsyncCcPartition& part = parts[p];
        std::vector<uint32_t> slice;
        AMR_CHECK(serde::Serde<std::vector<uint32_t>>::Read(r, slice).ok());
        AMR_CHECK_EQ(slice.size(), part.members.size());
        for (size_t i = 0; i < slice.size(); ++i) labels[part.members[i]] = slice[i];
      });

  async::AsyncResult engine_result = engine.Run();
  if (engine_stats != nullptr) *engine_stats = engine_result;

  result.num_components = CountDistinctLabels(labels);
  result.converged = engine_result.converged;
  result.trace = AsyncRunTrace("async-components", engine_result);
  return result;
}

}  // namespace asyncmr::apps
