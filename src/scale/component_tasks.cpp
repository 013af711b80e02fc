#include "scale/component_tasks.hpp"

#include <algorithm>
#include <utility>

#include "graph/connectivity.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace ssp::scale_detail {

namespace {

/// Runs one task to completion: verbatim keep for trees (κ = 1), a
/// single-threaded engine otherwise. Pure function of the task inputs —
/// never of the executing thread.
void run_task(ComponentTask& task) {
  // Live span on the executing worker thread: each component shows up on
  // its real timeline track in the trace, labeled by host block.
  const obs::Span span("scale.component", "block", task.block);
  const WallTimer timer;
  const Graph& sg = task.graph();
  const std::vector<EdgeId>& emap = task.edge_map();
  if (sg.num_edges() == static_cast<EdgeId>(sg.num_vertices()) - 1) {
    task.selected.assign(emap.begin(), emap.end());
    task.sigma2 = 1.0;
    task.reached = true;
    task.is_tree = true;
  } else {
    SparsifyOptions eopts = *task.base_opts;
    eopts.seed = task.seed;
    eopts.threads = 1;  // concurrency lives in the outer fan-out
    Sparsifier engine(sg, eopts);
    engine.run();
    const SparsifyResult& r = engine.result();
    task.selected.reserve(r.edges.size());
    for (const EdgeId local : r.edges) {
      task.selected.push_back(emap[static_cast<std::size_t>(local)]);
    }
    task.sigma2 = r.sigma2_estimate;
    task.reached = r.reached_target;
    task.stage_seconds = r.stage_seconds;
  }
  task.seconds = timer.seconds();
}

}  // namespace

void make_tasks(const Subgraph& sub, Index block, std::uint64_t stream_id,
                const Rng& parent, const SparsifyOptions& base_opts,
                std::vector<ComponentTask>& tasks) {
  if (sub.graph.num_vertices() == 0) return;
  const Rng unit_rng = parent.split(stream_id);
  const ComponentLabels comps = connected_components(sub.graph);
  if (comps.num_components == 1) {
    ComponentTask task;
    task.block = block;
    task.parent = &sub;
    task.base_opts = &base_opts;
    task.seed = unit_rng.split(0)();
    tasks.push_back(std::move(task));
    return;
  }
  std::vector<std::vector<Vertex>> members(
      static_cast<std::size_t>(comps.num_components));
  for (Vertex v = 0; v < sub.graph.num_vertices(); ++v) {
    members[static_cast<std::size_t>(comps.label[static_cast<std::size_t>(v)])]
        .push_back(v);
  }
  for (Vertex c = 0; c < comps.num_components; ++c) {
    ComponentTask task;
    task.block = block;
    task.parent = &sub;
    task.owned =
        induced_subgraph(sub.graph, members[static_cast<std::size_t>(c)]);
    // Compose the component→unit and unit→host edge maps.
    task.composed_map.reserve(task.owned->edge_to_global.size());
    for (const EdgeId unit_local : task.owned->edge_to_global) {
      task.composed_map.push_back(
          sub.edge_to_global[static_cast<std::size_t>(unit_local)]);
    }
    task.base_opts = &base_opts;
    task.seed = unit_rng.split(static_cast<std::uint64_t>(c))();
    tasks.push_back(std::move(task));
  }
}

void run_tasks(std::vector<ComponentTask>& tasks, std::size_t first,
               std::size_t last, int threads) {
  parallel_for(static_cast<Index>(first), static_cast<Index>(last), threads,
               [&tasks](Index i) {
                 run_task(tasks[static_cast<std::size_t>(i)]);
               });
}

BlockStats fold_stats(Index block, const Subgraph& sub,
                      const std::vector<ComponentTask>& tasks) {
  BlockStats stats;
  stats.block = block;
  stats.vertices = sub.graph.num_vertices();
  stats.edges = sub.graph.num_edges();
  for (const ComponentTask& task : tasks) {
    if (task.block != block) continue;
    ++stats.components;
    if (task.is_tree) ++stats.tree_components;
    stats.kept_edges += static_cast<EdgeId>(task.selected.size());
    stats.sigma2_estimate = std::max(stats.sigma2_estimate, task.sigma2);
    stats.reached_target = stats.reached_target && task.reached;
    stats.seconds += task.seconds;
    for (int s = 0; s < kNumStageKinds; ++s) {
      stats.stage_seconds[static_cast<std::size_t>(s)] +=
          task.stage_seconds[static_cast<std::size_t>(s)];
    }
  }
  return stats;
}

}  // namespace ssp::scale_detail
