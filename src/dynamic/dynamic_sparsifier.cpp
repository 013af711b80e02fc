#include "dynamic/dynamic_sparsifier.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "graph/connectivity.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tree/kruskal.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"
#include "util/union_find.hpp"

namespace ssp {

// ---- DynamicOptions --------------------------------------------------------

void DynamicOptions::validate() const { base.validate(); }

DynamicOptions& DynamicOptions::with_base(SparsifyOptions opts) {
  opts.validate();
  base = std::move(opts);
  return *this;
}

DynamicOptions& DynamicOptions::with_warm_refine(bool on) {
  warm_refine = on;
  return *this;
}

// ---- DynamicSparsifier -----------------------------------------------------

DynamicSparsifier::DynamicSparsifier(const Graph& g, DynamicOptions opts)
    : opts_(std::move(opts)), graph_(g) {
  opts_.validate();
  SSP_REQUIRE(g.finalized(), "DynamicSparsifier: graph must be finalized");
  SSP_REQUIRE(g.num_vertices() >= 2, "DynamicSparsifier: need >= 2 vertices");
  SSP_REQUIRE(is_connected(g), "DynamicSparsifier: graph must be connected");

  UpdateStats stats;
  stats.batch = 0;
  stats.dirty_fraction = 1.0;
  stats.route = UpdateRoute::kRebuild;

  WallTimer timer;
  backbone_ = max_weight_spanning_tree(graph_);
  notify_stage(DynamicStage::kTreeRepair, timer.seconds(), stats);

  timer.reset();
  SparsifyOptions engine_opts = opts_.base;
  engine_opts.seed = batch_seed(0);
  engine_.emplace(graph_, *backbone_, std::move(engine_opts));
  notify_stage(DynamicStage::kRebind, timer.seconds(), stats);

  timer.reset();
  engine_->run();
  notify_stage(DynamicStage::kSparsify, timer.seconds(), stats);

  const SparsifyResult& r = engine_->result();
  stats.graph_edges = graph_.num_edges();
  stats.sparsifier_edges = r.num_edges();
  stats.sigma2_estimate = r.sigma2_estimate;
  stats.reached_target = r.reached_target;
  for (const double s : stats.stage_seconds) stats.seconds += s;
  history_.push_back(stats);
}

DynamicSparsifier::DynamicSparsifier(const Graph& g, DynamicOptions opts,
                                     const DynamicRestoreState& state)
    : opts_(std::move(opts)), graph_(g) {
  opts_.validate();
  SSP_REQUIRE(g.finalized(), "DynamicSparsifier: graph must be finalized");
  SSP_REQUIRE(g.num_vertices() >= 2, "DynamicSparsifier: need >= 2 vertices");
  SSP_REQUIRE(is_connected(g), "DynamicSparsifier: graph must be connected");
  SSP_REQUIRE(state.vertices == g.num_vertices() &&
                  state.edges == g.num_edges(),
              "restore: graph shape does not match the checkpoint (replay "
              "the journal to the checkpointed batch first)");
  SSP_REQUIRE(!state.history.empty(),
              "restore: checkpoint must include batch 0");

  // The checkpointed backbone is the canonical max-weight tree of this
  // graph; any other stored tree means the graph or the checkpoint is not
  // the one the instance held.
  backbone_ = max_weight_spanning_tree(graph_);
  const std::span<const EdgeId> tree_ids = backbone_->tree_edge_ids();
  SSP_REQUIRE(std::equal(tree_ids.begin(), tree_ids.end(),
                         state.tree_edges.begin(), state.tree_edges.end()),
              "restore: checkpoint backbone is not the canonical max-weight "
              "tree of the replayed graph");

  // Re-arm the engine on the stored selection: rebind() pre-accepts the
  // off-tree keeps under the checkpointed batch's seed, restore_result()
  // stamps the terminal telemetry — no densification rounds run.
  const Index last_batch = static_cast<Index>(state.history.size()) - 1;
  SparsifyOptions engine_opts = opts_.base;
  engine_opts.seed = batch_seed(last_batch);
  engine_.emplace(graph_, *backbone_, std::move(engine_opts));
  engine_->rebind(graph_, *backbone_, batch_seed(last_batch),
                  state.offtree_edges);
  engine_->restore_result(state.lambda_min, state.lambda_max,
                          state.sigma2_estimate, state.reached_target,
                          state.status);
  history_ = state.history;
}

DynamicRestoreState DynamicSparsifier::restore_state() const {
  DynamicRestoreState state;
  state.vertices = graph_.num_vertices();
  state.edges = graph_.num_edges();
  const auto tree_ids = backbone_->tree_edge_ids();
  state.tree_edges.assign(tree_ids.begin(), tree_ids.end());
  const SparsifyResult& r = engine_->result();
  state.offtree_edges.assign(
      r.edges.begin() + static_cast<std::ptrdiff_t>(r.tree_edges.size()),
      r.edges.end());
  state.lambda_min = r.lambda_min;
  state.lambda_max = r.lambda_max;
  state.sigma2_estimate = r.sigma2_estimate;
  state.reached_target = r.reached_target;
  state.status = engine_->status();
  state.history = history_;
  return state;
}

const SparsifyResult& DynamicSparsifier::result() const {
  return engine_->result();
}

SparsifyOptions DynamicSparsifier::cold_equivalent_options() const {
  SparsifyOptions opts = opts_.base;
  opts.backbone = BackboneKind::kMaxWeight;
  opts.seed = batch_seed(static_cast<Index>(history_.size()) - 1);
  return opts;
}

namespace {

// A batch whose dirty fraction (touched edges / final edge count) reaches
// this is labelled kRebuild, and warm refine drops its kept selection.
constexpr double kWarmResetFraction = 0.25;

// Indexed by DynamicStage; keep in sync with the enum in the header.
constexpr const char* kDynSpanName[kNumDynamicStages] = {
    "dynamic.validate", "dynamic.apply-graph", "dynamic.tree-repair",
    "dynamic.rebind", "dynamic.sparsify"};
constexpr obs::MetricId kDynStageNs[kNumDynamicStages] = {
    "dynamic.stage.validate.ns", "dynamic.stage.apply-graph.ns",
    "dynamic.stage.tree-repair.ns", "dynamic.stage.rebind.ns",
    "dynamic.stage.sparsify.ns"};

}  // namespace

void DynamicSparsifier::notify_stage(DynamicStage stage, double seconds,
                                     UpdateStats& stats) const {
  stats.stage_seconds[static_cast<std::size_t>(stage)] += seconds;
  // Telemetry only — consumes no RNG and never feeds back into routing.
  const auto idx = static_cast<int>(stage);
  obs::counter_add(kDynStageNs[idx], static_cast<std::uint64_t>(seconds * 1e9));
  obs::TraceScope span(kDynSpanName[idx], seconds);
}

void DynamicSparsifier::validate_batch(const UpdateBatch& batch) const {
  const EdgeId m = graph_.num_edges();
  std::vector<char> touched(static_cast<std::size_t>(m), 0);
  for (const EdgeId e : batch.remove) {
    SSP_REQUIRE(e >= 0 && e < m, "apply: remove id out of range");
    SSP_REQUIRE(touched[static_cast<std::size_t>(e)] == 0,
                "apply: duplicate remove id");
    touched[static_cast<std::size_t>(e)] = 1;
  }
  for (const WeightUpdate& wu : batch.reweight) {
    SSP_REQUIRE(wu.edge >= 0 && wu.edge < m,
                "apply: reweight id out of range");
    SSP_REQUIRE(touched[static_cast<std::size_t>(wu.edge)] == 0,
                "apply: edge removed or reweighted twice in one batch");
    touched[static_cast<std::size_t>(wu.edge)] = 1;
    SSP_REQUIRE(wu.weight > 0.0 && std::isfinite(wu.weight),
                "apply: reweight value must be positive and finite");
  }
  const Vertex n = graph_.num_vertices();
  for (const Edge& e : batch.insert) {
    SSP_REQUIRE(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n,
                "apply: insert endpoint out of range");
    SSP_REQUIRE(e.u != e.v, "apply: insert would create a self-loop");
    SSP_REQUIRE(e.weight > 0.0 && std::isfinite(e.weight),
                "apply: insert weight must be positive and finite");
  }
  if (batch.remove.empty()) return;
  // Connectivity pre-check so a disconnecting batch is rejected before any
  // state mutates: the surviving edges plus the inserted ones must still
  // span one component.
  UnionFind& uf = uf_scratch_;
  uf.reset(static_cast<Index>(n));
  for (EdgeId e = 0; e < m; ++e) {
    // `touched` marks removals and reweights; reweighted edges survive.
    if (touched[static_cast<std::size_t>(e)] != 0) continue;
    const Edge& edge = graph_.edge(e);
    uf.unite(static_cast<Index>(edge.u), static_cast<Index>(edge.v));
  }
  for (const WeightUpdate& wu : batch.reweight) {
    const Edge& edge = graph_.edge(wu.edge);
    uf.unite(static_cast<Index>(edge.u), static_cast<Index>(edge.v));
  }
  for (const Edge& e : batch.insert) {
    uf.unite(static_cast<Index>(e.u), static_cast<Index>(e.v));
  }
  SSP_REQUIRE(uf.num_sets() == 1, "apply: batch would disconnect the graph");
}

UpdateStats DynamicSparsifier::apply(const UpdateBatch& batch) {
  UpdateStats stats;
  stats.batch = static_cast<Index>(history_.size());
  stats.inserted = static_cast<EdgeId>(batch.insert.size());
  stats.removed = static_cast<EdgeId>(batch.remove.size());
  stats.reweighted = static_cast<EdgeId>(batch.reweight.size());

  WallTimer timer;
  validate_batch(batch);
  const EdgeId final_edges = graph_.num_edges() - stats.removed +
                             stats.inserted;
  stats.dirty_fraction = static_cast<double>(batch.size()) /
                         static_cast<double>(std::max<EdgeId>(1, final_edges));
  const bool reset_keeps = stats.dirty_fraction >= kWarmResetFraction;
  notify_stage(DynamicStage::kValidate, timer.seconds(), stats);

  // Snapshot the pre-batch backbone (for the swap telemetry) and, for the
  // warm-refine route, the previous off-tree selection (the backbone is
  // always the edge-list prefix).
  const std::span<const EdgeId> prev_ids = backbone_->tree_edge_ids();
  std::vector<EdgeId> prev_tree(prev_ids.begin(), prev_ids.end());
  for (const EdgeId e : batch.remove) {
    if (backbone_->contains(e)) ++stats.tree_removed;
  }
  std::vector<EdgeId> keep;
  if (opts_.warm_refine && !reset_keeps) {
    const SparsifyResult& prev = engine_->result();
    keep.assign(prev.edges.begin() +
                    static_cast<std::ptrdiff_t>(prev.tree_edges.size()),
                prev.edges.end());
  }

  timer.reset();
  const std::vector<EdgeId> remap = apply_batch_to_graph(graph_, batch);
  if (!remap.empty()) {
    for (EdgeId& e : prev_tree) e = remap[static_cast<std::size_t>(e)];
    std::size_t out = 0;
    for (const EdgeId e : keep) {
      const EdgeId mapped = remap[static_cast<std::size_t>(e)];
      if (mapped != kInvalidEdge) keep[out++] = mapped;
    }
    keep.resize(out);
  }
  notify_stage(DynamicStage::kApplyGraph, timer.seconds(), stats);

  // Recompute the canonical backbone on the updated graph.
  timer.reset();
  backbone_ = max_weight_spanning_tree(graph_);
  notify_stage(DynamicStage::kTreeRepair, timer.seconds(), stats);

  std::vector<char> in_prev(static_cast<std::size_t>(graph_.num_edges()), 0);
  for (const EdgeId e : prev_tree) {
    if (e != kInvalidEdge) in_prev[static_cast<std::size_t>(e)] = 1;
  }
  for (const EdgeId e : backbone_->tree_edge_ids()) {
    if (in_prev[static_cast<std::size_t>(e)] == 0) ++stats.tree_swaps;
  }
  if (reset_keeps) {
    stats.route = UpdateRoute::kRebuild;
  } else if (batch.remove.empty() && batch.insert.empty() &&
             stats.tree_swaps == 0) {
    stats.route = UpdateRoute::kResparsify;
  } else {
    stats.route = UpdateRoute::kTreeRepair;
  }

  // Warm-refine keeps may have joined the new tree; they are already
  // covered by the backbone prefix then.
  if (!keep.empty()) {
    std::size_t out = 0;
    for (const EdgeId e : keep) {
      if (!backbone_->contains(e)) keep[out++] = e;
    }
    keep.resize(out);
  }

  timer.reset();
  engine_->rebind(graph_, *backbone_,
                  batch_seed(static_cast<Index>(history_.size())), keep);
  notify_stage(DynamicStage::kRebind, timer.seconds(), stats);

  timer.reset();
  engine_->run();
  notify_stage(DynamicStage::kSparsify, timer.seconds(), stats);

  const SparsifyResult& r = engine_->result();
  stats.graph_edges = graph_.num_edges();
  stats.sparsifier_edges = r.num_edges();
  stats.sigma2_estimate = r.sigma2_estimate;
  stats.reached_target = r.reached_target;
  for (const double s : stats.stage_seconds) stats.seconds += s;
  obs::counter_add("dynamic.batches", 1);
  obs::counter_add("dynamic.tree_swaps",
                   static_cast<std::uint64_t>(stats.tree_swaps));
  switch (stats.route) {
    case UpdateRoute::kResparsify:
      obs::counter_add("dynamic.route.resparsify", 1);
      break;
    case UpdateRoute::kTreeRepair:
      obs::counter_add("dynamic.route.tree-repair", 1);
      break;
    case UpdateRoute::kRebuild:
      obs::counter_add("dynamic.route.rebuild", 1);
      break;
  }
  history_.push_back(stats);
  if (observer_ != nullptr) observer_->on_update(history_.back());
  return history_.back();
}

UpdateStats DynamicSparsifier::insert_edges(std::span<const Edge> edges) {
  UpdateBatch batch;
  batch.insert.assign(edges.begin(), edges.end());
  return apply(batch);
}

UpdateStats DynamicSparsifier::delete_edges(
    std::span<const EdgeId> edge_ids) {
  UpdateBatch batch;
  batch.remove.assign(edge_ids.begin(), edge_ids.end());
  return apply(batch);
}

UpdateStats DynamicSparsifier::reweight_edges(
    std::span<const WeightUpdate> updates) {
  UpdateBatch batch;
  batch.reweight.assign(updates.begin(), updates.end());
  return apply(batch);
}

std::vector<EdgeId> apply_batch_to_graph(Graph& g, const UpdateBatch& batch) {
  // Inserts land before removals so a batch may delete a bridge it
  // replaces; removal compaction then renumbers, keeping inserted edges at
  // the tail.
  for (const WeightUpdate& wu : batch.reweight) {
    g.set_weight(wu.edge, wu.weight);
  }
  for (const Edge& e : batch.insert) g.add_edge(e.u, e.v, e.weight);
  std::vector<EdgeId> remap;
  if (!batch.remove.empty()) remap = g.remove_edges(batch.remove);
  g.finalize();
  return remap;
}

DynamicResult dynamic_sparsify(const Graph& g,
                               std::span<const UpdateBatch> script,
                               const DynamicOptions& opts) {
  DynamicSparsifier dyn(g, opts);
  for (const UpdateBatch& batch : script) dyn.apply(batch);
  return DynamicResult{dyn.graph(), dyn.result(), dyn.history()};
}

}  // namespace ssp
