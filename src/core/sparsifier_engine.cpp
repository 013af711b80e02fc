#include "core/sparsifier_engine.hpp"

#include <algorithm>
#include <utility>

#include "core/edge_filter.hpp"
#include "core/eigen_estimate.hpp"
#include "graph/connectivity.hpp"
#include "graph/laplacian.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tree/akpw.hpp"
#include "tree/dijkstra_tree.hpp"
#include "tree/kruskal.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace ssp {

Sparsifier::Sparsifier(const Graph& g, SparsifyOptions opts)
    : g_(&g), opts_(std::move(opts)), rng_(opts_.seed) {
  opts_.validate();
  SSP_REQUIRE(g.finalized(), "sparsify: graph must be finalized");
  SSP_REQUIRE(g.num_vertices() >= 2, "sparsify: need >= 2 vertices");
  SSP_REQUIRE(is_connected(g), "sparsify: graph must be connected");
  const WallTimer timer;
  lg_ = laplacian(g);
  elapsed_seconds_ = timer.seconds();
}

Sparsifier::Sparsifier(const Graph& g, const SpanningTree& backbone,
                       SparsifyOptions opts)
    : g_(&g), opts_(std::move(opts)), external_backbone_(&backbone),
      rng_(opts_.seed) {
  opts_.validate();
  SSP_REQUIRE(&backbone.graph() == &g,
              "densify: backbone built on another graph");
  SSP_REQUIRE(g.finalized(), "sparsify: graph must be finalized");
  const WallTimer timer;
  lg_ = laplacian(g);
  elapsed_seconds_ = timer.seconds();
}

void Sparsifier::ensure_backbone() {
  if (backbone_ != nullptr) return;
  const WallTimer timer;
  if (external_backbone_ != nullptr) {
    bind_backbone(*external_backbone_);
  } else {
    Rng tree_rng(opts_.seed ^ 0x5eed5eedULL);
    switch (opts_.backbone) {
      case BackboneKind::kMaxWeight:
        owned_backbone_ = max_weight_spanning_tree(*g_);
        break;
      case BackboneKind::kShortestPath:
        owned_backbone_ = shortest_path_tree_from_center(*g_);
        break;
      case BackboneKind::kAkpw:
        owned_backbone_ = akpw_low_stretch_tree(*g_, tree_rng);
        break;
    }
    bind_backbone(*owned_backbone_);
  }
  notify_stage(StageKind::kBackbone, timer.seconds());
}

void Sparsifier::bind_backbone(const SpanningTree& backbone) {
  backbone_ = &backbone;
  tree_solver_.emplace(backbone);
  tree_precond_.emplace(backbone);
  result_.tree_edges.assign(backbone.tree_edge_ids().begin(),
                            backbone.tree_edge_ids().end());
  result_.edges = result_.tree_edges;
  in_p_.assign(static_cast<std::size_t>(g_->num_edges()), 0);
  for (EdgeId e : result_.edges) in_p_[static_cast<std::size_t>(e)] = 1;
}

LinOp Sparsifier::make_solver(double* setup_seconds, PanelOp* panel) {
  const WallTimer timer;
  LinOp solve_p;
  const bool tree_only = static_cast<EdgeId>(result_.edges.size()) ==
                         static_cast<EdgeId>(g_->num_vertices()) - 1;
  if (tree_only) {
    // The backbone tree solver doubles as the PCG preconditioner of every
    // later sparsifier (the tree stays a subgraph of P).
    solve_p = make_tree_solver_op(*tree_solver_);
    if (panel != nullptr) {
      *panel = make_tree_solver_panel_op(*tree_solver_);
    }
  } else {
    lp_ = laplacian(g_->edge_subgraph(result_.edges));
    solve_p = make_pcg_op(lp_, *tree_precond_,
                          {.max_iterations = 500,
                           .rel_tolerance = opts_.solver_tolerance,
                           .project_constants = true});
  }
  if (setup_seconds != nullptr) *setup_seconds = timer.seconds();
  return solve_p;
}

namespace {

// Indexed by StageKind; keep in sync with the enum in the header.
constexpr const char* kStageSpanName[kNumStageKinds] = {
    "engine.backbone",  "engine.solver-setup", "engine.spectral-estimate",
    "engine.embedding", "engine.filtering",    "engine.final-estimate"};
constexpr obs::MetricId kStageNsMetric[kNumStageKinds] = {
    "engine.stage.backbone.ns",          "engine.stage.solver-setup.ns",
    "engine.stage.spectral-estimate.ns", "engine.stage.embedding.ns",
    "engine.stage.filtering.ns",         "engine.stage.final-estimate.ns"};
constexpr obs::MetricId kStageCallsMetric[kNumStageKinds] = {
    "engine.stage.backbone.calls",          "engine.stage.solver-setup.calls",
    "engine.stage.spectral-estimate.calls", "engine.stage.embedding.calls",
    "engine.stage.filtering.calls",         "engine.stage.final-estimate.calls"};

}  // namespace

bool Sparsifier::finish_round(DensifyRound& stats, double seconds) {
  stats.seconds = seconds;
  obs::counter_add("engine.rounds", 1);
  obs::counter_add("engine.filter.edges_added",
                   static_cast<std::uint64_t>(stats.edges_added));
  result_.rounds.push_back(stats);
  ++next_round_;
  return observer_ == nullptr || observer_->on_round(stats);
}

void Sparsifier::notify_stage(StageKind stage, double seconds) {
  // Telemetry only: nothing below feeds back into the computation, so
  // output stays bit-identical with observability on or off.
  const auto idx = static_cast<int>(stage);
  result_.stage_seconds[static_cast<std::size_t>(idx)] += seconds;
  obs::counter_add(kStageNsMetric[idx],
                   static_cast<std::uint64_t>(seconds * 1e9));
  obs::counter_add(kStageCallsMetric[idx], 1);
  obs::TraceScope span(kStageSpanName[idx], seconds);
}

StepStatus Sparsifier::step() {
  if (done_) return status_;
  const WallTimer timer;
  status_ = step_impl();
  elapsed_seconds_ += timer.seconds();
  result_.total_seconds = elapsed_seconds_;
  return status_;
}

StepStatus Sparsifier::step_impl() {
  ensure_backbone();
  const WallTimer round_timer;
  DensifyRound stats;
  stats.round = next_round_;

  // --- Step 1 (§3.7): update L_P and its solver. ---
  double setup_seconds = 0.0;
  PanelOp solve_p_panel;
  const LinOp solve_p = make_solver(&setup_seconds, &solve_p_panel);
  notify_stage(StageKind::kSolverSetup, setup_seconds);

  // --- Step 2: estimate the spectral similarity. ---
  WallTimer stage_timer;
  stats.lambda_min = estimate_lambda_min_node_coloring(*g_, in_p_);
  stats.lambda_max = estimate_lambda_max_power(lg_, solve_p, rng_,
                                               opts_.lambda_max_iterations);
  // Guard against solver noise: the pencil spectrum is >= 1 for
  // subgraph sparsifiers.
  stats.lambda_max = std::max(stats.lambda_max, 1.0);
  stats.lambda_min = std::clamp(stats.lambda_min, 1.0, stats.lambda_max);
  stats.sigma2_estimate = stats.lambda_max / stats.lambda_min;
  notify_stage(StageKind::kSpectralEstimate, stage_timer.seconds());

  result_.lambda_min = stats.lambda_min;
  result_.lambda_max = stats.lambda_max;
  result_.sigma2_estimate = stats.sigma2_estimate;

  // --- Step 3: stop when similar enough (or nothing left to add). ---
  if (stats.sigma2_estimate <= opts_.sigma2 ||
      static_cast<EdgeId>(result_.edges.size()) == g_->num_edges()) {
    result_.reached_target = stats.sigma2_estimate <= opts_.sigma2;
    finish_round(stats, round_timer.seconds());
    done_ = true;
    return result_.reached_target ? StepStatus::kConverged
                                  : StepStatus::kExhausted;
  }

  // --- Step 4: spectral embedding of off-tree edges. ---
  stage_timer.reset();
  compute_offtree_heat(*g_, lg_, in_p_, solve_p,
                       {.power_steps = opts_.power_steps,
                        .num_vectors = opts_.num_vectors,
                        .threads = opts_.threads},
                       rng_, emb_ws_, emb_, solve_p_panel);
  notify_stage(StageKind::kEmbedding, stage_timer.seconds());
  obs::counter_add("engine.embedding.vectors",
                   static_cast<std::uint64_t>(opts_.num_vectors));

  // --- Step 5: rank and filter by normalized Joule heat (Eq. 15). ---
  stage_timer.reset();
  stats.theta = heat_threshold(opts_.sigma2, stats.lambda_min,
                               stats.lambda_max, opts_.power_steps);

  // --- Step 6: add only dissimilar filtered edges. ---
  // Adaptive "small portions" (§3.7): while far from the target, add up to
  // n/4 edges per round; once within 8x of the target, shrink the batch to
  // n/16 so the final density is not overshot. A user-provided cap wins.
  const EdgeId cap_per_round = [&] {
    if (opts_.max_edges_per_round > 0) return opts_.max_edges_per_round;
    // Batch size tracks the remaining multiplicative gap to the target:
    // large batches while far away (few expensive re-embedding rounds),
    // small ones near the target (no density overshoot).
    const double gap = stats.sigma2_estimate / opts_.sigma2;
    const Index divisor =
        gap > 1000.0 ? 4 : (gap > 100.0 ? 8 : (gap > 3.0 ? 16 : 24));
    return std::max<EdgeId>(
        64, static_cast<EdgeId>(g_->num_vertices()) / divisor);
  }();
  const FilterOptions fopts = {.similarity = opts_.similarity,
                               .node_cap = opts_.node_cap,
                               .max_edges = cap_per_round};
  std::vector<EdgeId> picked =
      filter_offtree_edges(*g_, emb_, stats.theta, fopts);
  if (picked.empty()) {
    // The threshold filtered everything although the target is unmet
    // (estimator noise). Force progress with the hottest edges.
    picked = filter_offtree_edges(
        *g_, emb_, 0.0,
        {.similarity = opts_.similarity,
         .node_cap = opts_.node_cap,
         .max_edges = std::min<EdgeId>(cap_per_round, 16)});
  }
  notify_stage(StageKind::kFiltering, stage_timer.seconds());
  if (picked.empty()) {  // no off-tree edges remain
    finish_round(stats, round_timer.seconds());
    done_ = true;
    return StepStatus::kExhausted;
  }
  for (EdgeId e : picked) {
    in_p_[static_cast<std::size_t>(e)] = 1;
    result_.edges.push_back(e);
  }
  stats.edges_added = static_cast<EdgeId>(picked.size());
  ++rounds_this_phase_;

  const bool keep_going = finish_round(stats, round_timer.seconds());
  if (rounds_this_phase_ >= opts_.max_rounds) {
    // Round budget exhausted right after an add: refresh the final
    // estimate so the reported σ² reflects the sparsifier actually
    // returned. This round terminates the run regardless, so the
    // observer's cancellation verdict is ignored (per the StageObserver
    // contract).
    final_estimate();
    done_ = true;
    return result_.reached_target ? StepStatus::kConverged
                                  : StepStatus::kRoundLimit;
  }
  if (!keep_going) {
    // Observer cancellation: keep the edges accepted so far; the reported
    // estimates reflect the state before this round's additions.
    done_ = true;
    return StepStatus::kCancelled;
  }
  return StepStatus::kAdvanced;
}

void Sparsifier::final_estimate() {
  const WallTimer timer;
  const LinOp solve_p = make_solver(nullptr);
  result_.lambda_min = estimate_lambda_min_node_coloring(*g_, in_p_);
  result_.lambda_max =
      std::max(estimate_lambda_max_power(lg_, solve_p, rng_,
                                         opts_.lambda_max_iterations),
               1.0);
  result_.lambda_min =
      std::clamp(result_.lambda_min, 1.0, result_.lambda_max);
  result_.sigma2_estimate = result_.lambda_max / result_.lambda_min;
  result_.reached_target = result_.sigma2_estimate <= opts_.sigma2;
  notify_stage(StageKind::kFinalEstimate, timer.seconds());
}

StepStatus Sparsifier::run() {
  while (!done_) step();
  return status_;
}

void Sparsifier::rearm_phase() {
  rounds_this_phase_ = 0;
  done_ = false;
  status_ = StepStatus::kAdvanced;
  result_.reached_target = false;
}

void Sparsifier::refine(double new_sigma2) {
  opts_.with_sigma2(new_sigma2);  // shared per-field constraint check
  rearm_phase();
}

void Sparsifier::rebind(const Graph& g, const SpanningTree& backbone,
                        std::uint64_t seed,
                        std::span<const EdgeId> keep_offtree) {
  SSP_REQUIRE(g.finalized(), "rebind: graph must be finalized");
  SSP_REQUIRE(g.num_vertices() >= 2, "rebind: need >= 2 vertices");
  SSP_REQUIRE(&backbone.graph() == &g, "rebind: backbone built on another graph");
  // Validate the keep list before any teardown so a rejected call leaves
  // the engine exactly as it was.
  {
    std::vector<char> seen(static_cast<std::size_t>(g.num_edges()), 0);
    for (const EdgeId e : keep_offtree) {
      SSP_REQUIRE(e >= 0 && e < g.num_edges(),
                  "rebind: keep_offtree id out of range");
      SSP_REQUIRE(!backbone.contains(e) &&
                      seen[static_cast<std::size_t>(e)] == 0,
                  "rebind: keep_offtree id is a tree edge or a duplicate");
      seen[static_cast<std::size_t>(e)] = 1;
    }
  }
  const WallTimer timer;
  // Drop state referencing the old graph/backbone, then swap.
  tree_solver_.reset();
  tree_precond_.reset();
  owned_backbone_.reset();
  backbone_ = nullptr;
  external_backbone_ = &backbone;

  g_ = &g;
  lg_ = laplacian(g);
  opts_.seed = seed;
  rng_ = Rng(seed);

  result_ = SparsifyResult{};
  next_round_ = 0;
  rearm_phase();
  bind_backbone(backbone);
  for (const EdgeId e : keep_offtree) {  // pre-validated above
    in_p_[static_cast<std::size_t>(e)] = 1;
    result_.edges.push_back(e);
  }
  elapsed_seconds_ = timer.seconds();
  result_.total_seconds = elapsed_seconds_;
  notify_stage(StageKind::kBackbone, elapsed_seconds_);
}

void Sparsifier::restore_result(double lambda_min, double lambda_max,
                                double sigma2_estimate, bool reached_target,
                                StepStatus status) {
  SSP_REQUIRE(backbone_ != nullptr,
              "restore_result: rebind() to the checkpointed backbone first");
  SSP_REQUIRE(is_terminal(status),
              "restore_result: status must be terminal");
  result_.lambda_min = lambda_min;
  result_.lambda_max = lambda_max;
  result_.sigma2_estimate = sigma2_estimate;
  result_.reached_target = reached_target;
  done_ = true;
  status_ = status;
}

}  // namespace ssp
