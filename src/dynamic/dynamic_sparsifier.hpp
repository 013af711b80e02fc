#pragma once

/// \file dynamic_sparsifier.hpp
/// Dynamic update layer: batched edge insertions / deletions / reweights
/// applied incrementally to a live sparsifier, instead of a cold
/// `Sparsifier::run()` from scratch after every change — the
/// continuously-changing-traffic workflow the GRASS-style
/// spectral-perturbation literature targets.
///
/// `ssp::DynamicSparsifier` owns the evolving graph plus its current
/// sparsifier state and applies `UpdateBatch`es:
///
///  1. **Validate** the whole batch up front (ids, weights, and — via one
///     union-find pass over the surviving edges — connectivity), so a bad
///     batch throws before any state changes.
///  2. **Apply**: weights are patched in place, inserted edges appended,
///     removed edges compacted out of the id space.
///  3. **Backbone + route**: the backbone is recomputed by Kruskal on the
///     updated graph (`max_weight_spanning_tree`) and handed to
///     `Sparsifier::rebind()`, which reuses the engine workspace. The batch
///     is labelled `kResparsify` when it only reweights and leaves the
///     tree-edge set unchanged, `kTreeRepair` when the graph's topology or
///     the tree-edge set changed, and `kRebuild` when its dirty fraction
///     (touched edges / final edge count) reaches 0.25 — the batches on
///     which warm refine drops its kept selection.
///  4. **Sparsify**: the engine densifies to the σ² target and the new
///     result replaces the old one.
///
/// Determinism contract (incremental ≡ cold): the backbone is pinned to
/// the **canonical maximum-weight spanning tree** — unique under the
/// (weight desc, edge id asc) total order, which is the order Kruskal's
/// stable sort accepts edges in (`DynamicOptions::base.backbone` is
/// therefore ignored). Batch `b` (the constructor's initial build is
/// batch 0) seeds its engine run with the derived stream
/// `Rng(base.seed).split(b)`, so:
///
///  * after any batch, `result()` is **bit-identical** to
///    `sparsify(graph(), cold_equivalent_options())` — a cold rebuild on
///    the final graph — whatever mix of batches produced it (with
///    `warm_refine` off, the default);
///  * thread counts change wall time only (the engine's own contract,
///    sparsifier_engine.hpp, carries over verbatim);
///  * distinct batches draw from decorrelated split streams, so replaying
///    a journal is reproducible batch by batch.
///
/// `with_warm_refine(true)` trades that bit-exactness for speed: the
/// previous off-tree selection is pre-accepted via `rebind()`'s
/// `keep_offtree`, so an update whose sparsifier still meets the σ²
/// target finishes after a single estimation round. Results then drift
/// from the cold rebuild (they keep edges a cold run would re-rank) but
/// stay spectrally equivalent — κ still converges to the same σ² target,
/// and every `kRebuild` batch bounds the drift by resetting to the cold
/// path. The differential harness (tests/harness.hpp) checks
/// both regimes.
///
/// The vertex set is fixed for the lifetime of the sparsifier; deletions
/// that would disconnect the graph are rejected.

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/sparsifier.hpp"
#include "core/sparsifier_engine.hpp"
#include "tree/spanning_tree.hpp"
#include "util/union_find.hpp"

namespace ssp {

/// Weight replacement for one existing edge.
struct WeightUpdate {
  EdgeId edge = kInvalidEdge;
  double weight = 0.0;  ///< new weight (> 0, finite)
};

/// One batch of updates. `remove` and `reweight` reference edge ids of
/// the graph *before* the batch; `insert` edges are appended after the
/// removals compact the id space (so the k-th inserted edge gets id
/// `graph().num_edges() - insert.size() + k` once the batch lands).
struct UpdateBatch {
  std::vector<Edge> insert;
  std::vector<EdgeId> remove;
  std::vector<WeightUpdate> reweight;

  [[nodiscard]] bool empty() const {
    return insert.empty() && remove.empty() && reweight.empty();
  }
  [[nodiscard]] EdgeId size() const {
    return static_cast<EdgeId>(insert.size() + remove.size() +
                               reweight.size());
  }
};

/// How a batch reached the engine.
enum class UpdateRoute {
  kResparsify,  ///< reweight-only, tree-edge set unchanged
  kTreeRepair,  ///< topology or tree-edge set changed
  kRebuild,     ///< dirty fraction >= 0.25 — warm refine drops its keeps
};

/// Stages of one applied batch, indexing `UpdateStats::stage_seconds`.
enum class DynamicStage {
  kValidate,    ///< batch validation incl. connectivity pre-check
  kApplyGraph,  ///< graph mutation + CSR rebuild
  kTreeRepair,  ///< Kruskal backbone + rooting
  kRebind,      ///< engine warm-start rebind
  kSparsify,    ///< engine densification run
};

/// Number of DynamicStage values (for per-stage accumulation arrays).
inline constexpr int kNumDynamicStages = 5;

/// Telemetry of one applied batch (or the initial build, batch 0).
struct UpdateStats {
  Index batch = 0;           ///< 0 = initial build
  EdgeId inserted = 0;
  EdgeId removed = 0;
  EdgeId reweighted = 0;
  /// Removed ids that were edges of the pre-batch backbone.
  EdgeId tree_removed = 0;
  /// Edges of the new backbone absent from the pre-batch one (compared
  /// after the removal remap; inserted edges count).
  EdgeId tree_swaps = 0;
  double dirty_fraction = 0.0;
  UpdateRoute route = UpdateRoute::kRebuild;
  EdgeId graph_edges = 0;       ///< |E| after the batch
  EdgeId sparsifier_edges = 0;  ///< |Es| after re-sparsification
  double sigma2_estimate = 0.0;
  bool reached_target = false;
  double seconds = 0.0;
  /// Wall seconds per DynamicStage for this batch.
  std::array<double, kNumDynamicStages> stage_seconds{};
};

/// Per-batch hook: `on_update` runs once per applied batch, after the
/// batch is recorded in `history()`, with its telemetry. It runs on the
/// applying thread, so blocking in it holds that `apply()` call open; it
/// must not re-enter the layer. The initial build (batch 0) completes
/// before an observer can attach; its telemetry is `history().front()`.
class DynamicObserver {
 public:
  virtual ~DynamicObserver() = default;
  virtual void on_update(const UpdateStats& /*stats*/) {}
};

struct DynamicOptions {
  /// Engine options for every (re-)sparsification. `base.seed` is the
  /// root of the per-batch split streams; `base.backbone` is ignored
  /// (the layer pins the canonical max-weight tree — see the file
  /// comment).
  SparsifyOptions base;
  /// Pre-accept the previous off-tree selection instead of densifying
  /// from the bare tree (faster, spectrally equivalent, not bit-equal to
  /// a cold rebuild). Ignored on the kRebuild route.
  bool warm_refine = false;

  /// Full validation; throws std::invalid_argument on the first violated
  /// constraint (including `base.validate()`).
  void validate() const;

  DynamicOptions& with_base(SparsifyOptions opts);
  DynamicOptions& with_warm_refine(bool on);
};

/// Complete sparsifier state of a `DynamicSparsifier` at a batch
/// boundary — everything a fresh process needs to continue the update
/// stream bit-identically, *given the same graph* (reconstructed by
/// replaying the journal's graph mutations up to the same batch). This
/// is the payload `storage::save_checkpoint` serializes; the restoring
/// constructor consumes it without running a single engine round.
struct DynamicRestoreState {
  Vertex vertices = 0;  ///< graph shape check against the replayed graph
  EdgeId edges = 0;
  /// Canonical max-weight backbone (rooted tree-edge order,
  /// `SpanningTree::tree_edge_ids()` at capture time).
  std::vector<EdgeId> tree_edges;
  /// Accepted off-tree selection, in acceptance order (`result().edges`
  /// minus the tree prefix).
  std::vector<EdgeId> offtree_edges;
  /// Engine telemetry scalars of the captured terminal result.
  double lambda_min = 0.0;
  double lambda_max = 0.0;
  double sigma2_estimate = 0.0;
  bool reached_target = false;
  StepStatus status = StepStatus::kConverged;
  /// Full per-batch telemetry log (restores history()/batches_applied(),
  /// and with them the per-batch seed derivation for future batches).
  std::vector<UpdateStats> history;
};

/// Dynamic sparsifier driver. Copies the input graph, runs the initial
/// sparsification (batch 0) eagerly, then applies batches in order. Not
/// copyable; API-level single-threaded like the engine (each batch fans
/// out internally per `base.threads`).
class DynamicSparsifier {
 public:
  /// Binds to a copy of `g` (finalized, connected, >= 2 vertices) and
  /// runs the initial sparsification (batch 0).
  explicit DynamicSparsifier(const Graph& g, DynamicOptions opts = {});

  /// Warm restore: binds to a copy of `g` (which must be the graph the
  /// checkpointed instance held — same vertex and edge counts, same ids;
  /// callers rebuild it by replaying the journal's graph mutations) and
  /// re-creates engine selection and telemetry from `state` WITHOUT
  /// re-running the engine. The backbone is recomputed by Kruskal on `g`;
  /// throws std::invalid_argument unless it equals `state.tree_edges`.
  /// Afterwards `result()`, `history()`,
  /// and every future `apply()` are bit-identical to the instance that
  /// produced the checkpoint — the foundation of the serving daemon's
  /// kill/restart warm path.
  DynamicSparsifier(const Graph& g, DynamicOptions opts,
                    const DynamicRestoreState& state);

  /// Captures the full restore payload at the current batch boundary.
  [[nodiscard]] DynamicRestoreState restore_state() const;

  DynamicSparsifier(const DynamicSparsifier&) = delete;
  DynamicSparsifier& operator=(const DynamicSparsifier&) = delete;

  /// Attaches (or detaches, with nullptr) the per-batch observer; must
  /// outlive the driver or be detached first.
  void set_observer(DynamicObserver* observer) { observer_ = observer; }

  /// Applies one batch atomically: validation failures throw
  /// std::invalid_argument and leave graph, backbone, and sparsifier
  /// untouched. Returns this batch's telemetry (a copy; the full log
  /// stays in history()).
  UpdateStats apply(const UpdateBatch& batch);

  /// Single-kind conveniences, each one batch.
  UpdateStats insert_edges(std::span<const Edge> edges);
  UpdateStats delete_edges(std::span<const EdgeId> edge_ids);
  UpdateStats reweight_edges(std::span<const WeightUpdate> updates);

  /// The current (post-batch) graph. `result()` edge ids index into it.
  [[nodiscard]] const Graph& graph() const { return graph_; }

  /// The current sparsifier (engine result; backbone-first edge order).
  [[nodiscard]] const SparsifyResult& result() const;

  /// Telemetry of every batch applied so far, batch 0 first.
  [[nodiscard]] const std::vector<UpdateStats>& history() const {
    return history_;
  }

  /// Batches applied, counting the initial build.
  [[nodiscard]] Index batches_applied() const {
    return static_cast<Index>(history_.size());
  }

  /// Options whose cold `sparsify(graph(), cold_equivalent_options())`
  /// reproduces `result()` bit for bit (warm_refine off): the base
  /// options with the canonical kMaxWeight backbone and the current
  /// batch's derived seed. The differential harness rests on this.
  [[nodiscard]] SparsifyOptions cold_equivalent_options() const;

  /// The engine seed batch `batch` draws for a layer rooted at
  /// `base_seed` — the single definition of the per-batch stream
  /// derivation (benches and external cold baselines use it too).
  [[nodiscard]] static std::uint64_t batch_seed(std::uint64_t base_seed,
                                                Index batch) {
    return Rng(base_seed).split(static_cast<std::uint64_t>(batch))();
  }

  [[nodiscard]] const DynamicOptions& options() const { return opts_; }

 private:
  [[nodiscard]] std::uint64_t batch_seed(Index batch) const {
    return batch_seed(opts_.base.seed, batch);
  }
  void validate_batch(const UpdateBatch& batch) const;
  void notify_stage(DynamicStage stage, double seconds,
                    UpdateStats& stats) const;

  DynamicOptions opts_;
  Graph graph_;
  std::optional<SpanningTree> backbone_;   ///< Kruskal tree, rebuilt per batch
  std::optional<Sparsifier> engine_;
  DynamicObserver* observer_ = nullptr;
  std::vector<UpdateStats> history_;
  /// Connectivity pre-check scratch, reset() per batch instead of
  /// reallocated.
  mutable UnionFind uf_scratch_{0};
};

/// One-shot wrapper outcome: the final graph, its sparsifier, and the
/// per-batch telemetry.
struct DynamicResult {
  Graph graph;
  SparsifyResult result;
  std::vector<UpdateStats> history;
};

/// Replays `script` through a fresh `DynamicSparsifier` and returns the
/// final state.
[[nodiscard]] DynamicResult dynamic_sparsify(
    const Graph& g, std::span<const UpdateBatch> script,
    const DynamicOptions& opts = {});

/// Applies only the *graph* mutations of `batch` to `g` — reweights,
/// then inserts, then removals (with id compaction), then `finalize()`.
/// `DynamicSparsifier::apply` mutates its copy through this function, so
/// a sequence of batches replayed through it reproduces the dynamic
/// layer's graph bit for bit without paying a single re-sparsification.
/// This is the fast-forward step of checkpoint restore: replay the
/// journal's graph mutations up to the checkpointed batch, then hand the
/// graph plus the stored `DynamicRestoreState` to the restoring
/// constructor. Returns the removal remap (`Graph::remove_edges`' old →
/// new id map), empty when the batch removes nothing.
std::vector<EdgeId> apply_batch_to_graph(Graph& g, const UpdateBatch& batch);

}  // namespace ssp
