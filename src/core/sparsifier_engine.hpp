#pragma once

/// \file sparsifier_engine.hpp
/// Stateful similarity-aware sparsification engine.
///
/// The paper's pipeline is inherently staged — backbone → (λ_min, λ_max)
/// estimation → Joule-heat embedding → θ_σ filtering → dissimilar-batch
/// acceptance — and `ssp::Sparsifier` exposes exactly those seams:
///
///  * `run()` drives the densification loop to completion;
///  * `step()` executes one round at a time (identical results: a seeded
///    step()-driven run reproduces the one-shot edge list bit-for-bit);
///  * `result()` is the accumulated `SparsifyResult` at any point;
///  * `refine(sigma2)` re-arms a finished engine at a new similarity
///    target, keeping the edge set, backbone, tree solver/preconditioner,
///    and scratch workspace — resuming densification instead of starting
///    over (the GRASS-style iterative-refinement workflow). Per-round
///    solver state that depends on the growing edge set (L_P) is rebuilt
///    each round, warm or cold;
///  * `rebind(graph, backbone, seed)` warm-starts on a different graph
///    (any topology, e.g. re-weighted edges) with a caller-supplied
///    backbone, reusing every workspace buffer.
///
/// Observability: `result()` carries the per-round record (`rounds`) and
/// the wall seconds of every pipeline stage (`stage_seconds`); each stage
/// also lands in the `engine.stage.*` metrics and as a trace span. Attach
/// a `StageObserver` for the one live hook, `on_round`, which sees each
/// round as it finishes and may cancel the run by returning false.
///
/// The engine owns all per-round scratch (sparsifier membership bitmap,
/// power-iteration vectors, off-tree heat arrays), so repeated rounds —
/// and repeated warm starts on same-size graphs — perform no steady-state
/// allocation in the embedding path.
///
/// Determinism contract (threads): the engine's result is a pure function
/// of (graph, options-without-threads, seed). `SparsifyOptions::threads`
/// — and the SSP_THREADS environment default behind `threads == 0` —
/// changes only wall time, never a single bit of the final edge list or
/// the telemetry estimates. Two mechanisms guarantee this:
///
///  1. **Per-stream RNG.** Every parallel unit of work (probe vector j of
///     the Joule-heat embedding, JL sketch i of the SS baseline) draws
///     from its own `Rng::split(stream_id)` child generator, derived from
///     the engine seed — the random sequence a unit consumes depends only
///     on its stream id, never on which thread executes it.
///  2. **Deterministic reductions.** Solved probe iterates are stored per
///     probe and their per-edge heat contributions summed in stream
///     order; every other parallel loop writes each output location from
///     exactly one chunk. No floating-point sum ever depends on the
///     chunk decomposition.
///
/// The switch from one shared sequential RNG to derived per-probe streams
/// changed one-shot `sparsify()` output once (relative to the pre-threaded
/// library); it is now fixed regardless of thread count, and the
/// sequential path (`threads = 1`) draws the identical derived streams.
///
/// Thread-compatibility: a `Sparsifier` instance is single-threaded at the
/// API level — calls into one instance must not overlap, while internally
/// each step fans work out over the global pool; distinct instances are
/// independent. The engine is neither copyable nor movable (inner solvers
/// hold references into the instance).

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/embedding.hpp"
#include "core/sparsifier.hpp"
#include "la/csr_matrix.hpp"
#include "solver/preconditioner.hpp"
#include "tree/spanning_tree.hpp"
#include "tree/tree_solver.hpp"
#include "util/rng.hpp"

namespace ssp {

/// Per-round hook of the engine: live telemetry and cancellation. The
/// callback runs synchronously on the engine's thread and must not
/// re-enter the engine (reading `result()` is fine).
class StageObserver {
 public:
  virtual ~StageObserver() = default;

  /// Called after every densification round with its telemetry (including
  /// the terminal estimate-only round). Return false to cancel: the engine
  /// finishes with StepStatus::kCancelled and keeps the edges accepted so
  /// far. The returned value is ignored on rounds that already terminate
  /// the run.
  virtual bool on_round(const DensifyRound& /*round*/) { return true; }
};

/// Outcome of a `step()` (and, for the terminal statuses, of `run()`).
enum class StepStatus {
  kAdvanced,    ///< a round ran and accepted edges; more work may remain
  kConverged,   ///< σ² target reached — `result().reached_target` is true
  kExhausted,   ///< no off-tree edges left to add (σ² target unreachable)
  kRoundLimit,  ///< max_rounds exhausted before reaching the target
  kCancelled,   ///< a StageObserver::on_round returned false
};

/// True for every status except kAdvanced.
[[nodiscard]] constexpr bool is_terminal(StepStatus s) {
  return s != StepStatus::kAdvanced;
}

class Sparsifier {
 public:
  /// Validates `opts` and binds the engine to `g` (connected, finalized;
  /// must outlive the engine). The backbone is built lazily on the first
  /// `step()`/`run()`.
  explicit Sparsifier(const Graph& g, SparsifyOptions opts = {});

  /// Caller-supplied backbone (must span `g`; both must outlive the
  /// engine). `opts.backbone` is ignored. Used by tests and ablation
  /// benches that study backbone choices in isolation.
  Sparsifier(const Graph& g, const SpanningTree& backbone,
             SparsifyOptions opts = {});

  Sparsifier(const Sparsifier&) = delete;
  Sparsifier& operator=(const Sparsifier&) = delete;

  /// Attaches (or detaches, with nullptr) the per-round observer. The
  /// observer must outlive the engine or be detached first.
  void set_observer(StageObserver* observer) { observer_ = observer; }

  /// Executes one densification round (§3.7). No-op returning the final
  /// status when the engine is already done.
  StepStatus step();

  /// Steps until a terminal status; returns it.
  StepStatus run();

  /// True once a terminal status was reached (reset by warm starts).
  [[nodiscard]] bool done() const { return done_; }

  /// Status of the most recent step (kAdvanced before any work).
  [[nodiscard]] StepStatus status() const { return status_; }

  /// Accumulated result. Before the first step the edge list is empty;
  /// after any step it always contains at least the backbone.
  [[nodiscard]] const SparsifyResult& result() const { return result_; }

  /// Moves the result out of a finished engine without copying the edge
  /// and telemetry vectors. The engine's accumulated state is gone
  /// afterwards: destroy it or warm-start with rebind(); step(),
  /// run(), and refine() are no longer valid. Used by the one-shot
  /// wrappers.
  [[nodiscard]] SparsifyResult take_result() { return std::move(result_); }

  /// The graph currently being sparsified — the constructor argument, or
  /// the graph passed to the latest `rebind()`.
  [[nodiscard]] const Graph& graph() const { return *g_; }

  [[nodiscard]] const SparsifyOptions& options() const { return opts_; }

  /// Total rounds executed across all phases (cold run + warm starts).
  [[nodiscard]] Index rounds_completed() const { return next_round_; }

  /// Warm start at a new σ² target: keeps the accepted edge set, backbone,
  /// tree solver/preconditioner, and workspace, re-arms the engine with a
  /// fresh round budget, and resumes on the next `step()`/`run()`.
  /// Tightening the target densifies incrementally; loosening simply stops
  /// earlier (already-accepted edges are never removed).
  void refine(double new_sigma2);

  /// Warm start on a different graph (any topology) with a caller-supplied
  /// backbone — the warm start behind the dynamic update layer
  /// (src/dynamic/). Both `g` and `backbone` must outlive the engine, and
  /// `backbone` must span `g`. The engine re-seeds its Rng with `seed` and
  /// restarts densification from the backbone, reusing every workspace
  /// buffer, so the run is bit-identical to a cold
  /// `Sparsifier(g, backbone, opts.with_seed(seed))` run — only cheaper
  /// (no allocation, no connectivity re-check).
  ///
  /// `keep_offtree` optionally pre-accepts off-tree edges of `g` (valid
  /// ids, not tree edges, pairwise distinct) into the sparsifier before the
  /// first round — the incremental-refine warm start: densification then
  /// tops up from the previous selection instead of from the bare tree.
  void rebind(const Graph& g, const SpanningTree& backbone,
              std::uint64_t seed, std::span<const EdgeId> keep_offtree = {});

  /// Checkpoint-restore companion to `rebind()`: stamps the telemetry
  /// scalars of a previously *finished* run onto the freshly rebound
  /// result and marks the engine done with `status` (which must be
  /// terminal), without running a single round. After
  /// `rebind(g, backbone, seed, offtree)` + `restore_result(...)` the
  /// engine's `result()`, `done()`, and `status()` match the engine that
  /// originally produced the checkpoint bit for bit — so a restored
  /// serving session answers quality queries correctly and its next
  /// warm-refine `rebind()` sees the identical previous selection.
  void restore_result(double lambda_min, double lambda_max,
                      double sigma2_estimate, bool reached_target,
                      StepStatus status);

 private:
  void ensure_backbone();
  void bind_backbone(const SpanningTree& backbone);
  void rearm_phase();
  /// Builds the L_P⁺ operator for the current sparsifier: the backbone
  /// tree solver while P is the bare tree, tree-preconditioned PCG on L_P
  /// after. When `panel` is non-null and the sparsifier supports a blocked
  /// multi-RHS apply (the tree-only rounds), `*panel` receives the panel
  /// form; otherwise it is left empty and callers fall back to column-wise
  /// solves.
  [[nodiscard]] LinOp make_solver(double* setup_seconds,
                                  PanelOp* panel = nullptr);
  void final_estimate();
  /// Stamps seconds, records, and notifies; returns on_round's verdict.
  bool finish_round(DensifyRound& stats, double seconds);
  /// Adds a finished stage's seconds to `result_.stage_seconds`, the
  /// `engine.stage.*` metrics and the trace.
  void notify_stage(StageKind stage, double seconds);
  StepStatus step_impl();

  const Graph* g_;
  SparsifyOptions opts_;
  StageObserver* observer_ = nullptr;

  std::optional<SpanningTree> owned_backbone_;
  const SpanningTree* external_backbone_ = nullptr;
  const SpanningTree* backbone_ = nullptr;  ///< active backbone (once built)
  std::optional<TreeSolver> tree_solver_;
  std::optional<TreePreconditioner> tree_precond_;

  CsrMatrix lg_;  ///< Laplacian of *g_, built once per (re)binding
  Rng rng_;

  // Engine-owned workspace, reused every round.
  std::vector<char> in_p_;       ///< sparsifier membership per edge id
  CsrMatrix lp_;                 ///< current L_P (non-tree-only rounds)
  EmbeddingWorkspace emb_ws_;    ///< power-iteration vectors
  OffTreeEmbedding emb_;         ///< off-tree heats, refilled in place

  SparsifyResult result_;
  Index next_round_ = 0;         ///< global round counter (stats.round)
  Index rounds_this_phase_ = 0;  ///< rounds since ctor / last warm start
  bool done_ = false;
  StepStatus status_ = StepStatus::kAdvanced;
  double elapsed_seconds_ = 0.0;
};

}  // namespace ssp
