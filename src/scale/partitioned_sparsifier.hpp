#pragma once

/// \file partitioned_sparsifier.hpp
/// Partition-parallel sparsification — the scale layer that composes the
/// existing ingredients (recursive spectral bisection, the staged
/// `ssp::Sparsifier` engine, the deterministic thread pool, and
/// `Rng::split` stream derivation) into a block-wise pipeline for graphs
/// larger than one engine invocation handles comfortably:
///
///  1. **Partition** the input into k blocks via recursive bisection (or a
///     user-supplied per-vertex assignment).
///  2. **Extract** the induced block subgraphs and the cut graph (cut
///     edges + their boundary vertices) with local ↔ global id maps
///     (graph/subgraph.hpp), in one pass.
///  3. **Sparsify blocks** concurrently: one engine per connected
///     component of each block, fanned out over the global ThreadPool.
///     Every component draws from its own `Rng::split`-derived stream, so
///     the result is bit-identical for any thread count. Components that
///     are already trees are kept verbatim (their κ is 1) without paying
///     for an engine.
///  4. **Sparsify the cut** so inter-block spectral structure survives,
///     per `CutPolicy`: keep every cut edge, filter them with a dedicated
///     engine pass over the cut graph, or keep one heaviest representative
///     per adjacent block pair (quotient).
///  5. **Stitch** block selections and surviving cut edges into one global
///     edge list (block order, then cut), repair connectivity if the cut
///     policy dropped a bridge, and optionally estimate global quality /
///     apply the scalar rescale stage (core/rescale.hpp).
///
/// Semantics:
///  * `partitions == 1` (without a user assignment) bypasses the layer
///    entirely and reproduces the whole-graph `Sparsifier::run()` edge
///    list **bit for bit** — the k = 1 column of bench_partitioned is the
///    whole-graph engine.
///  * The stitched sparsifier always preserves connectivity: every engine
///    keeps a spanning tree of its component, and the union of block
///    spanning forests with a spanning forest of the cut graph connects
///    everything the input connects (kQuotient runs an explicit repair
///    scan instead). Disconnected inputs are supported — unlike the
///    whole-graph engine — and keep exactly the input's components.
///  * Determinism: the result is a pure function of (graph, assignment or
///    partitioner options, options-without-threads, seeds). Component
///    engines receive seeds derived as
///    `Rng(block.seed).split(block_id).split(component)`; the cut pass
///    derives from stream ids ≥ k so cut streams never collide with block
///    streams. `threads` changes wall time only.
///
/// σ² caveat: block σ² targets are local — the global condition number of
/// the stitched sparsifier is typically somewhat above the per-block
/// target (cut edges are filtered separately), which is the classic
/// quality/scale trade studied in bench_partitioned. Use
/// `estimate_quality` (or the bench) to measure it.

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/rescale.hpp"
#include "core/sparsifier.hpp"
#include "core/sparsifier_engine.hpp"
#include "partition/recursive_bisection.hpp"
#include "scale/quality.hpp"

namespace ssp {

/// What happens to the inter-block (cut) edges.
enum class CutPolicy {
  kKeepAll,   ///< keep every cut edge (safest, densest)
  kFilter,    ///< engine pass over the cut graph (default)
  kQuotient,  ///< one heaviest edge per adjacent block pair + repair
};

/// Pipeline stages of a partitioned run, indexing
/// `PartitionedResult::stage_seconds`.
enum class ScaleStage {
  kPartition,     ///< recursive bisection / assignment validation
  kExtract,       ///< block + cut subgraph extraction
  kBlockSparsify, ///< concurrent per-block engines
  kCutSparsify,   ///< cut policy application
  kStitch,        ///< global edge list assembly + connectivity repair
  kQuality,       ///< global (λ_min, λ_max, σ²) estimate / rescale
};

/// Number of ScaleStage values (for per-stage accumulation arrays).
inline constexpr int kNumScaleStages = 6;

struct PartitionedOptions {
  /// Target block count k (>= 1). 1 bypasses partitioning entirely.
  /// Ignored when a user assignment is supplied.
  Index partitions = 4;
  CutPolicy cut_policy = CutPolicy::kFilter;
  /// Engine options for the block passes; `block.seed` is the root of
  /// every derived stream and `block.threads` is ignored (block engines
  /// run single-threaded inside the outer fan-out).
  SparsifyOptions block;
  /// Engine options for the cut pass (kFilter); defaults to `block`.
  std::optional<SparsifyOptions> cut;
  /// Partitioner configuration; `partitioner.num_parts` is overridden by
  /// `partitions`.
  RecursiveBisectionOptions partitioner;
  /// Concurrent component engines (0 = `ssp::default_threads()`). Changes
  /// wall time only, never the result.
  int threads = 0;
  /// Estimate global (λ_min, λ_max, σ²) of the stitched sparsifier
  /// (scale/quality.hpp; needs a connected input).
  bool estimate_quality = false;
  /// Apply the scalar rescale stage to the stitched sparsifier (implies
  /// estimate_quality).
  bool rescale = false;

  /// Full validation; throws std::invalid_argument on the first violated
  /// constraint (including `block.validate()` / `cut->validate()`).
  void validate() const;

  PartitionedOptions& with_partitions(Index k);
  PartitionedOptions& with_cut_policy(CutPolicy policy);
  PartitionedOptions& with_block_options(SparsifyOptions opts);
  PartitionedOptions& with_cut_options(SparsifyOptions opts);
  PartitionedOptions& with_threads(int n);
  PartitionedOptions& with_estimate_quality(bool on);
  PartitionedOptions& with_rescale(bool on);
};

/// Sentinel `BlockStats::block` value for the cut pass.
inline constexpr Index kCutBlock = -1;

/// Telemetry of one block (or the cut pass) of a partitioned run.
struct BlockStats {
  Index block = 0;        ///< block id, or kCutBlock for the cut pass
  Vertex vertices = 0;    ///< vertices in the block subgraph
  EdgeId edges = 0;       ///< edges in the block subgraph
  EdgeId kept_edges = 0;  ///< edges selected into the global sparsifier
  Index components = 0;   ///< connected components processed
  Index tree_components = 0;  ///< components kept verbatim (already trees)
  double sigma2_estimate = 0.0;  ///< worst (max) component estimate
  bool reached_target = true;    ///< all engine components reached σ²
  double seconds = 0.0;          ///< wall time summed over components
  /// Engine stage seconds summed over components, indexed by StageKind.
  std::array<double, kNumStageKinds> stage_seconds{};
};

struct PartitionedResult {
  /// Global edge ids of G forming the sparsifier: block selections in
  /// block order (each engine's backbone-first order preserved), then
  /// surviving cut edges, then connectivity-repair additions.
  std::vector<EdgeId> edges;
  /// Per-vertex block id actually used (from the partitioner or caller).
  std::vector<Vertex> assignment;
  Index blocks = 0;  ///< block count actually produced
  CutPolicy cut_policy = CutPolicy::kFilter;
  EdgeId cut_edges_total = 0;  ///< cut edges in the input partition
  EdgeId cut_edges_kept = 0;   ///< cut edges in the sparsifier
  std::vector<BlockStats> block_stats;     ///< one per block, in id order
  std::optional<BlockStats> cut_stats;     ///< kFilter engine pass only
  /// Wall seconds per ScaleStage (kQuality covers estimate + rescale).
  std::array<double, kNumScaleStages> stage_seconds{};
  double total_seconds = 0.0;
  /// Global quality of the stitched sparsifier (estimate_quality/rescale).
  std::optional<SparsifierQuality> quality;
  /// Scalar rescale outcome (opts.rescale): re-weighted sparsifier graph,
  /// scale factor and the two-sided σ² bounds before/after.
  std::optional<RescaleResult> rescaled;

  /// Materializes the (unscaled) sparsifier as a finalized graph on g's
  /// vertex set. For the re-weighted variant use `rescaled->sparsifier`.
  [[nodiscard]] Graph extract(const Graph& g) const {
    return g.edge_subgraph(edges);
  }
  [[nodiscard]] EdgeId num_edges() const {
    return static_cast<EdgeId>(edges.size());
  }
};

/// Partition-parallel sparsification driver. Bind to a finalized graph
/// (connected or not; must outlive the driver), configure via
/// `PartitionedOptions`, call `run()` once. Not copyable; API-level
/// single-threaded like the engine (internally fans out).
class PartitionedSparsifier {
 public:
  /// Partition chosen by recursive bisection (opts.partitions blocks).
  explicit PartitionedSparsifier(const Graph& g, PartitionedOptions opts = {});

  /// Caller-supplied per-vertex block assignment: `assignment[v]` in
  /// [0, k) with k = max id + 1; every id in [0, k) must be non-empty.
  /// Singleton blocks are legal (they contribute no block edges; their cut
  /// edges still connect them). `opts.partitions` is ignored.
  PartitionedSparsifier(const Graph& g, std::vector<Vertex> assignment,
                        PartitionedOptions opts = {});

  PartitionedSparsifier(const PartitionedSparsifier&) = delete;
  PartitionedSparsifier& operator=(const PartitionedSparsifier&) = delete;

  /// Runs the five-stage pipeline to completion. Idempotent: subsequent
  /// calls return the cached result.
  const PartitionedResult& run();

  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] const PartitionedResult& result() const { return result_; }
  [[nodiscard]] const PartitionedOptions& options() const { return opts_; }

  /// Moves the result out of a finished driver without copying the edge
  /// list; the driver is spent afterwards. Used by the one-shot wrapper.
  [[nodiscard]] PartitionedResult take_result() { return std::move(result_); }

 private:
  void run_whole_graph();  ///< partitions == 1 bit-for-bit fast path
  void run_partitioned();
  void quality_stage(const Graph& g);
  void notify_stage(ScaleStage stage, double seconds);

  const Graph* g_;
  PartitionedOptions opts_;
  std::optional<std::vector<Vertex>> user_assignment_;
  PartitionedResult result_;
  bool done_ = false;
};

/// One-shot convenience wrapper.
[[nodiscard]] PartitionedResult partitioned_sparsify(
    const Graph& g, const PartitionedOptions& opts = {});

}  // namespace ssp
