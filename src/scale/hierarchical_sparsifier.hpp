#pragma once

/// \file hierarchical_sparsifier.hpp
/// Out-of-core hierarchical sparsification — the scale layer for graphs
/// that do not fit the resident-memory budget as one heap `Graph`. Where
/// `PartitionedSparsifier` materializes every block subgraph up front,
/// this driver consumes a `GraphView` (typically an mmap'd `.sspb`,
/// storage/mapped_graph.hpp) and keeps at most **one** leaf subgraph on
/// the heap at a time:
///
///  1. **Order**: a deterministic BFS over the view (roots in ascending
///     vertex id, neighbors in CSR order) yields a locality-preserving
///     vertex order, so contiguous ranges of it have few cut edges.
///  2. **Split**: the root range [0, n) is split recursively — each range
///     whose estimated heap-subgraph footprint exceeds the budget is cut
///     at its degree-sum midpoint — producing a shallow binary hierarchy
///     whose leaves all fit. Estimation uses prefix degree sums only;
///     nothing is extracted to decide the shape.
///  3. **Leaves, one at a time**: each leaf's induced subgraph is
///     extracted from the view (graph/subgraph.hpp, CSR row scans), its
///     connected components are sparsified exactly like a
///     `PartitionedSparsifier` block (tree components verbatim, one
///     single-threaded engine per component fanned out over the pool),
///     and the heap subgraph is dropped before the next leaf starts. A
///     release hook (`MappedGraph::release_pages`) runs between leaves so
///     the page cache working set stays bounded too.
///  4. **Cut edges are kept verbatim** (ascending host edge id) — the
///     hierarchy is shallow by construction, so the cut is small relative
///     to the leaf interiors, and keeping it preserves connectivity
///     without a second out-of-core pass.
///
/// Semantics:
///  * **Whole-graph parity**: when the root range fits the budget and the
///    graph is connected, the driver materializes it once and runs the
///    whole-graph engine with `opts.block` verbatim — the result edge
///    list is bit-identical to `Sparsifier::run()` on the heap graph
///    (the k = 1 contract of the out-of-core smoke test).
///  * **Determinism**: the result is a pure function of (graph,
///    options-without-threads). Leaf ranges depend only on CSR adjacency
///    (identical between heap and mmap producers of the same logical
///    graph); component engines draw seeds
///    `Rng(block.seed).split(leaf).split(component)`. `threads` changes
///    wall time only.
///  * **Connectivity**: every engine keeps a spanning tree of its
///    component and every cut edge survives, so the output connects
///    exactly what the input connects.
///  * **Memory**: the budget bounds the materialized leaf subgraph, not
///    the driver's O(n) bookkeeping (BFS order, prefix degree sums, leaf
///    assignment — a few machine words per vertex) nor the cut edge list.

#include <cstdint>
#include <functional>
#include <vector>

#include "core/sparsifier.hpp"
#include "graph/graph_view.hpp"
#include "scale/partitioned_sparsifier.hpp"

namespace ssp::storage {
class MappedGraph;
}  // namespace ssp::storage

namespace ssp {

struct HierarchicalOptions {
  /// Resident-memory budget in bytes for one materialized leaf subgraph
  /// (edge list + CSR arrays + id maps, conservatively estimated). The
  /// whole graph fitting the budget triggers the whole-graph fast path.
  std::uint64_t memory_budget_bytes = 256ull << 20;
  /// Engine options for the leaf passes; `block.seed` roots every derived
  /// stream. On the whole-graph fast path `block` is used verbatim
  /// (threads included); inside leaves engines run single-threaded.
  SparsifyOptions block;
  /// Concurrent component engines within one leaf (0 =
  /// `ssp::default_threads()`). Changes wall time only, never the result.
  int threads = 0;
  /// Recursion guard: a range at this depth becomes a leaf even when it
  /// exceeds the budget (as does any range of one vertex).
  Index max_depth = 48;

  /// Throws std::invalid_argument on the first violated constraint
  /// (including `block.validate()`).
  void validate() const;

  HierarchicalOptions& with_memory_budget_bytes(std::uint64_t bytes);
  HierarchicalOptions& with_block_options(SparsifyOptions opts);
  HierarchicalOptions& with_threads(int n);
  HierarchicalOptions& with_max_depth(Index depth);
};

struct HierarchicalResult {
  /// Host edge ids of the sparsifier: leaf selections in leaf order (each
  /// engine's backbone-first order preserved), then every cut edge in
  /// ascending host edge id.
  std::vector<EdgeId> edges;
  Index leaves = 0;        ///< leaf count of the split hierarchy
  Index depth = 0;         ///< deepest leaf (0 = unsplit root)
  EdgeId cut_edges = 0;    ///< inter-leaf edges (all kept)
  bool whole_graph = false;  ///< whole-graph fast path taken
  /// Per-leaf telemetry in leaf order (`BlockStats::block` is the leaf
  /// id); empty on the whole-graph fast path except for leaf 0.
  std::vector<BlockStats> leaf_stats;
  double total_seconds = 0.0;

  [[nodiscard]] EdgeId num_edges() const {
    return static_cast<EdgeId>(edges.size());
  }
};

/// Out-of-core hierarchical sparsification driver. Bind to a finalized
/// view (which must outlive the driver), configure, call `run()` once.
/// Not copyable; API-level single-threaded like the engine.
class HierarchicalSparsifier {
 public:
  explicit HierarchicalSparsifier(GraphView g, HierarchicalOptions opts = {});

  HierarchicalSparsifier(const HierarchicalSparsifier&) = delete;
  HierarchicalSparsifier& operator=(const HierarchicalSparsifier&) = delete;

  /// Called after each processed leaf (and after the ordering pass) —
  /// wire `MappedGraph::release_pages` here to drop the page-cache
  /// working set between leaves. Must outlive the driver or be cleared.
  void set_release_hook(std::function<void()> hook) {
    release_hook_ = std::move(hook);
  }

  /// Runs ordering, splitting, and every leaf to completion. Idempotent:
  /// subsequent calls return the cached result.
  const HierarchicalResult& run();

  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] const HierarchicalResult& result() const { return result_; }
  [[nodiscard]] const HierarchicalOptions& options() const { return opts_; }

  /// Moves the result out of a finished driver without copying the edge
  /// list; the driver is spent afterwards.
  [[nodiscard]] HierarchicalResult take_result() {
    return std::move(result_);
  }

  /// Conservative heap footprint estimate (bytes) of materializing a
  /// subgraph with `vertices` vertices and `directed_entries` CSR entries
  /// (= twice its edge count). Exposed so tools and benches can report
  /// the same number the splitter compares against the budget.
  [[nodiscard]] static std::uint64_t estimate_subgraph_bytes(
      Vertex vertices, std::uint64_t directed_entries);

 private:
  void release() const {
    if (release_hook_) release_hook_();
  }

  GraphView g_;
  HierarchicalOptions opts_;
  std::function<void()> release_hook_;
  HierarchicalResult result_;
  bool done_ = false;
};

/// One-shot convenience wrapper over a view.
[[nodiscard]] HierarchicalResult hierarchical_sparsify(
    GraphView g, const HierarchicalOptions& opts = {});

/// One-shot wrapper over an mmap'd graph with the release hook wired to
/// `g.release_pages()` — the out-of-core entry point of ssp_sparsify and
/// bench_outofcore.
[[nodiscard]] HierarchicalResult hierarchical_sparsify(
    const storage::MappedGraph& g, const HierarchicalOptions& opts = {});

}  // namespace ssp
