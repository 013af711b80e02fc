#pragma once

/// \file spanning_tree.hpp
/// Rooted spanning tree of a connected graph — the backbone of the paper's
/// sparsifier (§3.1 step (a)).
///
/// A `SpanningTree` references its host graph (which must outlive it) and
/// stores parent pointers, BFS order, depths, and the *resistance to root*
/// r(v) = Σ 1/w along the root path. Resistances give tree effective
/// resistances via LCA: R_T(u,v) = r(u) + r(v) − 2 r(lca), which is what
/// both the stretch computation and the "spectrally-unique" analysis of
/// paper §3.3 consume.

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/types.hpp"

namespace ssp {

class SpanningTree {
 public:
  /// Builds the rooted structure from exactly n−1 edge ids of `g` that form
  /// a spanning tree. Throws std::invalid_argument when the edge set is not
  /// a spanning tree of `g` (wrong count, cycle, or disconnected).
  SpanningTree(const Graph& g, std::vector<EdgeId> tree_edges,
               Vertex root = 0);

  [[nodiscard]] const Graph& graph() const { return *g_; }
  [[nodiscard]] Vertex root() const { return root_; }
  [[nodiscard]] Vertex num_vertices() const { return g_->num_vertices(); }

  /// Ids (into graph().edges()) of the n−1 tree edges.
  [[nodiscard]] std::span<const EdgeId> tree_edge_ids() const {
    return tree_edges_;
  }

  /// True when graph edge `e` is a tree edge.
  [[nodiscard]] bool contains(EdgeId e) const;

  /// Ids of all non-tree edges, in ascending id order.
  [[nodiscard]] std::vector<EdgeId> offtree_edge_ids() const;

  [[nodiscard]] EdgeId num_offtree_edges() const {
    return g_->num_edges() - static_cast<EdgeId>(tree_edges_.size());
  }

  /// Parent of `v` in the rooted tree (kInvalidVertex for the root).
  [[nodiscard]] Vertex parent(Vertex v) const;

  /// Graph edge id connecting `v` to its parent (kInvalidEdge for root).
  [[nodiscard]] EdgeId parent_edge(Vertex v) const;

  /// Weight of the parent edge (0 for the root).
  [[nodiscard]] double parent_weight(Vertex v) const;

  /// Hop depth (root = 0).
  [[nodiscard]] Index depth(Vertex v) const;

  /// Σ 1/w along the v → root path.
  [[nodiscard]] double resistance_to_root(Vertex v) const;

  /// Vertices in BFS order from the root (root first). Every vertex appears
  /// after its parent — the order used by the O(n) tree solver.
  ///
  /// Invariant (checked by the constructor): a permutation of [0, n), so
  /// the tree solves index their length-n arrays by these entries without
  /// a range check.
  [[nodiscard]] std::span<const Vertex> bfs_order() const { return order_; }

  /// Flat parent array indexed by vertex (kInvalidVertex at the root) —
  /// the raw form both tree solves (`TreeSolver::solve` and the blocked
  /// `solve_multi` kernels) read.
  ///
  /// Invariant (checked by the constructor): every non-root entry is a
  /// vertex in [0, n); only `parents()[root()]` is kInvalidVertex, and the
  /// solves never dereference it (they skip order[0], the root).
  [[nodiscard]] std::span<const Vertex> parents() const { return parent_; }

  /// Flat parent-edge-weight array indexed by vertex (0 at the root).
  [[nodiscard]] std::span<const double> parent_weights() const {
    return parent_w_;
  }

  /// The tree as a standalone (finalized) graph on the same vertex set.
  [[nodiscard]] Graph as_graph() const;

 private:
  const Graph* g_;
  std::vector<EdgeId> tree_edges_;
  std::vector<char> in_tree_;  // indexed by graph edge id
  Vertex root_;
  std::vector<Vertex> parent_;
  std::vector<EdgeId> parent_eid_;
  std::vector<double> parent_w_;
  std::vector<Index> depth_;
  std::vector<double> res_to_root_;
  std::vector<Vertex> order_;
};

}  // namespace ssp
