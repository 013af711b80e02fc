#pragma once

/// \file graph.hpp
/// Weighted undirected graph — the central data structure of the library.
///
/// A `Graph` is an edge list plus (after `finalize()`) a CSR adjacency
/// structure in struct-of-arrays layout. Edge identifiers are stable indices
/// into the edge list; the sparsification pipeline uses them to mark tree /
/// off-tree / selected edges without copying the graph.
///
/// Invariants: no self-loops, strictly positive weights, vertex ids in
/// [0, num_vertices). Parallel edges are permitted at assembly time
/// (generators may produce them); `coalesce_parallel_edges()` merges them by
/// summing weights, and `laplacian()` is correct either way.

#include <span>
#include <vector>

#include "util/assert.hpp"
#include "util/types.hpp"

namespace ssp {

/// One undirected edge {u, v} with positive weight.
struct Edge {
  Vertex u = kInvalidVertex;
  Vertex v = kInvalidVertex;
  double weight = 0.0;
};

class Graph {
 public:
  Graph() = default;

  /// Creates a graph with `n` isolated vertices.
  explicit Graph(Vertex n);

  [[nodiscard]] Vertex num_vertices() const { return n_; }
  [[nodiscard]] EdgeId num_edges() const {
    return static_cast<EdgeId>(edges_.size());
  }

  /// Appends the undirected edge {u, v} with weight `w` (> 0); returns its
  /// id. Invalidates the adjacency structure until the next finalize().
  EdgeId add_edge(Vertex u, Vertex v, double w);

  /// Reserves room for `m` edges in total (a generator that knows its
  /// edge count appends without reallocating).
  void reserve_edges(EdgeId m) {
    edges_.reserve(static_cast<std::size_t>(m));
  }

  /// Removes the edges in `edge_ids` (valid, pairwise distinct; any order).
  /// Surviving edges keep their relative order but are renumbered densely;
  /// the returned vector maps every old edge id to its new id
  /// (`kInvalidEdge` for removed edges). Invalidates the adjacency
  /// structure until the next finalize() unless `edge_ids` is empty.
  std::vector<EdgeId> remove_edges(std::span<const EdgeId> edge_ids);

  /// Replaces the weight of edge `e` with `w` (> 0, finite). Keeps the
  /// adjacency structure valid when already finalized (the CSR weight
  /// slots and weighted degrees are patched in place).
  void set_weight(EdgeId e, double w);

  /// Id of an edge joining `u` and `v` (either orientation), or
  /// `kInvalidEdge` when they are not adjacent. With parallel edges the
  /// lowest id wins. Requires finalize().
  [[nodiscard]] EdgeId find_edge(Vertex u, Vertex v) const;

  /// The edge with identifier `e`.
  [[nodiscard]] const Edge& edge(EdgeId e) const;

  /// All edges in id order.
  [[nodiscard]] std::span<const Edge> edges() const { return edges_; }

  /// Builds the CSR adjacency arrays. Idempotent; cheap when already built.
  void finalize();

  [[nodiscard]] bool finalized() const { return finalized_; }

  /// Merges parallel edges (same endpoints) by summing their weights.
  /// Edge ids are renumbered; adjacency is rebuilt lazily.
  void coalesce_parallel_edges();

  /// Lightweight view over the neighbors of one vertex (valid after
  /// finalize(); invalidated by add_edge / coalesce).
  class NeighborRange {
   public:
    struct Item {
      Vertex neighbor;
      EdgeId edge;
      double weight;
    };

    [[nodiscard]] std::size_t size() const { return count_; }
    [[nodiscard]] Item operator[](std::size_t i) const {
      SSP_DASSERT(i < count_, "neighbor index");
      return {nbr_[i], eid_[i], w_[i]};
    }

    class Iterator {
     public:
      Iterator(const NeighborRange* r, std::size_t i) : r_(r), i_(i) {}
      Item operator*() const { return (*r_)[i_]; }
      Iterator& operator++() {
        ++i_;
        return *this;
      }
      bool operator!=(const Iterator& o) const { return i_ != o.i_; }

     private:
      const NeighborRange* r_;
      std::size_t i_;
    };
    [[nodiscard]] Iterator begin() const { return {this, 0}; }
    [[nodiscard]] Iterator end() const { return {this, count_}; }

   private:
    friend class Graph;
    friend class GraphView;
    NeighborRange(const Vertex* nbr, const EdgeId* eid, const double* w,
                  std::size_t count)
        : nbr_(nbr), eid_(eid), w_(w), count_(count) {}
    const Vertex* nbr_;
    const EdgeId* eid_;
    const double* w_;
    std::size_t count_;
  };

  /// Neighbors of `v`. Requires finalize() to have been called.
  [[nodiscard]] NeighborRange neighbors(Vertex v) const;

  /// Unweighted degree of `v` (requires finalize()).
  [[nodiscard]] Index degree(Vertex v) const;

  /// Sum of incident edge weights = L(v, v) (requires finalize()).
  [[nodiscard]] double weighted_degree(Vertex v) const;

  /// Sum of all edge weights.
  [[nodiscard]] double total_weight() const;

  /// New graph on the same vertex set containing exactly the edges in
  /// `edge_ids` (in the given order — the new edge k corresponds to
  /// edge_ids[k] in this graph). The result is finalized.
  [[nodiscard]] Graph edge_subgraph(std::span<const EdgeId> edge_ids) const;

 private:
  /// GraphView (graph/graph_view.hpp) borrows the private CSR arrays to
  /// present heap graphs and mmap'd `.sspb` graphs behind one interface.
  friend class GraphView;

  void check_vertex(Vertex v) const;

  Vertex n_ = 0;
  std::vector<Edge> edges_;
  bool finalized_ = false;

  // CSR adjacency (struct-of-arrays), valid iff finalized_.
  std::vector<Index> adj_ptr_;
  std::vector<Vertex> adj_nbr_;
  std::vector<EdgeId> adj_eid_;
  std::vector<double> adj_w_;
  std::vector<double> weighted_degree_;
};

}  // namespace ssp
