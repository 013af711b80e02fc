#include "tree/tree_solver.hpp"

#include "la/kernels/kernels.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace ssp {

TreeSolver::TreeSolver(const SpanningTree& t) : t_(&t) {}

void TreeSolver::solve(std::span<const double> b, std::span<double> x) const {
  const Vertex n = t_->num_vertices();
  SSP_REQUIRE(static_cast<Vertex>(b.size()) == n, "tree solve: b size");
  SSP_REQUIRE(static_cast<Vertex>(x.size()) == n, "tree solve: x size");

  // Hot path: the disabled-metrics cost is one relaxed load + branch.
  obs::counter_add("solver.tree.solves", 1);

  // Per-thread scratch keeps solve() re-entrant without allocating in the
  // steady state (each worker thread reuses its own buffer).
  thread_local Vec flow_;
  flow_.resize(static_cast<std::size_t>(n));

  // Project b onto the Laplacian range (zero sum). kernels::sum uses the
  // canonical lane-blocked order — the same order col_sums applies per
  // panel column, which keeps solve_multi columns bit-identical to this.
  const double bmean = kernels::sum(b) / static_cast<double>(n);

  // The sweeps index the tree's flat arrays unchecked (this runs once per
  // PCG iteration): the SpanningTree constructor guarantees `order` is a
  // permutation of [0, n) and every non-root parent is in range.
  const std::size_t un = static_cast<std::size_t>(n);
  const Vertex* order = t_->bfs_order().data();
  const Vertex* parent = t_->parents().data();
  const double* weight = t_->parent_weights().data();
  const double* bp = b.data();
  double* flow = flow_.data();
  double* xp = x.data();

  for (std::size_t v = 0; v < un; ++v) flow[v] = bp[v] - bmean;

  // Leaf-to-root: accumulate subtree injections into the parent.
  for (std::size_t i = un; i-- > 1;) {
    const auto v = static_cast<std::size_t>(order[i]);
    flow[static_cast<std::size_t>(parent[v])] += flow[v];
  }
  // Root-to-leaf: integrate potentials.
  xp[static_cast<std::size_t>(t_->root())] = 0.0;
  for (std::size_t i = 1; i < un; ++i) {
    const auto v = static_cast<std::size_t>(order[i]);
    xp[v] = xp[static_cast<std::size_t>(parent[v])] + flow[v] / weight[v];
  }
  project_out_mean(x);
}

Vec TreeSolver::solve(std::span<const double> b) const {
  Vec x(static_cast<std::size_t>(num_vertices()));
  solve(b, x);
  return x;
}

void TreeSolver::solve_multi(std::span<const double> b, std::span<double> x,
                             Index r) const {
  const auto n = static_cast<Index>(t_->num_vertices());
  SSP_REQUIRE(r >= 1, "tree solve_multi: need r >= 1");
  SSP_REQUIRE(static_cast<Index>(b.size()) == n * r,
              "tree solve_multi: b size");
  SSP_REQUIRE(static_cast<Index>(x.size()) == n * r,
              "tree solve_multi: x size");

  obs::counter_add("solver.tree.panel_solves", 1);
  obs::counter_add("solver.tree.panel_columns", static_cast<std::uint64_t>(r));

  const auto& k = kernels::ops();
  thread_local Vec flow_panel_;
  thread_local Vec col_scratch_;
  flow_panel_.resize(static_cast<std::size_t>(n * r));
  col_scratch_.resize(static_cast<std::size_t>(r));

  // Per-column mean projection of b: c[j] = mean of column j (col_sums
  // uses the lane-blocked order of kernels::sum, so each column matches
  // the single-RHS solve bit for bit).
  k.col_sums(b.data(), n, r, col_scratch_.data());
  for (Index j = 0; j < r; ++j) col_scratch_[j] /= static_cast<double>(n);
  k.sub_row_bias(b.data(), col_scratch_.data(), flow_panel_.data(), n, r);

  const auto order = t_->bfs_order();
  const auto parents = t_->parents();
  const auto weights = t_->parent_weights();
  k.tree_accumulate(order.data(), parents.data(), n, flow_panel_.data(), r);
  k.tree_integrate(order.data(), parents.data(), weights.data(), n,
                   flow_panel_.data(), x.data(), r);

  // Per-column zero-mean output (pseudoinverse convention): x[v][j] +=
  // −mean_j, the same x + (−m) form project_out_mean applies per column.
  k.col_sums(x.data(), n, r, col_scratch_.data());
  for (Index j = 0; j < r; ++j) {
    col_scratch_[j] = -(col_scratch_[j] / static_cast<double>(n));
  }
  k.add_row_bias(x.data(), n, r, col_scratch_.data());
}

}  // namespace ssp
