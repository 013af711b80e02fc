// Tests for src/tree: SpanningTree validation, Kruskal/Dijkstra/AKPW tree
// construction, LCA correctness vs naive walks, stretch identities, and the
// exact O(n) tree Laplacian solver vs a dense oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>

#include "graph/generators/lattice.hpp"
#include "graph/generators/random_graphs.hpp"
#include "graph/laplacian.hpp"
#include "la/dense_eigen.hpp"
#include "la/kernels/kernels.hpp"
#include "la/vector_ops.hpp"
#include "tree/akpw.hpp"
#include "tree/dijkstra_tree.hpp"
#include "tree/kruskal.hpp"
#include "tree/lca.hpp"
#include "tree/stretch.hpp"
#include "tree/tree_solver.hpp"
#include "util/rng.hpp"

namespace ssp {
namespace {

/// Validates the generic spanning-tree invariants.
void expect_valid_spanning_tree(const SpanningTree& t) {
  const Graph& g = t.graph();
  EXPECT_EQ(static_cast<Vertex>(t.tree_edge_ids().size()),
            g.num_vertices() - 1);
  EXPECT_EQ(t.parent(t.root()), kInvalidVertex);
  EXPECT_EQ(t.depth(t.root()), 0);
  EXPECT_DOUBLE_EQ(t.resistance_to_root(t.root()), 0.0);
  // BFS order: each vertex appears after its parent; all vertices present.
  const auto order = t.bfs_order();
  ASSERT_EQ(static_cast<Vertex>(order.size()), g.num_vertices());
  std::vector<Index> pos(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[static_cast<std::size_t>(order[i])] = static_cast<Index>(i);
  }
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (v == t.root()) continue;
    EXPECT_GT(pos[static_cast<std::size_t>(v)],
              pos[static_cast<std::size_t>(t.parent(v))]);
    EXPECT_EQ(t.depth(v), t.depth(t.parent(v)) + 1);
    const Edge& pe = g.edge(t.parent_edge(v));
    EXPECT_TRUE((pe.u == v && pe.v == t.parent(v)) ||
                (pe.v == v && pe.u == t.parent(v)));
    EXPECT_DOUBLE_EQ(t.parent_weight(v), pe.weight);
    EXPECT_NEAR(t.resistance_to_root(v),
                t.resistance_to_root(t.parent(v)) + 1.0 / pe.weight, 1e-12);
  }
  // in-tree marks consistent.
  EdgeId marked = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (t.contains(e)) ++marked;
  }
  EXPECT_EQ(marked, g.num_vertices() - 1);
  EXPECT_EQ(t.num_offtree_edges(), g.num_edges() - marked);
}

Graph weighted_test_graph(Vertex n, EdgeId m, std::uint64_t seed) {
  Rng rng(seed);
  return erdos_renyi_connected(n, m, rng, WeightModel::log_uniform(0.1, 10.0));
}

TEST(SpanningTree, RejectsBadEdgeSets) {
  Graph g(4);
  const EdgeId e01 = g.add_edge(0, 1, 1.0);
  const EdgeId e12 = g.add_edge(1, 2, 1.0);
  const EdgeId e02 = g.add_edge(0, 2, 1.0);
  const EdgeId e23 = g.add_edge(2, 3, 1.0);
  g.finalize();
  // Wrong count.
  EXPECT_THROW(SpanningTree(g, {e01, e12}), std::invalid_argument);
  // Cycle (does not span vertex 3).
  EXPECT_THROW(SpanningTree(g, {e01, e12, e02}), std::invalid_argument);
  // Duplicate edge.
  EXPECT_THROW(SpanningTree(g, {e01, e01, e23}), std::invalid_argument);
  // Valid.
  EXPECT_NO_THROW(SpanningTree(g, {e01, e12, e23}));
  // Bad root.
  EXPECT_THROW(SpanningTree(g, {e01, e12, e23}, 9), std::invalid_argument);
}

TEST(SpanningTree, SingleVertexGraph) {
  Graph g(1);
  g.finalize();
  const SpanningTree t(g, {});
  EXPECT_EQ(t.num_vertices(), 1);
  EXPECT_EQ(t.num_offtree_edges(), 0);
  expect_valid_spanning_tree(t);
}

TEST(SpanningTree, OfftreeEdgeIds) {
  const Graph g = grid_2d(3, 3);
  const SpanningTree t = max_weight_spanning_tree(g);
  const auto off = t.offtree_edge_ids();
  EXPECT_EQ(static_cast<EdgeId>(off.size()), g.num_edges() - 8);
  for (EdgeId e : off) EXPECT_FALSE(t.contains(e));
}

TEST(SpanningTree, AsGraphIsTree) {
  const Graph g = weighted_test_graph(50, 200, 3);
  const SpanningTree t = max_weight_spanning_tree(g);
  const Graph tg = t.as_graph();
  EXPECT_EQ(tg.num_vertices(), 50);
  EXPECT_EQ(tg.num_edges(), 49);
}

TEST(Kruskal, MaxTreePrefersHeavyEdges) {
  // Triangle with one light edge: the light edge must be excluded.
  Graph g(3);
  g.add_edge(0, 1, 10.0);
  const EdgeId light = g.add_edge(1, 2, 0.1);
  g.add_edge(0, 2, 5.0);
  g.finalize();
  const SpanningTree t = max_weight_spanning_tree(g);
  EXPECT_FALSE(t.contains(light));
  expect_valid_spanning_tree(t);

  const SpanningTree tmin = min_weight_spanning_tree(g);
  EXPECT_TRUE(tmin.contains(light));
}

TEST(Kruskal, ThrowsOnDisconnected) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  g.finalize();
  EXPECT_THROW((void)max_weight_spanning_tree(g), std::invalid_argument);
}

TEST(Kruskal, MatchesBruteForceOnSmallGraphs) {
  // Enumerate all spanning trees of a 4-vertex graph by brute force and
  // compare the max total weight with Kruskal's result.
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g(4);
    for (Vertex i = 0; i < 4; ++i) {
      for (Vertex j = i + 1; j < 4; ++j) {
        g.add_edge(i, j, rng.uniform(0.1, 5.0));
      }
    }
    g.finalize();
    double best = -1.0;
    const EdgeId m = g.num_edges();
    for (EdgeId a = 0; a < m; ++a) {
      for (EdgeId b = a + 1; b < m; ++b) {
        for (EdgeId c = b + 1; c < m; ++c) {
          Graph sub = g.edge_subgraph(std::vector<EdgeId>{a, b, c});
          // A 3-edge subgraph on 4 vertices is a spanning tree iff acyclic
          // and connected; test via SpanningTree construction.
          try {
            (void)SpanningTree(sub,
                               std::vector<EdgeId>{0, 1, 2});
            best = std::max(best, sub.total_weight());
          } catch (const std::invalid_argument&) {
          }
        }
      }
    }
    const SpanningTree t = max_weight_spanning_tree(g);
    double got = 0.0;
    for (EdgeId e : t.tree_edge_ids()) got += g.edge(e).weight;
    EXPECT_NEAR(got, best, 1e-12);
  }
}

TEST(Dijkstra, TreePathsAreShortest) {
  const Graph g = weighted_test_graph(60, 240, 5);
  const SpanningTree t = shortest_path_tree(g, 0);
  expect_valid_spanning_tree(t);
  // Tree distance from root equals Dijkstra distance: check against an
  // independent Bellman-Ford style relaxation.
  const Vertex n = g.num_vertices();
  std::vector<double> dist(static_cast<std::size_t>(n), 1e300);
  dist[0] = 0.0;
  for (Vertex it = 0; it < n; ++it) {
    bool changed = false;
    for (const Edge& e : g.edges()) {
      const double len = 1.0 / e.weight;
      if (dist[static_cast<std::size_t>(e.u)] + len <
          dist[static_cast<std::size_t>(e.v)] - 1e-15) {
        dist[static_cast<std::size_t>(e.v)] =
            dist[static_cast<std::size_t>(e.u)] + len;
        changed = true;
      }
      if (dist[static_cast<std::size_t>(e.v)] + len <
          dist[static_cast<std::size_t>(e.u)] - 1e-15) {
        dist[static_cast<std::size_t>(e.u)] =
            dist[static_cast<std::size_t>(e.v)] + len;
        changed = true;
      }
    }
    if (!changed) break;
  }
  for (Vertex v = 0; v < n; ++v) {
    EXPECT_NEAR(t.resistance_to_root(v), dist[static_cast<std::size_t>(v)],
                1e-9);
  }
}

TEST(Dijkstra, CenterHeuristicPicksMaxDegree) {
  const Graph g = star_graph(10);
  const SpanningTree t = shortest_path_tree_from_center(g);
  EXPECT_EQ(t.root(), 0);  // hub has max weighted degree
  expect_valid_spanning_tree(t);
}

TEST(Akpw, ProducesValidSpanningTree) {
  Rng rng(7);
  const Graph g = weighted_test_graph(200, 800, 11);
  const SpanningTree t = akpw_low_stretch_tree(g, rng);
  expect_valid_spanning_tree(t);
}

TEST(Akpw, WorksOnUnitWeights) {
  Rng rng(8);
  const Graph g = grid_2d(20, 20);
  const SpanningTree t = akpw_low_stretch_tree(g, rng);
  expect_valid_spanning_tree(t);
}

TEST(Akpw, SingleVertexAndPath) {
  Rng rng(9);
  Graph g1(1);
  g1.finalize();
  EXPECT_EQ(akpw_low_stretch_tree(g1, rng).num_vertices(), 1);
  const Graph p = path_graph(30);
  const SpanningTree t = akpw_low_stretch_tree(p, rng);
  EXPECT_EQ(t.num_offtree_edges(), 0);
}

TEST(Akpw, ThrowsOnDisconnected) {
  Rng rng(10);
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  g.finalize();
  EXPECT_THROW((void)akpw_low_stretch_tree(g, rng), std::invalid_argument);
}

TEST(Akpw, BetterStretchThanWorstTreeOnGrid) {
  // On a weighted grid, AKPW should beat the *minimum*-weight spanning tree
  // (an intentionally bad backbone) on total stretch.
  Rng rng(11);
  Rng wrng(12);
  const Graph g =
      grid_2d(25, 25, WeightModel::log_uniform(0.01, 100.0), &wrng);
  const SpanningTree akpw = akpw_low_stretch_tree(g, rng);
  const SpanningTree worst = min_weight_spanning_tree(g);
  const double s_akpw = compute_stretch(akpw).total_all;
  const double s_worst = compute_stretch(worst).total_all;
  EXPECT_LT(s_akpw, s_worst);
}

TEST(Lca, MatchesNaiveOnRandomTrees) {
  Rng rng(13);
  const Graph g = weighted_test_graph(80, 300, 21);
  const SpanningTree t = max_weight_spanning_tree(g);
  const LcaIndex lca(t);

  auto naive_lca = [&](Vertex u, Vertex v) {
    while (t.depth(u) > t.depth(v)) u = t.parent(u);
    while (t.depth(v) > t.depth(u)) v = t.parent(v);
    while (u != v) {
      u = t.parent(u);
      v = t.parent(v);
    }
    return u;
  };

  for (int trial = 0; trial < 500; ++trial) {
    const auto u = static_cast<Vertex>(rng.uniform_int(0, 79));
    const auto v = static_cast<Vertex>(rng.uniform_int(0, 79));
    EXPECT_EQ(lca.lca(u, v), naive_lca(u, v));
  }
  EXPECT_THROW((void)lca.lca(0, 99), std::invalid_argument);
}

TEST(Lca, PathResistanceIdentities) {
  const Graph g = grid_2d(6, 6);
  const SpanningTree t = max_weight_spanning_tree(g);
  const LcaIndex lca(t);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(lca.path_resistance(v, v), 0.0);
    EXPECT_NEAR(lca.path_resistance(t.root(), v), t.resistance_to_root(v),
                1e-12);
  }
  // Symmetry.
  EXPECT_NEAR(lca.path_resistance(3, 17), lca.path_resistance(17, 3), 1e-15);
}

TEST(Stretch, TreeEdgesHaveUnitStretch) {
  const Graph g = weighted_test_graph(40, 150, 31);
  const SpanningTree t = max_weight_spanning_tree(g);
  const LcaIndex lca(t);
  for (EdgeId e : t.tree_edge_ids()) {
    EXPECT_NEAR(lca.stretch(e), 1.0, 1e-12);
  }
}

TEST(Stretch, ReportConsistency) {
  const Graph g = weighted_test_graph(50, 220, 41);
  const SpanningTree t = max_weight_spanning_tree(g);
  const StretchReport r = compute_stretch(t);
  ASSERT_EQ(r.offtree_edges.size(), r.offtree_stretch.size());
  double sum = 0.0, mx = 0.0;
  for (double s : r.offtree_stretch) {
    EXPECT_GT(s, 0.0);
    sum += s;
    mx = std::max(mx, s);
  }
  EXPECT_NEAR(r.total_offtree, sum, 1e-9);
  EXPECT_NEAR(r.max_offtree, mx, 1e-12);
  EXPECT_NEAR(r.total_all, sum + 49.0, 1e-9);
  EXPECT_NEAR(r.mean_offtree, sum / static_cast<double>(r.offtree_edges.size()),
              1e-12);
}

TEST(Stretch, EqualsTraceOfPencilOnSmallGraph) {
  // total_all = Trace(L_T^+ L_G) — verify against the dense generalized
  // eigenvalues (their sum equals the trace).
  const Graph g = weighted_test_graph(16, 40, 51);
  const SpanningTree t = max_weight_spanning_tree(g);
  const StretchReport r = compute_stretch(t);

  const DenseMatrix lg = DenseMatrix::from_csr(laplacian(g));
  const DenseMatrix lt = DenseMatrix::from_csr(laplacian(t.as_graph()));
  const Vec evals = dense_generalized_eigenvalues(lg, lt);
  const double trace = std::accumulate(evals.begin(), evals.end(), 0.0);
  EXPECT_NEAR(r.total_all, trace, 1e-6 * trace);
}

TEST(TreeSolver, ExactOnPathGraph) {
  // Path 0-1-2 with unit weights: L x = b solvable by hand.
  const Graph g = path_graph(3);
  const SpanningTree t(g, {0, 1});
  const TreeSolver solver(t);
  const Vec b = {1.0, 0.0, -1.0};
  const Vec x = solver.solve(b);
  // x = [1, 0, -1] up to constant (mean already zero).
  EXPECT_NEAR(x[0] - x[1], 1.0, 1e-12);
  EXPECT_NEAR(x[1] - x[2], 1.0, 1e-12);
  EXPECT_NEAR(x[0] + x[1] + x[2], 0.0, 1e-12);
}

TEST(TreeSolver, ResidualIsZeroOnRandomTrees) {
  Rng rng(61);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Graph g = weighted_test_graph(120, 400, seed);
    const SpanningTree t = akpw_low_stretch_tree(g, rng);
    const TreeSolver solver(t);
    const CsrMatrix lt = laplacian(t.as_graph());

    Vec b = rng.normal_vector(120);
    project_out_mean(b);
    const Vec x = solver.solve(b);
    const Vec lx = lt.multiply(x);
    EXPECT_LT(relative_error(lx, b), 1e-10);
    EXPECT_NEAR(mean(x), 0.0, 1e-12);
  }
}

TEST(TreeSolver, ProjectsUnbalancedRhs) {
  // b with nonzero mean: solver must treat it as b - mean(b)·1.
  const Graph g = path_graph(4);
  const SpanningTree t(g, {0, 1, 2});
  const TreeSolver solver(t);
  Vec b = {2.0, 1.0, 1.0, 0.0};
  const Vec x1 = solver.solve(b);
  project_out_mean(b);
  const Vec x2 = solver.solve(b);
  EXPECT_LT(relative_error(x1, x2), 1e-13);
}

TEST(TreeSolver, MatchesDensePseudoinverse) {
  Rng rng(71);
  const Graph g = weighted_test_graph(30, 100, 77);
  const SpanningTree t = max_weight_spanning_tree(g);
  const TreeSolver solver(t);

  // Dense oracle: pseudo-solve via eigendecomposition of L_T.
  const DenseMatrix lt = DenseMatrix::from_csr(laplacian(t.as_graph()));
  const DenseEigen eig = dense_symmetric_eigen(lt);

  Vec b = rng.normal_vector(30);
  project_out_mean(b);
  // x = Σ_{λ>0} (v^T b / λ) v
  Vec x_ref(30, 0.0);
  for (Index j = 0; j < 30; ++j) {
    const double lam = eig.eigenvalues[static_cast<std::size_t>(j)];
    if (lam < 1e-9) continue;
    double coef = 0.0;
    for (Index i = 0; i < 30; ++i) {
      coef += eig.vectors(i, j) * b[static_cast<std::size_t>(i)];
    }
    coef /= lam;
    for (Index i = 0; i < 30; ++i) {
      x_ref[static_cast<std::size_t>(i)] += coef * eig.vectors(i, j);
    }
  }
  const Vec x = solver.solve(b);
  EXPECT_LT(relative_error(x, x_ref), 1e-8);
}

/// The per-vertex accessor sweep `TreeSolver::solve` ran before it read the
/// tree's flat arrays: the kernels::sum mean, b − mean, children added into
/// parents in reverse BFS order, x[p] + f/w, then project_out_mean.
Vec reference_tree_solve(const SpanningTree& t, std::span<const double> b) {
  const Vertex n = t.num_vertices();
  const double bmean = kernels::sum(b) / static_cast<double>(n);
  Vec flow(static_cast<std::size_t>(n));
  for (Vertex v = 0; v < n; ++v) {
    flow[static_cast<std::size_t>(v)] = b[static_cast<std::size_t>(v)] - bmean;
  }
  const auto order = t.bfs_order();
  for (std::size_t i = order.size(); i-- > 1;) {
    const Vertex v = order[i];
    flow[static_cast<std::size_t>(t.parent(v))] +=
        flow[static_cast<std::size_t>(v)];
  }
  Vec x(static_cast<std::size_t>(n));
  x[static_cast<std::size_t>(t.root())] = 0.0;
  for (std::size_t i = 1; i < order.size(); ++i) {
    const Vertex v = order[i];
    x[static_cast<std::size_t>(v)] =
        x[static_cast<std::size_t>(t.parent(v))] +
        flow[static_cast<std::size_t>(v)] / t.parent_weight(v);
  }
  project_out_mean(x);
  return x;
}

/// Bit-for-bit agreement of the solver with the reference sweep on a few
/// unbalanced right-hand sides (nonzero mean, entries spread over decades).
void expect_solve_matches_reference(const SpanningTree& t, Rng& rng,
                                    const char* what) {
  const TreeSolver solver(t);
  const auto n = static_cast<std::size_t>(t.num_vertices());
  for (const double offset : {0.0, 3.25, -1e3}) {
    Vec b = rng.normal_vector(static_cast<Index>(n));
    for (std::size_t i = 0; i < n; ++i) {
      b[i] = b[i] * std::pow(10.0, static_cast<double>(i % 7) - 3.0) + offset;
    }
    const Vec expected = reference_tree_solve(t, b);
    Vec x(n, -7.0);  // stale output must be fully overwritten
    solver.solve(b, x);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(x[i]),
                std::bit_cast<std::uint64_t>(expected[i]))
          << what << " offset " << offset << " vertex " << i << ": " << x[i]
          << " vs " << expected[i];
    }
  }
}

/// A tree whose edges are all of `g`'s edges (g must itself be a tree).
SpanningTree whole_graph_tree(const Graph& g, Vertex root) {
  std::vector<EdgeId> ids(static_cast<std::size_t>(g.num_edges()));
  std::iota(ids.begin(), ids.end(), EdgeId{0});
  return SpanningTree(g, std::move(ids), root);
}

TEST(TreeSolver, SolveMatchesAccessorSweepBitForBit) {
  Rng rng(2024);
  const WeightModel w = WeightModel::log_uniform(0.01, 100.0);
  {
    const Graph g = path_graph(2, w, &rng);
    expect_solve_matches_reference(whole_graph_tree(g, 0), rng, "2-vertex");
    expect_solve_matches_reference(whole_graph_tree(g, 1), rng,
                                   "2-vertex rooted at 1");
  }
  {
    // Deep chain: 2999 levels, rooted at one end and in the middle.
    const Graph g = path_graph(3000, w, &rng);
    expect_solve_matches_reference(whole_graph_tree(g, 0), rng, "path");
    expect_solve_matches_reference(whole_graph_tree(g, 1500), rng,
                                   "path rooted mid-way");
  }
  {
    // One parent with many children, and the same star rooted at a leaf.
    const Graph g = star_graph(500, w, &rng);
    expect_solve_matches_reference(whole_graph_tree(g, 0), rng, "star");
    expect_solve_matches_reference(whole_graph_tree(g, 17), rng,
                                   "star rooted at a leaf");
  }
  {
    const Graph g = grid_2d(30, 25, w, &rng);
    expect_solve_matches_reference(max_weight_spanning_tree(g), rng,
                                   "grid max-weight");
    expect_solve_matches_reference(akpw_low_stretch_tree(g, rng), rng,
                                   "grid akpw");
  }
  {
    const Graph g = barabasi_albert(800, 3, rng, w);
    expect_solve_matches_reference(max_weight_spanning_tree(g), rng,
                                   "ba max-weight");
    expect_solve_matches_reference(akpw_low_stretch_tree(g, rng), rng,
                                   "ba akpw");
  }
}

// Parameterized sweep: every backbone algorithm yields a valid spanning
// tree whose tree-solver residual vanishes, across graph families.

struct BackboneCase {
  const char* name;
  int graph_kind;  // 0 grid, 1 triangulated, 2 ER, 3 BA
  int tree_kind;   // 0 kruskal-max, 1 dijkstra, 2 akpw
};

class BackboneSweep : public ::testing::TestWithParam<BackboneCase> {};

TEST_P(BackboneSweep, ValidTreeAndExactSolve) {
  const auto& param = GetParam();
  Rng rng(123);
  Graph g;
  switch (param.graph_kind) {
    case 0:
      g = grid_2d(12, 12, WeightModel::uniform(0.5, 2.0), &rng);
      break;
    case 1:
      g = triangulated_grid(10, 14, WeightModel::log_uniform(0.1, 10.0), &rng);
      break;
    case 2:
      g = erdos_renyi_connected(150, 600, rng);
      break;
    default:
      g = barabasi_albert(150, 3, rng);
      break;
  }
  SpanningTree t = [&] {
    switch (param.tree_kind) {
      case 0:
        return max_weight_spanning_tree(g);
      case 1:
        return shortest_path_tree_from_center(g);
      default:
        return akpw_low_stretch_tree(g, rng);
    }
  }();
  expect_valid_spanning_tree(t);

  const TreeSolver solver(t);
  const CsrMatrix lt = laplacian(t.as_graph());
  Vec b = rng.normal_vector(g.num_vertices());
  project_out_mean(b);
  const Vec x = solver.solve(b);
  EXPECT_LT(relative_error(lt.multiply(x), b), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, BackboneSweep,
    ::testing::Values(BackboneCase{"grid_kruskal", 0, 0},
                      BackboneCase{"grid_dijkstra", 0, 1},
                      BackboneCase{"grid_akpw", 0, 2},
                      BackboneCase{"tri_kruskal", 1, 0},
                      BackboneCase{"tri_akpw", 1, 2},
                      BackboneCase{"er_kruskal", 2, 0},
                      BackboneCase{"er_dijkstra", 2, 1},
                      BackboneCase{"er_akpw", 2, 2},
                      BackboneCase{"ba_akpw", 3, 2}),
    [](const ::testing::TestParamInfo<BackboneCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace ssp
