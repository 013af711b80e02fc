// Tests for the synthetic workload generators, including parameterized
// property sweeps: every generator must produce a connected simple graph
// with positive weights and the documented size.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

#include "graph/connectivity.hpp"
#include "graph/generators/airfoil.hpp"
#include "graph/generators/community.hpp"
#include "graph/generators/knn.hpp"
#include "graph/generators/lattice.hpp"
#include "graph/generators/points.hpp"
#include "graph/generators/random_graphs.hpp"
#include "util/rng.hpp"

namespace ssp {
namespace {

void expect_simple_positive(const Graph& g) {
  std::set<std::pair<Vertex, Vertex>> seen;
  for (const Edge& e : g.edges()) {
    EXPECT_NE(e.u, e.v);
    EXPECT_GT(e.weight, 0.0);
    const auto key = std::minmax(e.u, e.v);
    EXPECT_TRUE(seen.insert({key.first, key.second}).second)
        << "parallel edge " << e.u << "-" << e.v;
  }
}

TEST(Lattice, Grid2dSizes) {
  const Graph g = grid_2d(4, 5);
  EXPECT_EQ(g.num_vertices(), 20);
  EXPECT_EQ(g.num_edges(), 4 * 4 + 5 * 3);  // (nx-1)*ny + nx*(ny-1) = 16+15=31
  EXPECT_TRUE(is_connected(g));
  expect_simple_positive(g);
}

TEST(Lattice, Grid2dDegenerate) {
  const Graph line = grid_2d(1, 7);
  EXPECT_EQ(line.num_edges(), 6);
  EXPECT_TRUE(is_connected(line));
  const Graph dot = grid_2d(1, 1);
  EXPECT_EQ(dot.num_vertices(), 1);
  EXPECT_EQ(dot.num_edges(), 0);
}

TEST(Lattice, Grid2dRandomWeightsInRange) {
  Rng rng(1);
  const Graph g =
      grid_2d(10, 10, WeightModel::uniform(0.5, 2.0), &rng);
  for (const Edge& e : g.edges()) {
    EXPECT_GE(e.weight, 0.5);
    EXPECT_LE(e.weight, 2.0);
  }
  // Non-unit model without RNG must throw.
  EXPECT_THROW((void)grid_2d(3, 3, WeightModel::uniform(0.5, 2.0), nullptr),
               std::invalid_argument);
}

TEST(Lattice, LogUniformSpansDecades) {
  Rng rng(2);
  const Graph g =
      grid_2d(30, 30, WeightModel::log_uniform(1e-3, 1e3), &rng);
  double lo = 1e9, hi = 0.0;
  for (const Edge& e : g.edges()) {
    lo = std::min(lo, e.weight);
    hi = std::max(hi, e.weight);
  }
  EXPECT_LT(lo, 1e-1);
  EXPECT_GT(hi, 1e1);
}

TEST(Lattice, Grid2d8HasDiagonals) {
  const Graph g = grid_2d_8(3, 3);
  // 12 axis edges + 8 diagonal edges.
  EXPECT_EQ(g.num_edges(), 20);
  EXPECT_TRUE(is_connected(g));
  expect_simple_positive(g);
}

TEST(Lattice, TriangulatedGridEdgeCount) {
  const Graph g = triangulated_grid(3, 4);
  // axis: 2*4 + 3*3 = 17; diagonals: one per cell = 2*3 = 6.
  EXPECT_EQ(g.num_edges(), 23);
  EXPECT_TRUE(is_connected(g));
  expect_simple_positive(g);
}

TEST(Lattice, Grid3dSizes) {
  const Graph g = grid_3d(3, 4, 5);
  EXPECT_EQ(g.num_vertices(), 60);
  EXPECT_EQ(g.num_edges(), 2 * 4 * 5 + 3 * 3 * 5 + 3 * 4 * 4);
  EXPECT_TRUE(is_connected(g));
  expect_simple_positive(g);
}

TEST(Lattice, Torus2dIsRegular) {
  const Graph g = torus_2d(4, 5);
  EXPECT_EQ(g.num_edges(), 2 * 4 * 5);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(g.degree(v), 4);
  }
  EXPECT_TRUE(is_connected(g));
}

TEST(Lattice, Torus3dIsRegularAndConnected) {
  const Graph g = torus_3d(3, 4, 5);
  EXPECT_EQ(g.num_vertices(), 60);
  EXPECT_EQ(g.num_edges(), 3 * 60);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(g.degree(v), 6);
  }
  EXPECT_TRUE(is_connected(g));
  expect_simple_positive(g);
  EXPECT_THROW((void)torus_3d(2, 3, 3), std::invalid_argument);
}

TEST(Lattice, SmallNamedGraphs) {
  EXPECT_EQ(path_graph(5).num_edges(), 4);
  EXPECT_EQ(cycle_graph(5).num_edges(), 5);
  EXPECT_EQ(star_graph(5).num_edges(), 4);
  EXPECT_EQ(complete_graph(5).num_edges(), 10);
  EXPECT_THROW((void)cycle_graph(2), std::invalid_argument);
  EXPECT_THROW((void)grid_2d(0, 3), std::invalid_argument);
}

TEST(Airfoil, MeshIsConnectedAndPlanarSized) {
  const Mesh2d mesh = joukowski_airfoil_mesh(12, 48);
  EXPECT_EQ(mesh.graph.num_vertices(), 12 * 48);
  EXPECT_TRUE(is_connected(mesh.graph));
  expect_simple_positive(mesh.graph);
  EXPECT_EQ(mesh.x.size(), mesh.graph.num_vertices());
  // circumferential + radial + diagonal edges
  EXPECT_EQ(mesh.graph.num_edges(), 12 * 48 + 11 * 48 * 2);
}

TEST(Airfoil, WeightsReflectGeometry) {
  const Mesh2d mesh = joukowski_airfoil_mesh(10, 32);
  // Edge lengths vary strongly (graded mesh) => weights span > 1 decade.
  double lo = 1e300, hi = 0.0;
  for (const Edge& e : mesh.graph.edges()) {
    lo = std::min(lo, e.weight);
    hi = std::max(hi, e.weight);
  }
  EXPECT_GT(hi / lo, 10.0);
  EXPECT_THROW((void)joukowski_airfoil_mesh(1, 32), std::invalid_argument);
  EXPECT_THROW((void)joukowski_airfoil_mesh(5, 4), std::invalid_argument);
}

TEST(RandomGraphs, BarabasiAlbertShape) {
  Rng rng(7);
  const Graph g = barabasi_albert(500, 3, rng);
  EXPECT_EQ(g.num_vertices(), 500);
  EXPECT_TRUE(is_connected(g));
  // Power-law-ish: max degree far above m.
  Index dmax = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    dmax = std::max(dmax, g.degree(v));
  }
  EXPECT_GT(dmax, 20);
  EXPECT_THROW((void)barabasi_albert(3, 3, rng), std::invalid_argument);
}

TEST(RandomGraphs, WattsStrogatzShape) {
  Rng rng(8);
  const Graph g = watts_strogatz(400, 6, 0.1, rng);
  EXPECT_EQ(g.num_vertices(), 400);
  EXPECT_TRUE(is_connected(g));
  expect_simple_positive(g);
  EXPECT_THROW((void)watts_strogatz(10, 3, 0.1, rng), std::invalid_argument);
  EXPECT_THROW((void)watts_strogatz(10, 4, 1.5, rng), std::invalid_argument);
}

TEST(RandomGraphs, ErdosRenyiConnectedHasExactEdges) {
  Rng rng(9);
  const Graph g = erdos_renyi_connected(200, 800, rng);
  EXPECT_EQ(g.num_vertices(), 200);
  EXPECT_EQ(g.num_edges(), 800);
  EXPECT_TRUE(is_connected(g));
  expect_simple_positive(g);
  EXPECT_THROW((void)erdos_renyi_connected(10, 5, rng),
               std::invalid_argument);  // m < n-1
  EXPECT_THROW((void)erdos_renyi_connected(4, 7, rng),
               std::invalid_argument);  // m > n(n-1)/2
}

TEST(Points, GaussianMixtureStats) {
  Rng rng(10);
  const PointCloud pc = gaussian_mixture_points(300, 4, 3, 0.05, rng);
  EXPECT_EQ(pc.n, 300);
  EXPECT_EQ(pc.dim, 4);
  EXPECT_EQ(pc.coords.size(), 1200u);
  // Points from the same cluster (i, i+3) are closer on average than
  // points from different clusters.
  double same = 0.0, cross = 0.0;
  int cs = 0, cc = 0;
  for (Index i = 0; i + 3 < 300; i += 3) {
    same += squared_distance(pc, i, i + 3);
    ++cs;
    cross += squared_distance(pc, i, i + 1);
    ++cc;
  }
  EXPECT_LT(same / cs, cross / cc);
}

TEST(Knn, GraphIsConnectedAndBounded) {
  Rng rng(12);
  const PointCloud pc = gaussian_mixture_points(200, 3, 4, 0.02, rng);
  const Graph g = knn_graph(pc, 5);
  EXPECT_EQ(g.num_vertices(), 200);
  EXPECT_TRUE(is_connected(g));
  expect_simple_positive(g);
  // Union-symmetrized kNN has at most n*k edges.
  EXPECT_LE(g.num_edges(), 200 * 5);
  EXPECT_GE(g.num_edges(), 199);
}

TEST(Knn, WeightKindsAreOrdered) {
  Rng rng(13);
  const PointCloud pc = uniform_points(50, 2, rng);
  const Graph gu = knn_graph(pc, 4, KnnWeight::kUnit);
  for (const Edge& e : gu.edges()) EXPECT_DOUBLE_EQ(e.weight, 1.0);
  const Graph gg = knn_graph(pc, 4, KnnWeight::kGaussianSimilarity);
  for (const Edge& e : gg.edges()) {
    EXPECT_GT(e.weight, 0.0);
    EXPECT_LE(e.weight, 1.0);
  }
  const Graph gi = knn_graph(pc, 4, KnnWeight::kInverseDistance);
  for (const Edge& e : gi.edges()) EXPECT_GT(e.weight, 0.0);
  EXPECT_THROW((void)knn_graph(pc, 0), std::invalid_argument);
  EXPECT_THROW((void)knn_graph(pc, 50), std::invalid_argument);
}

TEST(Community, PlantedPartitionDetectableStructure) {
  Rng rng(14);
  const Graph g = planted_partition(200, 2, 0.10, 0.005, rng);
  EXPECT_TRUE(is_connected(g));
  expect_simple_positive(g);
  // Count intra vs inter edges wrt ground truth blocks of 100.
  Index intra = 0, inter = 0;
  for (const Edge& e : g.edges()) {
    if ((e.u / 100) == (e.v / 100)) {
      ++intra;
    } else {
      ++inter;
    }
  }
  EXPECT_GT(intra, 4 * inter);
}

/// planted_partition with its duplicates removed through a set of every
/// edge added, the form the generator had before it tracked only the
/// connectivity pass's candidates.
Graph reference_planted_partition(Vertex n, Vertex communities, double p_in,
                                  double p_out, Rng& rng,
                                  const WeightModel& w) {
  const Vertex block = n / communities;
  const Vertex used = block * communities;
  Graph g(used);
  std::set<std::pair<Vertex, Vertex>> present;
  auto add_once = [&](Vertex a, Vertex b) {
    if (present.insert(std::minmax(a, b)).second) {
      const bool unit = w.kind == WeightModel::Kind::kUnit;
      g.add_edge(a, b, unit ? 1.0 : draw_weight(w, rng));
    }
  };
  for (Vertex i = 0; i < used; ++i) {
    for (Vertex j = i + 1; j < used; ++j) {
      const double p = (i / block) == (j / block) ? p_in : p_out;
      if (p > 0.0 && rng.uniform() < p) add_once(i, j);
    }
  }
  for (Vertex c = 0; c < communities; ++c) {
    const Vertex base = c * block;
    for (Vertex i = 0; i + 1 < block; ++i) add_once(base + i, base + i + 1);
    if (c + 1 < communities) add_once(base, base + block);
  }
  g.finalize();
  return g;
}

TEST(Community, PlantedPartitionMatchesSetDedupedReference) {
  const WeightModel w = WeightModel::uniform(0.5, 2.0);
  // (n, communities, p_in, p_out): sparse and dense blocks, every path
  // edge and bridge drawn at random (p = 1), and one-vertex blocks whose
  // bridges are also (v, v+1) pairs.
  const std::tuple<Vertex, Vertex, double, double> cases[] = {
      {200, 2, 0.10, 0.005}, {700, 2, 0.25, 0.005}, {60, 3, 1.0, 1.0},
      {61, 4, 0.5, 0.0},     {9, 9, 0.0, 0.5},      {12, 12, 1.0, 1.0}};
  for (const auto& [n, k, p_in, p_out] : cases) {
    Rng a(99);
    Rng b(99);
    const Graph g = planted_partition(n, k, p_in, p_out, a, w);
    const Graph ref = reference_planted_partition(n, k, p_in, p_out, b, w);
    ASSERT_EQ(g.num_vertices(), ref.num_vertices()) << n << "/" << k;
    ASSERT_EQ(g.num_edges(), ref.num_edges()) << n << "/" << k;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      EXPECT_EQ(g.edge(e).u, ref.edge(e).u) << n << "/" << k << " edge " << e;
      EXPECT_EQ(g.edge(e).v, ref.edge(e).v) << n << "/" << k << " edge " << e;
      EXPECT_EQ(g.edge(e).weight, ref.edge(e).weight)
          << n << "/" << k << " edge " << e;
    }
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Community, DumbbellHasWeakBridge) {
  Rng rng(15);
  const Graph g = dumbbell_graph(50, 2, 0.01, rng);
  EXPECT_EQ(g.num_vertices(), 100);
  EXPECT_TRUE(is_connected(g));
  Index bridges = 0;
  for (const Edge& e : g.edges()) {
    const bool cross = (e.u < 50) != (e.v < 50);
    if (cross) {
      ++bridges;
      EXPECT_LE(e.weight, 0.02 + 1e-12);
    }
  }
  EXPECT_GE(bridges, 1);
  EXPECT_LE(bridges, 2);
}

// ---- Parameterized property sweep: all lattice generators stay connected
// and simple across a size grid. ----

class LatticeSweep
    : public ::testing::TestWithParam<std::tuple<Vertex, Vertex>> {};

TEST_P(LatticeSweep, ConnectedSimplePositive) {
  const auto [nx, ny] = GetParam();
  Rng rng(99);
  for (const Graph& g :
       {grid_2d(nx, ny), grid_2d_8(nx, ny), triangulated_grid(nx, ny),
        grid_2d(nx, ny, WeightModel::log_uniform(0.1, 10.0), &rng)}) {
    EXPECT_EQ(g.num_vertices(), nx * ny);
    EXPECT_TRUE(is_connected(g));
    expect_simple_positive(g);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, LatticeSweep,
    ::testing::Values(std::make_tuple(2, 2), std::make_tuple(1, 10),
                      std::make_tuple(7, 3), std::make_tuple(16, 16),
                      std::make_tuple(5, 40)));

class RandomGraphSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGraphSweep, AllModelsConnected) {
  Rng rng(GetParam());
  EXPECT_TRUE(is_connected(barabasi_albert(300, 2, rng)));
  EXPECT_TRUE(is_connected(watts_strogatz(300, 4, 0.2, rng)));
  EXPECT_TRUE(is_connected(erdos_renyi_connected(300, 600, rng)));
  const PointCloud pc = gaussian_mixture_points(150, 2, 5, 0.01, rng);
  EXPECT_TRUE(is_connected(knn_graph(pc, 3)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace ssp
