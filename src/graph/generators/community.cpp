#include "graph/generators/community.hpp"

#include <algorithm>
#include <vector>

#include "util/assert.hpp"

namespace ssp {

Graph planted_partition(Vertex n, Vertex communities, double p_in,
                        double p_out, Rng& rng, const WeightModel& w) {
  SSP_REQUIRE(communities >= 1 && n >= communities,
              "planted_partition: need n >= communities >= 1");
  SSP_REQUIRE(p_in >= 0.0 && p_in <= 1.0 && p_out >= 0.0 && p_out <= 1.0,
              "planted_partition: probabilities must be in [0,1]");
  const Vertex block = n / communities;
  const Vertex used = block * communities;  // drop remainder vertices
  Graph g(used);
  auto wdraw = [&] {
    return w.kind == WeightModel::Kind::kUnit ? 1.0 : draw_weight(w, rng);
  };
  // The random pass visits each pair once, so only the connectivity pass
  // can repeat an edge: remember which of its candidates — (v, v+1) and the
  // bridges (v, v+block) — the random pass already drew.
  std::vector<char> has_next(static_cast<std::size_t>(used), 0);
  std::vector<char> has_bridge(static_cast<std::size_t>(used), 0);
  for (Vertex i = 0; i < used; ++i) {
    for (Vertex j = i + 1; j < used; ++j) {
      const bool same = (i / block) == (j / block);
      const double p = same ? p_in : p_out;
      if (p > 0.0 && rng.uniform() < p) {
        g.add_edge(i, j, wdraw());
        if (j == i + 1) has_next[static_cast<std::size_t>(i)] = 1;
        if (j == i + block) has_bridge[static_cast<std::size_t>(i)] = 1;
      }
    }
  }
  // Connectivity: path within each block, bridge between consecutive blocks.
  for (Vertex c = 0; c < communities; ++c) {
    const Vertex base = c * block;
    for (Vertex i = base; i + 1 < base + block; ++i) {
      if (has_next[static_cast<std::size_t>(i)] == 0) {
        g.add_edge(i, i + 1, wdraw());
      }
    }
    if (c + 1 < communities &&
        has_bridge[static_cast<std::size_t>(base)] == 0) {
      g.add_edge(base, base + block, wdraw());
    }
  }
  g.finalize();
  return g;
}

Graph dumbbell_graph(Vertex n_half, Index bridge_edges, double bridge_weight,
                     Rng& rng) {
  SSP_REQUIRE(n_half >= 2, "dumbbell_graph: blobs need >= 2 vertices");
  SSP_REQUIRE(bridge_edges >= 1, "dumbbell_graph: need >= 1 bridge edge");
  SSP_REQUIRE(bridge_weight > 0.0, "dumbbell_graph: bridge weight positive");
  Graph g(2 * n_half);
  // Each blob: ring + random chords (sparse expander-ish).
  auto build_blob = [&](Vertex base) {
    for (Vertex i = 0; i < n_half; ++i) {
      g.add_edge(base + i, base + (i + 1) % n_half, 1.0);
    }
    const Index chords = n_half;  // ~degree 4
    for (Index c = 0; c < chords; ++c) {
      const auto a = static_cast<Vertex>(rng.uniform_int(0, n_half - 1));
      const auto b = static_cast<Vertex>(rng.uniform_int(0, n_half - 1));
      if (a != b) g.add_edge(base + a, base + b, 1.0);
    }
  };
  build_blob(0);
  build_blob(n_half);
  for (Index e = 0; e < bridge_edges; ++e) {
    const auto a = static_cast<Vertex>(rng.uniform_int(0, n_half - 1));
    const auto b = static_cast<Vertex>(rng.uniform_int(0, n_half - 1));
    g.add_edge(a, static_cast<Vertex>(n_half + b), bridge_weight);
  }
  g.coalesce_parallel_edges();
  g.finalize();
  return g;
}

}  // namespace ssp
