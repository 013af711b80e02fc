#include "graph/generators/lattice.hpp"

namespace ssp {

namespace {

/// Shared weight-drawing shim: unit model needs no RNG.
double next_weight(const WeightModel& w, Rng* rng) {
  if (w.kind == WeightModel::Kind::kUnit) return 1.0;
  SSP_REQUIRE(rng != nullptr, "non-unit weight model requires an Rng");
  return draw_weight(w, *rng);
}

}  // namespace

Graph grid_2d(Vertex nx, Vertex ny, const WeightModel& w, Rng* rng) {
  SSP_REQUIRE(nx >= 1 && ny >= 1, "grid_2d: dimensions must be >= 1");
  Graph g(nx * ny);
  g.reserve_edges((nx - 1) * ny + nx * (ny - 1));
  auto id = [ny](Vertex i, Vertex j) { return i * ny + j; };
  for (Vertex i = 0; i < nx; ++i) {
    for (Vertex j = 0; j < ny; ++j) {
      if (i + 1 < nx) g.add_edge(id(i, j), id(i + 1, j), next_weight(w, rng));
      if (j + 1 < ny) g.add_edge(id(i, j), id(i, j + 1), next_weight(w, rng));
    }
  }
  g.finalize();
  return g;
}

Graph grid_2d_8(Vertex nx, Vertex ny, const WeightModel& w, Rng* rng) {
  SSP_REQUIRE(nx >= 1 && ny >= 1, "grid_2d_8: dimensions must be >= 1");
  Graph g(nx * ny);
  auto id = [ny](Vertex i, Vertex j) { return i * ny + j; };
  for (Vertex i = 0; i < nx; ++i) {
    for (Vertex j = 0; j < ny; ++j) {
      if (i + 1 < nx) g.add_edge(id(i, j), id(i + 1, j), next_weight(w, rng));
      if (j + 1 < ny) g.add_edge(id(i, j), id(i, j + 1), next_weight(w, rng));
      if (i + 1 < nx && j + 1 < ny) {
        g.add_edge(id(i, j), id(i + 1, j + 1), next_weight(w, rng));
        g.add_edge(id(i + 1, j), id(i, j + 1), next_weight(w, rng));
      }
    }
  }
  g.finalize();
  return g;
}

Graph triangulated_grid(Vertex nx, Vertex ny, const WeightModel& w,
                        Rng* rng) {
  SSP_REQUIRE(nx >= 1 && ny >= 1, "triangulated_grid: dimensions must be >= 1");
  Graph g(nx * ny);
  g.reserve_edges((nx - 1) * ny + nx * (ny - 1) + (nx - 1) * (ny - 1));
  auto id = [ny](Vertex i, Vertex j) { return i * ny + j; };
  for (Vertex i = 0; i < nx; ++i) {
    for (Vertex j = 0; j < ny; ++j) {
      if (i + 1 < nx) g.add_edge(id(i, j), id(i + 1, j), next_weight(w, rng));
      if (j + 1 < ny) g.add_edge(id(i, j), id(i, j + 1), next_weight(w, rng));
      // Alternate diagonal orientation per cell parity ("union-jack" free).
      if (i + 1 < nx && j + 1 < ny) {
        if ((i + j) % 2 == 0) {
          g.add_edge(id(i, j), id(i + 1, j + 1), next_weight(w, rng));
        } else {
          g.add_edge(id(i + 1, j), id(i, j + 1), next_weight(w, rng));
        }
      }
    }
  }
  g.finalize();
  return g;
}

Graph grid_3d(Vertex nx, Vertex ny, Vertex nz, const WeightModel& w,
              Rng* rng) {
  SSP_REQUIRE(nx >= 1 && ny >= 1 && nz >= 1,
              "grid_3d: dimensions must be >= 1");
  Graph g(nx * ny * nz);
  auto id = [ny, nz](Vertex i, Vertex j, Vertex k) {
    return (i * ny + j) * nz + k;
  };
  for (Vertex i = 0; i < nx; ++i) {
    for (Vertex j = 0; j < ny; ++j) {
      for (Vertex k = 0; k < nz; ++k) {
        if (i + 1 < nx) {
          g.add_edge(id(i, j, k), id(i + 1, j, k), next_weight(w, rng));
        }
        if (j + 1 < ny) {
          g.add_edge(id(i, j, k), id(i, j + 1, k), next_weight(w, rng));
        }
        if (k + 1 < nz) {
          g.add_edge(id(i, j, k), id(i, j, k + 1), next_weight(w, rng));
        }
      }
    }
  }
  g.finalize();
  return g;
}

Graph torus_2d(Vertex nx, Vertex ny, const WeightModel& w, Rng* rng) {
  SSP_REQUIRE(nx >= 3 && ny >= 3, "torus_2d: dimensions must be >= 3");
  Graph g(nx * ny);
  auto id = [ny](Vertex i, Vertex j) { return i * ny + j; };
  for (Vertex i = 0; i < nx; ++i) {
    for (Vertex j = 0; j < ny; ++j) {
      g.add_edge(id(i, j), id((i + 1) % nx, j), next_weight(w, rng));
      g.add_edge(id(i, j), id(i, (j + 1) % ny), next_weight(w, rng));
    }
  }
  g.finalize();
  return g;
}

Graph torus_3d(Vertex nx, Vertex ny, Vertex nz, const WeightModel& w,
               Rng* rng) {
  SSP_REQUIRE(nx >= 3 && ny >= 3 && nz >= 3,
              "torus_3d: dimensions must be >= 3");
  Graph g(nx * ny * nz);
  auto id = [ny, nz](Vertex i, Vertex j, Vertex k) {
    return (i * ny + j) * nz + k;
  };
  for (Vertex i = 0; i < nx; ++i) {
    for (Vertex j = 0; j < ny; ++j) {
      for (Vertex k = 0; k < nz; ++k) {
        g.add_edge(id(i, j, k), id((i + 1) % nx, j, k), next_weight(w, rng));
        g.add_edge(id(i, j, k), id(i, (j + 1) % ny, k), next_weight(w, rng));
        g.add_edge(id(i, j, k), id(i, j, (k + 1) % nz), next_weight(w, rng));
      }
    }
  }
  g.finalize();
  return g;
}

Graph path_graph(Vertex n, const WeightModel& w, Rng* rng) {
  SSP_REQUIRE(n >= 1, "path_graph: n must be >= 1");
  Graph g(n);
  for (Vertex i = 0; i + 1 < n; ++i) {
    g.add_edge(i, i + 1, next_weight(w, rng));
  }
  g.finalize();
  return g;
}

Graph cycle_graph(Vertex n, const WeightModel& w, Rng* rng) {
  SSP_REQUIRE(n >= 3, "cycle_graph: n must be >= 3");
  Graph g(n);
  for (Vertex i = 0; i < n; ++i) {
    g.add_edge(i, (i + 1) % n, next_weight(w, rng));
  }
  g.finalize();
  return g;
}

Graph star_graph(Vertex n, const WeightModel& w, Rng* rng) {
  SSP_REQUIRE(n >= 2, "star_graph: n must be >= 2");
  Graph g(n);
  for (Vertex i = 1; i < n; ++i) g.add_edge(0, i, next_weight(w, rng));
  g.finalize();
  return g;
}

Graph complete_graph(Vertex n, const WeightModel& w, Rng* rng) {
  SSP_REQUIRE(n >= 2, "complete_graph: n must be >= 2");
  Graph g(n);
  for (Vertex i = 0; i < n; ++i) {
    for (Vertex j = i + 1; j < n; ++j) g.add_edge(i, j, next_weight(w, rng));
  }
  g.finalize();
  return g;
}

}  // namespace ssp
