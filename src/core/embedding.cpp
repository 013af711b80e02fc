#include "core/embedding.hpp"

#include <algorithm>
#include <cmath>

#include "graph/laplacian.hpp"
#include "la/kernels/kernels.hpp"
#include "la/vector_ops.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace ssp {

OffTreeEmbedding compute_offtree_heat(const Graph& g,
                                      std::span<const char> in_sparsifier,
                                      const LinOp& solve_p,
                                      const EmbeddingOptions& opts, Rng& rng) {
  // The Laplacian is only consumed by the power iterations, which never
  // run when every edge already sits in the sparsifier — skip the
  // O(|V|+|E|) assembly then (the workspace form returns before using lg).
  const bool any_offtree =
      std::any_of(in_sparsifier.begin(), in_sparsifier.end(),
                  [](char c) { return c == 0; });
  const CsrMatrix lg = any_offtree ? laplacian(g) : CsrMatrix{};
  EmbeddingWorkspace ws;
  OffTreeEmbedding emb;
  compute_offtree_heat(g, lg, in_sparsifier, solve_p, opts, rng, ws, emb);
  return emb;
}

void compute_offtree_heat(const Graph& g, const CsrMatrix& lg,
                          std::span<const char> in_sparsifier,
                          const LinOp& solve_p, const EmbeddingOptions& opts,
                          Rng& rng, EmbeddingWorkspace& ws,
                          OffTreeEmbedding& out, const PanelOp& solve_p_panel) {
  SSP_REQUIRE(g.finalized(), "embedding: graph must be finalized");
  SSP_REQUIRE(static_cast<EdgeId>(in_sparsifier.size()) == g.num_edges(),
              "embedding: in_sparsifier size must equal edge count");
  SSP_REQUIRE(opts.power_steps >= 1, "embedding: power_steps must be >= 1");
  const Index n = g.num_vertices();
  SSP_REQUIRE(n >= 2, "embedding: need >= 2 vertices");

  out.power_steps = opts.power_steps;
  // Default r = max(6, ceil(log2(n)/2)) — still the paper's O(log |V|)
  // regime; the embedding-parameter ablation shows the heat ranking is
  // already stable there, at half the solve cost of r = log2 n.
  out.num_vectors =
      opts.num_vectors > 0
          ? opts.num_vectors
          : std::max<Index>(
                6, static_cast<Index>(std::ceil(
                       0.5 *
                       std::log2(static_cast<double>(std::max<Index>(n, 4))))));
  out.heat_max = 0.0;
  out.total_heat = 0.0;

  out.offtree_edges.clear();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (in_sparsifier[static_cast<std::size_t>(e)] == 0) {
      out.offtree_edges.push_back(e);
    }
  }
  out.heat.assign(out.offtree_edges.size(), 0.0);
  if (out.offtree_edges.empty()) return;

  const std::size_t num_offtree = out.offtree_edges.size();
  const Index r = out.num_vectors;
  const auto ur = static_cast<std::size_t>(r);
  const int threads = resolve_threads(opts.threads);

  // Advance the parent generator once so back-to-back embeddings (one per
  // densification round) derive fresh stream roots, then hand probe j its
  // own split(j) stream. The sequence each probe consumes depends only on
  // (rng state, j) — never on the thread count or chunking.
  (void)rng();
  const Rng probe_root = rng;

  // All r probes advance together as one row-major n×r panel: vertex v's
  // r iterate values are contiguous, so the panel kernels amortize every
  // matrix/tree traversal over all probes at once and the per-edge heat
  // reduces over one contiguous row pair instead of r strided vectors.
  ws.panel_h.resize(static_cast<std::size_t>(n) * ur);
  ws.panel_gh.resize(static_cast<std::size_t>(n) * ur);
  ws.col_bias.resize(ur);

  // Draw each probe's start column from its own stream, then scatter it
  // into the panel (column j owned by exactly one loop index).
  parallel_for(Index{0}, r, threads, [&](Index j) {
    thread_local Vec col;
    col.resize(static_cast<std::size_t>(n));
    Rng probe_rng = probe_root.split(static_cast<std::uint64_t>(j));
    random_probe_fill(col, probe_rng);
    double* h = ws.panel_h.data();
    for (Index v = 0; v < n; ++v) {
      h[static_cast<std::size_t>(v) * ur + static_cast<std::size_t>(j)] =
          col[static_cast<std::size_t>(v)];
    }
  });

  const auto& krn = kernels::ops();
  // Per-column mean projection: col_sums applies the lane-blocked order of
  // kernels::sum per column, and x + (−m) matches project_out_mean — each
  // panel column stays bit-identical to projecting it standalone.
  const auto project_panel = [&](Vec& panel) {
    krn.col_sums(panel.data(), n, r, ws.col_bias.data());
    for (Index j = 0; j < r; ++j) {
      ws.col_bias[static_cast<std::size_t>(j)] =
          -(ws.col_bias[static_cast<std::size_t>(j)] / static_cast<double>(n));
    }
    krn.add_row_bias(panel.data(), n, r, ws.col_bias.data());
  };

  for (int s = 0; s < opts.power_steps; ++s) {
    lg.multiply_panel(ws.panel_h, ws.panel_gh, r);
    project_panel(ws.panel_gh);
    if (solve_p_panel) {
      // Blocked solve: one tree traversal serves all r columns.
      solve_p_panel(ws.panel_gh.data(), ws.panel_h.data(), n, r);
    } else {
      // Column-wise fallback (e.g. PCG rounds): gather column j, solve,
      // scatter back. Columns are independent and each is owned by one
      // loop index, so the result is thread-count invariant.
      parallel_for(Index{0}, r, threads, [&](Index j) {
        thread_local Vec col_in;
        thread_local Vec col_out;
        col_in.resize(static_cast<std::size_t>(n));
        col_out.resize(static_cast<std::size_t>(n));
        const double* gh = ws.panel_gh.data();
        for (Index v = 0; v < n; ++v) {
          col_in[static_cast<std::size_t>(v)] =
              gh[static_cast<std::size_t>(v) * ur + static_cast<std::size_t>(j)];
        }
        solve_p(col_in, col_out);
        double* h = ws.panel_h.data();
        for (Index v = 0; v < n; ++v) {
          h[static_cast<std::size_t>(v) * ur + static_cast<std::size_t>(j)] =
              col_out[static_cast<std::size_t>(v)];
        }
      });
    }
    project_panel(ws.panel_h);
  }

  // Per-edge Joule heat of h_t (Eq. (6)). The probe dimension of each
  // vertex is one contiguous panel row, so the per-edge sum is a fused
  // squared distance over the two rows; each edge's heat is owned by
  // exactly one chunk, so the result is thread-count invariant.
  const auto edges = g.edges();
  parallel_for(Index{0}, static_cast<Index>(num_offtree), threads,
               [&](Index ki) {
                 const auto k = static_cast<std::size_t>(ki);
                 const Edge& e =
                     edges[static_cast<std::size_t>(out.offtree_edges[k])];
                 const double* hu =
                     ws.panel_h.data() + static_cast<std::size_t>(e.u) * ur;
                 const double* hv =
                     ws.panel_h.data() + static_cast<std::size_t>(e.v) * ur;
                 out.heat[k] = e.weight * krn.sq_dist(hu, hv, ur);
               });

  for (double v : out.heat) {
    out.total_heat += v;
    out.heat_max = std::max(out.heat_max, v);
  }
}

}  // namespace ssp
