#pragma once

/// \file checks.hpp
/// Output checks and quality measurements applied to every sparsifier the
/// benchmark produces. All of them run outside the timed window.

#include <cstdint>
#include <span>
#include <string>

#include "graph/graph.hpp"
#include "measure.hpp"

namespace perfbench {

/// Outcome of a structural check. `error` is empty when the output passed.
struct OutputCheck {
  std::string error;
  std::uint64_t hash = 0;  ///< FNV-1a over the edge-id list, in order
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// A static output must be a connected spanning subgraph of `g` made of
/// valid, pairwise distinct edge ids. When `backbone` is non-empty it must
/// hold n−1 ids forming a spanning tree of `g` and be the prefix of
/// `edges` (the engine's backbone-first contract).
[[nodiscard]] OutputCheck check_subgraph(const ssp::Graph& g,
                                         std::span<const ssp::EdgeId> edges,
                                         std::span<const ssp::EdgeId> backbone);

/// Outputs at or below this many vertices get the dense oracle.
inline constexpr ssp::Vertex kDenseOracleMaxVertices = 600;

/// Exact κ(L_G, L_P) from dense linear algebra: both Laplacians grounded
/// at the last vertex (SPD for connected graphs, same finite pencil
/// spectrum), B = L Lᵀ by Cholesky, C = L⁻¹ A L⁻ᵀ reduced to tridiagonal
/// form by Householder reflections, then its extreme eigenvalues by Sturm
/// bisection. O(n³) with a small constant — the library's
/// `dense_generalized_eigenvalues` (cyclic Jacobi) gives the same values
/// and is the reference the self-test compares against, but takes over a
/// minute at 600 vertices.
[[nodiscard]] double dense_kappa(const ssp::Graph& g, const ssp::Graph& p);

/// Independent relative condition number κ(L_G, L_P) of sparsifier `p`.
/// Up to kDenseOracleMaxVertices vertices it is exact (`dense_kappa`);
/// above, it is the `estimate_sparsifier_quality` estimate with a fixed
/// seed.
struct Kappa {
  double value = 0.0;
  bool exact = false;
};
[[nodiscard]] Kappa independent_kappa(const ssp::Graph& g, const ssp::Graph& p);

/// PCG iterations to solve L_G x = b to a relative residual of 1e-6 with
/// the Cholesky-factored Laplacian of `p` as preconditioner (the paper's
/// Table 2 use). `b` is a fixed-seed random zero-mean vector.
[[nodiscard]] double solve_iterations(const ssp::Graph& g, const ssp::Graph& p);

/// Peak resident set of a workload's timed window, reported as
/// peak_rss_mb. `begin_rss_window` hands freed heap memory back to the
/// kernel and resets its high-water mark (VmHWM) to the current RSS through
/// /proc/self/clear_refs, so set-up spikes do not count; `end_rss_window`,
/// called right after the window and before the output checks, reads VmHWM
/// and notes the RSS the window started from (inputs held for the run plus
/// the binary), so the window's own rise above it is visible. Where
/// clear_refs is unsupported the figure is the process's peak so far, and
/// the context says so. `begin_rss_window` returns the starting RSS in MiB
/// for `end_rss_window`.
[[nodiscard]] double begin_rss_window(WorkloadResult& out);
void end_rss_window(double start_mib, WorkloadResult& out);

}  // namespace perfbench
