#include "checks.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/sparsifier_preconditioner.hpp"
#include "graph/connectivity.hpp"
#include "graph/laplacian.hpp"
#include "scale/quality.hpp"
#include "solver/pcg.hpp"
#include "tree/spanning_tree.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kQualitySeed = 7;
constexpr std::uint64_t kRhsSeed = 11;

std::uint64_t fnv1a_ids(std::span<const ssp::EdgeId> ids) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const ssp::EdgeId e : ids) {
    auto x = static_cast<std::uint64_t>(e);
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

}  // namespace

OutputCheck check_subgraph(const ssp::Graph& g,
                           std::span<const ssp::EdgeId> edges,
                           std::span<const ssp::EdgeId> backbone) {
  OutputCheck out;
  out.hash = fnv1a_ids(edges);
  const ssp::Vertex n = g.num_vertices();
  std::vector<char> seen(static_cast<std::size_t>(g.num_edges()), 0);
  for (const ssp::EdgeId e : edges) {
    if (e < 0 || e >= g.num_edges()) {
      out.error = "edge id " + std::to_string(e) + " out of range";
      return out;
    }
    if (seen[static_cast<std::size_t>(e)] != 0) {
      out.error = "edge id " + std::to_string(e) + " repeated";
      return out;
    }
    seen[static_cast<std::size_t>(e)] = 1;
  }
  if (!backbone.empty()) {
    if (static_cast<ssp::Vertex>(backbone.size()) != n - 1 ||
        backbone.size() > edges.size() ||
        !std::equal(backbone.begin(), backbone.end(), edges.begin())) {
      out.error = "backbone is not the n-1 prefix of the edge list";
      return out;
    }
    try {
      const ssp::SpanningTree tree(
          g, std::vector<ssp::EdgeId>(backbone.begin(), backbone.end()));
    } catch (const std::exception& e) {
      out.error = std::string("backbone is not a spanning tree: ") + e.what();
      return out;
    }
  }
  if (!ssp::is_connected(g.edge_subgraph(edges))) {
    out.error = "sparsifier is not a connected spanning subgraph";
  }
  return out;
}

namespace {

/// Row-major (n−1)×(n−1) Laplacian of `g` grounded at vertex n−1.
std::vector<double> grounded_laplacian(const ssp::Graph& g) {
  const auto m = static_cast<std::size_t>(g.num_vertices() - 1);
  std::vector<double> a(m * m, 0.0);
  for (const ssp::Edge& e : g.edges()) {
    const auto u = static_cast<std::size_t>(e.u);
    const auto v = static_cast<std::size_t>(e.v);
    if (u < m) a[u * m + u] += e.weight;
    if (v < m) a[v * m + v] += e.weight;
    if (u < m && v < m) {
      a[u * m + v] -= e.weight;
      a[v * m + u] -= e.weight;
    }
  }
  return a;
}

/// Number of eigenvalues of the symmetric tridiagonal (diag, off) below
/// `x`: the negative pivots of the LDLᵀ recurrence (Sturm count).
std::size_t eigenvalues_below(const std::vector<double>& diag,
                              const std::vector<double>& off, double x) {
  std::size_t count = 0;
  double q = 1.0;
  for (std::size_t i = 0; i < diag.size(); ++i) {
    const double b2 = i == 0 ? 0.0 : off[i - 1] * off[i - 1];
    q = diag[i] - x - (i == 0 ? 0.0 : b2 / q);
    if (q == 0.0) q = -1e-300;  // a zero pivot counts as just below x
    if (q < 0.0) ++count;
  }
  return count;
}

/// The k-th smallest eigenvalue (k = 1 … n) by bisection on the Sturm
/// count inside the Gershgorin interval. Unlike QL iteration it cannot fail
/// to converge, whatever the eigenvalue multiplicities (a subgraph
/// sparsifier's pencil has many eigenvalues exactly 1).
double kth_eigenvalue(const std::vector<double>& diag,
                      const std::vector<double>& off, std::size_t k) {
  double lo = 0.0, hi = 0.0;
  for (std::size_t i = 0; i < diag.size(); ++i) {
    const double r = (i > 0 ? std::fabs(off[i - 1]) : 0.0) +
                     (i + 1 < diag.size() ? std::fabs(off[i]) : 0.0);
    lo = i == 0 ? diag[i] - r : std::min(lo, diag[i] - r);
    hi = i == 0 ? diag[i] + r : std::max(hi, diag[i] + r);
  }
  for (int it = 0; it < 200 && hi - lo > 1e-15 * std::max(std::fabs(lo), std::fabs(hi)); ++it) {
    const double mid = 0.5 * (lo + hi);
    (eigenvalues_below(diag, off, mid) >= k ? hi : lo) = mid;
  }
  return 0.5 * (lo + hi);
}

}  // namespace

double dense_kappa(const ssp::Graph& g, const ssp::Graph& p) {
  const auto m = static_cast<std::size_t>(g.num_vertices() - 1);
  std::vector<double> c = grounded_laplacian(g);
  std::vector<double> l = grounded_laplacian(p);
  // Cholesky of B in place (lower triangle).
  for (std::size_t j = 0; j < m; ++j) {
    double d = l[j * m + j];
    for (std::size_t k = 0; k < j; ++k) d -= l[j * m + k] * l[j * m + k];
    if (!(d > 0.0)) throw std::runtime_error("dense_kappa: L_P is not SPD once grounded");
    const double ljj = std::sqrt(d);
    l[j * m + j] = ljj;
    for (std::size_t i = j + 1; i < m; ++i) {
      double s = l[i * m + j];
      for (std::size_t k = 0; k < j; ++k) s -= l[i * m + k] * l[j * m + k];
      l[i * m + j] = s / ljj;
    }
  }
  // C := L⁻¹ A L⁻ᵀ by two rounds of forward solves over rows (A and C are
  // symmetric, so rows stand in for columns).
  const auto forward_rows = [&](std::vector<double>& x) {
    for (std::size_t r = 0; r < m; ++r) {
      double* row = &x[r * m];
      for (std::size_t i = 0; i < m; ++i) {
        double s = row[i];
        for (std::size_t k = 0; k < i; ++k) s -= l[i * m + k] * row[k];
        row[i] = s / l[i * m + i];
      }
    }
  };
  forward_rows(c);  // c = (L⁻¹ A)ᵀ: row r is column r of L⁻¹ A
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) std::swap(c[i * m + j], c[j * m + i]);
  }
  forward_rows(c);  // row r is column r of L⁻¹ (L⁻¹ A)ᵀ = L⁻¹ A L⁻ᵀ
  // Householder tridiagonalization.
  std::vector<double> v(m), q(m);
  for (std::size_t k = 0; k + 2 < m; ++k) {
    double norm2 = 0.0;
    for (std::size_t i = k + 1; i < m; ++i) norm2 += c[i * m + k] * c[i * m + k];
    if (norm2 == 0.0) continue;
    const double x0 = c[(k + 1) * m + k];
    const double alpha = x0 > 0.0 ? -std::sqrt(norm2) : std::sqrt(norm2);
    double vv = 0.0;
    for (std::size_t i = k + 1; i < m; ++i) {
      v[i] = c[i * m + k] - (i == k + 1 ? alpha : 0.0);
      vv += v[i] * v[i];
    }
    const double beta = 2.0 / vv;
    double vp = 0.0;
    for (std::size_t i = k + 1; i < m; ++i) {
      double s = 0.0;
      for (std::size_t j = k + 1; j < m; ++j) s += c[i * m + j] * v[j];
      q[i] = beta * s;
      vp += v[i] * q[i];
    }
    const double kk = 0.5 * beta * vp;
    for (std::size_t i = k + 1; i < m; ++i) q[i] -= kk * v[i];
    for (std::size_t i = k + 1; i < m; ++i) {
      for (std::size_t j = k + 1; j < m; ++j) {
        c[i * m + j] -= v[i] * q[j] + q[i] * v[j];
      }
    }
    c[(k + 1) * m + k] = c[k * m + k + 1] = alpha;
    for (std::size_t i = k + 2; i < m; ++i) c[i * m + k] = c[k * m + i] = 0.0;
  }
  std::vector<double> diag(m), off(m > 0 ? m - 1 : 0);
  for (std::size_t i = 0; i < m; ++i) diag[i] = c[i * m + i];
  for (std::size_t i = 0; i + 1 < m; ++i) off[i] = c[(i + 1) * m + i];
  return kth_eigenvalue(diag, off, m) / kth_eigenvalue(diag, off, 1);
}

Kappa independent_kappa(const ssp::Graph& g, const ssp::Graph& p) {
  if (g.num_vertices() <= kDenseOracleMaxVertices) {
    return {dense_kappa(g, p), true};
  }
  const ssp::SparsifierQuality q = ssp::estimate_sparsifier_quality(
      g, p, ssp::QualityOptions{.seed = kQualitySeed});
  return {q.sigma2, false};
}

double solve_iterations(const ssp::Graph& g, const ssp::Graph& p) {
  const ssp::CsrMatrix lg = ssp::laplacian(g);
  const ssp::SparsifierPreconditioner precond(p);
  ssp::Rng rng(kRhsSeed);
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<double> b(n);
  double mean = 0.0;
  for (double& v : b) {
    v = rng.uniform() - 0.5;
    mean += v;
  }
  mean /= static_cast<double>(n);
  for (double& v : b) v -= mean;
  std::vector<double> x(n, 0.0);
  const ssp::PcgResult r = ssp::pcg_solve(
      lg, b, x, precond,
      {.max_iterations = 5000, .rel_tolerance = 1e-6, .project_constants = true});
  return static_cast<double>(r.iterations);
}

namespace {

/// A "<field>: <n> kB" line of /proc/self/status, in MiB; 0 when absent.
double status_mib(const char* field) {
  std::ifstream status("/proc/self/status");
  const std::string prefix = std::string(field) + ":";
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double begin_rss_window(WorkloadResult& out) {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  if (!clear.good()) {
    out.note("peak_rss.scope", "whole process (clear_refs unsupported)");
  }
  return status_mib("VmRSS");
}

void end_rss_window(double start_mib, WorkloadResult& out) {
  const double peak = status_mib("VmHWM");
  out.set("peak_rss_mb", peak, "MiB");
  out.note("rss.window_start_mib",
           std::to_string(start_mib) + " (window rise " + std::to_string(peak - start_mib) + ")");
}

}  // namespace perfbench
