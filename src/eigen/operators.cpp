#include "eigen/operators.hpp"

#include "la/vector_ops.hpp"

namespace ssp {

LinOp make_csr_op(const CsrMatrix& a) {
  return [&a](std::span<const double> x, std::span<double> y) {
    a.multiply(x, y);
  };
}

LinOp make_tree_solver_op(const TreeSolver& solver) {
  return [&solver](std::span<const double> x, std::span<double> y) {
    solver.solve(x, y);
  };
}

PanelOp make_tree_solver_panel_op(const TreeSolver& solver) {
  return [&solver](const double* b, double* x, Index n, Index r) {
    solver.solve_multi({b, static_cast<std::size_t>(n * r)},
                       {x, static_cast<std::size_t>(n * r)}, r);
  };
}

LinOp make_cholesky_op(const SparseCholesky& chol) {
  return [&chol](std::span<const double> x, std::span<double> y) {
    chol.solve(x, y);
  };
}

LinOp make_pcg_op(const CsrMatrix& a, const Preconditioner& m,
                  PcgOptions opts, Index* total_iterations) {
  return [&a, &m, opts, total_iterations](std::span<const double> x,
                                          std::span<double> y) {
    fill(y, 0.0);
    const PcgResult res = pcg_solve(a, x, y, m, opts);
    if (total_iterations != nullptr) *total_iterations += res.iterations;
  };
}

}  // namespace ssp
