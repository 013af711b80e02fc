#pragma once

/// \file operators.hpp
/// Type-erased linear operators. The eigensolvers and the core
/// sparsification pipeline are written against `LinOp` so the same code
/// runs with an exact tree solver, a Cholesky factorization, or PCG as the
/// inner `L_P⁺` application.
///
/// Lifetime: the factory functions capture the referenced objects by
/// pointer; the caller must keep them alive while the operator is used.

#include <functional>
#include <span>

#include "la/csr_matrix.hpp"
#include "solver/cholesky.hpp"
#include "solver/pcg.hpp"
#include "solver/preconditioner.hpp"
#include "tree/tree_solver.hpp"

namespace ssp {

/// y := Op(x). Both spans have the operator's dimension.
using LinOp = std::function<void(std::span<const double>, std::span<double>)>;

/// Panel form: X := Op(B) applied to a row-major n×r multi-RHS panel
/// (arguments: b, x, n, r). Implementations must make each panel column
/// bit-identical to the corresponding single-RHS `LinOp` application —
/// callers use a PanelOp purely as a faster route through the same
/// arithmetic (e.g. the embedding's blocked probe loop).
using PanelOp = std::function<void(const double*, double*, Index, Index)>;

/// y = A x.
[[nodiscard]] LinOp make_csr_op(const CsrMatrix& a);

/// y = L_T⁺ x (exact tree solve, zero-mean output).
[[nodiscard]] LinOp make_tree_solver_op(const TreeSolver& solver);

/// Blocked multi-RHS form of `make_tree_solver_op` (one tree traversal for
/// all r columns; columns bit-identical to the single-RHS operator).
[[nodiscard]] PanelOp make_tree_solver_panel_op(const TreeSolver& solver);

/// y = A⁻¹ x via a (possibly Laplacian-grounded) Cholesky factorization.
[[nodiscard]] LinOp make_cholesky_op(const SparseCholesky& chol);

/// y ≈ A⁺ x via PCG with the given preconditioner. When `total_iterations`
/// is non-null it accumulates inner iteration counts across applications.
[[nodiscard]] LinOp make_pcg_op(const CsrMatrix& a, const Preconditioner& m,
                                PcgOptions opts,
                                Index* total_iterations = nullptr);

}  // namespace ssp
