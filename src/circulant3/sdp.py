"""Dense semidefinite solver for small Gram-matrix problems.

Solves: maximize t subject to <A_l, G> = b_l for l = 1..L and
G - t*I positive semidefinite, with G an N x N symmetric matrix.

Substituting X = G - t*I >= 0 gives the standard-form program

    min -t   s.t.  <A_l, X> + tr(A_l) * t = b_l,   X >= 0,

whose dual is: min b'y over y with sum_l y_l * tr(A_l) = 1 and
Z = sum_l y_l A_l >= 0; weak duality reads t <= b'y with gap <X, Z>.

The solver is a hand-rolled primal-dual interior-point method, started
from a point off the constraints, with Nesterov-Todd scaling and a
Mehrotra-style predictor corrector. Problem sizes here are tiny (N <= 64,
L <= a few hundred), so the Schur complement is assembled densely and
factored per iteration, and the pace is set by the fixed cost of each
numpy call, not by the L*N^3 arithmetic: an iteration is written as a few
plain matrix products over the (L, N, N) constraint stack, and the primal
and dual step lengths share one stacked solve and eigenvalue call (after
SDPT3, "SDPT3 -- a MATLAB software package for semidefinite programming",
Toh, Todd & Tutuncu, 1999). Each solution records why its loop stopped
(``SdpSolution.stop``). The constraint matrices must be mutually
orthogonal, as in every Gram problem of ``sos``: then every b is
attained, and the final iterate is projected onto the constraints by a
division by the rows' squared norms (Peyrl & Parrilo, "Computing sum of
squares decompositions with rational coefficients", 2008); t_star is
read off the projected matrix. The solver expects a problem with an
interior: a Gram problem whose form has real zeros is first restricted
to the face those zeros cut out (see ``sos``). Everything is
deterministic: fixed starting point, fixed iteration schedule, no
randomization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

_STEP_SHRINK = 0.98  # fraction-to-boundary factor
_MAX_DIM = 64
# stopping rule, in units of the scaled problem: mu at most _MU_TOL, primal
# and dual residuals at most _FEAS_TOL and the residual of the dual's
# normalisation sum_l y_l tr(A_l) = 1 at most _RG_TOL; or _MAX_ITER
# iterations
_MU_TOL = 1e-11
_FEAS_TOL = 1e-9
_RG_TOL = 1e-10
_MAX_ITER = 150


@dataclass(frozen=True)
class SdpProblem:
    """Equality-constrained max-lambda-min problem on symmetric matrices.

    ``coeffs`` stacks the L symmetric constraint matrices as an
    (L, N, N) array; ``rhs`` holds the right-hand sides b_l. The matrices
    must be nonzero and mutually orthogonal, |<A_k, A_l>| <= 1e-12 max_l
    ||A_l||^2 for k != l, else ValueError.
    """

    dim: int
    coeffs: np.ndarray
    rhs: np.ndarray

    def __post_init__(self) -> None:
        if self.dim < 1 or self.dim > _MAX_DIM:
            raise ValueError(f"matrix side must be in [1, {_MAX_DIM}], got {self.dim}")
        coeffs = np.asarray(self.coeffs, dtype=float)
        rhs = np.asarray(self.rhs, dtype=float)
        if coeffs.ndim != 3 or coeffs.shape[1:] != (self.dim, self.dim):
            raise ValueError(f"coeffs must have shape (L, {self.dim}, {self.dim})")
        if rhs.shape != (coeffs.shape[0],):
            raise ValueError("rhs length must match the number of constraint matrices")
        if coeffs.shape[0] < 1:
            raise ValueError("constraint list must be nonempty")
        if not np.allclose(coeffs, np.swapaxes(coeffs, 1, 2), atol=1e-12):
            raise ValueError("constraint matrices must be symmetric")
        if not (np.all(np.isfinite(coeffs)) and np.all(np.isfinite(rhs))):
            raise ValueError("constraint data must be finite")
        gram = np.tensordot(coeffs, coeffs, axes=([1, 2], [1, 2]))
        norms = np.diag(gram)
        off = np.max(np.abs(gram - np.diag(norms)))
        if not (np.all(norms > 0.0) and off <= 1e-12 * np.max(norms)):
            raise ValueError("constraint matrices must be nonzero and mutually orthogonal")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "rhs", rhs)

    def scale(self) -> float:
        """max(1, max_l |b_l|): the unit of every tolerance on the problem."""
        return max(1.0, float(np.max(np.abs(self.rhs))))

    def violation(self, G: np.ndarray) -> float:
        """max_l |<A_l, G> - b_l|, the worst equality violation of G, as one product."""
        flat = self.coeffs.reshape(len(self.rhs), -1)
        return float(np.max(np.abs(flat @ np.ravel(G) - self.rhs)))


@dataclass(frozen=True)
class SdpSolution:
    """Solver output.

    ``t_star`` is the smallest eigenvalue of the returned G, computed by
    an eigen-decomposition after the fact, so the problem attains it.
    ``dual_obj`` is the dual objective b'y, an upper bound on the
    attainable t up to the recorded infeasibility. The optimal t lies in
    the enclosure [t_star, t_star + precision], in the problem's own
    units (``precision`` is the duality gap plus the dual residuals).

    ``status`` grades the returned matrix; ``stop`` says why the loop
    ended: "converged" (the stopping rule was met), "stall" (8 iterations
    without a 1% gain in the worst residual), "budget" (the iteration
    budget ran out) or "breakdown" (a failed factorization, a non-finite
    Schur matrix or step, or a blow-up of the iterate). ``status`` is
    "optimal" or "max-iterations"; a run that stops on a stall or the
    budget can still grade "optimal" once its best iterate is projected.
    """

    G: np.ndarray
    t_star: float
    primal_residual: float
    status: str
    iterations: int
    gap: float
    dual_obj: float
    precision: float
    stop: str


def _step_lengths(
    dX: np.ndarray, dZ: np.ndarray, Lx: np.ndarray, Lz: np.ndarray
) -> Tuple[float, float]:
    """Largest steps alpha <= 1 keeping X + alpha*dX and Z + alpha*dZ positive definite.

    ``Lx`` and ``Lz`` are Cholesky factors of X and Z. Each step reads
    the smallest eigenvalue beta of Y = L^-1 dS L^-T; both Y come from
    one stacked solve per side and one stacked ``eigvalsh``, which give
    the same numbers as two separate one-matrix passes.
    """
    chol = np.stack([Lx, Lz])
    Y = np.linalg.solve(chol, np.stack([dX, dZ]))
    Y = np.swapaxes(np.linalg.solve(chol, np.swapaxes(Y, 1, 2)), 1, 2)
    beta = np.linalg.eigvalsh(0.5 * (Y + np.swapaxes(Y, 1, 2)))[:, 0]
    ap, ad = (1.0 if b >= -1e-16 else min(1.0, _STEP_SHRINK / (-b)) for b in beta)
    return ap, ad


def solve(problem: SdpProblem) -> SdpSolution:
    """Run the interior-point method; never raises on numerical trouble.

    Returns status "optimal" when mu reaches 1e-11 and the residuals
    1e-9 (in units of the scaled problem, i.e. relative to max|b|), and
    "max-iterations" when the budget of 150 iterations, a stall or a
    breakdown ends the run first; ``stop`` on the solution tells these
    endings apart.

    Each iteration is a handful of dense products on the (L, N, N) stack
    A of constraint matrices: the Schur complement M_kl = <A_k, W A_l W>
    is ``A_flat @ ((W @ A) @ W)`` and the adjoint sum_l y_l A_l is
    ``A_flat.T @ y``, so no contraction path is searched per iteration.
    The primal and dual step lengths of the predictor, and again of the
    corrector, come from one stacked solve and eigenvalue pass
    (``_step_lengths``). X and Z are factored by plain Cholesky, with no
    diagonal jitter: an iterate that is no longer positive definite is a
    breakdown, and the best iterate so far is projected and graded.
    """
    N = problem.dim
    L = problem.coeffs.shape[0]
    A = problem.coeffs
    A_flat = A.reshape(L, -1)
    c = np.einsum("lii->l", A)

    scale = problem.scale()
    b = problem.rhs / scale

    X = np.eye(N)
    Z = np.eye(N)
    y = np.zeros(L)
    t = 0.0

    def adjoint(v: np.ndarray) -> np.ndarray:
        return (A_flat.T @ v).reshape(N, N)

    best = None
    best_err = math.inf
    stall = 0
    status = "max-iterations"
    stop = "budget"
    iterations = 0

    for iterations in range(1, _MAX_ITER + 1):
        rp = b - A_flat @ X.ravel() - c * t
        Rd = adjoint(y) - Z
        rg = 1.0 - float(c @ y)
        mu = float(np.sum(X * Z)) / N
        feas = float(np.max(np.abs(rp)))
        dfeas = float(np.max(np.abs(Rd)))
        err = max(mu, feas, dfeas, abs(rg))

        if err < best_err - 1e-18:
            if err < 0.99 * best_err:
                stall = 0
            else:
                stall += 1
            best_err = err
            best = (X.copy(), y.copy(), t, mu, rg, dfeas)
        else:
            stall += 1

        if mu <= _MU_TOL and feas <= _FEAS_TOL and dfeas <= _FEAS_TOL and abs(rg) <= _RG_TOL:
            status = "optimal"
            stop = "converged"
            break
        if stall >= 8:
            stop = "stall"
            break

        try:
            Lx = np.linalg.cholesky(X)
            Lz = np.linalg.cholesky(Z)
            S = Lx.T @ Z @ Lx
            S = 0.5 * (S + S.T)
            evals, U = np.linalg.eigh(S)
            evals = np.maximum(evals, 1e-300)
            root = Lx @ (U / np.sqrt(evals))
            W = root @ (U.T @ Lx.T)
            W = 0.5 * (W + W.T)
            Zinv_half = np.linalg.solve(Lz, np.eye(N))
            Zinv = Zinv_half.T @ Zinv_half

            with np.errstate(over="ignore", invalid="ignore"):
                M = A_flat @ ((W @ A) @ W).reshape(L, -1).T
                M = 0.5 * (M + M.T)
            if not np.all(np.isfinite(M)):
                stop = "breakdown"
                break
            # a floor on M's spectrum; a floor much above 1e-14 of its largest
            # diagonal entry biases the Newton steps enough for the primal
            # residual to grow as mu falls, and the loop stalls early
            M += (1e-14 * max(1.0, float(np.max(np.diag(M))))) * np.eye(L)

            def newton(Rc: np.ndarray) -> Tuple[np.ndarray, float, np.ndarray, np.ndarray]:
                T1 = Rc - W @ Rd @ W
                h = A_flat @ T1.ravel() - rp
                sol = np.linalg.solve(M, np.column_stack([h, c]))
                Minv_h = sol[:, 0]
                Minv_c = sol[:, 1]
                denom = float(c @ Minv_c)
                dt = (rg - float(c @ Minv_h)) / denom
                dy = Minv_h + Minv_c * dt
                dZ = adjoint(dy) + Rd
                dX = Rc - W @ dZ @ W
                dX = 0.5 * (dX + dX.T)
                return dy, dt, dZ, dX

            with np.errstate(over="ignore", invalid="ignore"):
                # predictor (sigma = 0) fixes the centering parameter
                dy_a, dt_a, dZ_a, dX_a = newton(-X)
                ap, ad = _step_lengths(dX_a, dZ_a, Lx, Lz)
                mu_aff = float(np.sum((X + ap * dX_a) * (Z + ad * dZ_a))) / N
                sigma = (
                    min(1.0, max(0.0, (max(mu_aff, 0.0) / mu) ** 3)) if mu > 0 else 0.0
                )

                # corrector with the Mehrotra second-order term (symmetrized)
                second = dX_a @ dZ_a @ Zinv
                Rc = sigma * mu * Zinv - X - 0.5 * (second + second.T)
                dy, dt, dZ, dX = newton(Rc)
            if not (
                math.isfinite(dt)
                and np.all(np.isfinite(dX))
                and np.all(np.isfinite(dZ))
                and np.all(np.isfinite(dy))
            ):
                stop = "breakdown"
                break
            ap, ad = _step_lengths(dX, dZ, Lx, Lz)
        except np.linalg.LinAlgError:
            stop = "breakdown"
            break

        X = 0.5 * ((X + ap * dX) + (X + ap * dX).T)
        Z = 0.5 * ((Z + ad * dZ) + (Z + ad * dZ).T)
        y = y + ad * dy
        t = t + ap * dt
        if not (math.isfinite(t) and float(np.max(np.abs(X))) < 1e60 and float(np.max(np.abs(Z))) < 1e60):
            stop = "breakdown"
            break

    # the first iteration, with its finite mu = 1, always sets best
    final = (X, y, t, mu, rg, dfeas) if status == "optimal" else best
    Xf, yf, tf, mu_f, rg_f, dfeas_f = final

    G = scale * (Xf + tf * np.eye(N))
    G = 0.5 * (G + G.T)

    # The interior-point iterate is feasible only up to its residuals:
    # project it onto the affine constraint set (least-norm correction, a
    # division as A A' is diagonal), so the returned matrix is feasible to
    # machine precision and t_star = lambda_min(G) is a value the problem
    # actually attains, never an interior-point estimate
    resid = problem.rhs - A_flat @ G.ravel()
    G = G + adjoint(resid / np.einsum("ij,ij->i", A_flat, A_flat))
    G = 0.5 * (G + G.T)
    t_star = float(np.linalg.eigvalsh(G)[0])
    obj_scale = max(1.0, float(np.linalg.norm(G)))

    dual_obj = scale * float(b @ yf)
    primal_residual = float(np.max(np.abs(problem.rhs - A_flat @ G.ravel())))

    # certified enclosure: t_star is attained, dual_obj bounds the optimum
    # from above up to the (tiny) dual residuals, so the width of
    # [t_star, dual_obj] plus the dual noise is an honest accuracy estimate
    dual_noise = scale * (N * dfeas_f + abs(rg_f) * max(1.0, abs(tf))) if math.isfinite(dfeas_f) else math.inf
    precision = max(dual_obj - t_star, 0.0) + dual_noise + 1e-13 * obj_scale

    # grade the repaired matrix, not the raw iterate: the loop may stop on
    # the stall counter even though the projected result meets tolerance
    feas_ok = primal_residual <= _FEAS_TOL * scale
    if mu_f <= _MU_TOL and dfeas_f <= _FEAS_TOL and abs(rg_f) <= _RG_TOL and feas_ok:
        status = "optimal"
    return SdpSolution(
        G=G,
        t_star=t_star,
        primal_residual=primal_residual,
        status=status,
        iterations=iterations,
        gap=dual_obj - t_star,
        dual_obj=dual_obj,
        precision=precision,
        stop=stop,
    )


def check_certificate(
    G: np.ndarray, problem: SdpProblem, tol: float = 1e-7
) -> Tuple[bool, float]:
    """Independent verification of a candidate solution matrix.

    Checks every equality constraint and the smallest eigenvalue of G
    with plain dense linear algebra, sharing no code with the solver
    loop. Returns (verdict, worst violation).
    """
    G = np.asarray(G, dtype=float)
    if G.shape != (problem.dim, problem.dim):
        raise ValueError(f"G must have shape ({problem.dim}, {problem.dim})")
    if not np.allclose(G, G.T, atol=1e-9):
        raise ValueError("G must be symmetric")
    lam = float(np.linalg.eigvalsh(0.5 * (G + G.T))[0])
    viol = max(problem.violation(G), -lam)
    return viol <= tol, viol
