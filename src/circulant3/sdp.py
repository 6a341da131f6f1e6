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
to the face those zeros cut out (see ``sos``). A caller that only needs
a feasible matrix with t at least some value passes that value as
``solve``'s ``target``: the loop then ends at the first iterate or
Mehrotra predictor point whose projection reaches it ("feasible")
instead of running to the optimum.
Everything is deterministic: fixed starting point, fixed iteration
schedule, no randomization.
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


def _checked_rhs(coeffs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """rhs as a float array, ValueError unless it is finite with one entry per matrix."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (coeffs.shape[0],):
        raise ValueError("rhs length must match the number of constraint matrices")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("constraint data must be finite")
    return rhs


@dataclass(frozen=True)
class SdpProblem:
    """Equality-constrained max-lambda-min problem on symmetric matrices.

    ``coeffs`` stacks the L symmetric constraint matrices as an
    (L, N, N) array; ``rhs`` holds the right-hand sides b_l. The matrices
    must be finite, symmetric entry by entry, |A - A'| <= 1e-12 max(1,
    max|A|), nonzero and mutually orthogonal, |<A_k, A_l>| <= 1e-12 max_l
    ||A_l||^2 for k != l, else ValueError. ``with_rhs`` makes the same
    problem with other right-hand sides and checks only those.
    """

    dim: int
    coeffs: np.ndarray
    rhs: np.ndarray

    def __post_init__(self) -> None:
        if self.dim < 1 or self.dim > _MAX_DIM:
            raise ValueError(f"matrix side must be in [1, {_MAX_DIM}], got {self.dim}")
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim != 3 or coeffs.shape[1:] != (self.dim, self.dim):
            raise ValueError(f"coeffs must have shape (L, {self.dim}, {self.dim})")
        rhs = _checked_rhs(coeffs, self.rhs)
        if coeffs.shape[0] < 1:
            raise ValueError("constraint list must be nonempty")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("constraint data must be finite")
        asym = np.max(np.abs(coeffs - np.swapaxes(coeffs, 1, 2)))
        if asym > 1e-12 * max(1.0, float(np.max(np.abs(coeffs)))):
            raise ValueError("constraint matrices must be symmetric")
        gram = np.tensordot(coeffs, coeffs, axes=([1, 2], [1, 2]))
        norms = np.diag(gram)
        off = np.max(np.abs(gram - np.diag(norms)))
        if not (np.all(norms > 0.0) and off <= 1e-12 * np.max(norms)):
            raise ValueError("constraint matrices must be nonzero and mutually orthogonal")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "rhs", rhs)

    def with_rhs(self, rhs: np.ndarray) -> "SdpProblem":
        """This problem's constraint matrices, shared and not checked again, with new rhs.

        The right-hand sides get the checks of a new problem (length and
        finiteness); the matrices passed them when this problem was built.
        """
        problem = object.__new__(SdpProblem)
        object.__setattr__(problem, "dim", self.dim)
        object.__setattr__(problem, "coeffs", self.coeffs)
        object.__setattr__(problem, "rhs", _checked_rhs(self.coeffs, rhs))
        return problem

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
    ended: "converged" (the stopping rule was met), "feasible" (a
    projected iterate or predictor point reached the caller's
    ``target``), "stall" (8 iterations without a 1% gain in the worst
    residual), "budget" (the
    iteration budget ran out) or "breakdown" (a failed factorization, a
    non-finite Schur matrix or step, c' M^-1 c not finite and positive as
    when every tr(A_l) is 0, or a blow-up of the iterate).
    ``status`` is "optimal", "feasible" or "max-iterations"; a run that
    stops on a stall or the budget can still grade "optimal" once its best
    iterate is projected. A run that stops "feasible" grades "feasible",
    never "optimal": its G is the checked point, t_star = lambda_min(G)
    >= target, and the optimum may lie well above it, inside the wider
    enclosure of an unconverged dual.
    """

    G: np.ndarray
    t_star: float
    status: str
    iterations: int
    dual_obj: float
    precision: float
    stop: str


def _step_lengths(dX: np.ndarray, dZ: np.ndarray, chol: np.ndarray) -> Tuple[float, float]:
    """Largest steps alpha <= 1 keeping X + alpha*dX and Z + alpha*dZ positive definite.

    ``chol`` stacks the Cholesky factors of X and Z, as one stacked
    ``cholesky`` of [X, Z] returns them. Each step reads the smallest
    eigenvalue beta of Y = L^-1 dS L^-T; both Y come from one stacked
    solve per side and one stacked ``eigvalsh``, which give the same
    numbers as two separate one-matrix passes.
    """
    Y = np.linalg.solve(chol, np.stack([dX, dZ]))
    Y = np.swapaxes(np.linalg.solve(chol, np.swapaxes(Y, 1, 2)), 1, 2)
    beta = np.linalg.eigvalsh(0.5 * (Y + np.swapaxes(Y, 1, 2)))[:, 0]
    ap, ad = (1.0 if b >= -1e-16 else min(1.0, _STEP_SHRINK / (-b)) for b in beta)
    return ap, ad


def _unprojectable(G: np.ndarray, iterations: int) -> SdpSolution:
    """A breakdown whose projected matrix is not finite: it attains nothing and bounds nothing."""
    return SdpSolution(
        G=G,
        t_star=-math.inf,
        status="max-iterations",
        iterations=iterations,
        dual_obj=math.inf,
        precision=math.inf,
        stop="breakdown",
    )


def solve(problem: SdpProblem, target: float = math.inf) -> SdpSolution:
    """Run the interior-point method; never raises on numerical trouble.

    Returns status "optimal" when mu reaches 1e-11 and the residuals
    1e-9 (in units of the scaled problem, i.e. relative to max|b|), and
    "max-iterations" when the budget of 150 iterations, a stall or a
    breakdown ends the run first; ``stop`` on the solution tells these
    endings apart.

    ``target``, in the problem's own units, is the value of t at which
    the caller's question is answered. Each iteration has two candidate
    points: its iterate (checked after the stopping rule, before the
    stall counter) and its predictor point X + ap dX_a, t + ap dt_a
    (checked before the corrector). A candidate whose t has reached the
    target is projected onto the constraints as the final matrix is, and
    one ``eigvalsh`` reads its lambda_min; if that is at least ``target``
    the loop ends with stop and status "feasible" and returns that
    matrix, with the y, mu and dual residuals of the same point (y + ad
    dy_a at a predictor point). A predictor point that falls short leaves
    its iteration as it was, so a problem with no such point runs as with
    no target. The default, +inf, never checks and runs to the optimum.

    Each iteration is a handful of dense products on the (L, N, N) stack
    A of constraint matrices: the Schur complement M_kl = <A_k, W A_l W>
    is ``A_flat @ ((W @ A) @ W)`` and the adjoint sum_l y_l A_l is
    ``A_flat.T @ y``, so no contraction path is searched per iteration.
    The primal and dual step lengths of the predictor, and again of the
    corrector, come from one stacked solve and eigenvalue pass
    (``_step_lengths``). X and Z are factored by one stacked Cholesky,
    with no diagonal jitter: an iterate that is no longer positive
    definite is a breakdown, and the best iterate so far is projected and
    graded. A projection that is not finite (data near the float range)
    ends the run at once as a breakdown with t_star -inf and precision
    +inf, an enclosure that decides nothing.
    """
    N = problem.dim
    L = problem.coeffs.shape[0]
    A = problem.coeffs
    A_flat = A.reshape(L, -1)
    c = np.einsum("lii->l", A)
    eye_n, eye_l = np.eye(N), np.eye(L)

    scale = problem.scale()
    b = problem.rhs / scale

    # iterates are rebound, never changed in place: they share eye_n, best keeps references
    X = Z = eye_n
    y = np.zeros(L)
    t = 0.0

    def adjoint(v: np.ndarray) -> np.ndarray:
        return (A_flat.T @ v).reshape(N, N)

    norms = np.einsum("ij,ij->i", A_flat, A_flat)

    def gram(X: np.ndarray, t: float) -> Tuple[np.ndarray, float]:
        # The interior-point iterate is feasible only up to its residuals:
        # project G = scale * (X + t I) onto the affine constraint set
        # (least-norm correction, a division as A A' is diagonal), so the
        # matrix is feasible to machine precision and its lambda_min is a
        # value the problem actually attains, never an interior-point
        # estimate. Returns G and lambda_min(G), nan when G is not finite
        G = scale * (X + t * eye_n)
        G = 0.5 * (G + G.T)
        G = G + adjoint((problem.rhs - A_flat @ G.ravel()) / norms)
        G = 0.5 * (G + G.T)
        return G, float(np.linalg.eigvalsh(G)[0]) if np.all(np.isfinite(G)) else math.nan

    def residuals(X, Z, y, t):
        # rp, Rd, rg, mu and the dual residual max|Rd| at one point
        rp, Rd = b - A_flat @ X.ravel() - c * t, adjoint(y) - Z
        return rp, Rd, 1.0 - float(c @ y), float(np.sum(X * Z)) / N, float(np.max(np.abs(Rd)))

    def step(S: np.ndarray, alpha: float, dS: np.ndarray) -> np.ndarray:
        S = S + alpha * dS
        return 0.5 * (S + S.T)

    best = None
    best_err = math.inf
    stall = 0
    status = "max-iterations"
    stop = "budget"
    iterations = 0

    for iterations in range(1, _MAX_ITER + 1):
        rp, Rd, rg, mu, dfeas = residuals(X, Z, y, t)
        feas = float(np.max(np.abs(rp)))
        err = max(mu, feas, dfeas, abs(rg))

        if err < best_err - 1e-18:
            if err < 0.99 * best_err:
                stall = 0
            else:
                stall += 1
            best_err = err
            best = (X, y, t, mu, rg, dfeas)
        else:
            stall += 1

        if mu <= _MU_TOL and feas <= _FEAS_TOL and dfeas <= _FEAS_TOL and abs(rg) <= _RG_TOL:
            status = "optimal"
            stop = "converged"
            break
        if target < math.inf and scale * t >= target:
            G, t_star = gram(X, t)
            if not t_star < target:  # reached, or nan: not projectable
                status = stop = "feasible"
                break
        if stall >= 8:
            stop = "stall"
            break

        try:
            chol = np.linalg.cholesky(np.stack([X, Z]))
            Lx, Lz = chol
            S = Lx.T @ Z @ Lx
            S = 0.5 * (S + S.T)
            evals, U = np.linalg.eigh(S)
            evals = np.maximum(evals, 1e-300)
            root = Lx @ (U / np.sqrt(evals))
            W = root @ (U.T @ Lx.T)
            W = 0.5 * (W + W.T)
            Zinv_half = np.linalg.solve(Lz, eye_n)
            Zinv = Zinv_half.T @ Zinv_half

            with np.errstate(over="ignore", invalid="ignore"):
                M = A_flat @ ((W @ A) @ W).reshape(L, -1).T
                M = 0.5 * (M + M.T)
                WRdW = W @ Rd @ W
            if not np.all(np.isfinite(M)):
                stop = "breakdown"
                break
            # a floor on M's spectrum; a floor much above 1e-14 of its largest
            # diagonal entry biases the Newton steps enough for the primal
            # residual to grow as mu falls, and the loop stalls early
            M += (1e-14 * max(1.0, float(np.max(np.diag(M))))) * eye_l

            def newton(Rc: np.ndarray) -> Tuple[np.ndarray, float, np.ndarray, np.ndarray]:
                T1 = Rc - WRdW
                h = A_flat @ T1.ravel() - rp
                sol = np.linalg.solve(M, np.column_stack([h, c]))
                Minv_h = sol[:, 0]
                Minv_c = sol[:, 1]
                denom = float(c @ Minv_c)
                if not (math.isfinite(denom) and denom > 0.0):  # M is PD: c is 0 or underflows
                    raise np.linalg.LinAlgError("c' M^-1 c is not positive")
                dt = (rg - float(c @ Minv_h)) / denom
                dy = Minv_h + Minv_c * dt
                dZ = adjoint(dy) + Rd
                dX = Rc - W @ dZ @ W
                dX = 0.5 * (dX + dX.T)
                return dy, dt, dZ, dX

            with np.errstate(over="ignore", invalid="ignore"):
                # predictor (sigma = 0) fixes the centering parameter
                dy_a, dt_a, dZ_a, dX_a = newton(-X)
                ap, ad = _step_lengths(dX_a, dZ_a, chol)
                if target < math.inf and scale * (t + ap * dt_a) >= target:
                    # the predictor point is a candidate too; one that falls
                    # short leaves this iteration as it would be without it
                    X_a, t_a = step(X, ap, dX_a), t + ap * dt_a
                    G, t_star = gram(X_a, t_a)
                    if not t_star < target:
                        X, Z, y, t = X_a, step(Z, ad, dZ_a), y + ad * dy_a, t_a
                        _, _, rg, mu, dfeas = residuals(X, Z, y, t)
                        status = stop = "feasible"
                        break
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
            ap, ad = _step_lengths(dX, dZ, chol)
        except np.linalg.LinAlgError:
            stop = "breakdown"
            break

        X = step(X, ap, dX)
        Z = step(Z, ad, dZ)
        y = y + ad * dy
        t = t + ap * dt
        if not (math.isfinite(t) and float(np.max(np.abs(X))) < 1e60 and float(np.max(np.abs(Z))) < 1e60):
            stop = "breakdown"
            break

    # a run that met the stopping rule or the target returns the point it
    # stopped at, any other its best iterate; the first iteration, with its
    # finite mu = 1, always sets best
    final = (X, y, t, mu, rg, dfeas) if stop in ("converged", "feasible") else best
    Xf, yf, tf, mu_f, rg_f, dfeas_f = final
    if stop != "feasible":  # a feasible stop returns the matrix it checked
        G, t_star = gram(Xf, tf)
    if math.isnan(t_star):
        return _unprojectable(G, iterations)
    with np.errstate(over="ignore"):  # overflows once G's entries pass about 1e154
        norm = float(np.linalg.norm(G))
    if norm == math.inf:  # G is finite: rescale it by its largest entry
        big = float(np.max(np.abs(G)))
        norm = big * float(np.linalg.norm(G / big))
    obj_scale = max(1.0, norm)

    dual_obj = scale * float(b @ yf)
    primal_residual = float(np.max(np.abs(problem.rhs - A_flat @ G.ravel())))

    # certified enclosure: t_star is attained, dual_obj bounds the optimum
    # from above up to the (tiny) dual residuals, so the width of
    # [t_star, dual_obj] plus the dual noise is an honest accuracy estimate
    dual_noise = scale * (N * dfeas_f + abs(rg_f) * max(1.0, abs(tf))) if math.isfinite(dfeas_f) else math.inf
    precision = max(dual_obj - t_star, 0.0) + dual_noise + 1e-13 * obj_scale

    # grade the repaired matrix, not the raw iterate: the loop may stop on
    # the stall counter even though the projected result meets tolerance;
    # a run that stopped at the target keeps "feasible", as it never sought
    # the optimum
    feas_ok = primal_residual <= _FEAS_TOL * scale
    converged = mu_f <= _MU_TOL and dfeas_f <= _FEAS_TOL and abs(rg_f) <= _RG_TOL
    if stop != "feasible" and converged and feas_ok:
        status = "optimal"
    return SdpSolution(
        G=G,
        t_star=t_star,
        status=status,
        iterations=iterations,
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
