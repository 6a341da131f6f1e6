"""Dense semidefinite solver for small Gram-matrix problems.

Solves: maximize t subject to <A_l, G> = b_l for l = 1..L and
G - t*I positive semidefinite, with G an N x N symmetric matrix.

Substituting X = G - t*I >= 0 gives the standard-form program

    min -t   s.t.  <A_l, X> + tr(A_l) * t = b_l,   X >= 0,

whose dual is: min b'y over y with sum_l y_l * tr(A_l) = 1 and
Z = sum_l y_l A_l >= 0; weak duality reads t <= b'y with gap <X, Z>.

The solver is a hand-rolled infeasible primal-dual interior-point
method with Nesterov-Todd scaling and a Mehrotra-style predictor
corrector. Problem sizes here are tiny (N <= 64, L <= a few hundred),
so the Schur complement is assembled densely and factored per
iteration. The iterate is then repaired by projection and, when that
leaves G indefinite, by a low-rank Gauss-Newton polish seeded from the
interior-point iterate's dominant eigenspace; a polish step solves the
normal equations J J' of its Jacobian by Cholesky where that factor is
well conditioned, and by ``lstsq`` elsewhere. Everything is
deterministic: fixed starting point, fixed iteration schedule, no
randomization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

_STEP_SHRINK = 0.98  # fraction-to-boundary factor
_MAX_DIM = 64
_GN_PIVOT_FLOOR = 1e-12  # smallest trusted Cholesky pivot of J J', relative
_GN_REFINEMENTS = 3  # refinement steps after the first Cholesky solve


@dataclass(frozen=True)
class SdpProblem:
    """Equality-constrained max-lambda-min problem on symmetric matrices.

    ``coeffs`` stacks the L symmetric constraint matrices as an
    (L, N, N) array; ``rhs`` holds the right-hand sides b_l.
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
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "rhs", rhs)

    @classmethod
    def from_constraints(
        cls, dim: int, constraints: Iterable[Tuple[Sequence[Sequence[float]], float]]
    ) -> "SdpProblem":
        mats = []
        rhs = []
        for mat, b in constraints:
            mats.append(np.asarray(mat, dtype=float))
            rhs.append(float(b))
        return cls(dim, np.array(mats), np.array(rhs))

    @property
    def constraints(self) -> Iterator[Tuple[np.ndarray, float]]:
        for mat, b in zip(self.coeffs, self.rhs):
            yield mat, float(b)


@dataclass(frozen=True)
class SdpSolution:
    """Solver output.

    ``t_star`` is the smallest eigenvalue of the returned G, computed by
    an eigen-decomposition after the fact rather than read off the
    interior-point iterate. ``dual_obj`` is the dual objective b'y, an
    upper bound on the attainable t up to the recorded infeasibility.
    ``precision`` estimates the absolute accuracy of t_star and
    dual_obj in the problem's own units (duality gap plus residuals).
    ``stage`` names the candidate that produced G: "ipm" for the projected
    interior-point iterate, "polish" for the low-rank Gauss-Newton fit.
    An "infeasible" solution builds no candidate and keeps the default.
    """

    G: np.ndarray
    t_star: float
    primal_residual: float
    status: str
    iterations: int
    gap: float
    dual_obj: float
    precision: float
    stage: str = "ipm"


def _chol_psd(S: np.ndarray) -> np.ndarray:
    """Cholesky with escalating diagonal jitter for nearly-PSD input."""
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        pass
    base = max(1.0, float(np.trace(S)) / S.shape[0])
    eps = 1e-14 * base
    eye = np.eye(S.shape[0])
    while eps <= 1e-6 * base:
        try:
            return np.linalg.cholesky(S + eps * eye)
        except np.linalg.LinAlgError:
            eps *= 10.0
    raise np.linalg.LinAlgError("matrix is not positive definite even with jitter")


def _step_length(S: np.ndarray, dS: np.ndarray, chol: np.ndarray) -> float:
    """Largest step alpha <= 1 keeping S + alpha*dS positive definite."""
    Y = np.linalg.solve(chol, dS)
    Y = np.linalg.solve(chol, Y.T).T
    w = np.linalg.eigvalsh(0.5 * (Y + Y.T))
    beta = w[0]
    if beta >= -1e-16:
        return 1.0
    return min(1.0, _STEP_SHRINK / (-beta))


def _gauss_newton_step(J: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Least-squares step d with J d ~ -F, the one ``lstsq`` returns.

    A wide J (at least as many columns as rows) with full row rank takes
    the minimum-norm step J'(J J')^-1 (-F), applied through the inverse
    of the Cholesky factor of J J' and followed by _GN_REFINEMENTS steps
    of iterative refinement, which recover the accuracy that squaring
    J's condition number in J J' costs. The factor is trusted only when
    its smallest pivot exceeds _GN_PIVOT_FLOOR times its largest: a
    rank-deficient J leaves a pivot at rounding level without making the
    factorization fail. A tall J, one below the floor and a failed
    factorization go to ``lstsq``.
    """
    if J.shape[1] >= J.shape[0]:
        try:
            chol = np.linalg.cholesky(J @ J.T)
            pivots = np.diag(chol) ** 2
            if pivots.min() > _GN_PIVOT_FLOOR * pivots.max():
                # the same bits as np.linalg.inv, which raised the peak RSS of
                # a batch of is_sos decisions by 0.5 MB
                chol_inv = np.linalg.solve(chol, np.eye(chol.shape[0]))
                step = np.zeros(J.shape[1])
                for _ in range(1 + _GN_REFINEMENTS):
                    step = step + J.T @ (chol_inv.T @ (chol_inv @ (-F - J @ step)))
                return step
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(J, -F, rcond=None)[0]


def solve(problem: SdpProblem, tol: float = 1e-9, max_iter: int = 100) -> SdpSolution:
    """Run the interior-point method; never raises on numerical trouble.

    Returns status "optimal" when gap and residuals reach tol (in units
    of the scaled problem, i.e. relative to max|b|), "max-iterations"
    when the iteration budget or a stall ends the run first, and
    "infeasible" when the equality system itself is inconsistent.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    N = problem.dim
    L = problem.coeffs.shape[0]
    A = problem.coeffs
    A_flat = A.reshape(L, -1)
    A_rows = A.reshape(L * N, N)
    c = np.einsum("lii->l", A)

    scale = max(1.0, float(np.max(np.abs(problem.rhs))))
    b = problem.rhs / scale

    # consistency of the linear system in (G, t); Gram systems built in
    # this package are consistent by construction, so failure here means
    # a malformed problem rather than SOS infeasibility
    system = np.hstack([A_flat, c[:, None]])
    lsq = np.linalg.lstsq(system, b, rcond=None)[0]
    ls_residual = float(np.max(np.abs(system @ lsq - b))) if L else 0.0
    if ls_residual > 1e-8:
        G = np.zeros((N, N))
        return SdpSolution(
            G=G,
            t_star=0.0,
            primal_residual=ls_residual * scale,
            status="infeasible",
            iterations=0,
            gap=math.inf,
            dual_obj=math.inf,
            precision=math.inf,
        )

    X = np.eye(N)
    Z = np.eye(N)
    y = np.zeros(L)
    t = 0.0

    def adjoint(v: np.ndarray) -> np.ndarray:
        return np.tensordot(v, A, axes=1)

    best = None
    best_err = math.inf
    stall = 0
    status = "max-iterations"
    iterations = 0

    for iterations in range(1, max_iter + 1):
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
            best = (X.copy(), Z.copy(), y.copy(), t, mu, feas, rg, dfeas)
        else:
            stall += 1

        if mu <= tol and feas <= tol and dfeas <= max(tol, 1e-9) and abs(rg) <= max(tol, 1e-10):
            status = "optimal"
            break
        if stall >= 8:
            break

        try:
            Lx = _chol_psd(X)
            Lz = _chol_psd(Z)
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
                WAW = np.einsum("ij,ljk,km->lim", W, A, W, optimize=True)
                M = A_flat @ WAW.reshape(L, -1).T
                M = 0.5 * (M + M.T)
            if not np.all(np.isfinite(M)):
                break
            M += (1e-13 * max(1.0, float(np.max(np.diag(M))))) * np.eye(L)

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
                ap = _step_length(X, dX_a, Lx)
                ad = _step_length(Z, dZ_a, Lz)
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
                break
            ap = _step_length(X, dX, Lx)
            ad = _step_length(Z, dZ, Lz)
        except np.linalg.LinAlgError:
            break

        X = 0.5 * ((X + ap * dX) + (X + ap * dX).T)
        Z = 0.5 * ((Z + ad * dZ) + (Z + ad * dZ).T)
        y = y + ad * dy
        t = t + ad * dt
        if not (math.isfinite(t) and float(np.max(np.abs(X))) < 1e60 and float(np.max(np.abs(Z))) < 1e60):
            break

    if status == "optimal":
        final = (
            X,
            Z,
            y,
            t,
            float(np.sum(X * Z)) / N,
            float(np.max(np.abs(b - A_flat @ X.ravel() - c * t))),
            1.0 - float(c @ y),
            float(np.max(np.abs(adjoint(y) - Z))),
        )
    elif best is not None:
        final = best
    else:
        final = (X, Z, y, t, math.inf, math.inf, math.inf, math.inf)
    Xf, Zf, yf, tf, mu_f, feas_f, rg_f, dfeas_f = final

    G = scale * (Xf + tf * np.eye(N))
    G = 0.5 * (G + G.T)

    # The interior-point iterate is feasible only up to its residuals, and at
    # degenerate optima (strict complementarity failing) the objective value
    # stalls well above machine precision.  Repair both with plain linear
    # algebra: project onto the affine constraint set (least-norm correction),
    # and if that leaves G indefinite, restrict it to a dominant eigenspace of
    # the interior-point iterate and re-solve the constraints there.  Every
    # candidate is reprojected, so the returned matrix is feasible to machine
    # precision and t_star = lambda_min(G) is a value the problem actually
    # attains, never an interior-point estimate.
    Qpinv = np.linalg.pinv(A_flat @ A_flat.T)

    def feas_project(mat: np.ndarray) -> np.ndarray:
        resid = problem.rhs - A_flat @ mat.ravel()
        corr = np.tensordot(Qpinv @ resid, A, axes=1)
        out = mat + corr
        return 0.5 * (out + out.T)

    G = feas_project(G)
    t_star = float(np.linalg.eigvalsh(G)[0])
    stage = "ipm"
    obj_scale = max(1.0, float(np.linalg.norm(G)))

    if math.isfinite(mu_f) and t_star < 0.0:
        # low-rank polish: above each spectral gap of scale * Xf, look for a
        # PSD factorization G = Y Yᵀ meeting the constraints via Gauss-Newton
        # started from the dominant eigenspace.  Xf is PSD and carries no
        # -t*I shift, so its near-zero eigenvalues stay visible and mark the
        # face of the PSD cone the optimum lies on; when the fit converges the
        # projected candidate attains an eigenvalue floor near zero even
        # though the interior-point iterate stalled, and when no such
        # factorization exists the candidate simply loses the comparison.
        # The Jacobian is one matrix product over the (L*N, N) view of the
        # constraints, and each step is lstsq's (see _gauss_newton_step)
        rhs_norm = max(1.0, float(np.linalg.norm(problem.rhs)))
        w, V = np.linalg.eigh(scale * Xf)
        gaps = [i for i in range(1, N) if w[i] > 16.0 * max(abs(w[i - 1]), 1e-16 * obj_scale)]
        for cut in sorted(gaps, reverse=True)[:3]:
            r = N - cut
            Y = V[:, cut:] * np.sqrt(np.maximum(w[cut:], 0.0))
            for _ in range(40):
                F = A_flat @ (Y @ Y.T).ravel() - problem.rhs
                res = float(np.linalg.norm(F))
                if res <= 1e-13 * rhs_norm:
                    break
                Jmat = 2.0 * (A_rows @ Y).reshape(L, N * r)
                dY = _gauss_newton_step(Jmat, F)
                stepped = False
                for damp in (1.0, 0.5, 0.25, 0.1):
                    Ytry = Y + damp * dY.reshape(N, r)
                    if float(np.linalg.norm(A_flat @ (Ytry @ Ytry.T).ravel() - problem.rhs)) < res:
                        Y = Ytry
                        stepped = True
                        break
                if not stepped:
                    break
            cand = feas_project(Y @ Y.T)
            lam = float(np.linalg.eigvalsh(cand)[0])
            if lam > t_star:
                t_star, G, stage = lam, cand, "polish"

    dual_obj = scale * float(b @ yf)
    primal_residual = float(np.max(np.abs(problem.rhs - A_flat @ G.ravel())))

    # certified enclosure: t_star is attained, dual_obj bounds the optimum
    # from above up to the (tiny) dual residuals, so the width of
    # [t_star, dual_obj] plus the dual noise is an honest accuracy estimate
    dual_noise = scale * (N * dfeas_f + abs(rg_f) * max(1.0, abs(tf))) if math.isfinite(dfeas_f) else math.inf
    precision = max(dual_obj - t_star, 0.0) + dual_noise + 1e-13 * obj_scale

    # grade the repaired matrix, not the raw iterate: the loop may stop on
    # the stall counter even though the projected result meets tolerance
    if status != "infeasible" and math.isfinite(mu_f):
        rhs_scale = max(1.0, float(np.max(np.abs(problem.rhs))) if problem.rhs.size else 0.0)
        feas_ok = primal_residual <= max(tol, 1e-9) * rhs_scale
        if mu_f <= tol and dfeas_f <= max(tol, 1e-9) and abs(rg_f) <= max(tol, 1e-10) and feas_ok:
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
        stage=stage,
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
    viol = 0.0
    for mat, b in problem.constraints:
        viol = max(viol, abs(float(np.sum(mat * G)) - b))
    lam = float(np.linalg.eigvalsh(0.5 * (G + G.T))[0])
    viol = max(viol, max(0.0, -lam))
    return viol <= tol, viol
