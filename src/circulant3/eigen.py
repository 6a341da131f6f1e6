"""Smallest H-eigenvalue solver for the circulant tensor family.

For even m, the smallest H-eigenvalue of A equals the minimum of the
associated form over the compact set |x1|^m + |x2|^m + |x3|^m = 1, and
the tensor is PSD exactly when that minimum is nonnegative. The solver
combines two independent searches:

* a structured scan over x = (s, s, t): every vector with two equal
  coordinates is a signed permutation of this section, and all known
  minimizers of the family live there;
* a general multistart projected descent from seeded random points,
  which guards the structured reduction instead of trusting it.

Whenever the general search beats the structured one by more than
1e-9 of the tensor's scale, the event is logged as a counterexample to
the two-equal-coordinate heuristic and the better result is returned.

``lambda_min`` runs both, and so does ``is_psd``, which
``boundary`` asks about the tensor on the linear threshold at each
breakpoint. The thresholds use the scan alone (``_scan_min``):
``boundary.n_value`` takes N from it, a lower bound on the threshold,
and the certificate bundle its minimizer. A Gram certificate at d = M
bounds the threshold from above (SOS implies PSD), so [N, M] encloses
it whatever the search. The scan's section minima sit behind a small
cache in ``kernels``: ``sos`` finds the zeros of the form at d = N
among the minima at d = 0, the ones N was read from, so a threshold
scans its section once.

The search budget is the same at every order: the scan's sits in
``kernels`` beside the cache of its minima, the multistart's here. On
184 points at m = 14 and m = 16, doubling the grid and the descent
iterations left every eigenvalue bit-identical.
SolverConfig holds every setting a caller can change: the number of
multistart points, their seed, the eigenpair residual tolerance, and the
SOS decision tolerance and bisection step of the SOS threshold. It
checks them when it is built, so no search starts on a bad setting.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from circulant3 import kernels
from circulant3.tensor import CirculantTensor, dd_bound, require_even_order

logger = logging.getLogger(__name__)

# the multistart's budget, whatever the order
_MAX_ITERS = 600  # projected-descent iterations per multistart point
_TOL_GRAD = 1e-11  # relative residual above which a start gets a second Newton round
# the most multistart points a config may ask for, 64 times the default:
# the starts are one (n_starts, 3) array, so an unbounded count is an
# unbounded allocation
_MAX_STARTS = 4096
# a smallest H-eigenvalue at least -_PSD_TOL reads as PSD
_PSD_TOL = 1e-7


def _require_positive(name: str, value: float) -> None:
    """ValueError unless ``value`` is finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class SolverConfig:
    """Caller settings of the threshold pipeline, checked on construction.

    ``n_starts`` (1 to ``_MAX_STARTS``, 4,096) and ``seed``, integers as
    ``operator.index`` reads them, drive the multistart, ``eigen_tol`` is
    the eigenpair residual tolerance (relative to the tensor's scale),
    ``sos_tol`` the SOS decision tolerance of ``sos.is_sos`` and
    ``tol_d`` the bisection step on d.
    Frozen and hashable: ``boundary`` caches the c = 0 reference value
    on (m, config), so a query at c = 0 honours the caller's settings
    like any other.
    """

    n_starts: int = 64
    seed: int = 0
    eigen_tol: float = 1e-9
    sos_tol: float = 1e-7
    tol_d: float = 1e-7

    def __post_init__(self) -> None:
        for name in ("n_starts", "seed"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.n_starts < 1:
            raise ValueError(f"n_starts must be >= 1, got {self.n_starts}")
        if self.n_starts > _MAX_STARTS:
            raise ValueError(f"n_starts must be <= {_MAX_STARTS}, got {self.n_starts}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("eigen_tol", "sos_tol", "tol_d"):
            _require_positive(name, getattr(self, name))


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class EigenResult:
    """Smallest H-eigenvalue candidate with its minimizer and evidence.

    ``lam`` is the eigenvalue (equal to the form value at ``x`` since the
    minimizer is unit-normalized); ``x`` is the canonical minimizer with
    |x1|^m + |x2|^m + |x3|^m = 1, coordinates sorted descending and the
    overall sign fixed; ``residual`` is the absolute infinity norm of
    A x^{m-1} - lam * x^[m-1]; ``lam_structured`` and ``lam_multistart``
    record what each search found on its own.
    """

    lam: float
    x: Tuple[float, float, float]
    residual: float
    lam_structured: float
    lam_multistart: float


class SolverFailure(RuntimeError):
    """No search direction met the residual tolerance; carries the best try."""

    def __init__(self, message: str, best: Optional[EigenResult] = None):
        super().__init__(message)
        self.best = best


def _canonical(m: int, x: Sequence[float]) -> Tuple[float, float, float]:
    """Deterministic representative of the minimizer orbit.

    The form is invariant under coordinate permutations and (for even m)
    under x -> -x, so each minimizer belongs to an orbit of up to 12
    vectors. Pick the lexicographically largest of the two sign choices
    after sorting coordinates in descending order, unit-normalized.
    """
    a = sorted((float(v) for v in x), reverse=True)
    b = sorted((-float(v) for v in x), reverse=True)
    best = max(a, b)
    n = sum(abs(v) ** m for v in best) ** (1.0 / m)
    if n > 0.0 and math.isfinite(n):
        best = [v / n + 0.0 for v in best]
    return (best[0], best[1], best[2])


def _tensor_scale(t: CirculantTensor) -> float:
    """Magnitude reference for residual and tie tolerances.

    Gradient components of the unit-sphere minimizer scale with the
    entries, so residuals are compared against |d| plus the off-diagonal
    row sum rather than against an absolute constant.
    """
    return max(1.0, abs(float(t.d)) + float(dd_bound(t.m, float(t.u), float(t.c))))


def _eigenpair(
    t: CirculantTensor,
    cfg: SolverConfig,
    x_raw: Sequence[float],
    lam_s: float,
    lam_g: float,
) -> EigenResult:
    """The canonical eigenpair at the winning point, checked against the residual tolerance.

    The eigenvalue and residual are recomputed at the canonical
    representative; SolverFailure, carrying the result, when the
    residual exceeds ``cfg.eigen_tol`` times the tensor's scale.
    """
    m, d, u, c = t.m, float(t.d), float(t.u), float(t.c)
    x = _canonical(m, x_raw)
    lam = kernels.eval_form(m, d, u, c, *x)
    g = kernels.apply_power(m, d, u, c, *x)
    e1 = m - 1
    residual = max(abs(g[i] - lam * x[i] ** e1) for i in range(3))

    result = EigenResult(
        lam=lam,
        x=x,
        residual=residual,
        lam_structured=lam_s,
        lam_multistart=lam_g,
    )
    scale = _tensor_scale(t)
    if not math.isfinite(lam) or residual > cfg.eigen_tol * scale:
        raise SolverFailure(
            f"eigenpair residual {residual:.3e} exceeds "
            f"{cfg.eigen_tol:.1e} * scale {scale:.3e}",
            best=result,
        )
    return result


def _scan_min(t: CirculantTensor, cfg: SolverConfig = DEFAULT_CONFIG) -> EigenResult:
    """The two-equal-coordinate scan alone: an upper bound on the smallest H-eigenvalue.

    Same canonical eigenpair and residual check as ``lambda_min``, with
    no multistart (``lam_multistart`` is nan). Its
    negation at d = 0 is a lower bound on the PSD threshold, which the
    thresholds pair with the certificate at M, an upper bound.
    """
    require_even_order(t.m)
    lam_s, s1, s2, s3, _ = kernels.scan_two_equal(t.m, float(t.d), float(t.u), float(t.c))
    return _eigenpair(t, cfg, (s1, s2, s3), lam_s, math.nan)


def lambda_min(t: CirculantTensor, cfg: SolverConfig = DEFAULT_CONFIG) -> EigenResult:
    """Best-found smallest H-eigenvalue of the tensor with its minimizer.

    Runs the structured two-equal-coordinate scan and the general
    multistart and merges the outcomes. The returned value is certified
    only as an upper bound on the true minimum; agreement of the two
    searches (and, downstream, of the SOS side) is the evidence that it
    is the minimum. Raises SolverFailure when no candidate satisfies the
    residual tolerance.
    """
    require_even_order(t.m)
    m = t.m
    d, u, c = float(t.d), float(t.u), float(t.c)

    lam_s, s1, s2, s3, _ = kernels.scan_two_equal(m, d, u, c)

    rng = np.random.default_rng(cfg.seed)
    starts = rng.standard_normal((cfg.n_starts, 3))
    lam_g, g1, g2, g3, _ = kernels.minimize_batch(
        m, d, u, c, starts, _MAX_ITERS, _TOL_GRAD
    )

    x_raw = (s1, s2, s3)
    if lam_g < lam_s - 1e-9 * _tensor_scale(t):
        logger.warning(
            "general multistart found a lower value than the "
            "two-equal-coordinate scan at (m=%d, d=%g, u=%g, c=%g): "
            "%.15g < %.15g",
            m, d, u, c, lam_g, lam_s,
        )
        x_raw = (g1, g2, g3)
    return _eigenpair(t, cfg, x_raw, lam_s, lam_g)


def is_psd(
    t: CirculantTensor, cfg: SolverConfig = DEFAULT_CONFIG
) -> Tuple[bool, EigenResult]:
    """PSD verdict (smallest H-eigenvalue >= -1e-7) plus the eigen evidence."""
    result = lambda_min(t, cfg)
    return result.lam >= -_PSD_TOL, result
