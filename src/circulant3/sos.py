"""Sum-of-squares membership and the SOS threshold in the diagonal entry.

A degree-m form is SOS exactly when some positive semidefinite Gram
matrix G over the degree-m/2 monomial basis reproduces its
coefficients. This module compiles a tensor's form into that Gram
problem, decides membership with the interior-point solver (adaptive
threshold, dual-certified rejections, and an explicit "undecided"
outcome instead of silent failure), computes the minimal diagonal value
making a tensor SOS, and packages per-point certification bundles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from circulant3 import sdp
from circulant3.eigen import (
    EigenResult,
    SolverConfig,
    SolverFailure,
    config_for_order,
    lambda_min,
)
from circulant3.tensor import (
    CirculantTensor,
    Scalar,
    TernaryForm,
    dd_bound,
    make_tensor,
    require_even_order,
)

DEFAULT_SOS_TOL = 1e-7
DEFAULT_TOL_D = 1e-7


class SosUndecided(RuntimeError):
    """The SDP evidence is too ambiguous for a trustworthy verdict.

    Raised instead of returning a boolean when neither the primal
    matrix nor the dual bound separates the instance from the threshold
    at the achieved solver precision.
    """

    def __init__(self, message: str, solution: Optional[sdp.SdpSolution] = None):
        super().__init__(message)
        self.solution = solution


@dataclass(frozen=True)
class MonomialBasis:
    """Ordered exponent triples of total degree k (graded-lex descending)."""

    k: int
    monos: Tuple[Tuple[int, int, int], ...]

    @classmethod
    def for_half_degree(cls, k: int) -> "MonomialBasis":
        if k < 1:
            raise ValueError(f"half-degree must be >= 1, got {k}")
        monos = sorted(
            ((a, b, k - a - b) for a in range(k + 1) for b in range(k - a + 1)),
            reverse=True,
        )
        return cls(k, tuple(monos))

    def __len__(self) -> int:
        return len(self.monos)

    def index(self, triple: Tuple[int, int, int]) -> int:
        return self.monos.index(triple)


@dataclass(frozen=True)
class GramCertificate:
    """PSD Gram matrix witnessing an SOS decomposition of a form.

    ``min_eig`` is the smallest eigenvalue of G (nonnegative after the
    small diagonal shift applied on construction); ``reconstruction_error``
    is the worst coefficient mismatch of z(x)^T G z(x) against the
    target form, relative to the largest absolute coefficient.
    """

    basis: MonomialBasis
    G: np.ndarray
    min_eig: float
    reconstruction_error: float

    def to_json_dict(self) -> dict:
        n = len(self.basis)
        lower = [float(self.G[i, j]) for i in range(n) for j in range(i + 1)]
        return {
            "basis": [list(t) for t in self.basis.monos],
            "gram_lower_triangle": lower,
            "half_degree": self.basis.k,
            "min_eig": float(self.min_eig),
            "reconstruction_error": float(self.reconstruction_error),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GramCertificate":
        k = int(doc["half_degree"])
        basis = MonomialBasis(k, tuple(tuple(int(e) for e in t) for t in doc["basis"]))
        n = len(basis)
        G = np.zeros((n, n))
        it = iter(doc["gram_lower_triangle"])
        for i in range(n):
            for j in range(i + 1):
                v = float(next(it))
                G[i, j] = v
                G[j, i] = v
        return cls(basis, G, float(doc["min_eig"]), float(doc["reconstruction_error"]))


def build_gram_problem(form: TernaryForm) -> sdp.SdpProblem:
    """Equality constraints tying a Gram matrix to the form's coefficients.

    One constraint per degree-m exponent triple mu (including those with
    zero coefficient): the sum of G over all basis index pairs (i, j)
    with exp_i + exp_j = mu equals the coefficient of mu.
    """
    m = form.degree
    if m % 2 != 0:
        raise ValueError(f"degree must be even for a Gram construction, got {m}")
    basis = MonomialBasis.for_half_degree(m // 2)
    n = len(basis)
    monos_m = sorted(
        ((a, b, m - a - b) for a in range(m + 1) for b in range(m - a + 1)),
        reverse=True,
    )
    index = {mu: pos for pos, mu in enumerate(monos_m)}
    coeffs = np.zeros((len(monos_m), n, n))
    for i, ei in enumerate(basis.monos):
        for j, ej in enumerate(basis.monos):
            mu = (ei[0] + ej[0], ei[1] + ej[1], ei[2] + ej[2])
            coeffs[index[mu], i, j] = 1.0
    rhs = np.array([float(form.coefficient(*mu)) for mu in monos_m])
    return sdp.SdpProblem(n, coeffs, rhs)


def _viol_floor(problem: sdp.SdpProblem) -> float:
    # verification slack proportional to the coefficient scale
    return 1e-9 * max(1.0, float(np.max(np.abs(problem.rhs))))


def _certificate_from_solution(
    form: TernaryForm, problem: sdp.SdpProblem, G: np.ndarray
) -> GramCertificate:
    basis = MonomialBasis.for_half_degree(form.degree // 2)
    lam = float(np.linalg.eigvalsh(G)[0])
    if lam < 0.0:
        G = G + (-lam) * np.eye(G.shape[0])
        lam = 0.0
    coeff_scale = max(1.0, float(np.max(np.abs(problem.rhs))))
    worst = 0.0
    for mat, b in problem.constraints:
        worst = max(worst, abs(float(np.sum(mat * G)) - b))
    return GramCertificate(basis, G, lam, worst / coeff_scale)


def is_sos(
    t: CirculantTensor, tol: float = DEFAULT_SOS_TOL
) -> Tuple[bool, Optional[GramCertificate]]:
    """Decide whether the tensor's form is a sum of squares.

    The verdict threshold adapts to the solver's achieved precision:
    theta = max(tol, 10 * precision), so coefficient magnitudes in the
    hundreds of thousands do not let floating noise flip decisions. A
    positive verdict returns a Gram certificate re-verified by the
    independent checker. A negative verdict additionally requires the
    dual objective, a valid upper bound on the achievable minimum
    eigenvalue up to the recorded residuals, to sit below -theta.
    Anything in between raises SosUndecided.
    """
    require_even_order(t.m)
    form = t.to_form()
    problem = build_gram_problem(form)
    solution = sdp.solve(problem, tol=1e-11, max_iter=150)
    if solution.status == "infeasible":
        raise SosUndecided(
            f"Gram equality system inconsistent (residual {solution.primal_residual:.3e}); "
            "this indicates a construction bug, not SOS infeasibility",
            solution,
        )
    theta = max(tol, 10.0 * solution.precision)
    if solution.t_star >= -theta:
        cert = _certificate_from_solution(form, problem, solution.G)
        ok, viol = sdp.check_certificate(
            cert.G, problem, tol=max(10.0 * theta, _viol_floor(problem))
        )
        if not ok:
            raise SosUndecided(
                f"certificate failed independent verification (violation {viol:.3e})",
                solution,
            )
        return True, cert
    if solution.dual_obj < -theta:
        return False, None
    raise SosUndecided(
        f"ambiguous SOS evidence: primal t* {solution.t_star:.3e}, "
        f"dual bound {solution.dual_obj:.3e}, threshold {theta:.3e}",
        solution,
    )


def m_value(
    m: int,
    u: Scalar,
    c: Scalar,
    tol_d: float = DEFAULT_TOL_D,
    lower: Optional[Scalar] = None,
    sos_tol: float = DEFAULT_SOS_TOL,
) -> Scalar:
    """Minimal diagonal entry d making A(m, d, u, c) a sum of squares.

    Two parameter ranges have exact closed forms (returned in the exact
    arithmetic of the inputs and verified by one SDP solve): u = c > 0,
    where the threshold is u itself, and u <= 0, c <= 0, where it is
    -u(2^m - 2) - c(3^{m-1} - 2^m + 1). Everywhere else the value comes
    from bisection on d between the PSD threshold (never above the SOS
    threshold) and the diagonal-dominance bound, exploiting upward
    closure of the SOS property in d.
    """
    require_even_order(m)
    if not (math.isfinite(tol_d) and tol_d > 0):
        raise ValueError(f"tol_d must be finite and positive, got {tol_d}")
    from circulant3 import boundary

    closed = boundary.closed_form_n(m, u, c)
    if closed is not None and closed.tag in boundary.SOS_EXACT_TAGS:
        exact = closed.value
        ok, _ = is_sos(make_tensor(m, float(exact), float(u), float(c)), sos_tol)
        if not ok:
            raise RuntimeError(
                f"closed-form SOS threshold {exact} rejected by the SDP at "
                f"(m={m}, u={u}, c={c}); solver and theory disagree"
            )
        return exact

    if lower is None:
        lower = boundary.n_value(m, u, c)[0]
    lo = float(lower)
    hi = float(dd_bound(m, u, c))
    uf, cf = float(u), float(c)

    try:
        ok, _ = is_sos(make_tensor(m, lo, uf, cf), sos_tol)
    except SosUndecided:
        # the lower end already sits inside the solver's noise band
        # around the threshold, which is the best locatable answer
        return lower
    if ok:
        # the PSD threshold is already SOS: the two thresholds coincide
        return lower
    ok, _ = is_sos(make_tensor(m, hi, uf, cf), sos_tol)
    if not ok:
        raise RuntimeError(
            f"diagonally dominated tensor rejected by the SDP at "
            f"(m={m}, d={hi}, u={u}, c={c}); solver defect"
        )
    while hi - lo > tol_d:
        mid = 0.5 * (lo + hi)
        try:
            ok, _ = is_sos(make_tensor(m, mid, uf, cf), sos_tol)
        except SosUndecided:
            # mid is indistinguishable from the threshold at the
            # achieved SDP precision; no further bisection step can
            # sharpen the answer
            return mid
        if ok:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class CertificateBundle:
    """Per-point certification that the SOS and PSD thresholds coincide.

    CONFIRMED requires all three pieces: the threshold value, a Gram
    certificate just above it, and a unit vector where the threshold
    form nearly vanishes (so the diagonal entry cannot be decreased
    without losing PSD, squeezing the two thresholds together).
    """

    m: int
    u: float
    c: float
    critical_value: float
    certificate: Optional[GramCertificate]
    minimizer: Optional[Tuple[float, float, float]]
    minimizer_value: Optional[float]
    minimizer_residual: Optional[float]
    status: str
    tol_d: float
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "c": self.c,
            "certificate": None
            if self.certificate is None
            else self.certificate.to_json_dict(),
            "critical_value": self.critical_value,
            "m": self.m,
            "minimizer": None if self.minimizer is None else list(self.minimizer),
            "minimizer_residual": self.minimizer_residual,
            "minimizer_value": self.minimizer_value,
            "seed": self.seed,
            "status": self.status,
            "tol_d": self.tol_d,
            "u": self.u,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def certify_pns_free(
    m: int,
    u: Scalar,
    c: Scalar,
    tol_d: float = DEFAULT_TOL_D,
    cfg: Optional[SolverConfig] = None,
) -> CertificateBundle:
    """Assemble the three-piece evidence bundle at one parameter point.

    Pieces: the SOS threshold, a verified Gram certificate at
    d = threshold + tol_d, and a minimizer of the form at d = threshold
    with value at most 10 * tol_d. All three present -> CONFIRMED; a
    missing or failed piece -> UNCONFIRMED with the evidence that does
    exist.
    """
    if cfg is None:
        cfg = config_for_order(m)
    M = m_value(m, u, c, tol_d=tol_d)
    Mf = float(M)

    cert: Optional[GramCertificate] = None
    cert_ok = False
    try:
        cert_ok, cert = is_sos(make_tensor(m, Mf + tol_d, float(u), float(c)))
    except SosUndecided:
        cert_ok = False

    minimizer = None
    min_val: Optional[float] = None
    min_res: Optional[float] = None
    min_ok = False
    try:
        eig: EigenResult = lambda_min(make_tensor(m, Mf, float(u), float(c)), cfg)
        minimizer = eig.x
        min_val = eig.lam
        min_res = eig.residual
        min_ok = eig.lam <= 10.0 * tol_d
    except SolverFailure:
        min_ok = False

    status = "CONFIRMED" if (cert_ok and cert is not None and min_ok) else "UNCONFIRMED"
    return CertificateBundle(
        m=m,
        u=float(u),
        c=float(c),
        critical_value=Mf,
        certificate=cert,
        minimizer=minimizer,
        minimizer_value=min_val,
        minimizer_residual=min_res,
        status=status,
        tol_d=tol_d,
        seed=cfg.seed,
    )
