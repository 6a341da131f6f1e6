"""Sum-of-squares membership and the SOS threshold in the diagonal entry.

A degree-m form is SOS exactly when some positive semidefinite Gram
matrix G over the degree-m/2 monomial basis reproduces its
coefficients. This module compiles a tensor's form into that Gram
problem, decides membership with the interior-point solver (one fixed
tolerance relative to the largest coefficient, certified acceptances
and rejections, and an explicit "undecided" outcome instead of silent
failure), computes the minimal diagonal value making a tensor SOS, and
packages per-point certification bundles.

At the PSD threshold the form has real zeros, every Gram matrix has
their monomial vectors in its kernel, and the Gram problem has no
interior. There the problem is solved on that face of the PSD cone
("partial facial reduction", Permenter and Parrilo): G = V H V' with V
spanning the complement of the zeros' monomial vectors. The resulting
G is still checked against the full problem.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from circulant3 import kernels, sdp
from circulant3.eigen import (
    DEFAULT_CONFIG,
    SolverConfig,
    SolverFailure,
    _require_positive,
    _scan_min,
    _scan_two_equal,
    _tensor_scale,
)
from circulant3.tensor import (
    CirculantTensor,
    Scalar,
    TernaryForm,
    dd_bound,
    make_tensor,
    require_even_order,
)

DEFAULT_SOS_TOL = DEFAULT_CONFIG.sos_tol
DEFAULT_TOL_D = DEFAULT_CONFIG.tol_d
_ZERO_TOL = 1e-9  # a form value this small, relative to the tensor's scale, is a zero


class SosUndecided(RuntimeError):
    """The SDP evidence is too ambiguous for a trustworthy verdict.

    Raised instead of returning a boolean when neither the primal
    matrix nor the dual bound separates the instance from the threshold
    at the achieved solver precision.
    """

    def __init__(self, message: str, solution: Optional[sdp.SdpSolution] = None):
        super().__init__(message)
        self.solution = solution


def _exponent_triples(k: int) -> Tuple[Tuple[int, int, int], ...]:
    """Exponent triples of total degree k, graded-lex descending."""
    triples = ((a, b, k - a - b) for a in range(k + 1) for b in range(k - a + 1))
    return tuple(sorted(triples, reverse=True))


@dataclass(frozen=True)
class MonomialBasis:
    """Ordered exponent triples of total degree k (graded-lex descending)."""

    k: int
    monos: Tuple[Tuple[int, int, int], ...]

    @classmethod
    def for_half_degree(cls, k: int) -> "MonomialBasis":
        if k < 1:
            raise ValueError(f"half-degree must be >= 1, got {k}")
        return cls(k, _exponent_triples(k))

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
        lower = self.G[np.tril_indices(len(self.basis))].tolist()
        return {
            "basis": [list(t) for t in self.basis.monos],
            "gram_lower_triangle": lower,
            "half_degree": self.basis.k,
            "min_eig": float(self.min_eig),
            "reconstruction_error": float(self.reconstruction_error),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GramCertificate":
        """Inverse of to_json_dict; ValueError for a basis that is not the
        half-degree's or a lower triangle of the wrong length."""
        k = int(doc["half_degree"])
        basis = MonomialBasis(k, tuple(tuple(int(e) for e in t) for t in doc["basis"]))
        if basis != MonomialBasis.for_half_degree(k):
            raise ValueError(f"basis is not the degree-{k} monomial basis")
        n = len(basis)
        lower = [float(v) for v in doc["gram_lower_triangle"]]
        if len(lower) != n * (n + 1) // 2:
            raise ValueError(
                f"gram_lower_triangle has {len(lower)} entries, expected {n * (n + 1) // 2}"
            )
        G = np.zeros((n, n))
        rows, cols = np.tril_indices(n)
        G[rows, cols] = lower
        G[cols, rows] = lower
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
    monos_m = _exponent_triples(m)
    index = {mu: pos for pos, mu in enumerate(monos_m)}
    coeffs = np.zeros((len(monos_m), n, n))
    for i, ei in enumerate(basis.monos):
        for j, ej in enumerate(basis.monos):
            mu = (ei[0] + ej[0], ei[1] + ej[1], ei[2] + ej[2])
            coeffs[index[mu], i, j] = 1.0
    rhs = np.array([float(form.coefficient(*mu)) for mu in monos_m])
    return sdp.SdpProblem(n, coeffs, rhs)


def _zeros(t: CirculantTensor) -> List[Tuple[float, float, float]]:
    """Real zeros of the form, one per S3 orbit; empty off the threshold.

    The two-equal-coordinate scan that ``lambda_min`` trusts gives the
    form's minimum on that section, and (1, 1, 1) is checked on its own.
    A point of the unit m-norm sphere is a zero when |f| there is at most
    _ZERO_TOL times the tensor's scale |d| + dd_bound.
    """
    m, d, u, c = t.m, float(t.d), float(t.u), float(t.c)
    tol = _ZERO_TOL * _tensor_scale(t)
    lam, x1, x2, x3, _ = _scan_two_equal(m, d, u, c)
    zeros = [(x1, x2, x3)] if abs(lam) <= tol else []
    if abs(kernels.eval_form(m, d, u, c, 1.0, 1.0, 1.0)) <= 3.0 * tol:
        zeros.append((1.0, 1.0, 1.0))
    return zeros


def _face(t: CirculantTensor) -> Optional[np.ndarray]:
    """Orthonormal basis V of the face every PSD Gram matrix of the form lies on.

    A real zero x of the form forces z(x)' G z(x) = 0, so G z(x) = 0 for
    every PSD Gram matrix G: G = V H V' with V spanning the complement of
    the z-vectors of the zeros and their coordinate permutations. On
    u = c = d > 0 the form is u (x1+x2+x3)^m, whose zeros fill a plane;
    there V is the single vector w of multinomial coefficients of
    (x1+x2+x3)^(m/2), and u w w' is the exact Gram matrix. None when the
    form has no zero.
    """
    basis = MonomialBasis.for_half_degree(t.m // 2)
    if float(t.d) == float(t.u) == float(t.c) > 0:
        w = np.array([math.factorial(basis.k) / math.prod(map(math.factorial, e))
                      for e in basis.monos])
        return (w / np.linalg.norm(w))[:, None]
    zeros = _zeros(t)
    if not zeros:
        return None
    Z = np.array([[p[0] ** a * p[1] ** b * p[2] ** g for a, b, g in basis.monos]
                  for x in zeros for p in itertools.permutations(x)])
    U, sing, _ = np.linalg.svd(Z.T)
    return U[:, int(np.sum(sing > 1e-9 * sing[0])):]


def _restrict(problem: sdp.SdpProblem, V: np.ndarray) -> sdp.SdpProblem:
    """The Gram problem in H for G = V H V', with independent constraints only.

    The restricted constraints V' A_l V are linearly dependent (the
    zeros tie them together), so they are replaced by an orthonormal
    basis of their span, with the right-hand sides combined alike.
    """
    r = V.shape[1]
    A = (V.T @ problem.coeffs @ V).reshape(-1, r * r)
    U, sing, Wt = np.linalg.svd(A, full_matrices=False)
    k = int(np.sum(sing > 1e-10 * sing[0]))
    coeffs = (sing[:k, None] * Wt[:k]).reshape(k, r, r)
    return sdp.SdpProblem(r, 0.5 * (coeffs + np.swapaxes(coeffs, 1, 2)), U[:, :k].T @ problem.rhs)


def _certificate_from_solution(
    form: TernaryForm, problem: sdp.SdpProblem, G: np.ndarray, scale: float
) -> GramCertificate:
    basis = MonomialBasis.for_half_degree(form.degree // 2)
    lam = float(np.linalg.eigvalsh(G)[0])
    if lam < 0.0:
        G = G + (-lam) * np.eye(G.shape[0])
        lam = 0.0
    return GramCertificate(basis, G, lam, problem.violation(G) / scale)


def is_sos(
    t: CirculantTensor, tol: float = DEFAULT_SOS_TOL
) -> Tuple[bool, Optional[GramCertificate]]:
    """Decide whether the tensor's form is a sum of squares.

    One tolerance decides: theta = tol * max(1, max_l |b_l|) (tol finite and
    > 0, else ValueError), relative to the largest coefficient b_l of the
    form, whatever precision the solver reached; the solver encloses the
    optimal t in [t*, t* + precision]. "Yes", with G shifted by -t* onto
    the PSD cone as the certificate, when that G passes the independent
    check at theta; the shift moves each even-exponent constraint by |t*|,
    so t* >= -theta is tried first and a rejection builds no certificate.
    "No" when the whole enclosure lies below -theta. Anything else raises
    SosUndecided.

    Where the form has real zeros (at a threshold) the Gram problem has
    no interior, and the SDP is solved on the face those zeros cut out
    (see _face); solution.t_star is then the face problem's. The
    certificate is still checked against the full problem, so a wrong
    face can make the verdict undecided but never a wrong "yes".
    """
    _require_positive("tol", tol)
    require_even_order(t.m)
    form = t.to_form()
    problem = build_gram_problem(form)
    V = _face(t)
    if V is None:
        solution = sdp.solve(problem)
    else:
        solution = sdp.solve(_restrict(problem, V))
        solution = dataclasses.replace(solution, G=V @ solution.G @ V.T)
    scale = problem.scale()
    theta = tol * scale
    if solution.t_star >= -theta:
        cert = _certificate_from_solution(form, problem, solution.G, scale)
        ok, viol = sdp.check_certificate(cert.G, problem, tol=theta)
        if ok:
            return True, cert
        raise SosUndecided(
            f"certificate failed independent verification (violation {viol:.3e} > {theta:.3e})",
            solution,
        )
    if solution.t_star + solution.precision < -theta:
        return False, None
    raise SosUndecided(
        f"ambiguous SOS evidence: optimum enclosed in [{solution.t_star:.3e}, "
        f"{solution.t_star + solution.precision:.3e}], threshold {-theta:.3e}",
        solution,
    )


def m_value(m: int, u: Scalar, c: Scalar, cfg: SolverConfig = DEFAULT_CONFIG) -> Scalar:
    """Minimal diagonal entry d making A(m, d, u, c) a sum of squares.

    Two parameter ranges have exact closed forms (returned in the exact
    arithmetic of the inputs and verified by one SDP solve): u = c > 0,
    where the threshold is u itself, and u <= 0, c <= 0, where it is
    -u(2^m - 2) - c(3^{m-1} - 2^m + 1). Everywhere else the value comes
    from bisection on d, to within ``cfg.tol_d``, between the PSD
    threshold N of boundary.n_value (off the closed forms the scan's
    lower bound, never above the SOS threshold) and the
    diagonal-dominance bound, exploiting upward closure of the SOS
    property in d; it is N itself when is_sos accepts d = N. Every SOS
    verdict is decided at ``cfg.sos_tol``; SolverConfig has checked both
    tolerances before any search runs.
    """
    return _guarded_threshold(m, u, c, cfg).value


class Threshold(NamedTuple):
    """M, the certificate is_sos accepted at d = M, and why it is missing.

    ``certificate`` is None exactly when ``undecided`` names the point
    at which is_sos could not decide; M is then the best locatable
    value, not a certified one.
    """

    value: Scalar
    certificate: Optional[GramCertificate]
    undecided: Optional[str] = None


def _threshold(
    m: int,
    u: Scalar,
    c: Scalar,
    n: Scalar,
    exact: bool,
    cfg: SolverConfig,
) -> Threshold:
    """M from the PSD threshold n, with the certificate is_sos accepted at d = M.

    ``exact`` marks n as a closed form that M equals, which one SDP solve
    verifies; otherwise is_sos decides at d = n itself, and without a
    certificate there M is bisected upward from n to within
    ``cfg.tol_d``. is_sos decides at ``cfg.sos_tol``.
    """
    lo, uf, cf = float(n), float(u), float(c)
    try:
        ok, cert = is_sos(make_tensor(m, lo, uf, cf), cfg.sos_tol)
    except SosUndecided as exc:
        if exact:
            raise
        # the solver cannot separate the lower end from the threshold,
        # which is the best locatable answer
        return Threshold(n, None, f"at the PSD threshold d = {lo!r}: {exc}")
    if ok:
        # the PSD threshold is already SOS: the two thresholds coincide
        return Threshold(n, cert)
    if exact:
        raise RuntimeError(
            f"closed-form SOS threshold {n} rejected by the SDP at "
            f"(m={m}, u={u}, c={c}); solver and theory disagree"
        )
    hi = float(dd_bound(m, u, c))
    ok, cert = is_sos(make_tensor(m, hi, uf, cf), cfg.sos_tol)
    if not ok:
        raise RuntimeError(
            f"diagonally dominated tensor rejected by the SDP at "
            f"(m={m}, d={hi}, u={u}, c={c}); solver defect"
        )
    while hi - lo > cfg.tol_d:
        mid = 0.5 * (lo + hi)
        try:
            ok, mid_cert = is_sos(make_tensor(m, mid, uf, cf), cfg.sos_tol)
        except SosUndecided as exc:
            # the solver cannot separate mid from the threshold; no
            # further bisection step can sharpen the answer
            return Threshold(mid, None, f"at the bisection midpoint d = {mid!r}: {exc}")
        if ok:
            hi, cert = mid, mid_cert
        else:
            lo = mid
    return Threshold(hi, cert)


def _guarded_threshold(m: int, u: Scalar, c: Scalar, cfg: SolverConfig) -> Threshold:
    """_threshold from boundary.n_value."""
    from circulant3 import boundary

    n = boundary.n_value(m, u, c, cfg)
    return _threshold(m, u, c, n.value, n.tag in boundary.SOS_EXACT_TAGS, cfg)


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
    m: int, u: Scalar, c: Scalar, cfg: SolverConfig = DEFAULT_CONFIG
) -> CertificateBundle:
    """Assemble the three-piece evidence bundle at one parameter point.

    Pieces: the SOS threshold; a Gram certificate at d = threshold +
    tol_d (the one is_sos accepted at the threshold, shifted by tol_d)
    that passes the independent check at is_sos's theta; and a minimizer
    of the form at d = threshold with value at most 10 * tol_d. All three
    present -> CONFIRMED; a missing or failed piece -> UNCONFIRMED with
    the evidence that does exist. M comes as in m_value, the minimizer
    from the two-equal-coordinate scan (eigen._scan_min) at d = M;
    tol_d and theta's sos_tol are ``cfg``'s.
    """
    M, cert, _ = _guarded_threshold(m, u, c, cfg)
    return _bundle(m, u, c, M, cert, cfg)


def _bundle(
    m: int,
    u: Scalar,
    c: Scalar,
    M: Scalar,
    cert: Optional[GramCertificate],
    cfg: SolverConfig,
) -> CertificateBundle:
    """The bundle at the SOS threshold M and the certificate is_sos accepted there."""
    Mf, tol_d = float(M), cfg.tol_d

    cert_ok = False
    if cert is not None:
        # tol_d on the three pure-power diagonal entries makes G an exact
        # Gram matrix of f + tol_d * (x1^m + x2^m + x3^m), the form at M + tol_d
        form = make_tensor(m, Mf + tol_d, float(u), float(c)).to_form()
        problem = build_gram_problem(form)
        scale = problem.scale()
        k = cert.basis.k
        G = cert.G.copy()
        for e in ((k, 0, 0), (0, k, 0), (0, 0, k)):
            G[cert.basis.index(e), cert.basis.index(e)] += tol_d
        cert = _certificate_from_solution(form, problem, G, scale)
        cert_ok, _ = sdp.check_certificate(cert.G, problem, tol=cfg.sos_tol * scale)

    try:
        eig = _scan_min(make_tensor(m, Mf, float(u), float(c)), cfg)
    except SolverFailure:
        eig = None
    min_ok = eig is not None and eig.lam <= 10.0 * tol_d

    status = "CONFIRMED" if (cert_ok and min_ok) else "UNCONFIRMED"
    return CertificateBundle(
        m=m,
        u=float(u),
        c=float(c),
        critical_value=Mf,
        certificate=cert,
        minimizer=None if eig is None else eig.x,
        minimizer_value=None if eig is None else eig.lam,
        minimizer_residual=None if eig is None else eig.residual,
        status=status,
        tol_d=tol_d,
        seed=cfg.seed,
    )
