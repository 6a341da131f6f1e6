"""Positivity threshold N, its closed-form branches, and combined reports.

For the circulant family A(m, d, u, c) the smallest diagonal entry d
keeping the tensor PSD is a function N of (m, u, c), positively
homogeneous in (d, u, c).  On several regions of the (u, c) plane N has
an exact linear closed form; elsewhere it is the negated smallest
H-eigenvalue of the zero-diagonal tensor.  This module dispatches
between those branches with exact rational arithmetic, computes and
verifies the breakpoints where the linear branches stop being tight,
and assembles reports that put the PSD threshold N side by side with
the SOS threshold M from the certificate layer.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

from circulant3 import sos
from circulant3.eigen import DEFAULT_CONFIG, SolverConfig, SolverFailure, _scan_min, is_psd
from circulant3.tensor import CirculantTensor, Scalar, make_tensor, require_even_order

# provenance tags naming the rule that produced an N value
TAG_NONPOS = "closed-form-nonpos"  # u <= 0 and c <= 0: exact linear form
TAG_EQUAL_UC = "closed-form-equal-uc"  # u = c > 0: threshold equals u
TAG_UNIT_U = "scaled-unit-u"  # c = 0, u > 0: u times the unit-u threshold
TAG_LINEAR_CNEG = "linear-cneg"  # c = -1, u at most the breakpoint
TAG_EIGEN_CNEG = "eigen-cneg"  # c = -1, u above the breakpoint
TAG_LINEAR_CPOS = "linear-cpos"  # c = +1, u at most the breakpoint
TAG_EIGEN_CPOS = "eigen-cpos"  # c = +1, u above the breakpoint
TAG_UNDECIDED = "undecided"  # eigensolver failed; value is its best bound
# closed-form branches on which the SOS threshold M equals N as well
SOS_EXACT_TAGS = (TAG_NONPOS, TAG_EQUAL_UC)
# branches whose N is the negated smallest H-eigenvalue from a search
SEARCH_TAGS = (TAG_UNIT_U, TAG_EIGEN_CNEG, TAG_EIGEN_CPOS)

# the evidence behind an N from the threshold pipeline
GUARD_CLOSED_FORM = "closed-form"  # an exact linear form
GUARD_CERTIFICATE = "certificate"  # a Gram certificate verified at d = N
GUARD_SCAN = "scan"  # the scan's lower bound alone, M bisected up from it
# how _report names an SOS step that is_sos could not decide
UNDECIDED_PREFIX = "m_value: SOS undecided"


def _is_exact(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _simplify(x: Scalar) -> Scalar:
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


@lru_cache(maxsize=None)
def breakpoint_u0_formula(m: int) -> Fraction:
    """Exact abscissa where the linear branch at c = -1 stops: (3^(m-1)+1)/2^m - 1."""
    require_even_order(m)
    return Fraction(3 ** (m - 1) + 1, 2**m) - 1


@lru_cache(maxsize=None)
def breakpoint_v0_formula(m: int) -> Fraction:
    """Exact abscissa where the linear branch at c = +1 stops: 1 - 3^(m-1)/(2^(m-1)+1)."""
    require_even_order(m)
    return 1 - Fraction(3 ** (m - 1), 2 ** (m - 1) + 1)


def _linear(m: int, u: Scalar, c: Scalar) -> Scalar:
    """The linear threshold -u(2^m - 2) - c(3^(m-1) - 2^m + 1); exact for exact u and c."""
    return -u * (2**m - 2) - c * (3 ** (m - 1) - 2**m + 1)


@lru_cache(maxsize=None)
def unit_scale_reference(m: int, cfg: SolverConfig = DEFAULT_CONFIG) -> float:
    """Threshold at (u, c) = (1, 0); every c = 0, u > 0 query scales off it."""
    require_even_order(m)
    return -_scan_min(make_tensor(m, 0, 1, 0), cfg).lam


class NValue(NamedTuple):
    """Threshold value together with the tag of the rule that produced it."""

    value: Scalar
    tag: str


def closed_form_n(m: int, u: Scalar, c: Scalar) -> Optional[NValue]:
    """Exact N on the four closed-form branches, else None.

    (u <= 0, c <= 0) and u = c > 0 hold for any c; the linear branches
    need c = -1 or c = +1 and u at most the breakpoint.  Exact inputs
    give exact values.
    """
    if u <= 0 and c <= 0:
        return NValue(_simplify(_linear(m, u, c)), TAG_NONPOS)
    if u == c:  # both positive here, the nonpositive quadrant is handled above
        return NValue(_simplify(u), TAG_EQUAL_UC)
    if c == -1 and u <= breakpoint_u0_formula(m):
        return NValue(_simplify(_linear(m, u, c)), TAG_LINEAR_CNEG)
    if c == 1 and u <= breakpoint_v0_formula(m):
        return NValue(_simplify(_linear(m, u, c)), TAG_LINEAR_CPOS)
    return None


def n_value(
    m: int, u: Scalar, c: Scalar, cfg: SolverConfig = DEFAULT_CONFIG
) -> NValue:
    """Smallest d with A(m, d, u, c) PSD, with branch provenance.

    Dispatch: (u <= 0, c <= 0) and (u = c > 0) have exact closed forms
    for any c; otherwise c must already be normalized to {-1, 0, 1}
    (see normalize).  On the c = +-1 slices the linear closed form is
    used up to the verified breakpoint and the two-equal-coordinate scan
    (eigen._scan_min) past it; at c = 0, u > 0 the threshold is u times
    the cached unit-u value.  Off the closed forms the value is the
    scan's, a lower bound on N; SolverFailure when its eigenpair fails
    the residual check.  Exact inputs flow through exact arithmetic on
    the linear branches.  ValueError when u, c or a closed-form N is not
    finite as a float.
    """
    require_even_order(m)
    for name, val in (("u", u), ("c", c)):
        if not abs(val) <= sys.float_info.max:
            raise ValueError(f"{name} must be finite as a float")

    closed = closed_form_n(m, u, c)
    if closed is not None:
        if not abs(closed.value) <= sys.float_info.max:
            raise ValueError(f"the closed-form N at m = {m} overflows a float")
        return closed
    if c == 0:
        return NValue(float(u) * unit_scale_reference(m, cfg), TAG_UNIT_U)
    if c == -1:
        return NValue(-_scan_min(make_tensor(m, 0, u, -1), cfg).lam, TAG_EIGEN_CNEG)
    if c == 1:
        return NValue(-_scan_min(make_tensor(m, 0, u, 1), cfg).lam, TAG_EIGEN_CPOS)
    raise ValueError(
        "c must be in {-1, 0, 1} unless (u <= 0 and c <= 0) or u = c > 0; "
        "use normalize() first"
    )


def normalize(t: CirculantTensor) -> Tuple[Scalar, CirculantTensor]:
    """Scale so the three-distinct-indices entry lands in {-1, 0, 1}.

    Returns (alpha, canonical) with alpha = |c| (or 1 when c = 0) and
    canonical = (1/alpha) * t; PSD and SOS verdicts are invariant under
    the positive scaling, and thresholds scale by alpha.  Exact entries
    stay exact.
    """
    c = t.c
    if c == 0:
        return 1, t
    alpha = abs(c)
    if _is_exact(c) and _is_exact(t.d) and _is_exact(t.u):
        frac = Fraction(alpha)
        d2 = _simplify(Fraction(t.d) / frac)
        u2 = _simplify(Fraction(t.u) / frac)
    else:
        d2 = float(t.d) / float(alpha)
        u2 = float(t.u) / float(alpha)
    c2 = 1 if c > 0 else -1
    return alpha, make_tensor(t.m, d2, u2, c2)


@dataclass(frozen=True)
class Breakpoint:
    """Exact kink abscissa of a linear threshold branch plus its verification.

    ``value`` comes from the closed formula and is held as an exact
    rational; ``verified`` records whether the tensor at that abscissa,
    with d on the linear threshold, passed the PSD check (eigen.is_psd),
    and ``lambda_residual`` is the smallest H-eigenvalue the check found
    (zero in exact arithmetic).
    """

    kind: str
    m: int
    value: Fraction
    verified: bool
    lambda_residual: float

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "lambda_residual": self.lambda_residual,
            "m": self.m,
            "value": str(self.value),
            "value_float": float(self.value),
            "verified": self.verified,
        }


def _verified_breakpoint(
    kind: str, m: int, value: Fraction, c: int, cfg: SolverConfig
) -> Breakpoint:
    """PSD check of A(m, d, value, c) with d on the linear threshold at the exact kink."""
    try:
        verified, result = is_psd(make_tensor(m, _linear(m, value, c), value, c), cfg)
        margin = result.lam
    except SolverFailure as exc:
        margin = exc.best.lam if exc.best is not None else math.nan
        verified = False
    return Breakpoint(
        kind=kind, m=m, value=value, verified=verified, lambda_residual=float(margin)
    )


def breakpoint_u0(m: int, cfg: SolverConfig = DEFAULT_CONFIG) -> Breakpoint:
    """Kink of the c = -1 branch, verified on the tensor at its linear threshold."""
    return _verified_breakpoint("u0", m, breakpoint_u0_formula(m), -1, cfg)


def breakpoint_v0(m: int, cfg: SolverConfig = DEFAULT_CONFIG) -> Breakpoint:
    """Kink of the c = +1 branch, verified on the tensor at its linear threshold."""
    return _verified_breakpoint("v0", m, breakpoint_v0_formula(m), 1, cfg)


@dataclass(frozen=True)
class BoundaryReport:
    """PSD threshold N and SOS threshold M at one query point, reconciled.

    ``gap`` is M - N; ``confirmed`` means the two thresholds agree
    within the combined tolerance and is_sos accepted a certificate at
    M, so the point carries a complete certificate chain.  Off the
    closed forms N is the scan's lower bound and M, certified, an upper
    bound, so [N, M] encloses the threshold.  ``n_guard`` names the
    evidence behind N (GUARD_*): a closed form, a certificate at d = N
    itself, or the scan alone.  Component failures, and SOS steps that
    is_sos could not decide, land in ``errors`` instead of raising.
    """

    m: int
    u: float
    c: float
    n: float
    n_tag: str
    n_guard: str
    m_val: float
    m_method: str
    gap: float
    confirmed: bool
    tol_d: float
    seed: int
    breakpoint: Optional[Breakpoint] = None
    bundle: Optional[sos.CertificateBundle] = None
    errors: Tuple[str, ...] = ()

    @property
    def failed(self) -> bool:
        """Some error is a solver failure, not only an SOS step left undecided."""
        return any(not err.startswith(UNDECIDED_PREFIX) for err in self.errors)

    def to_json_dict(self) -> dict:
        return {
            "breakpoint": None if self.breakpoint is None else self.breakpoint.to_json_dict(),
            "bundle": None if self.bundle is None else self.bundle.to_json_dict(),
            "c": self.c,
            "confirmed": self.confirmed,
            "errors": list(self.errors),
            "gap": self.gap,
            "m": self.m,
            "m_method": self.m_method,
            "m_value": self.m_val,
            "n_guard": self.n_guard,
            "n_tag": self.n_tag,
            "n_value": self.n,
            "seed": self.seed,
            "tol_d": self.tol_d,
            "u": self.u,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def _report(
    m: int, u: Scalar, c: Scalar, cfg: SolverConfig, with_certificate: bool = False
) -> BoundaryReport:
    """N once (n_value), then M (or the bundle at M) from it; no breakpoint.

    Every setting, the tolerances included, comes from ``cfg``. A failed
    N keeps the scan's best bound, tagged undecided, and no M is
    bisected from it. Any RuntimeError (SosUndecided, an SDP that
    rejects a closed form) lands in ``errors``, and so does an SOS step
    that is_sos could not decide: the report is confirmed only with the
    certificate is_sos accepted at M, and only when M is within the gap
    tolerance of N.
    """
    m_val, bundle, errors, cert = math.nan, None, (), None
    try:
        n = n_value(m, u, c, cfg)
    except SolverFailure as exc:
        n = NValue(math.nan if exc.best is None else -exc.best.lam, TAG_UNDECIDED)
        guard, errors = GUARD_SCAN, (f"n_value: {exc}",)
    else:
        guard = GUARD_SCAN if n.tag in SEARCH_TAGS else GUARD_CLOSED_FORM
        try:
            M, cert, undecided = sos._threshold(m, u, c, n.value, n.tag in SOS_EXACT_TAGS, cfg)
            if guard == GUARD_SCAN and cert is not None and M == n.value:
                guard = GUARD_CERTIFICATE  # is_sos accepted d = N itself
            if with_certificate:
                bundle = sos._bundle(m, u, c, M, cert, cfg)
            m_val = float(M)
            if undecided is not None:
                errors = (f"{UNDECIDED_PREFIX} {undecided}",)
        except RuntimeError as exc:
            errors = (f"m_value: {exc}",)
    gap = m_val - float(n.value)
    confirmed = (
        math.isfinite(gap) and abs(gap) <= 1e-5 * max(1.0, abs(m_val))
        and cert is not None and not errors
    )
    return BoundaryReport(
        m=m,
        u=float(u),
        c=float(c),
        n=float(n.value),
        n_tag=n.tag,
        n_guard=guard,
        m_val=m_val,
        m_method="closed-form" if n.tag in SOS_EXACT_TAGS else "bisection",
        gap=gap,
        confirmed=confirmed,
        tol_d=cfg.tol_d,
        seed=cfg.seed,
        bundle=bundle,
        errors=errors,
    )


def analyze(
    m: int,
    u: Scalar,
    c: Scalar,
    cfg: SolverConfig = DEFAULT_CONFIG,
    with_certificate: bool = True,
) -> BoundaryReport:
    """Both thresholds at one point, with evidence, never raising.

    N comes from n_value, M from the certificate layer at ``cfg``'s
    sos_tol and tol_d (carrying the full evidence bundle when
    with_certificate is set), and the report is CONFIRMED when
    |M - N| <= 1e-5 * max(1, |M|). Solver failures are named in
    ``errors``.
    """
    report = _report(m, u, c, cfg, with_certificate)
    if report.n_tag in (TAG_LINEAR_CNEG, TAG_EIGEN_CNEG):
        return dataclasses.replace(report, breakpoint=breakpoint_u0(m, cfg))
    if report.n_tag in (TAG_LINEAR_CPOS, TAG_EIGEN_CPOS):
        return dataclasses.replace(report, breakpoint=breakpoint_v0(m, cfg))
    return report


@dataclass(frozen=True)
class SegmentPoint:
    """One sampled abscissa on a linear branch and what both sides returned."""

    u: str
    expected: float
    n: float
    n_tag: str
    m_val: float
    confirmed: bool

    def to_json_dict(self) -> dict:
        return {
            "confirmed": self.confirmed,
            "expected": self.expected,
            "m_value": self.m_val,
            "n_tag": self.n_tag,
            "n_value": self.n,
            "u": self.u,
        }


@dataclass(frozen=True)
class SegmentReport:
    """Linear-branch audit: breakpoint plus sampled points below it."""

    m: int
    c: int
    breakpoint: Breakpoint
    points: Tuple[SegmentPoint, ...]
    confirmed: bool
    flagged: Tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "breakpoint": self.breakpoint.to_json_dict(),
            "c": self.c,
            "confirmed": self.confirmed,
            "flagged": list(self.flagged),
            "m": self.m,
            "points": [p.to_json_dict() for p in self.points],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def verify_linear_segment(
    m: int, c: int, cfg: SolverConfig = DEFAULT_CONFIG
) -> SegmentReport:
    """Check M = N = linear closed form on a branch, at the kink and below.

    Samples the breakpoint abscissa and three points strictly inside the
    branch; each point must hit the exact linear value on the PSD side
    and match it within the combined tolerance on the SOS side.  An
    unverified breakpoint or any failed point flags the report.
    """
    require_even_order(m)
    if c not in (-1, 1):
        raise ValueError("c must be -1 or 1")

    if c == -1:
        bp = breakpoint_u0(m, cfg)
        samples = [bp.value, bp.value / 2, bp.value / 4, bp.value / 8]
        linear_tag = TAG_LINEAR_CNEG
    else:
        bp = breakpoint_v0(m, cfg)
        samples = [bp.value, 2 * bp.value, 4 * bp.value, 8 * bp.value]
        linear_tag = TAG_LINEAR_CPOS

    flagged = [] if bp.verified else [f"breakpoint {bp.kind} unverified"]
    points = []
    for u_s in samples:
        expected = float(_linear(m, u_s, c))
        report = _report(m, u_s, c, cfg)
        ok = report.confirmed and report.n_tag == linear_tag and report.n == expected
        if not ok:
            flagged += [f"u={u_s}: {err}" for err in report.errors or ("not confirmed",)]
        points.append(
            SegmentPoint(
                u=str(u_s),
                expected=expected,
                n=report.n,
                n_tag=report.n_tag,
                m_val=report.m_val,
                confirmed=ok,
            )
        )

    return SegmentReport(
        m=m,
        c=c,
        breakpoint=bp,
        points=tuple(points),
        confirmed=bp.verified and all(p.confirmed for p in points),
        flagged=tuple(flagged),
    )
