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

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Tuple

from circulant3 import sos
from circulant3.eigen import (
    _PSD_TOL,
    DEFAULT_CONFIG,
    SolverConfig,
    SolverFailure,
    lambda_min,
    pencil_margin_cneg,
    pencil_margin_cpos,
)
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
    return -lambda_min(make_tensor(m, 0, 1, 0), cfg).lam


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
    used up to the verified breakpoint and the eigensolver past it; at
    c = 0, u > 0 the threshold is u times the cached unit-u value.
    Exact inputs flow through exact arithmetic on the linear branches.
    """
    require_even_order(m)
    for name, val in (("u", u), ("c", c)):
        if isinstance(val, float) and not math.isfinite(val):
            raise ValueError(f"{name} must be finite")

    closed = closed_form_n(m, u, c)
    if closed is not None:
        return closed
    if c == 0:
        return NValue(float(u) * unit_scale_reference(m, cfg), TAG_UNIT_U)
    if c == -1:
        return NValue(-lambda_min(make_tensor(m, 0, u, -1), cfg).lam, TAG_EIGEN_CNEG)
    if c == 1:
        return NValue(-lambda_min(make_tensor(m, 0, u, 1), cfg).lam, TAG_EIGEN_CPOS)
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
    rational; ``verified`` records whether the boundary pencil at that
    abscissa passed the PSD check, and ``lambda_residual`` is the
    smallest H-eigenvalue the check found (zero in exact arithmetic).
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
    kind: str,
    m: int,
    value: Fraction,
    margin_fn: Callable[[int, Scalar, SolverConfig], float],
    cfg: SolverConfig,
) -> Breakpoint:
    """Check the pencil ``margin_fn`` at the exact kink ``value``."""
    try:
        margin = margin_fn(m, value, cfg)
        verified = margin >= -_PSD_TOL
    except SolverFailure as exc:
        margin = exc.best.lam if exc.best is not None else math.nan
        verified = False
    return Breakpoint(
        kind=kind, m=m, value=value, verified=verified, lambda_residual=float(margin)
    )


def breakpoint_u0(m: int, cfg: SolverConfig = DEFAULT_CONFIG) -> Breakpoint:
    """Kink of the c = -1 branch, verified through the reference pencil."""
    return _verified_breakpoint("u0", m, breakpoint_u0_formula(m), pencil_margin_cneg, cfg)


def breakpoint_v0(m: int, cfg: SolverConfig = DEFAULT_CONFIG) -> Breakpoint:
    """Kink of the c = +1 branch, verified through the mirrored pencil."""
    return _verified_breakpoint("v0", m, breakpoint_v0_formula(m), pencil_margin_cpos, cfg)


def _confirm_tol(m_val: float) -> float:
    return max(1e-5, 1e-5 * max(abs(m_val), 1.0))


@dataclass(frozen=True)
class BoundaryReport:
    """PSD threshold N and SOS threshold M at one query point, reconciled.

    ``gap`` is M - N; ``confirmed`` means the two thresholds agree
    within the combined tolerance, so the point carries a complete
    certificate chain.  Component failures land in ``errors`` instead
    of raising.
    """

    m: int
    u: float
    c: float
    n: float
    n_tag: str
    m_val: float
    m_method: str
    gap: float
    confirmed: bool
    tol_d: float
    seed: int
    breakpoint: Optional[Breakpoint] = None
    bundle: Optional[sos.CertificateBundle] = None
    errors: Tuple[str, ...] = ()

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
            "n_tag": self.n_tag,
            "n_value": self.n,
            "seed": self.seed,
            "tol_d": self.tol_d,
            "u": self.u,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def analyze(
    m: int,
    u: Scalar,
    c: Scalar,
    cfg: SolverConfig = DEFAULT_CONFIG,
    tol_d: float = sos.DEFAULT_TOL_D,
    with_certificate: bool = True,
) -> BoundaryReport:
    """Both thresholds at one point, with evidence, never raising.

    N comes from n_value, M from the certificate layer (carrying the
    full evidence bundle when with_certificate is set), and the report
    is CONFIRMED when |M - N| <= max(1e-5, 1e-5 * max(|M|, 1)).
    """
    require_even_order(m)
    errors = []

    n_val = math.nan
    n_tag = TAG_UNDECIDED
    try:
        result = n_value(m, u, c, cfg)
        n_val = float(result.value)
        n_tag = result.tag
    except SolverFailure as exc:
        errors.append(f"n_value: {exc}")
        if exc.best is not None:
            n_val = -exc.best.lam

    bp: Optional[Breakpoint] = None
    if c == -1 and n_tag in (TAG_LINEAR_CNEG, TAG_EIGEN_CNEG):
        bp = breakpoint_u0(m, cfg)
    elif c == 1 and n_tag in (TAG_LINEAR_CPOS, TAG_EIGEN_CPOS):
        bp = breakpoint_v0(m, cfg)

    m_val = math.nan
    bundle: Optional[sos.CertificateBundle] = None
    closed = closed_form_n(m, u, c)
    exact_branch = closed is not None and closed.tag in SOS_EXACT_TAGS
    m_method = "closed-form" if exact_branch else "bisection"
    try:
        if with_certificate:
            bundle = sos.certify_pns_free(m, u, c, tol_d=tol_d, cfg=cfg)
            m_val = bundle.critical_value
        else:
            lower = n_val if math.isfinite(n_val) else None
            m_val = float(sos.m_value(m, u, c, tol_d=tol_d, lower=lower, cfg=cfg))
    except sos.SosUndecided as exc:
        errors.append(f"m_value: {exc}")
    except SolverFailure as exc:
        errors.append(f"m_value: {exc}")

    gap = m_val - n_val
    confirmed = math.isfinite(gap) and abs(gap) <= _confirm_tol(m_val) and not errors
    return BoundaryReport(
        m=m,
        u=float(u),
        c=float(c),
        n=n_val,
        n_tag=n_tag,
        m_val=m_val,
        m_method=m_method,
        gap=gap,
        confirmed=confirmed,
        tol_d=tol_d,
        seed=cfg.seed,
        breakpoint=bp,
        bundle=bundle,
        errors=tuple(errors),
    )


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
    m: int,
    c: int,
    cfg: SolverConfig = DEFAULT_CONFIG,
    tol_d: float = sos.DEFAULT_TOL_D,
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
        expected = _linear(m, u_s, c)
        ok = False
        n_val = math.nan
        tag = TAG_UNDECIDED
        m_val = math.nan
        try:
            res = n_value(m, u_s, c, cfg)
            n_val = float(res.value)
            tag = res.tag
            m_val = float(sos.m_value(m, u_s, c, tol_d=tol_d, lower=float(expected)))
            ok = (
                tag == linear_tag
                and res.value == expected
                and abs(m_val - float(expected)) <= _confirm_tol(m_val)
            )
        except (SolverFailure, sos.SosUndecided) as exc:
            flagged.append(f"u={u_s}: {exc}")
        else:
            if not ok:
                flagged.append(f"u={u_s}: not confirmed")
        points.append(
            SegmentPoint(
                u=str(u_s),
                expected=float(expected),
                n=n_val,
                n_tag=tag,
                m_val=m_val,
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
