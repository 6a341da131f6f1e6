"""Seeded inputs of the psd-sweep and sos-decide workloads.

Every query is made here from the seed and the harness's own
mathematics (oracle.py); nothing is asked of the program. The values of
u are fixed points of each branch, so the work in a round is nearly the
same for every seed and the run-to-run spread measures the program and
the host, not the draw. In psd-sweep the seed sets the offsets of d from
N, the side of N they fall on, and the order of the queries; in
sos-decide, whose decisions include points that fail today, it sets only
the order, so the same decisions fail in every run.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Tuple

import oracle

PSD_ORDERS = (4, 6, 8, 10, 12, 14)
SOS_ORDERS = (6, 8, 10, 12)

# (slice c, branch) of the psd-sweep points, one per order each: u is the
# middle of the branch's range in _branch_range ("near" lies just past
# the breakpoint)
PSD_MIX = (
    (-1, "linear"), (-1, "near"), (-1, "eigen"), (1, "linear"), (1, "near"), (1, "eigen"),
    (0, "unit-u"), (-1, "nonpos"), (1, "equal"),
)

# (slice c, branch, side of N) of the sos-decide decisions: SOS_GRID_U
# fixed values of u across each branch, each with d = N (1 + side delta)
# and a fixed delta from SOS_GRID_DELTA, so every seed asks the same
# decisions and only their order changes. The eigen branches below N, and
# above N at m = 8, hold grid points where is_sos fails today
# (SOS_GRID_FAULTS); they stay in, so that a fix of a few named points
# cannot look like a fix of the branch, and a new failure there shows.
SOS_MIX = tuple((c, branch, side) for side in (-1, 1)
                for c, branch in ((-1, "linear"), (1, "linear"), (-1, "eigen"), (1, "eigen"),
                                  (-1, "nonpos"), (0, "nonpos")))
SOS_GRID_U = 3
SOS_GRID_DELTA = (Fraction(3, 100), Fraction(10, 100), Fraction(25, 100))

# Decisions of sos.is_sos that fail today, two per kind. They stay in
# every round as failed operations until
# is_sos is fixed. Below N the right answer is "no" (the harness holds a
# point with f < 0); above N it is "yes" with a certificate that
# re-verifies. In every case the interior-point run stalls, the
# acceptance band theta = max(tol, 10 * precision) widens with it, and
# a shifted Gram matrix comes back as the certificate.
SOS_FAULTS = (  # (m, d, u, c, what goes wrong)
    (8, 60, 40, 0, "yes below N, c = 0"),
    (12, 60, 40, 0, "yes below N, c = 0"),
    (8, 100, 60, -1, "yes below N, eigen branch"),
    (12, 400, 210, -1, "yes below N, eigen branch"),
    (8, 24, 16, 1, "yes below N, eigen branch"),
    (12, 400, 256, 1, "yes below N, eigen branch"),
    (8, Fraction(29, 2), Fraction(483, 64), -1, "yes below N at the breakpoint u0"),
    (12, 80, Fraction(43263, 1024), -1, "yes below N at the breakpoint u0"),
    (8, 40, 20, 1, "yes above N, certificate off by 1e-3"),
    (8, 110, 52, -1, "yes above N, certificate off by 1e-3"),
)

# (m, c, branch, side, k) of the grid points of sos_grid() that fail today,
# with what goes wrong; the same stall as in SOS_FAULTS
SOS_GRID_FAULTS: Dict[Tuple[int, int, str, int, int], str] = {
    (6, -1, "eigen", -1, 1): "yes below N, eigen branch",
    (6, -1, "eigen", -1, 2): "yes below N, eigen branch",
    (8, -1, "eigen", -1, 2): "yes below N, eigen branch",
    (12, -1, "eigen", -1, 0): "yes below N, eigen branch",
    (12, -1, "eigen", -1, 1): "yes below N, eigen branch",
    (12, -1, "eigen", -1, 2): "yes below N, eigen branch",
    (8, -1, "eigen", 1, 1): "yes above N, certificate off by 1e-3",
    (8, -1, "eigen", 1, 2): "yes above N, certificate off by 1e-3",
}


def _branch_range(m: int, c: int, branch: str) -> Tuple[Fraction, Fraction]:
    """Range of u on one branch of the (u, c) slice."""
    u0, v0 = oracle.breakpoint_u0(m), oracle.breakpoint_v0(m)
    b = u0 if c == -1 else v0
    return {
        ("linear", -1): (u0 / 20, u0),
        ("linear", 1): (4 * v0, v0),
        ("near", -1): (b + abs(b) / 50, b + abs(b) / 5),
        ("near", 1): (b + abs(b) / 50, b + abs(b) / 5),
        ("eigen", -1): (2 * u0, 8 * u0),
        ("eigen", 1): (v0 / 2, 4 * abs(v0)),
        ("unit-u", 0): (Fraction(1, 2), Fraction(40)),
        ("nonpos", -1): (Fraction(-40), Fraction(-1, 2)),
        ("nonpos", 0): (Fraction(-40), Fraction(-1, 2)),
        ("equal", 1): (Fraction(1), Fraction(1)),
    }[(branch, c)]


def grid_u(m: int, c: int, branch: str, count: int) -> List[Fraction]:
    """count values of u at the centres of equal parts of the branch, on 1/64ths.

    The ends are never used: at the breakpoints u0 and v0 themselves
    is_sos answers a wrong "yes" below N (see SOS_FAULTS).
    """
    lo, hi = _branch_range(m, c, branch)
    out = []
    for k in range(count):
        u = Fraction(round(float(lo + (hi - lo) * (2 * k + 1) / (2 * count)) * 64), 64)
        out.append(min(max(u, lo), hi))
    return out


def _n_for(m: int, u: Fraction, c: int, unit_cache: Dict[int, float]):
    """The harness's N; the c = 0, u > 0 slice scales the unit-u value."""
    if c == 0 and u > 0:
        if m not in unit_cache:
            unit_cache[m] = oracle.numeric_n(m, 1, 0)[0]
        return float(u) * unit_cache[m]
    return oracle.harness_n(m, u, c)


def _place_d(n, side: int, rel) -> Fraction:
    """d = N (1 + side * rel), kept exact so the program sees a rational."""
    return Fraction(n) * (1 + side * Fraction(rel).limit_denominator(10**6))


def psd_queries(seed: int) -> List[dict]:
    """54 points, each asked is_psd with d 0.1-1% off N and n_value at (m, u, c)."""
    rng = random.Random(f"psd-sweep/{seed}")
    unit: Dict[int, float] = {}
    out = []
    for m in PSD_ORDERS:
        side = rng.choice((-1, 1))
        for c, branch in PSD_MIX:
            (u,) = grid_u(m, c, branch, 1)
            n = _n_for(m, u, c, unit)
            side = -side
            d = _place_d(n, side, rng.uniform(1e-3, 1e-2))
            out.append({"m": m, "u": str(u), "c": c, "d": str(d), "branch": branch,
                        "n": float(n), "psd": side > 0})
    rng.shuffle(out)
    return out


def sos_grid() -> List[dict]:
    """The fixed grid: every (m, c, branch, side) of SOS_MIX at SOS_GRID_U values of u.

    The k-th u of the j-th branch gets d = N (1 + side * delta) with
    delta = SOS_GRID_DELTA[(j + k) % 3], so each offset meets every part
    of the branches. A point listed in SOS_GRID_FAULTS carries its fault.
    """
    out = []
    for m in SOS_ORDERS:
        for j, (c, branch, side) in enumerate(SOS_MIX):
            for k, u in enumerate(grid_u(m, c, branch, SOS_GRID_U)):
                n = oracle.harness_n(m, u, c)
                delta = SOS_GRID_DELTA[(j + k) % len(SOS_GRID_DELTA)]
                out.append({"m": m, "u": str(u), "c": c, "d": str(_place_d(n, side, delta)),
                            "branch": branch, "n": float(n), "sos": side > 0,
                            "fault": SOS_GRID_FAULTS.get((m, c, branch, side, k), False)})
    return out


def sos_queries(seed: int) -> List[dict]:
    """The 144 grid decisions and the 10 named faults, in a seeded order."""
    out = sos_grid()
    for m, d, u, c, why in SOS_FAULTS:
        n = _n_for(m, Fraction(u), c, {})
        out.append({"m": m, "u": str(u), "c": c, "d": str(d), "branch": "fault", "n": float(n),
                    "sos": d > n, "fault": why})
    random.Random(f"sos-decide/{seed}").shuffle(out)
    return out
