"""Independent oracles shared by the test modules.

Everything here is computed straight from definitions, sharing no code
with the package: the entry rule is applied index tuple by index tuple
and the contraction loops over all 3^m terms. Agreement between these
oracles and the package's grouped-power fast paths is therefore real
evidence, not a tautology.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence, Tuple


def entry_for_index(d, u, c, idx: Sequence[int]):
    """Entry value from the number of distinct values in the index tuple."""
    k = len(set(idx))
    if k == 1:
        return d
    if k == 2:
        return u
    return c


def brute_force_eval(m: int, d, u, c, x: Sequence):
    """Dense contraction sum_{i1..im} a_{i1..im} x_{i1} ... x_{im}."""
    total = 0
    for idx in itertools.product((0, 1, 2), repeat=m):
        term = entry_for_index(d, u, c, idx)
        for i in idx:
            term = term * x[i]
        total = total + term
    return total


def brute_force_apply(m: int, d, u, c, x: Sequence) -> Tuple:
    """Dense contraction over all but the first slot: (A x^{m-1})_i."""
    out = []
    for i in range(3):
        total = 0
        for rest in itertools.product((0, 1, 2), repeat=m - 1):
            term = entry_for_index(d, u, c, (i,) + rest)
            for j in rest:
                term = term * x[j]
            total = total + term
        out.append(total)
    return tuple(out)


def brute_force_offdiagonal_row_sum(m: int, u, c):
    """Sum of |entry| over the off-diagonal part of one tensor row."""
    total = 0
    for rest in itertools.product((0, 1, 2), repeat=m - 1):
        idx = (0,) + rest
        if len(set(idx)) == 1:
            continue
        total = total + abs(entry_for_index(0, u, c, idx))
    return total


def orbit_distance(m: int, x: Sequence[float], target: Sequence[float]) -> float:
    """Max-norm distance from x to the symmetry orbit of target.

    The form is invariant under coordinate permutations and, for even m,
    under global sign flip, so a minimizer is only defined up to that
    orbit. The target is rescaled to the unit m-norm sphere first.
    """
    scale = sum(abs(float(t)) ** m for t in target) ** (1.0 / m)
    base = tuple(float(t) / scale for t in target)
    best = math.inf
    for perm in itertools.permutations(base):
        for sign in (1.0, -1.0):
            cand = max(abs(float(a) - sign * b) for a, b in zip(x, perm))
            best = min(best, cand)
    return best


# -- scalar reference for the batched eigenvalue kernels ----------------------
#
# The one-point-at-a-time loops the batched kernels in circulant3.kernels
# vectorize: projected descent with backtracking, Newton on the eigenpair
# system with a partial-pivoting 4x4 solve, and the two-equal-coordinate
# scan. They carry their own copies of the grouped-power formulas.


def ref_eval(m, d, u, c, x1, x2, x3):
    p = x1**m + x2**m + x3**m
    q = (x1 + x2) ** m + (x1 + x3) ** m + (x2 + x3) ** m
    s = (x1 + x2 + x3) ** m
    return d * p + u * (q - 2.0 * p) + c * (s - q + p)


def ref_apply(m, d, u, c, x1, x2, x3, e=None):
    e = m - 1 if e is None else e
    a1, a2, a3 = x1**e, x2**e, x3**e
    b12, b13, b23 = (x1 + x2) ** e, (x1 + x3) ** e, (x2 + x3) ** e
    t = (x1 + x2 + x3) ** e
    g1 = d * a1 + u * (b12 + b13 - 2.0 * a1) + c * (t - b12 - b13 + a1)
    g2 = d * a2 + u * (b12 + b23 - 2.0 * a2) + c * (t - b12 - b23 + a2)
    g3 = d * a3 + u * (b13 + b23 - 2.0 * a3) + c * (t - b13 - b23 + a3)
    return g1, g2, g3


def ref_jacobian(m, d, u, c, x1, x2, x3):
    """(J11, J22, J33, J12, J13, J23) of x -> A x^{m-1}."""
    e = m - 2
    w = m - 1.0
    g1, g2, g3 = ref_apply(m, d, u, c, x1, x2, x3, e)
    b12, b13, b23 = (x1 + x2) ** e, (x1 + x3) ** e, (x2 + x3) ** e
    t = (x1 + x2 + x3) ** e
    return (w * g1, w * g2, w * g3, w * (u * b12 + c * (t - b12)),
            w * (u * b13 + c * (t - b13)), w * (u * b23 + c * (t - b23)))


def ref_norm(m, x1, x2, x3):
    return (abs(x1) ** m + abs(x2) ** m + abs(x3) ** m) ** (1.0 / m)


def ref_solve4(a, b):
    """Partial-pivoting solve of a 4x4 system (row-major list); None if singular."""
    idx = [0, 1, 2, 3]
    for col in range(4):
        piv = col
        big = abs(a[idx[col] * 4 + col])
        for r in range(col + 1, 4):
            v = abs(a[idx[r] * 4 + col])
            if v > big:
                big, piv = v, r
        if big == 0.0 or not math.isfinite(big):
            return None
        idx[col], idx[piv] = idx[piv], idx[col]
        prow = idx[col]
        for r in range(col + 1, 4):
            row = idx[r]
            fac = a[row * 4 + col] / a[prow * 4 + col]
            if fac != 0.0:
                for k in range(col, 4):
                    a[row * 4 + k] -= fac * a[prow * 4 + k]
                b[row] -= fac * b[prow]
    x = [0.0] * 4
    for col in range(3, -1, -1):
        row = idx[col]
        s = b[row]
        for k in range(col + 1, 4):
            s -= a[row * 4 + k] * x[k]
        x[col] = s / a[row * 4 + col]
    return x


def ref_kkt_newton(m, d, u, c, x1, x2, x3, lam, iters):
    """Newton on A x^{m-1} = lam x^[m-1], |x|_m = 1; returns (lam, x1, x2, x3, res)."""
    e1, e2 = m - 1, m - 2
    bl, b1, b2, b3, bres = lam, x1, x2, x3, math.inf
    for _ in range(iters):
        g1, g2, g3 = ref_apply(m, d, u, c, x1, x2, x3)
        p1, p2, p3 = x1**e1, x2**e1, x3**e1
        s = abs(x1) ** m + abs(x2) ** m + abs(x3) ** m
        f = [g1 - lam * p1, g2 - lam * p2, g3 - lam * p3, (s - 1.0) / m]
        res = max(abs(v) for v in f)
        if res < bres:
            bl, b1, b2, b3, bres = lam, x1, x2, x3, res
        if res == 0.0:
            break
        j11, j22, j33, j12, j13, j23 = ref_jacobian(m, d, u, c, x1, x2, x3)
        w = lam * (m - 1.0)
        a = [j11 - w * x1**e2, j12, j13, -p1,
             j12, j22 - w * x2**e2, j23, -p2,
             j13, j23, j33 - w * x3**e2, -p3,
             p1, p2, p3, 0.0]
        sol = ref_solve4(a, [-v for v in f])
        if sol is None:
            break
        step = max(abs(sol[0]), abs(sol[1]), abs(sol[2]))
        if step > 0.5:
            sol = [v * (0.5 / step) for v in sol]
        x1, x2, x3, lam = x1 + sol[0], x2 + sol[1], x3 + sol[2], lam + sol[3]
        if not all(math.isfinite(v) for v in (x1, x2, x3, lam)):
            return bl, b1, b2, b3, bres
    n = ref_norm(m, b1, b2, b3)
    if n > 0.0 and math.isfinite(n):
        b1, b2, b3 = b1 / n, b2 / n, b3 / n
    lam = ref_eval(m, d, u, c, b1, b2, b3)
    g = ref_apply(m, d, u, c, b1, b2, b3)
    res = max(abs(gi - lam * bi**e1) for gi, bi in zip(g, (b1, b2, b3)))
    return lam, b1, b2, b3, res


def ref_minimize_from(m, d, u, c, x1, x2, x3, max_iters, tol):
    """Projected descent plus Newton from one start; returns (lam, x1, x2, x3, res)."""
    e1 = m - 1
    n = ref_norm(m, x1, x2, x3)
    if n == 0.0 or not math.isfinite(n):
        return math.inf, x1, x2, x3, math.inf
    x1, x2, x3 = x1 / n, x2 / n, x3 / n
    eta, scale = 0.1, 1.0
    for _ in range(max_iters):
        g1, g2, g3 = ref_apply(m, d, u, c, x1, x2, x3)
        f = x1 * g1 + x2 * g2 + x3 * g3
        r1, r2, r3 = g1 - f * x1**e1, g2 - f * x2**e1, g3 - f * x3**e1
        scale = max(1.0, abs(f), abs(g1), abs(g2), abs(g3))
        if max(abs(r1), abs(r2), abs(r3)) <= 1e-5 * scale:
            break
        rr = r1 * r1 + r2 * r2 + r3 * r3
        accepted = False
        for _ in range(40):
            y1, y2, y3 = x1 - eta * r1, x2 - eta * r2, x3 - eta * r3
            ny = ref_norm(m, y1, y2, y3)
            if ny > 0.0 and math.isfinite(ny):
                y1, y2, y3 = y1 / ny, y2 / ny, y3 / ny
                if ref_eval(m, d, u, c, y1, y2, y3) <= f - 1e-4 * eta * rr:
                    x1, x2, x3, accepted = y1, y2, y3, True
                    break
            eta *= 0.5
            if eta < 1e-18:
                break
        if not accepted:
            break
        eta = min(eta * 1.8, 1e3)
    f = ref_eval(m, d, u, c, x1, x2, x3)
    lam, x1, x2, x3, res = ref_kkt_newton(m, d, u, c, x1, x2, x3, f, 30)
    if res > tol * scale:
        again = ref_kkt_newton(m, d, u, c, x1, x2, x3, lam, 30)
        if again[4] < res:
            lam, x1, x2, x3, res = again
    return lam, x1, x2, x3, res


def ref_minimize_batch(m, d, u, c, starts, max_iters, tol):
    """ref_minimize_from over the starts, keeping the smallest (lam, res)."""
    best = (math.inf, 0.0, 0.0, 0.0, math.inf)
    for s1, s2, s3 in starts:
        cand = ref_minimize_from(m, d, u, c, s1, s2, s3, max_iters, tol)
        if cand[0] < best[0] or (cand[0] == best[0] and cand[4] < best[4]):
            best = cand
    return best


def ref_section_minima(m, d, u, c, n_grid, polish_iters):
    """Grid scan of x = (cos t, cos t, sin t), section Newton, then ref_kkt_newton.

    Returns one (lam, x1, x2, x3, res) per grid minimum, in grid order.
    """
    h = math.pi / n_grid
    vals = []
    for i in range(n_grid):
        ct, st = math.cos(i * h), math.sin(i * h)
        vals.append(ref_eval(m, d, u, c, ct, ct, st) / (abs(ct) ** m * 2.0 + abs(st) ** m))
    out = []
    for i in range(n_grid):
        if not (vals[i] <= vals[i - 1] and vals[i] <= vals[(i + 1) % n_grid]):
            continue
        theta = i * h
        for _ in range(polish_iters):
            ct, st = math.cos(theta), math.sin(theta)
            d1, d3 = -st, ct
            g1, g2, g3 = ref_apply(m, d, u, c, ct, ct, st)
            f = ct * g1 + ct * g2 + st * g3
            s = abs(ct) ** m + abs(ct) ** m + abs(st) ** m
            fp = m * (g1 * d1 + g2 * d1 + g3 * d3)
            j11, j22, j33, j12, j13, j23 = ref_jacobian(m, d, u, c, ct, ct, st)
            jq = (j11 * d1 * d1 + j22 * d1 * d1 + j33 * d3 * d3
                  + 2.0 * (j12 * d1 * d1 + j13 * d1 * d3 + j23 * d1 * d3))
            fpp = m * jq - m * f
            sp = m * (ct ** (m - 1) * d1 + ct ** (m - 1) * d1 + st ** (m - 1) * d3)
            spp = m * (m - 1.0) * (ct ** (m - 2) * d1 * d1 + ct ** (m - 2) * d1 * d1
                                   + st ** (m - 2) * d3 * d3) - m * s
            rp = (fp * s - f * sp) / (s * s)
            rpp = (fpp * s - f * spp) / (s * s) - 2.0 * (sp / s) * rp
            if rpp <= 0.0 or not math.isfinite(rpp):
                break
            step = rp / rpp
            if abs(step) > 2.0 * h:
                step = math.copysign(2.0 * h, step)
            theta -= step
            if abs(step) < 1e-16:
                break
        ct, st = math.cos(theta), math.sin(theta)
        n = ref_norm(m, ct, ct, st)
        x1, x3 = ct / n, st / n
        out.append(ref_kkt_newton(m, d, u, c, x1, x1, x3, ref_eval(m, d, u, c, x1, x1, x3), 20))
    return out


def ref_scan_two_equal(m, d, u, c, n_grid, polish_iters):
    """The smallest of ref_section_minima, ties to the smaller residual, then the earlier minimum."""
    best = (math.inf, 0.0, 0.0, 0.0, math.inf)
    for cand in ref_section_minima(m, d, u, c, n_grid, polish_iters):
        if cand[0] < best[0] or (cand[0] == best[0] and cand[4] < best[4]):
            best = cand
    return best
