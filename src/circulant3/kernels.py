"""Numerical kernels of the smallest H-eigenvalue search.

Every routine works on the four structure parameters (m, d, u, c) of a
strongly symmetric circulant tensor and never materializes the 3^m entry
array: the form, its gradient and its Hessian all reduce to powers of
the seven linear forms x1, x2, x3, x1+x2, x1+x3, x2+x3, x1+x2+x3.

The pointwise kernels (eval_form, apply_power, power_jacobian) take
plain numbers; exact inputs (int, Fraction) give exact outputs. The two
searches behind ``eigen.lambda_min`` batch what has many points and
loop over what has few:

* minimize_batch runs the projected descent and its eigenpair Newton
  polish (_newton) for all starts (64 by default) at once in numpy,
  with one backtracking step size per start. A loop of the scalar
  Newton over the starts measured 6.2-6.3 -> 10.3-10.8 ms per
  ``lambda_min`` call (2-vCPU x86-64 host, numpy 2.4), so the
  multistart stays batched;
* section_minima evaluates the two-equal-coordinate grid in one numpy
  pass over the order's cached power sums, then polishes each of its
  few grid minima alone on Python floats (_newton_point), where
  numpy's per-call cost outweighed the work of one to three columns;
  scan_two_equal keeps the smallest of them. scan_two_equal and the
  zero scan of ``sos`` read the minima through cached_section_minima, a
  small cache, so N's scan at d = 0 and the zero scan of the same
  section run it once.

Batched powers go through ``np.float_power``, which calls the C
library's pow for each element like Python's ``**`` does, and every
other operation is applied in the order the scalar formulas use, so a
batched column and the scalar Newton carry the same bits from the same
start.
"""

from __future__ import annotations

import functools
import math

import numpy as np

BACKEND = "numpy"

# the linear forms x1+x2, x1+x3, x2+x3 sit at rows 3, 4, 5 of the stack;
# component i of A x^{m-1} takes the pair powers at rows _LEFT[i], _RIGHT[i]
_LEFT = np.array([3, 3, 4])
_RIGHT = np.array([4, 5, 5])
# positions of the off-diagonal Jacobian entries j12, j13, j23
_UPPER = (np.array([0, 0, 1]), np.array([1, 2, 2]))
_LOWER = (_UPPER[1], _UPPER[0])
_DIAG3 = np.arange(3)
_DIAG4 = np.arange(4)
# candidate pivot rows below the diagonal, by elimination column
_SWAP_ROWS = [np.arange(1, 4 - col)[:, None] for col in range(3)]
# backtracking step sizes tried together per pass: eta, eta / 2, eta / 4
_TRIES = 3


def _form(d, u, c, p, q, s):
    """d P + u (Q - 2P) + c (S - Q + P) from the power sums P, Q, S."""
    return d * p + u * (q - 2 * p) + c * (s - q + p)


def _component(d, u, c, a, bl, br, t):
    """One component of A x^{m-1} from its own, pair and triple powers."""
    return d * a + u * (bl + br - 2 * a) + c * (t - bl - br + a)


def _off_diagonal(u, c, b, t):
    """Off-diagonal Jacobian entry (without the m - 1 factor)."""
    return u * b + c * (t - b)


def eval_form(m, d, u, c, x1, x2, x3):
    """Value of the degree-m form at (x1, x2, x3)."""
    p = x1**m + x2**m + x3**m
    q = (x1 + x2) ** m + (x1 + x3) ** m + (x2 + x3) ** m
    s = (x1 + x2 + x3) ** m
    return _form(d, u, c, p, q, s)


def apply_power(m, d, u, c, x1, x2, x3):
    """Components of A x^{m-1}, i.e. the form gradient divided by m."""
    e = m - 1
    a1, a2, a3 = x1**e, x2**e, x3**e
    b12, b13, b23 = (x1 + x2) ** e, (x1 + x3) ** e, (x2 + x3) ** e
    t = (x1 + x2 + x3) ** e
    return (
        _component(d, u, c, a1, b12, b13, t),
        _component(d, u, c, a2, b12, b23, t),
        _component(d, u, c, a3, b13, b23, t),
    )


def power_jacobian(m, d, u, c, x1, x2, x3):
    """Jacobian of x -> A x^{m-1}, returned as (J11, J22, J33, J12, J13, J23)."""
    e = m - 2
    w = m - 1.0
    a1, a2, a3 = x1**e, x2**e, x3**e
    b12, b13, b23 = (x1 + x2) ** e, (x1 + x3) ** e, (x2 + x3) ** e
    t = (x1 + x2 + x3) ** e
    return (
        w * _component(d, u, c, a1, b12, b13, t),
        w * _component(d, u, c, a2, b12, b23, t),
        w * _component(d, u, c, a3, b13, b23, t),
        w * _off_diagonal(u, c, b12, t),
        w * _off_diagonal(u, c, b13, t),
        w * _off_diagonal(u, c, b23, t),
    )


# -- batched kernels: the columns of a (3, ...) array are the points -----------


def _linear_forms(x):
    """The seven linear forms of the points, stacked along a new first axis."""
    z = np.empty((7,) + x.shape[1:])
    z[:3] = x
    np.add(x[0], x[1], out=z[3])
    np.add(x[0], x[2], out=z[4])
    np.add(x[1], x[2], out=z[5])
    np.add(z[3], x[2], out=z[6])
    return z


def _power_sum(x, m):
    """|x1|^m + |x2|^m + |x3|^m for every point."""
    a = np.float_power(np.abs(x), m)
    return a[0] + a[1] + a[2]


def _norm(x, m):
    return np.float_power(_power_sum(x, m), 1.0 / m)


def _eval_batch(m, d, u, c, x):
    pw = np.float_power(_linear_forms(x), m)
    return _form(d, u, c, pw[0] + pw[1] + pw[2], pw[3] + pw[4] + pw[5], pw[6])


def _gradient(d, u, c, pw):
    """A x^{m-1} from the (m-1)-th powers of the linear forms."""
    return _component(d, u, c, pw[:3], pw[_LEFT], pw[_RIGHT], pw[6])


def _solve4(aug):
    """Solve the 4x4 systems held as augmented (4, 5, n) matrices, in place.

    Gaussian elimination with partial pivoting, the same operations in
    the same order for every system. Returns the (4, n) solutions and a
    mask that is False where a pivot is zero or not finite.
    """
    for col in range(3):
        piv = np.abs(aug[col:, col]).argmax(axis=0)
        swap = piv == _SWAP_ROWS[col]
        prow = aug[col].copy()
        for k in range(3 - col):
            np.copyto(prow, aug[col + 1 + k], where=swap[k])
        aug[col + 1:] = np.where(swap[:, None], aug[col], aug[col + 1:])
        aug[col] = prow
        fac = aug[col + 1:, col] / prow[col]
        aug[col + 1:, col:] -= fac[:, None] * prow[col:]
    pivots = aug[_DIAG4, _DIAG4]
    ok = (np.isfinite(pivots) & (pivots != 0.0)).all(axis=0)
    y = np.empty((4, aug.shape[2]))
    for col in range(3, -1, -1):
        s = aug[col, 4]
        for k in range(col + 1, 4):
            s = s - aug[col, k] * y[k]
        y[col] = s / pivots[col]
    return y, ok


def _newton(m, d, u, c, state, iters):
    """Newton on A x^{m-1} = lam x^[m-1], |x|_m = 1 for every column.

    ``state`` holds the rows x1, x2, x3, lam. Each column keeps the
    iterate with the smallest residual. A column stops when its
    residual is exactly zero, its linear system is singular, or it
    revisits an earlier iterate (every later residual would repeat one
    already seen). A column whose step leaves the finite range returns
    its best raw iterate; the others return it renormalized, with the
    eigenvalue and residual recomputed. Returns (state, residual).
    """
    n = state.shape[1]
    e1 = m - 1
    w1 = m - 1.0
    best = state.copy()
    best_res = np.full(n, math.inf)
    live = np.ones(n, dtype=bool)
    blown = np.zeros(n, dtype=bool)
    seen = np.empty((iters, 4, n))
    aug = np.zeros((4, 5, n))
    f = np.empty((4, n))
    for it in range(iters):
        x, lam = state[:3], state[3]
        z = _linear_forms(x)
        pw = np.float_power(z, e1)
        p = pw[:3]
        f[:3] = _gradient(d, u, c, pw) - lam * p
        f[3] = (_power_sum(x, m) - 1.0) / m
        res = np.abs(f).max(axis=0)
        better = live & (res < best_res)
        best = np.where(better, state, best)
        best_res = np.where(better, res, best_res)
        live &= res != 0.0
        if not live.any():
            break
        pj = np.float_power(z, m - 2)
        diag = w1 * _component(d, u, c, pj[:3], pj[_LEFT], pj[_RIGHT], pj[6])
        aug[_DIAG3, _DIAG3] = diag - lam * w1 * pj[:3]
        aug[_UPPER] = aug[_LOWER] = w1 * _off_diagonal(u, c, pj[3:6], pj[6])
        aug[:3, 3] = -p
        aug[3, :3] = p
        aug[3, 3] = 0.0
        aug[:, 4] = -f
        step, ok = _solve4(aug)
        live &= ok
        longest = np.abs(step[:3]).max(axis=0)
        step *= np.where(longest > 0.5, 0.5 / longest, 1.0)
        new = state + step
        finite = np.isfinite(new).all(axis=0)
        blown |= live & ~finite
        seen[it] = state
        live &= finite & ~(seen[: it + 1] == new).all(axis=1).any(axis=0)
        state = np.where(live, new, state)
        if not live.any():
            break
    x = best[:3]
    nrm = _norm(x, m)
    x = np.where((nrm > 0.0) & np.isfinite(nrm), x / nrm, x)
    lam = _eval_batch(m, d, u, c, x)
    pw = np.float_power(_linear_forms(x), e1)
    res = np.abs(_gradient(d, u, c, pw) - lam * pw[:3]).max(axis=0)
    return np.where(blown, best, np.vstack([x, lam])), np.where(blown, best_res, res)


def _descend(m, d, u, c, x, max_iters):
    """Projected descent on f(x)/|x|_m^m from the unit columns of x.

    Backtracking steps along the eigen-residual, one step size per
    column, until the residual is small against the gradient scale, no
    step decreases the form, or max_iters passes are done. Finished
    columns leave the working set. Returns the final points and the
    gradient scale of each.
    """
    e1 = m - 1
    out_x = x.copy()
    out_scale = scale = np.ones(x.shape[1])
    ids = np.arange(x.shape[1])
    eta = np.full(x.shape[1], 0.1)
    halvings = 0.5 ** np.arange(_TRIES)
    for _ in range(max_iters):
        if not ids.size:
            break
        pw = np.float_power(_linear_forms(x), e1)
        g = _gradient(d, u, c, pw)
        f = x[0] * g[0] + x[1] * g[1] + x[2] * g[2]
        r = g - f * pw[:3]
        scale = np.maximum(np.abs(g).max(axis=0), np.maximum(1.0, np.abs(f)))
        rr = r[0] * r[0] + r[1] * r[1] + r[2] * r[2]
        search = ~(np.abs(r).max(axis=0) <= 1e-5 * scale)
        moved = np.zeros(len(ids), dtype=bool)
        cols = np.arange(len(ids))
        tried = 0
        while search.any():
            etas = eta[:, None] * halvings
            y = x[:, :, None] - etas * r[:, :, None]
            ny = _norm(y, m)
            yn = y / ny
            fy = _eval_batch(m, d, u, c, yn)
            ok = (fy <= f[:, None] - 1e-4 * etas * rr[:, None]) & (ny > 0.0) & np.isfinite(ny)
            ok &= search[:, None] & (etas >= 1e-18)
            if tried + _TRIES > 40:
                ok[:, 40 - tried:] = False
            hit = ok.any(axis=1)
            k = ok.argmax(axis=1)
            x = np.where(hit, yn[:, cols, k], x)
            search &= ~hit
            eta = np.where(hit, etas[cols, k], np.where(search, eta * 0.5**_TRIES, eta))
            moved |= hit
            tried += _TRIES
            search &= (eta >= 1e-18) & (tried < 40)
        if not moved.all():
            out_x[:, ids[~moved]] = x[:, ~moved]
            out_scale[ids[~moved]] = scale[~moved]
            x, eta, ids, scale = x[:, moved], eta[moved], ids[moved], scale[moved]
        eta = np.minimum(eta * 1.8, 1e3)
    out_x[:, ids] = x
    out_scale[ids] = scale
    return out_x, out_scale


def _best(state, res):
    """Column with the smallest eigenvalue, ties to the smaller residual, then the earlier column."""
    best = (math.inf, 0.0, 0.0, 0.0, math.inf)
    for k, (lam, r) in enumerate(zip(state[3].tolist(), res.tolist())):
        if lam < best[0] or (lam == best[0] and r < best[4]):
            best = (lam, float(state[0, k]), float(state[1, k]), float(state[2, k]), r)
    return best


def minimize_batch(m, d, u, c, starts, max_iters, tol):
    """Projected descent plus Newton polish from every start; keep the best.

    ``starts`` is an (n, 3) array. Each start is scaled to the unit
    |.|_m sphere, descends on the quotient f(x)/|x|_m^m and is polished
    by Newton on the eigenpair system; a second Newton round runs where
    the residual still exceeds tol times the start's gradient scale. A
    start of zero or non-finite norm is skipped. Returns (lam, x1, x2,
    x3, residual).
    """
    x0 = np.array(starts, dtype=float).reshape(-1, 3).T
    with np.errstate(all="ignore"):
        nrm = _norm(x0, m)
        usable = (nrm != 0.0) & np.isfinite(nrm)
        x, scale = _descend(m, d, u, c, x0[:, usable] / nrm[usable], max_iters)
        state, res = _newton(m, d, u, c, np.vstack([x, _eval_batch(m, d, u, c, x)]), 30)
        again = np.flatnonzero(res > tol * scale)
        if again.size:
            state2, res2 = _newton(m, d, u, c, state[:, again], 30)
            took = res2 < res[again]
            state[:, again[took]] = state2[:, took]
            res[again[took]] = res2[took]
    return _best(state, res)


def _polish_section(m, d, u, c, theta, h, iters):
    """Newton on the section quotient R(t) = f(x(t)) / S(x(t)), x(t) = (cos t, cos t, sin t)."""
    for _ in range(iters):
        ct = math.cos(theta)
        st = math.sin(theta)
        x1, x2, x3 = ct, ct, st
        d1, d2, d3 = -st, -st, ct
        g1, g2, g3 = apply_power(m, d, u, c, x1, x2, x3)
        f = x1 * g1 + x2 * g2 + x3 * g3
        s = abs(x1) ** m + abs(x2) ** m + abs(x3) ** m
        fp = m * (g1 * d1 + g2 * d2 + g3 * d3)
        j11, j22, j33, j12, j13, j23 = power_jacobian(m, d, u, c, x1, x2, x3)
        jq = (
            j11 * d1 * d1
            + j22 * d2 * d2
            + j33 * d3 * d3
            + 2.0 * (j12 * d1 * d2 + j13 * d1 * d3 + j23 * d2 * d3)
        )
        fpp = m * jq - m * f
        e1 = m - 1
        sp = m * (x1**e1 * d1 + x2**e1 * d2 + x3**e1 * d3)
        spp = m * (m - 1.0) * (x1 ** (m - 2) * d1 * d1 + x2 ** (m - 2) * d2 * d2 + x3 ** (m - 2) * d3 * d3) - m * s
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
    return theta


@functools.lru_cache(maxsize=8)
def _section_grid(m, n_grid):
    """The section grid's power sums (P, Q - 2P, S - Q + P) and its m-norm^m, read-only.

    They depend on the order and the grid only, so every scan of the
    order reads one copy; a scan's values are then the three products
    and sums of ``_form`` over these arrays, with the same bits.
    """
    t = np.arange(n_grid) * (math.pi / n_grid)
    ct, st = np.cos(t), np.sin(t)
    with np.errstate(all="ignore"):
        # powers of the distinct linear forms at (ct, ct, st); the even
        # power of ct equals that of |ct|
        pw = np.float_power(np.array([ct, st, ct + ct, ct + st, ct + ct + st]), m)
        p = pw[0] + pw[0] + pw[1]
        q = pw[2] + pw[3] + pw[3]
        grid = (p, q - 2 * p, pw[4] - q + p, pw[0] * 2.0 + pw[1])
    for a in grid:
        a.flags.writeable = False
    return grid


def _max_abs(*v):
    """The largest |v_i|, nan when any v_i is nan, as numpy's max gives."""
    if any(a != a for a in v):
        return math.nan
    return max(abs(a) for a in v)


def _solve4_point(rows):
    """_solve4 for one system, its four augmented rows given as lists; None if singular.

    The same pivot choice, row swaps and operations in the same order as
    the batched elimination, but a zero or non-finite pivot returns None
    before anything is divided by it (Python floats raise where numpy
    gives inf).
    """
    for col in range(3):
        cand = [abs(rows[r][col]) for r in range(col, 4)]
        big = max(cand)
        # a nan candidate that max passes over turns its row, and so the
        # last pivot, into nan; numpy's argmax would have picked it
        if not 0.0 < big < math.inf:
            return None
        piv = col + cand.index(big)
        rows[col], rows[piv] = rows[piv], rows[col]
        prow = rows[col]
        for row in rows[col + 1:]:
            fac = row[col] / prow[col]
            for k in range(col + 1, 5):
                row[k] = row[k] - fac * prow[k]
    if rows[3][3] == 0.0 or not math.isfinite(rows[3][3]):
        return None
    y = [0.0] * 4
    for col in range(3, -1, -1):
        s = rows[col][4]
        for k in range(col + 1, 4):
            s = s - rows[col][k] * y[k]
        y[col] = s / rows[col][col]
    return y


def _newton_point(m, d, u, c, x1, x2, x3, lam, iters):
    """_newton for one point on Python floats; returns (lam, x1, x2, x3, residual).

    Each iterate runs the float operations of a batched column in the
    same order, under the same rules for keeping the best iterate,
    stopping and blowing up, so it returns the same bits.
    """
    e1, e2 = m - 1, m - 2
    w1 = m - 1.0
    best, best_res = (x1, x2, x3, lam), math.inf
    seen = []
    for _ in range(iters):
        g1, g2, g3 = apply_power(m, d, u, c, x1, x2, x3)
        p1, p2, p3 = x1**e1, x2**e1, x3**e1
        sphere = (abs(x1) ** m + abs(x2) ** m + abs(x3) ** m - 1.0) / m
        f = (g1 - lam * p1, g2 - lam * p2, g3 - lam * p3, sphere)
        res = _max_abs(*f)
        if res < best_res:
            best, best_res = (x1, x2, x3, lam), res
        if res == 0.0:
            break
        j11, j22, j33, j12, j13, j23 = power_jacobian(m, d, u, c, x1, x2, x3)
        lw = lam * w1
        step = _solve4_point([
            [j11 - lw * x1**e2, j12, j13, -p1, -f[0]],
            [j12, j22 - lw * x2**e2, j23, -p2, -f[1]],
            [j13, j23, j33 - lw * x3**e2, -p3, -f[2]],
            [p1, p2, p3, 0.0, -f[3]],
        ])
        if step is None:
            break
        longest = max(abs(step[0]), abs(step[1]), abs(step[2]))
        if longest > 0.5:
            step = [v * (0.5 / longest) for v in step]
        new = (x1 + step[0], x2 + step[1], x3 + step[2], lam + step[3])
        if not all(math.isfinite(v) for v in new):
            return best[3], *best[:3], best_res
        seen.append((x1, x2, x3, lam))
        if new in seen:
            break
        x1, x2, x3, lam = new
    x1, x2, x3, _ = best
    nrm = (abs(x1) ** m + abs(x2) ** m + abs(x3) ** m) ** (1.0 / m)
    if nrm > 0.0 and math.isfinite(nrm):
        x1, x2, x3 = x1 / nrm, x2 / nrm, x3 / nrm
    lam = eval_form(m, d, u, c, x1, x2, x3)
    g1, g2, g3 = apply_power(m, d, u, c, x1, x2, x3)
    return lam, x1, x2, x3, _max_abs(g1 - lam * x1**e1, g2 - lam * x2**e1, g3 - lam * x3**e1)


def section_minima(m, d, u, c, n_grid, polish_iters):
    """Every local minimum of the form on x = (cos t, cos t, sin t), t in [0, pi).

    Every vector with at least two equal coordinates is a permutation of
    +-(s, s, t), so for the fully symmetric form this section covers the
    whole two-equal-coordinate family. The grid values are one batch
    over the order's cached power sums (``_section_grid``). Each grid
    minimum is polished alone on Python floats, by Newton on the section
    quotient and then by Newton on the full eigenpair system
    (_newton_point, the bits of a batched _newton column): a scan has one
    to a few minima (105 over the 61 table sections), too few for numpy's
    per-call cost to pay off. A constant section, such as the zero
    form's, makes every grid point a minimum, and there the loop is
    slower than a batch (12 -> 36 ms at m = 6 on the host named above).
    Returns (state, residual): the columns of the (4, k) state are the
    polished points x1, x2, x3 on the unit m-norm sphere with their
    eigenvalues, one per grid minimum (k = 0 when the grid has none).
    """
    h = math.pi / n_grid
    p, q2, s2, denom = _section_grid(m, n_grid)
    with np.errstate(all="ignore"):
        vals = (d * p + u * q2 + c * s2) / denom
    minima = (vals <= np.roll(vals, 1)) & (vals <= np.roll(vals, -1))
    cols = []
    for i in np.flatnonzero(minima).tolist():
        theta = _polish_section(m, d, u, c, i * h, h, polish_iters)
        ct, st = math.cos(theta), math.sin(theta)
        nrm = (abs(ct) ** m + abs(ct) ** m + abs(st) ** m) ** (1.0 / m)
        x1, x3 = ct / nrm, st / nrm
        cols.append(_newton_point(m, d, u, c, x1, x1, x3, eval_form(m, d, u, c, x1, x1, x3), 20))
    if not cols:
        return np.empty((4, 0)), np.empty(0)
    out = np.array(cols).T
    return out[[1, 2, 3, 0]], out[4].copy()


@functools.lru_cache(maxsize=8)
def cached_section_minima(m, d, u, c, n_grid, polish_iters):
    """section_minima behind a bounded cache, as read-only arrays.

    The thresholds scan the section of A(m, 0, u, c) for N and then look
    for the zeros of A(m, N, u, c) on the same section, where the form
    over the unit m-norm sphere is the one at d = 0 shifted by N: both
    read these minima, so a table row runs the scan once.
    """
    state, res = section_minima(m, d, u, c, n_grid, polish_iters)
    state.flags.writeable = False
    res.flags.writeable = False
    return state, res


def scan_two_equal(m, d, u, c, n_grid, polish_iters):
    """The smallest of the section minima: (lam, x1, x2, x3, residual).

    (inf, 0, 0, 0, inf) when the grid has no local minimum.
    """
    return _best(*cached_section_minima(m, d, u, c, n_grid, polish_iters))
