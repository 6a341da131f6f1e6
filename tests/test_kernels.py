"""Pointwise kernels against brute force, batched kernels against the scalar reference."""

import math

import numpy as np
import pytest

import circulant3
from circulant3 import kernels, tables

from helpers import (
    brute_force_apply,
    brute_force_eval,
    ref_kkt_newton,
    ref_minimize_batch,
    ref_scan_two_equal,
    ref_section_minima,
    ref_solve4,
)

# (m, d, u, c) cases for the batched-versus-scalar comparisons
REF_CASES = [
    (4, 0.0, -1.0, 0.0),
    (4, 1.5, 0.7, -2.0),
    (6, 0.0, 5.0, -1.0),
    (6, 2.0, 1.0, -1.0),
    (6, 0.0, 0.5, 1.0),
    (8, 0.0, 10.0, 1.0),
    (8, 30.0, -2.0, 1.0),
    (14, 0.0, 400.0, -1.0),
    (14, 0.0, -3.0, 1.0),
]

# sections whose every minimum is checked against the scalar reference:
# at (4, 1, 0, 0) every grid point is a minimum and the axis points have
# singular Newton systems; the zero forms; the two-orbit breakpoints at
# m = 6 and 8; and two u whose products overflow, the second to nan
# residuals at some minima
SECTION_CASES = [
    (4, 1.0, 0.0, 0.0),
    (4, 0.0, 0.0, 0.0),
    (6, 0.0, 0.0, 0.0),
    (6, 0.0, -70 / 11, 1.0),
    (8, 0.0, -686 / 43, 1.0),
    (14, 0.0, 1e300, 1.0),
    (8, 0.0, -1e307, 1.0),
]


def _random_cases(seed, n=30):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        m = int(rng.choice([4, 6, 8]))
        d, u, c = (float(v) for v in rng.uniform(-3.0, 3.0, size=3))
        x1, x2, x3 = (float(v) for v in rng.uniform(-1.5, 1.5, size=3))
        yield m, d, u, c, x1, x2, x3


def test_backend_name_is_reported():
    assert kernels.BACKEND == "numpy"
    assert circulant3.BACKEND == kernels.BACKEND


def test_eval_and_apply_match_brute_force_through_dispatch():
    for m, d, u, c, x1, x2, x3 in _random_cases(23, n=10):
        f = kernels.eval_form(m, d, u, c, x1, x2, x3)
        ref = brute_force_eval(m, d, u, c, (x1, x2, x3))
        assert abs(f - ref) <= 1e-10 * max(1.0, abs(ref))
        g = kernels.apply_power(m, d, u, c, x1, x2, x3)
        gref = brute_force_apply(m, d, u, c, (x1, x2, x3))
        for a, b in zip(g, gref):
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


def test_power_jacobian_matches_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(10):
        m = int(rng.choice([4, 6]))
        d, u, c = (float(v) for v in rng.uniform(-2.0, 2.0, size=3))
        x = rng.uniform(0.2, 1.2, size=3)
        j11, j22, j33, j12, j13, j23 = kernels.power_jacobian(m, d, u, c, *x)
        jac = np.array([[j11, j12, j13], [j12, j22, j23], [j13, j23, j33]])
        fd = np.zeros((3, 3))
        for col in range(3):
            xp = x.copy()
            xm = x.copy()
            xp[col] += h
            xm[col] -= h
            gp = np.array(kernels.apply_power(m, d, u, c, *xp))
            gm = np.array(kernels.apply_power(m, d, u, c, *xm))
            fd[:, col] = (gp - gm) / (2.0 * h)
        scale = max(1.0, float(np.max(np.abs(fd))))
        assert np.max(np.abs(jac - fd)) <= 1e-5 * scale


def test_solve4_agrees_with_dense_solver():
    rng = np.random.default_rng(9)
    a = rng.uniform(-1.0, 1.0, size=(20, 4, 4)) + 4.0 * np.eye(4)
    b = rng.uniform(-1.0, 1.0, size=(20, 4))
    expected = np.linalg.solve(a, b[..., None])[..., 0]
    aug = np.concatenate([a, b[..., None]], axis=2)
    for k in range(len(aug)):
        got = kernels._solve4_point(aug[k].tolist())
        assert np.max(np.abs(np.subtract(got, expected[k]))) <= 1e-10


def test_solve4_reports_singular_systems():
    identity = np.hstack([np.eye(4), [[1.0], [0.0], [0.0], [0.0]]])
    assert kernels._solve4_point(identity.tolist()) == [1.0, 0.0, 0.0, 0.0]
    assert kernels._solve4_point(np.zeros((4, 5)).tolist()) is None


def test_scalar_solve4_matches_the_batched_one_and_never_divides_by_a_bad_pivot():
    # random systems, then ones whose pivot candidates are zero, inf or
    # nan: the solve gives the bits of the reference elimination on the
    # first and None on the others, before anything is divided by a bad
    # pivot (Python floats raise where numpy gives inf)
    rng = np.random.default_rng(11)
    aug = rng.uniform(-1.0, 1.0, size=(4, 5, 40))
    aug[:, 0, 20:25] = 0.0
    aug[2, 1, 25:30] = np.inf
    aug[3, 2, 30:35] = np.nan
    aug[1, 3, 35:] = np.nan
    for k in range(aug.shape[2]):
        got = kernels._solve4_point(aug[:, :, k].tolist())
        want = ref_solve4(aug[:, :4, k].ravel().tolist(), aug[:, 4, k].tolist())
        if k < 20:
            assert want is not None and got == want
        else:
            assert got is None and want is None


def test_minimize_from_finds_known_minimum():
    # at (m, d, u, c) = (4, 0, -1, 0) the minimum over the unit m-norm
    # sphere is -(2^4 - 2) = -14, attained along the all-ones direction
    lam, x1, x2, x3, res = kernels.minimize_batch(
        4, 0.0, -1.0, 0.0, np.array([[0.9, 1.1, 1.05]]), 600, 1e-11
    )
    assert abs(lam + 14.0) <= 1e-8
    assert res <= 1e-9 * 14.0
    target = 3.0 ** (-1.0 / 4.0)
    assert max(abs(abs(v) - target) for v in (x1, x2, x3)) <= 1e-6


def test_kkt_newton_polishes_an_eigenpair():
    # start slightly off the known minimizer of (6, 62, -1, 0) at the
    # all-ones direction, where the smallest eigenvalue is exactly 0
    s = 3.0 ** (-1.0 / 6.0)
    start = (6, 62.0, -1.0, 0.0, s + 0.01, s - 0.02, s, 0.5, 40)
    lam, *x, res = got = kernels._newton_point(*start)
    assert abs(lam) <= 1e-8
    assert res <= 1e-9
    norm = sum(abs(v) ** 6 for v in x)
    assert abs(norm - 1.0) <= 1e-9
    assert got == ref_kkt_newton(*start)


def test_scan_two_equal_covers_structured_minima():
    # the two-equal family contains the global minimizer for the
    # pure-u reference at order 4: value -14 at the all-ones direction
    lam, x1, x2, x3, res = kernels._best(kernels.section_minima(4, 0.0, -1.0, 0.0, 2001, 40))
    assert abs(lam + 14.0) <= 1e-8
    assert res <= 1e-8 * 14.0


@pytest.mark.parametrize("m, d, u, c", REF_CASES)
def test_batched_kernels_match_scalar_reference(m, d, u, c):
    # each column of the batched descent and grid runs the float64
    # operations of the scalar loop in the same order, with the C
    # library's pow, so the results are equal
    starts = np.random.default_rng(m).standard_normal((6, 3))
    got = kernels.minimize_batch(m, d, u, c, starts, 600, 1e-11)
    assert got == ref_minimize_batch(m, d, u, c, starts.tolist(), 600, 1e-11)

    got = kernels._best(kernels.section_minima(m, d, u, c, 501, 40))
    assert got == ref_scan_two_equal(m, d, u, c, 501, 40)

    x = starts / np.sum(np.abs(starts) ** m, axis=1, keepdims=True) ** (1.0 / m)
    for point in x.tolist():
        got = kernels._newton_point(m, d, u, c, *point, 0.5, 30)
        assert got == ref_kkt_newton(m, d, u, c, *point, 0.5, 30)


def test_scalar_newton_matches_the_reference_on_far_starts_and_overflow():
    # far starts and eigenvalue guesses, so that steps are clamped;
    # values of u whose products overflow, down to nan residuals; and a
    # huge guess whose step leaves the float range
    rng = np.random.default_rng(3)
    for m in (4, 6, 8, 14):
        for u in (*rng.uniform(-20.0, 20.0, size=4).tolist(), 1e300, 1e307, 1e308):
            d, c = rng.uniform(-20.0, 20.0, size=2).tolist()
            lam = [*rng.uniform(-50.0, 50.0, size=7).tolist(), 1e300]
            state = np.vstack([2.0 * rng.standard_normal((3, 8)), lam])
            for x1, x2, x3, lam0 in state.T.tolist():
                got = kernels._newton_point(m, d, u, c, x1, x2, x3, lam0, 30)
                want = ref_kkt_newton(m, d, u, c, x1, x2, x3, lam0, 30)
                assert np.array_equal(got, want, equal_nan=True)


def test_singular_newton_start_stops_alone(monkeypatch):
    # for the pure-diagonal form x1^4 + x2^4 + x3^4 the Newton system at a
    # coordinate axis has two zero rows; Newton must stop there without
    # raising, and the other starts polish as the reference does
    m, d, u, c = 4, 1.0, 0.0, 0.0
    x = [[0.8, 0.6, 0.5], [1.0, 0.0, 0.0], [0.3, -0.9, 0.7]]
    lam0 = [0.2, 0.5, 3.0]
    assert kernels._newton_point(m, d, u, c, *x[1], lam0[1], 30) == (1.0, 1.0, 0.0, 0.0, 0.0)
    for k in (0, 2):
        got = kernels._newton_point(m, d, u, c, *x[k], lam0[k], 30)
        assert got == ref_kkt_newton(m, d, u, c, *x[k], lam0[k], 30)

    # in the multistart, a start whose every Newton system is singular
    # keeps its unpolished descent point; the batch still returns the
    # best of the other starts
    solve, newton = kernels._solve4_point, kernels._newton_point
    stuck = []  # the points the first start's Newton rounds return

    def first_start_singular(m, d, u, c, x1, x2, x3, lam, iters):
        # the first call is the first start's first round, and a second
        # round starts from the point the first one returned
        first = not stuck or (x1, x2, x3) == stuck[-1]
        monkeypatch.setattr(kernels, "_solve4_point", (lambda rows: None) if first else solve)
        point = newton(m, d, u, c, x1, x2, x3, lam, iters)
        if first:
            stuck.append(point[1:4])
        return point

    monkeypatch.setattr(kernels, "_newton_point", first_start_singular)
    m, d, u, c = 6, 0.0, 5.0, -1.0
    starts = np.random.default_rng(1).standard_normal((4, 3))
    got = kernels.minimize_batch(m, d, u, c, starts, 600, 1e-11)
    assert stuck
    assert got == ref_minimize_batch(m, d, u, c, starts[1:].tolist(), 600, 1e-11)


def test_starts_of_zero_or_non_finite_norm_are_skipped():
    m, d, u, c = 6, 0.0, 5.0, -1.0
    bad = [[0.0, 0.0, 0.0], [np.nan, 1.0, 0.0], [0.5, np.inf, 0.0]]
    assert kernels.minimize_batch(m, d, u, c, np.array(bad), 600, 1e-11) == (
        math.inf, 0.0, 0.0, 0.0, math.inf)
    good = [0.3, -0.9, 0.7]
    got = kernels.minimize_batch(m, d, u, c, np.array(bad + [good]), 600, 1e-11)
    assert got == ref_minimize_batch(m, d, u, c, [good], 600, 1e-11)


def _assert_section_minima_match_reference(m, d, u, c):
    budget = (kernels._GRID_POINTS, kernels._SCAN_POLISH_ITERS)
    got = kernels.section_minima(m, d, u, c, *budget)
    ref = ref_section_minima(m, d, u, c, *budget)
    # the same records in the same order, a nan residual matching a nan
    assert len(got) == len(ref)
    assert all(np.array_equal(g, r, equal_nan=True) for g, r in zip(got, ref))


def test_every_section_minimum_of_the_fixture_matches_the_scalar_reference():
    # every polished minimum, not only the smallest, at the production
    # budget on the section each table row scans (d = 0)
    for row in tables.load_fixture():
        _assert_section_minima_match_reference(row.m, 0.0, float(row.u_value), float(row.c))


@pytest.mark.parametrize("m, d, u, c", SECTION_CASES)
def test_every_section_minimum_matches_the_scalar_reference(m, d, u, c):
    _assert_section_minima_match_reference(m, d, u, c)


def test_section_grid_is_built_once_per_order_and_read_only(monkeypatch):
    kernels._section_grid.cache_clear()
    calls = []
    power = np.float_power

    def counting_power(*args, **kwargs):
        calls.append(args[1])
        return power(*args, **kwargs)

    monkeypatch.setattr(np, "float_power", counting_power)
    with np.errstate(all="ignore"):
        kernels.section_minima(6, 0.0, 5.0, -1.0, 301, 40)
        kernels.section_minima(6, 2.0, -1.0, 1.0, 301, 40)
    assert calls == [6]
    info = kernels._section_grid.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    # bounded like the cache of the minima themselves
    assert info.maxsize == kernels.cached_section_minima.cache_info().maxsize
    for a in kernels._section_grid(6, 301):
        with pytest.raises(ValueError):
            a[0] = 0.0
