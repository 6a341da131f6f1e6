"""Pointwise kernels against brute force, batched kernels against the scalar reference."""

import numpy as np
import pytest

import circulant3
from circulant3 import kernels

from helpers import (
    brute_force_apply,
    brute_force_eval,
    ref_kkt_newton,
    ref_minimize_batch,
    ref_scan_two_equal,
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
    aug = np.concatenate([a, b[..., None]], axis=2).transpose(1, 2, 0).copy()
    got, ok = kernels._solve4(aug)
    assert ok.all()
    assert np.max(np.abs(got.T - expected)) <= 1e-10


def test_solve4_reports_singular_systems():
    aug = np.zeros((4, 5, 2))
    aug[:, :4, 0] = np.eye(4)
    aug[0, 4, :] = 1.0
    with np.errstate(all="ignore"):
        got, ok = kernels._solve4(aug)
    assert ok.tolist() == [True, False]
    assert got[:, 0].tolist() == [1.0, 0.0, 0.0, 0.0]


def test_minimize_from_finds_known_minimum():
    # at (m, d, u, c) = (4, 0, -1, 0) the minimum over the unit m-norm
    # sphere is -(2^4 - 2) = -14, attained along the all-ones direction
    lam, x1, x2, x3, res, used = kernels.minimize_batch(
        4, 0.0, -1.0, 0.0, np.array([[0.9, 1.1, 1.05]]), 600, 1e-11
    )
    assert used == 1
    assert abs(lam + 14.0) <= 1e-8
    assert res <= 1e-9 * 14.0
    target = 3.0 ** (-1.0 / 4.0)
    assert max(abs(abs(v) - target) for v in (x1, x2, x3)) <= 1e-6


def test_kkt_newton_polishes_an_eigenpair():
    # start slightly off the known minimizer of (6, 62, -1, 0) at the
    # all-ones direction, where the smallest eigenvalue is exactly 0
    s = 3.0 ** (-1.0 / 6.0)
    lam, x, res = kernels.kkt_newton(
        6, 62.0, -1.0, 0.0, np.array([[s + 0.01, s - 0.02, s]]), np.array([0.5]), 40
    )
    assert lam.shape == (1,) and x.shape == (1, 3) and res.shape == (1,)
    assert abs(lam[0]) <= 1e-8
    assert res[0] <= 1e-9
    norm = sum(abs(v) ** 6 for v in x[0])
    assert abs(norm - 1.0) <= 1e-9


def test_scan_two_equal_covers_structured_minima():
    # the two-equal family contains the global minimizer for the
    # pure-u reference at order 4: value -14 at the all-ones direction
    lam, x1, x2, x3, res = kernels.scan_two_equal(4, 0.0, -1.0, 0.0, 2001, 40)
    assert abs(lam + 14.0) <= 1e-8
    assert res <= 1e-8 * 14.0


@pytest.mark.parametrize("m, d, u, c", REF_CASES)
def test_batched_kernels_match_scalar_reference(m, d, u, c):
    # each batched column runs the float64 operations of the scalar loop
    # in the same order, with the C library's pow, so the results are equal
    starts = np.random.default_rng(m).standard_normal((6, 3))
    got = kernels.minimize_batch(m, d, u, c, starts, 600, 1e-11)
    assert got[5] == len(starts)
    assert got[:5] == ref_minimize_batch(m, d, u, c, starts.tolist(), 600, 1e-11)

    got = kernels.scan_two_equal(m, d, u, c, 501, 40)
    assert got == ref_scan_two_equal(m, d, u, c, 501, 40)

    x = starts / np.sum(np.abs(starts) ** m, axis=1, keepdims=True) ** (1.0 / m)
    lam, xs, res = kernels.kkt_newton(m, d, u, c, x, np.full(len(x), 0.5), 30)
    for k in range(len(x)):
        ref = ref_kkt_newton(m, d, u, c, *x[k].tolist(), 0.5, 30)
        assert (lam[k], *xs[k], res[k]) == ref


def test_singular_newton_start_stops_alone(monkeypatch):
    # for the pure-diagonal form x1^4 + x2^4 + x3^4 the Newton system at a
    # coordinate axis has two zero rows; that column must stop without
    # raising while the other columns run exactly as they would alone
    m, d, u, c = 4, 1.0, 0.0, 0.0
    x = np.array([[0.8, 0.6, 0.5], [1.0, 0.0, 0.0], [0.3, -0.9, 0.7]])
    lam0 = np.array([0.2, 0.5, 3.0])
    lam, xs, res = kernels.kkt_newton(m, d, u, c, x, lam0, 30)
    assert xs[1].tolist() == [1.0, 0.0, 0.0]
    assert lam[1] == 1.0 and res[1] == 0.0
    for k in (0, 2):
        alone = kernels.kkt_newton(m, d, u, c, x[k:k + 1], lam0[k:k + 1], 30)
        assert lam[k] == alone[0][0] and res[k] == alone[2][0]
        assert xs[k].tolist() == alone[1][0].tolist()

    # in the multistart, a start whose every Newton system is singular
    # keeps its unpolished descent point; the batch still returns the
    # best of the other starts
    solve = kernels._solve4

    def first_column_singular(aug):
        y, ok = solve(aug)
        ok[0] = False
        return y, ok

    monkeypatch.setattr(kernels, "_solve4", first_column_singular)
    m, d, u, c = 6, 0.0, 5.0, -1.0
    starts = np.random.default_rng(1).standard_normal((4, 3))
    got = kernels.minimize_batch(m, d, u, c, starts, 600, 1e-11)
    assert got[5] == 4
    assert got[:5] == ref_minimize_batch(m, d, u, c, starts[1:].tolist(), 600, 1e-11)
