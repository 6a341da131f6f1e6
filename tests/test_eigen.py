"""Smallest-eigenvalue search: known values, covariances, failure mode."""

import logging
import math

import numpy as np
import pytest

from circulant3 import eigen, kernels
from circulant3.boundary import breakpoint_u0_formula, breakpoint_v0_formula
from circulant3.eigen import (
    DEFAULT_CONFIG,
    SolverConfig,
    SolverFailure,
    is_psd,
    lambda_min,
    pencil_margin_cneg,
    pencil_margin_cpos,
)
from circulant3.tensor import (
    dd_bound,
    make_tensor,
    reference_tensor_c,
    reference_tensor_u,
)


def test_known_values_on_closed_form_rays():
    # with zero diagonal and nonpositive off-diagonal entries the
    # minimum sits at the all-ones direction: -(-u(2^m-2) - c(3^{m-1}-2^m+1))
    cases = [
        ((4, 0, -1, 0), -14.0),
        ((6, 0, -1, 0), -62.0),
        ((6, 0, 0, -1), -180.0),
        ((6, 0, -2, -3), -664.0),
        ((6, 0, 1, 1), -1.0),  # equal off-diagonal entries: threshold is u
        ((6, 242, -1, -1), 0.0),
    ]
    for (m, d, u, c), expected in cases:
        res = lambda_min(make_tensor(m, d, u, c))
        assert abs(res.lam - expected) <= 1e-8 * max(1.0, abs(expected))


def test_unit_u_value_matches_high_precision_reference():
    # reference computed independently at 50-digit precision for the
    # c = 0, u = 1 slice at order 6
    res = lambda_min(make_tensor(6, 0, 1, 0))
    assert abs(res.lam + 1.7373484717783816) <= 1e-9


def test_shift_covariance_in_diagonal_entry():
    rng = np.random.default_rng(42)
    for _ in range(20):
        m = int(rng.choice([4, 6]))
        u, c = (float(v) for v in rng.uniform(-2.0, 2.0, size=2))
        d = float(rng.uniform(-5.0, 5.0))
        base = lambda_min(make_tensor(m, 0.0, u, c)).lam
        shifted = lambda_min(make_tensor(m, d, u, c)).lam
        scale = max(1.0, abs(base), abs(d))
        assert abs(shifted - (d + base)) <= 1e-8 * scale


def test_positive_scaling_covariance():
    t = make_tensor(6, 1.5, -0.75, 0.5)
    base = lambda_min(t).lam
    for alpha in (0.25, 4.0):
        scaled = lambda_min(alpha * t).lam
        assert abs(scaled - alpha * base) <= 1e-8 * max(1.0, abs(alpha * base))


def test_minimizer_is_canonical_unit_vector():
    res = lambda_min(make_tensor(6, 0, -1, 0))
    x = res.x
    # unit m-norm
    assert abs(sum(abs(v) ** 6 for v in x) - 1.0) <= 1e-10
    # descending coordinate order, sign choice lexicographically largest
    assert x[0] >= x[1] >= x[2]
    assert list(x) >= sorted((-v for v in x), reverse=True)
    # the reported eigenvalue is attained at the reported vector
    t = make_tensor(6, 0, -1, 0)
    assert abs(t.eval_form(x) - res.lam) <= 1e-9 * max(1.0, abs(res.lam))
    assert res.residual <= DEFAULT_CONFIG.eigen_tol * 63.0
    assert res.starts_used == DEFAULT_CONFIG.n_starts
    assert math.isfinite(res.lam_structured)
    assert math.isfinite(res.lam_multistart)


def test_is_psd_flips_at_threshold():
    ok_above, _ = is_psd(make_tensor(6, 62.001, -1, 0))
    ok_below, ev = is_psd(make_tensor(6, 61.999, -1, 0))
    assert ok_above
    assert not ok_below
    assert ev.lam < -1e-4


def test_odd_order_is_rejected():
    with pytest.raises(ValueError):
        lambda_min(make_tensor(5, 1, 1, 1))
    with pytest.raises(ValueError):
        pencil_margin_cneg(7, 1.0)


def test_solver_failure_carries_best_iterate():
    cfg = SolverConfig(n_starts=4, eigen_tol=1e-300)
    with pytest.raises(SolverFailure) as exc_info:
        lambda_min(make_tensor(6, 0, 1, 0), cfg)
    best = exc_info.value.best
    assert best is not None
    assert math.isfinite(best.lam)
    assert abs(best.lam + 1.737348) <= 1e-3


def test_one_search_budget_matches_the_doubled_budget_at_large_orders():
    # the scan and the multistart of lambda_min give, bit for bit, what
    # the kernels give at twice the grid and twice the descent iterations
    for m in (14, 16):
        u0 = breakpoint_u0_formula(m)
        v0 = breakpoint_v0_formula(m)
        tensors = [
            make_tensor(m, 0, 1, 0),
            make_tensor(m, 0, 2 * u0, -1),
            reference_tensor_c(m) - u0 * reference_tensor_u(m),
            (-v0) * reference_tensor_u(m) - reference_tensor_c(m),
        ]
        for t in tensors:
            d, u, c = float(t.d), float(t.u), float(t.c)
            res = lambda_min(t)
            lam_s = kernels.scan_two_equal(m, d, u, c, 4001, 40)[0]
            starts = np.random.default_rng(DEFAULT_CONFIG.seed).standard_normal(
                (DEFAULT_CONFIG.n_starts, 3)
            )
            lam_g = kernels.minimize_batch(m, d, u, c, starts, 1200, 1e-11)[0]
            assert res.lam_structured == lam_s, (m, d, u, c)
            assert res.lam_multistart == lam_g, (m, d, u, c)


def test_scan_multistart_tie_is_relative_to_the_tensor_scale(caplog):
    # at the v0 pencil of m = 14 (d about 1.6e6) the multistart reads
    # -3.96e-9 against the scan's -2.68e-10, a difference of 2e-15 of the
    # tensor's scale: a tie, so the scan's minimizer stands and no
    # counterexample is logged
    m = 14
    t = (-breakpoint_v0_formula(m)) * reference_tensor_u(m) - reference_tensor_c(m)
    with caplog.at_level(logging.WARNING, logger="circulant3.eigen"):
        res = lambda_min(t)
    assert not caplog.records
    _, x1, x2, x3, _ = eigen._scan_two_equal(m, float(t.d), float(t.u), float(t.c))
    assert res.x == eigen._canonical(m, (x1, x2, x3))
    assert res.lam_multistart < res.lam_structured


def test_solver_config_rejects_invalid_settings():
    with pytest.raises(ValueError, match="n_starts must be >= 1"):
        SolverConfig(n_starts=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SolverConfig(seed=-1)
    # a nan or infinite eigen_tol switched the eigenpair residual check off
    for name in ("eigen_tol", "sos_tol", "tol_d"):
        for bad in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
                SolverConfig(**{name: bad})


def test_pencil_margins_zero_then_negative_across_breakpoint():
    # c = -1 pencil: flat at zero up to u = 45/16, strictly negative past it
    assert abs(pencil_margin_cneg(6, 1.0)) <= 1e-10
    assert abs(pencil_margin_cneg(6, 45.0 / 16.0)) <= 1e-9
    assert pencil_margin_cneg(6, 4.0) < -1e-6
    # c = +1 pencil: flat at zero down to u = -70/11, negative above it
    assert abs(pencil_margin_cpos(6, -8.0)) <= 1e-10
    assert pencil_margin_cpos(6, -5.0) < -1e-6


def test_lambda_min_lower_bounds_negated_dominance_radius():
    rng = np.random.default_rng(17)
    for _ in range(10):
        u, c = (float(v) for v in rng.uniform(-2.0, 2.0, size=2))
        t = make_tensor(6, 0.0, u, c)
        lam = lambda_min(t).lam
        # |lambda_min| never exceeds the off-diagonal absolute row sum
        assert lam >= -float(dd_bound(6, u, c)) - 1e-9
        assert lam <= 1e-10
