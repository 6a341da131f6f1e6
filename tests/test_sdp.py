"""Interior-point solver for the max-min-eigenvalue problem."""

import numpy as np
import pytest

from circulant3 import sdp
from circulant3.sos import build_gram_problem
from circulant3.tensor import make_tensor


def _problem(dim, constraints):
    return sdp.SdpProblem.from_constraints(dim, constraints)


def test_scalar_problem_attains_fixed_value():
    prob = _problem(1, [([[1.0]], 5.0)])
    sol = sdp.solve(prob)
    assert sol.status == "optimal"
    assert abs(sol.t_star - 5.0) <= 1e-9
    assert abs(sol.G[0, 0] - 5.0) <= 1e-9
    assert sol.precision <= 1e-8


def test_two_by_two_problem_with_negative_optimum():
    # G is fully pinned to [[1, 2], [2, 1]] with eigenvalues {3, -1}
    prob = _problem(
        2,
        [
            ([[1.0, 0.0], [0.0, 0.0]], 1.0),
            ([[0.0, 0.0], [0.0, 1.0]], 1.0),
            ([[0.0, 1.0], [1.0, 0.0]], 4.0),
        ],
    )
    sol = sdp.solve(prob)
    assert abs(sol.t_star - (-1.0)) <= 1e-8
    assert abs(sol.t_star - (-1.0)) <= max(sol.precision, 1e-12)
    assert sol.primal_residual <= 1e-9


def test_free_entries_are_used_to_raise_the_minimum_eigenvalue():
    # only G11 = 2 is pinned; the best attainable minimum eigenvalue is 2
    prob = _problem(2, [([[1.0, 0.0], [0.0, 0.0]], 2.0)])
    sol = sdp.solve(prob)
    assert abs(sol.t_star - 2.0) <= 1e-6
    assert abs(sol.G[0, 0] - 2.0) <= 1e-9


def test_perfect_power_gram_problem_is_recognized_as_psd(monkeypatch):
    # the form (x1+x2+x3)^6 has a rank-one Gram certificate but sits on
    # a face where strict complementarity fails; the polish step must
    # still return a feasible G with nonnegative minimum eigenvalue.  Its
    # rank-one cut gives a tall Jacobian (N*r = 10 < L = 28), whose
    # Gauss-Newton steps are taken by lstsq
    prob = build_gram_problem(make_tensor(6, 1, 1, 1).to_form())
    shapes = []
    step = sdp._gauss_newton_step

    def spy(J, F):
        shapes.append(J.shape)
        return step(J, F)

    monkeypatch.setattr(sdp, "_gauss_newton_step", spy)
    sol = sdp.solve(prob, tol=1e-11, max_iter=150)
    assert (28, 10) in shapes
    assert sol.stage == "polish"
    assert sol.t_star >= -1e-9
    ok, viol = sdp.check_certificate(sol.G, prob, tol=1e-7)
    assert ok, f"violation {viol:.3e}"


def _gram_jacobian(r, scales=None):
    # the Jacobian of Y -> <A_l, Y Y'> for the m = 6 Gram problem at a
    # fixed random Y with r columns, each column times its entry of
    # scales, and a fixed random residual
    prob = build_gram_problem(make_tensor(6, 1, 1, 1).to_form())
    L, N = prob.coeffs.shape[0], prob.dim
    rng = np.random.default_rng(1)
    Y = rng.standard_normal((N, r)) * (np.ones(r) if scales is None else np.asarray(scales))
    J = 2.0 * (prob.coeffs.reshape(L * N, N) @ Y).reshape(L, N * r)
    return J, rng.standard_normal(L)


def _count_lstsq(monkeypatch):
    calls = []
    lstsq = np.linalg.lstsq

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    return calls


@pytest.mark.parametrize(
    "scales, rel",
    [
        ((1.0, 1.0, 1.0, 1.0), 1e-12),
        # column norms over six decades, as the polish's Y = V sqrt(w) can
        # have them: J J' has a pivot ratio of 4e-10, above the floor, and
        # the first Cholesky solve is off by 6e-5, one refinement step
        # later still by 5e-9
        ((1.0, 1e-4, 1e-5, 1e-6), 1e-9),
    ],
    ids=["unit-columns", "columns-over-six-decades"],
)
def test_gauss_newton_step_matches_lstsq_on_a_wide_jacobian(scales, rel, monkeypatch):
    J, F = _gram_jacobian(4, scales)
    assert J.shape == (28, 40)
    ref = np.linalg.lstsq(J, -F, rcond=None)[0]
    calls = _count_lstsq(monkeypatch)
    step = sdp._gauss_newton_step(J, F)
    assert calls == []  # solved by Cholesky on J J', not by lstsq
    assert np.linalg.norm(step - ref) <= rel * np.linalg.norm(ref)


def _zero_row(J):
    J[0] = 0.0  # a zero pivot: Cholesky of J J' raises


def _mean_row(J):
    # rank 27 of 28, yet Cholesky of J J' completes on rounding noise
    # with a pivot near 1e-18 of the largest; its step is off by more
    # than 100%, so only the pivot floor keeps it out
    J[-1] = J[:-1].mean(axis=0)


@pytest.mark.parametrize(
    "r, damage",
    [(4, _zero_row), (4, _mean_row), (3, None), (2, None)],
    ids=["wide-cholesky-raises", "wide-mean-row", "wide-rank-deficient", "tall-rank-deficient"],
)
def test_gauss_newton_step_falls_back_to_lstsq(r, damage, monkeypatch):
    # r = 3 (28 x 30) and r = 2 (28 x 20) are rank-deficient by
    # construction: Y -> Y K with K skew-symmetric leaves Y Y' unchanged,
    # so J has rank at most N*r - r(r-1)/2, 27 and 19 here
    J, F = _gram_jacobian(r)
    if damage is not None:
        damage(J)
    ref = np.linalg.lstsq(J, -F, rcond=None)[0]
    calls = _count_lstsq(monkeypatch)
    step = sdp._gauss_newton_step(J, F)
    assert calls == [J.shape]
    assert np.array_equal(step, ref)


def test_inconsistent_constraints_are_reported():
    prob = _problem(1, [([[1.0]], 1.0), ([[1.0]], 2.0)])
    sol = sdp.solve(prob)
    assert sol.status == "infeasible"


def test_gram_structured_inconsistent_system_is_reported():
    # the m = 6 Gram system plus the sum of two of its constraints: with
    # the matching right-hand side the extra row is redundant, with the
    # sum off by one the system has no solution
    base = build_gram_problem(make_tensor(6, 1, 1, 1).to_form())
    A, b = base.coeffs, base.rhs
    coeffs = np.concatenate([A, (A[3] + A[7])[None]])
    consistent = sdp.SdpProblem(base.dim, coeffs, np.append(b, b[3] + b[7]))
    assert sdp.solve(consistent, tol=1e-11, max_iter=150).status != "infeasible"
    sol = sdp.solve(sdp.SdpProblem(base.dim, coeffs, np.append(b, b[3] + b[7] + 1.0)))
    assert sol.status == "infeasible"
    assert sol.iterations == 0
    assert sol.primal_residual > 0.1


def test_stage_names_the_candidate_that_produced_g():
    # G is fully pinned, so no repair candidate can beat the projected
    # interior-point iterate
    prob = _problem(
        2,
        [
            ([[1.0, 0.0], [0.0, 0.0]], 1.0),
            ([[0.0, 0.0], [0.0, 1.0]], 1.0),
            ([[0.0, 1.0], [1.0, 0.0]], 4.0),
        ],
    )
    assert sdp.solve(prob).stage == "ipm"


def test_monotone_in_the_diagonal_shift():
    # raising the diagonal entry d adds d * (x1^m + x2^m + x3^m) to the
    # form, which can only raise the best attainable minimum eigenvalue
    values = []
    for d in (60.0, 62.0, 64.0):
        prob = build_gram_problem(make_tensor(6, d, -1, 0).to_form())
        values.append(sdp.solve(prob, tol=1e-11, max_iter=150).t_star)
    assert values[0] <= values[1] + 1e-9
    assert values[1] <= values[2] + 1e-9
    assert values[2] - values[0] > 1e-3
    # d = 62 is the exact threshold: the optimum is essentially zero
    assert abs(values[1]) <= 1e-6


def test_deterministic_across_repeat_solves():
    prob = build_gram_problem(make_tensor(6, 2.0, 1.0, -1.0).to_form())
    s1 = sdp.solve(prob, tol=1e-11, max_iter=150)
    s2 = sdp.solve(prob, tol=1e-11, max_iter=150)
    assert s1.status == s2.status
    assert s1.iterations == s2.iterations
    assert abs(s1.t_star - s2.t_star) <= 1e-12
    assert np.array_equal(s1.G, s2.G)


def test_problem_validation():
    with pytest.raises(ValueError):
        _problem(2, [([[0.0, 1.0], [0.5, 0.0]], 1.0)])  # asymmetric
    with pytest.raises(ValueError):
        sdp.SdpProblem(2, np.zeros((1, 2, 2)), np.zeros(2))  # rhs length
    with pytest.raises(ValueError):
        sdp.SdpProblem(0, np.zeros((1, 0, 0)), np.zeros(1))
    with pytest.raises(ValueError):
        _problem(1, [([[np.inf]], 1.0)])
    with pytest.raises(ValueError):
        sdp.SdpProblem(1, np.zeros((0, 1, 1)), np.zeros(0))  # empty


def test_check_certificate_rejects_bad_candidates():
    prob = _problem(2, [([[1.0, 0.0], [0.0, 0.0]], 1.0)])
    ok, viol = sdp.check_certificate(np.array([[2.0, 0.0], [0.0, 1.0]]), prob)
    assert not ok and abs(viol - 1.0) <= 1e-12  # constraint off by 1
    ok, viol = sdp.check_certificate(np.array([[1.0, 0.0], [0.0, -0.5]]), prob)
    assert not ok and abs(viol - 0.5) <= 1e-12  # negative eigenvalue
    ok, _ = sdp.check_certificate(np.array([[1.0, 0.0], [0.0, 3.0]]), prob)
    assert ok
    with pytest.raises(ValueError):
        sdp.check_certificate(np.array([[1.0, 0.5], [0.0, 1.0]]), prob)
    with pytest.raises(ValueError):
        sdp.check_certificate(np.eye(3), prob)


def test_precision_encloses_the_true_error_on_solved_cases():
    prob = _problem(
        2,
        [
            ([[1.0, 0.0], [0.0, 0.0]], 1.0),
            ([[0.0, 0.0], [0.0, 1.0]], 1.0),
            ([[0.0, 1.0], [1.0, 0.0]], 4.0),
        ],
    )
    sol = sdp.solve(prob)
    assert abs(sol.t_star - (-1.0)) <= sol.precision
    assert sol.gap == sol.dual_obj - sol.t_star
