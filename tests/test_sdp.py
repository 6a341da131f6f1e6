"""Interior-point solver for the max-min-eigenvalue problem."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import circulant3
from circulant3 import boundary, sdp, sos, tables
from circulant3.sos import build_gram_problem
from circulant3.tensor import make_tensor

from helpers import ref_ipm_solve


def _problem(dim, constraints):
    mats, rhs = zip(*constraints)
    return sdp.SdpProblem(dim, np.array(mats, dtype=float), np.array(rhs, dtype=float))


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
    assert prob.violation(sol.G) <= 1e-9


def test_free_entries_are_used_to_raise_the_minimum_eigenvalue():
    # only G11 = 2 is pinned; the best attainable minimum eigenvalue is 2
    prob = _problem(2, [([[1.0, 0.0], [0.0, 0.0]], 2.0)])
    sol = sdp.solve(prob)
    assert abs(sol.t_star - 2.0) <= 1e-6
    assert abs(sol.G[0, 0] - 2.0) <= 1e-9


def test_perfect_power_gram_problem_is_recognized_as_psd():
    # the form (x1+x2+x3)^6 vanishes on a whole plane, so its Gram problem
    # has no interior; on the face spanned by the vector w of multinomial
    # coefficients of (x1+x2+x3)^3, a single trivial coordinate, its
    # rank-one Gram matrix w w' is exact
    t = make_tensor(6, 1, 1, 1)
    prob = build_gram_problem(t.to_form())
    face = sos._face(t)
    assert [K.shape[1] for K in face] == [1, 0, 0]
    sol = sdp.solve(sos._restrict(6, prob, face))
    assert sol.t_star >= -1e-9
    G = sos._lift(6, sol.G, face)
    w = np.array([math.comb(3, a) * math.comb(3 - a, b)
                  for a, b, _ in sos.MonomialBasis.for_half_degree(3).monos])
    assert np.allclose(G, np.outer(w, w), rtol=0.0, atol=1e-12)
    ok, viol = sdp.check_certificate(G, prob, tol=1e-7)
    assert ok, f"violation {viol:.3e}"


def test_interior_point_run_reaches_the_optimum_above_the_threshold():
    # above N the Gram problem has an interior and the loop alone must
    # close the gap; stepping the primal t with the dual step length let
    # the primal residual grow, and the loop stopped after 12 iterations
    # at t* = -9e-13 against a dual bound of 3.75
    prob = build_gram_problem(make_tensor(6, 26, Fraction(225, 16), -1).to_form())
    sol = sdp.solve(prob)
    assert sol.t_star >= 0.65
    assert abs(sol.dual_obj - sol.t_star) <= 1e-5


def test_dependent_constraints_are_rejected_at_construction():
    # a zero constraint matrix is refused before any solve
    with pytest.raises(ValueError, match="nonzero"):
        _problem(2, [([[1.0, 0.0], [0.0, 0.0]], 1.0), ([[0.0, 0.0], [0.0, 0.0]], 0.0)])


def test_inconsistent_constraints_are_reported():
    # a duplicated row with a different right-hand side is refused at
    # construction, so solve never sees the inconsistent system
    with pytest.raises(ValueError, match="orthogonal"):
        _problem(1, [([[1.0]], 1.0), ([[1.0]], 2.0)])


def test_gram_structured_inconsistent_system_is_reported():
    # the m = 6 Gram system plus the sum of two of its constraints: with
    # the matching right-hand side the extra row is redundant, with the
    # sum off by one the system has no solution; both are refused at
    # construction because the extra row is not orthogonal to the others
    base = build_gram_problem(make_tensor(6, 1, 1, 1).to_form())
    A, b = base.coeffs, base.rhs
    coeffs = np.concatenate([A, (A[3] + A[7])[None]])
    for extra in (b[3] + b[7], b[3] + b[7] + 1.0):
        with pytest.raises(ValueError, match="orthogonal"):
            sdp.SdpProblem(base.dim, coeffs, np.append(b, extra))


def test_monotone_in_the_diagonal_shift():
    # raising the diagonal entry d adds d * (x1^m + x2^m + x3^m) to the
    # form, which can only raise the best attainable minimum eigenvalue
    values = []
    for d in (60.0, 62.0, 64.0):
        prob = build_gram_problem(make_tensor(6, d, -1, 0).to_form())
        values.append(sdp.solve(prob).t_star)
    assert values[0] <= values[1] + 1e-9
    assert values[1] <= values[2] + 1e-9
    assert values[2] - values[0] > 1e-3
    # d = 62 is the exact threshold: the optimum is essentially zero
    assert abs(values[1]) <= 1e-6


def test_deterministic_across_repeat_solves():
    prob = build_gram_problem(make_tensor(6, 2.0, 1.0, -1.0).to_form())
    s1 = sdp.solve(prob)
    s2 = sdp.solve(prob)
    assert s1.status == s2.status
    assert s1.iterations == s2.iterations
    assert abs(s1.t_star - s2.t_star) <= 1e-12
    assert np.array_equal(s1.G, s2.G)


def test_problem_validation():
    with pytest.raises(ValueError):
        _problem(2, [([[0.0, 1.0], [0.5, 0.0]], 1.0)])  # asymmetric
    with pytest.raises(ValueError, match="symmetric"):
        # within numpy's default relative tolerance of 1e-5, not 1e-12
        _problem(2, [([[0.0, 1.0], [1.0 + 5e-6, 0.0]], 1.0)])
    with pytest.raises(ValueError):
        sdp.SdpProblem(2, np.zeros((1, 2, 2)), np.zeros(2))  # rhs length
    with pytest.raises(ValueError):
        sdp.SdpProblem(0, np.zeros((1, 0, 0)), np.zeros(1))
    with pytest.raises(ValueError):
        _problem(1, [([[np.inf]], 1.0)])
    with pytest.raises(ValueError):
        sdp.SdpProblem(1, np.zeros((0, 1, 1)), np.zeros(0))  # empty


def test_constraints_with_zero_trace_end_the_run_as_a_breakdown():
    # with every tr(A_l) zero, or so small that c' M^-1 c underflows, the
    # Newton system cannot fix the step in t; the division by c' M^-1 c
    # raised ZeroDivisionError
    for corner in (0.0, 1e-300):
        sol = sdp.solve(sdp.SdpProblem(2, [[[corner, 1.0], [1.0, 0.0]]], [1.0]))
        assert (sol.status, sol.stop) == ("max-iterations", "breakdown")


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


def _one_step_length(dS, chol):
    # the one-matrix formula: two solves against one Cholesky factor, then
    # the smallest eigenvalue of the symmetrized L^-1 dS L^-T
    Y = np.linalg.solve(chol, dS)
    Y = np.linalg.solve(chol, Y.T).T
    beta = np.linalg.eigvalsh(0.5 * (Y + Y.T))[0]
    return 1.0 if beta >= -1e-16 else min(1.0, 0.98 / (-beta))


def test_stacked_step_lengths_equal_the_one_matrix_formula_bit_for_bit():
    rng = np.random.default_rng(13)
    for n in (1, 2, 7, 15, 33):
        for _ in range(4):
            B, C = rng.standard_normal((2, n, n))
            Lx = np.linalg.cholesky(B @ B.T + 1e-3 * np.eye(n))
            Lz = np.linalg.cholesky(C @ C.T + 1e-3 * np.eye(n))
            dX, dZ = rng.standard_normal((2, n, n))
            dX, dZ = dX + dX.T, dZ + dZ.T
            assert sdp._step_lengths(dX, dZ, np.stack([Lx, Lz])) == (
                _one_step_length(dX, Lx), _one_step_length(dZ, Lz))
    # a PSD direction never leaves the cone: the full step is taken
    D = rng.standard_normal((5, 5))
    assert sdp._step_lengths(D @ D.T, np.eye(5), np.stack([np.eye(5)] * 2)) == (1.0, 1.0)


def _face_problem(m, d, u, c):
    # the problem is_sos solves on the face: the S3-orbit sums of the
    # constraints, restricted to the face's coordinates in the order's
    # isotypic components
    t = make_tensor(m, d, u, c)
    return sos._restrict(m, build_gram_problem(t.to_form()), sos._face(t))


def _at_threshold(m, u, c):
    return _face_problem(m, boundary.n_value(m, u, c).value, u, c)


def _off_diagonal(prob):
    flat = prob.coeffs.reshape(len(prob.rhs), -1)
    gram = flat @ flat.T
    return np.max(np.abs(gram - np.diag(np.diag(gram)))) / np.max(np.diag(gram))


def test_every_problem_the_package_builds_has_orthogonal_constraints():
    # the solver's precondition: full Gram problems, and the face problems
    # is_sos solves at three thresholds and on the rank-one face w of
    # (x1+x2+x3)^6
    for m in range(4, 16, 2):
        full = build_gram_problem(make_tensor(m, 1, 0.5, -1).to_form())
        assert _off_diagonal(full) == 0.0
    faces = [_at_threshold(6, 5, -1), _face_problem(6, 1, 1, 1),
             _at_threshold(8, 20, 1), _at_threshold(14, 400, -1)]
    for prob in faces:
        assert _off_diagonal(prob) <= 1e-12


def test_with_rhs_shares_the_checked_matrices_and_checks_the_new_rhs():
    prob = _problem(2, [([[1.0, 0.0], [0.0, 0.0]], 1.0), ([[0.0, 0.0], [0.0, 1.0]], 2.0)])
    other = prob.with_rhs([3.0, 4.0])
    assert other.dim == 2 and other.coeffs is prob.coeffs
    assert other.rhs.tolist() == [3.0, 4.0] and prob.rhs.tolist() == [1.0, 2.0]
    for bad in ([1.0], [1.0, 2.0, 3.0], [1.0, math.nan], [math.inf, 1.0]):
        with pytest.raises(ValueError):
            prob.with_rhs(bad)


def test_stop_records_why_the_loop_ended(monkeypatch):
    # three table rows at their thresholds, run to the optimum: the face
    # problems of (8, 483/32, 483/64, -1) and (6, 45/8, 45/16, -1) meet the
    # stopping rule, and that of row (2, 6, 5, -1) ends on the stall
    # counter well inside the budget
    sol = sdp.solve(_face_problem(8, Fraction(483, 32), Fraction(483, 64), -1))
    assert (sol.status, sol.stop) == ("optimal", "converged")
    sol = sdp.solve(_face_problem(6, Fraction(45, 8), Fraction(45, 16), -1))
    assert (sol.status, sol.stop) == ("optimal", "converged")
    sol = sdp.solve(_at_threshold(6, 5, -1))
    assert (sol.status, sol.stop, sol.iterations) == ("max-iterations", "stall", 27)
    # the full problem of an m = 8 point 3% below N on the linear c = 1
    # branch breaks down (after 15 iterations at 1 and at 2 BLAS threads)
    prob = build_gram_problem(make_tensor(8, Fraction(643789, 160), Fraction(-383, 16), 1).to_form())
    sol = sdp.solve(prob)
    assert (sol.status, sol.stop, sol.iterations) == ("max-iterations", "breakdown", 15)
    # the full problem above N stalls too, and runs out of a budget of 2
    prob = build_gram_problem(make_tensor(6, 26, Fraction(225, 16), -1).to_form())
    assert sdp.solve(prob).stop == "stall"
    monkeypatch.setattr(sdp, "_MAX_ITER", 2)
    sol = sdp.solve(prob)
    assert (sol.status, sol.stop, sol.iterations) == ("max-iterations", "budget", 2)


_FACE_14_CHILD = """
import circulant3
from circulant3 import boundary, sdp, sos, tables
from circulant3.sos import build_gram_problem
from circulant3.tensor import make_tensor
t = make_tensor(14, boundary.n_value(14, 1, 0).value, 1, 0)
sol = sdp.solve(sos._restrict(14, build_gram_problem(t.to_form()), sos._face(t)))
print(sol.stop, sol.iterations)
"""


def test_a_face_solve_with_a_target_stops_at_its_first_psd_iterate():
    # on the face of table row (14, 1, 0) at N every Gram matrix lifted
    # from H has the zeros' monomial vectors in its kernel, so raising
    # lambda_min(H) buys the certificate no margin; run to the optimum the
    # loop stalls, with target 0 it ends on the first iterate or predictor
    # point whose projection is PSD.
    # Where the stall falls can move with the BLAS thread count, so the
    # untargeted run is pinned in a child process held to one thread
    src = str(Path(circulant3.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", _FACE_14_CHILD],
        capture_output=True, text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["stall", "37"]
    m, u, c = 14, 1, 0
    t = make_tensor(m, boundary.n_value(m, u, c).value, u, c)
    full = build_gram_problem(t.to_form())
    face = sos._face(t)
    sol = sdp.solve(sos._restrict(m, full, face), target=0.0)
    assert (sol.status, sol.stop) == ("feasible", "feasible")
    assert sol.iterations <= 9
    # the returned matrix is the one that was checked
    assert sol.t_star >= 0.0
    assert sol.t_star == float(np.linalg.eigvalsh(sol.G)[0])
    ok, viol = sdp.check_certificate(
        sos._lift(m, sol.G, face), full, tol=sos.DEFAULT_SOS_TOL * full.scale())
    assert ok, f"violation {viol:.3e}"


def test_the_block_face_of_row_14_1_0_stops_at_a_predictor_point(monkeypatch):
    # the face problem is_sos solves for table row (14, 1, 0) at N: its
    # ninth predictor point projects PSD, so the run stops there, before
    # that iteration's corrector; step lengths are taken twice per
    # iteration and once more for that predictor, 17 times in all
    lengths = []
    step_lengths = sdp._step_lengths
    monkeypatch.setattr(sdp, "_step_lengths", lambda *a: lengths.append(1) or step_lengths(*a))
    m, u, c = 14, 1, 0
    t = make_tensor(m, boundary.n_value(m, u, c).value, u, c)
    full = build_gram_problem(t.to_form())
    face = sos._face(t)
    sol = sdp.solve(sos._restrict(m, full, face), target=0.0)
    assert (sol.status, sol.stop, sol.iterations, len(lengths)) == ("feasible", "feasible", 9, 17)
    assert sol.t_star == float(np.linalg.eigvalsh(sol.G)[0]) >= 0.0
    ok, viol = sdp.check_certificate(
        sos._lift(m, sol.G, face), full, tol=sos.DEFAULT_SOS_TOL * full.scale())
    assert ok, f"violation {viol:.3e}"


def test_every_table_face_solve_stops_feasible_within_its_iteration_bound(monkeypatch):
    # `table --all` takes 45 face solves: one at N on each of its 37 eigen
    # and unit-u rows, and one at each of the two breakpoints of the four
    # orders with linear rows, whose certificates the 24 linear rows are
    # combined from. Each stops at its first projected iterate or predictor
    # point that is PSD: 169 iterations at 1 and 2 BLAS threads (207 in 61
    # solves when each linear row had its own). Which candidate passes
    # first moves with rounding, as the threshold sweep's verdicts may, so
    # at any other thread count the bound is looser
    solves = []
    solve = sdp.solve
    monkeypatch.setattr(sdp, "solve", lambda *a, **k: solves.append(solve(*a, **k)) or solves[-1])
    for row in tables.load_fixture():
        tables.compute_row(row)
    assert len(solves) == 45
    assert {sol.stop for sol in solves} == {"feasible"}
    bound = 172 if os.environ.get("OPENBLAS_NUM_THREADS") == "1" else 200
    assert sum(sol.iterations for sol in solves) <= bound


def test_untargeted_solves_match_the_reference_loop_bit_for_bit(monkeypatch):
    # the 154 decisions of the benchmark's sos-decide workload each take one
    # full solve with no target; the loop shares factorizations and
    # products the reference forms one at a time, and must not move a bit
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    solves = []
    solve = sdp.solve

    def spy(*args, **kwargs):
        solves.append((args, kwargs, solve(*args, **kwargs)))
        return solves[-1][2]

    monkeypatch.setattr(sdp, "solve", spy)
    for q in workloads.sos_queries(1):
        try:
            sos.is_sos(make_tensor(q["m"], Fraction(q["d"]), Fraction(q["u"]), q["c"]))
        except sos.SosUndecided:
            pass
    assert len(solves) == 154 and all(len(a) == 1 and k == {} for a, k, _ in solves)
    for (prob,), _, sol in solves:
        ref = ref_ipm_solve(prob)
        assert sol.G.tobytes() == ref[0].tobytes()
        assert (sol.t_star, sol.status, sol.iterations, sol.dual_obj, sol.precision, sol.stop) == ref[1:]


def test_a_face_without_a_psd_point_runs_as_without_a_target(monkeypatch):
    # at the breakpoint rows the form vanishes on two orbits, of (1, 1, 1)
    # and of (-2, -2, 1); the face cut by (1, 1, 1) alone holds no PSD
    # point (t*/scale -9.4e-11 and -1.6e-9), so target 0 is never met and
    # the run is the untargeted one
    monkeypatch.setattr(sos, "_zeros", lambda t: [(1.0, 1.0, 1.0)])
    for m, u, iterations in ((6, Fraction(-70, 11), 18), (8, Fraction(-686, 43), 25)):
        prob = _at_threshold(m, u, 1)
        plain, targeted = sdp.solve(prob), sdp.solve(prob, target=0.0)
        assert (plain.stop, plain.iterations) == ("stall", iterations)
        assert plain.t_star < 0.0
        assert (targeted.status, targeted.stop, targeted.iterations) == (
            plain.status, plain.stop, plain.iterations)
        assert np.array_equal(targeted.G, plain.G)


def test_a_projection_beyond_the_float_range_is_a_breakdown():
    # the form at (6, 1e308, 1, 1) has finite coefficients, but projecting
    # an iterate onto its constraints overflows: the run ends on
    # "breakdown" with an enclosure that decides nothing, both when the
    # target check projects (at the first iteration) and at the end
    prob = build_gram_problem(make_tensor(6, 1e308, 1, 1).to_form())
    with np.errstate(over="ignore", invalid="ignore"):
        for target, iterations in ((0.0, 1), (math.inf, 10)):
            sol = sdp.solve(prob, target=target)
            assert (sol.status, sol.stop, sol.iterations) == (
                "max-iterations", "breakdown", iterations
            )
            assert sol.t_star == -math.inf and sol.precision == math.inf
