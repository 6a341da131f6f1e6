"""SOS membership, threshold bisection, and certificate plumbing."""

import csv
import dataclasses
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from circulant3 import kernels, sdp, sos
from circulant3 import boundary, tables
from circulant3.eigen import SolverConfig, SolverFailure, lambda_min
from circulant3.tensor import dd_bound, make_tensor


def test_a_form_near_the_float_range_is_undecided():
    # its coefficients are finite, so is_sos builds the Gram problem; the
    # solver's projection overflows, and the verdict is undecided rather
    # than an error from the final eigenvalue call
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(sos.SosUndecided) as exc_info:
            sos.is_sos(make_tensor(6, 1e308, 1, 1))
    sol = exc_info.value.solution
    assert sol.stop == "breakdown"
    assert sol.t_star == -math.inf and sol.precision == math.inf


def test_an_unprojectable_breakdown_says_so_instead_of_an_enclosure():
    # the enclosure [-inf, -inf + inf] read "[-inf, nan]" in the message
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(sos.SosUndecided) as exc_info:
            sos.is_sos(make_tensor(6, 1e308, 1, 1))
    message = str(exc_info.value)
    assert "nan" not in message and "enclosed" not in message
    assert "broke down" in message and "project" in message


@pytest.mark.parametrize("s", [1.0, 1e160, 1e300])
def test_verdicts_on_both_sides_of_n_hold_where_the_gram_norm_overflows(s):
    # past a scale of about 1e154 the Frobenius norm of the finite G
    # overflowed, its infinite precision made the "no" below N undecided,
    # and numpy warned of the overflow
    n = float(boundary.n_value(6, 10, 1).value)
    assert sos.is_sos(make_tensor(6, 0.75 * n * s, 10 * s, s)) == (False, None)
    ok, cert = sos.is_sos(make_tensor(6, 1.25 * n * s, 10 * s, s))
    assert ok and cert.min_eig >= 0.0


def test_is_sos_accepts_known_members():
    # the two m = 8 points lie above N; the interior-point run stops on its
    # stall counter there, at t* above 1.6, and its projected iterate is the
    # certificate
    for m, d, u, c in [
        (6, 1, 1, 1),
        (6, 242, -1, -1),
        (4, 14, -1, 0),
        (8, 40, 20, 1),
        (8, Fraction(130348081634915267, 1759218604441600), Fraction(2415, 64), -1),
    ]:
        ok, cert = sos.is_sos(make_tensor(m, d, u, c))
        assert ok
        assert cert is not None
        assert cert.min_eig >= 0.0
        assert cert.reconstruction_error <= 1e-6


def test_is_sos_rejects_known_non_members():
    # the last three lie below N on the c = -1 slice (at the breakpoint u0
    # for m = 8 and 12); a check band that widened with the solver's
    # precision accepted the first two with certificates off by 5.9e-3 and
    # 1.3e-4 of the largest coefficient
    for m, d, u, c in [
        (6, 1.70, 1, 0),
        (4, 13.9, -1, 0),
        (6, 0, 1, 1),
        (8, Fraction(29, 2), Fraction(483, 64), -1),
        (12, 80, Fraction(43263, 1024), -1),
        (12, Fraction(714303615968999931, 1759218604441600), Fraction(845, 4), -1),
    ]:
        ok, cert = sos.is_sos(make_tensor(m, d, u, c))
        assert not ok
        assert cert is None


def test_theta_does_not_widen_with_the_solver_precision(monkeypatch):
    # a solver that reports a million times less precision may turn a
    # verdict into "undecided", but never into "yes"
    solve = sdp.solve

    def imprecise(problem):
        sol = solve(problem)
        return dataclasses.replace(sol, precision=1e6 * sol.precision)

    monkeypatch.setattr(sdp, "solve", imprecise)
    try:
        ok, _ = sos.is_sos(make_tensor(8, Fraction(29, 2), Fraction(483, 64), -1))
    except sos.SosUndecided:
        ok = False
    assert not ok


@pytest.mark.parametrize("m, d, u, c, face", [
    (6, 26, Fraction(225, 16), -1, False),
    (6, 242, -1, -1, True),
], ids=["full", "face"])
def test_a_certificate_that_fails_the_independent_check_is_undecided(
    m, d, u, c, face, monkeypatch
):
    # a solver whose G misses a constraint by far more than theta, on the
    # full route and on a threshold face: the independent check must turn
    # the "yes" the solver's t* suggests into "undecided"
    t = make_tensor(m, d, u, c)
    assert (sos._face(t) is not None) == face
    solve = sdp.solve

    def off_by_one_entry(problem, *args, **kwargs):
        sol = solve(problem, *args, **kwargs)
        G = sol.G.copy()
        G[0, 0] += 1e-3 * problem.scale()
        return dataclasses.replace(sol, G=G)

    monkeypatch.setattr(sos.sdp, "solve", off_by_one_entry)
    with pytest.raises(sos.SosUndecided, match="certificate failed independent verification"):
        sos.is_sos(t)


def test_is_sos_rejects_odd_or_small_order():
    with pytest.raises(ValueError):
        sos.is_sos(make_tensor(3, 1, 0, 0))


def test_is_sos_rejects_a_tolerance_that_is_not_finite_and_positive():
    # tol = inf said "yes" to A(6, 0, 5, -1), which is not even PSD (N is
    # about 9.43), and tol = -10 said "no" to the SOS form A(6, 242, -1, -1)
    for tol in (math.inf, math.nan, 0.0, -10.0):
        for t in (make_tensor(6, 0, 5, -1), make_tensor(6, 242, -1, -1)):
            with pytest.raises(ValueError, match="tol"):
                sos.is_sos(t, tol)
    with pytest.raises(ValueError, match="sos_tol"):
        boundary.analyze(6, 5, -1, cfg=SolverConfig(sos_tol=math.inf))


def test_m_value_exact_branches_return_exact_scalars(monkeypatch):
    assert sos.m_value(6, -1, 0) == 62
    assert sos.m_value(6, 0, -1) == 180
    assert sos.m_value(6, -1, -1) == 242
    assert sos.m_value(4, -2, -3) == 2 * 14 + 3 * 12
    got = sos.m_value(6, Fraction(1, 2), Fraction(1, 2))
    assert got == Fraction(1, 2)
    with pytest.raises(ValueError):
        sos.m_value(5, 1, 1)
    # a NaN or infinite tol_d would skip the bisection loop and return the
    # diagonal-dominance bound; a bad tolerance is rejected when its config
    # is built, before any scan or SDP runs
    calls = []
    for module, name in ((sdp, "solve"), (kernels, "scan_two_equal"), (kernels, "section_minima")):
        monkeypatch.setattr(module, name, lambda *args, _n=name: calls.append(_n))
    entry_points = (
        lambda tols: sos.m_value(6, 1, 0, cfg=SolverConfig(**tols)),
        lambda tols: sos.m_value(6, 5, -1, cfg=SolverConfig(**tols)),
        lambda tols: sos.certify_pns_free(6, 5, -1, cfg=SolverConfig(**tols)),
        lambda tols: boundary.analyze(6, 5, -1, cfg=SolverConfig(**tols)),
    )
    for bad in (0.0, math.nan, math.inf):
        for entry in entry_points:
            for name in ("tol_d", "sos_tol"):
                with pytest.raises(ValueError, match=name):
                    entry({name: bad})
    assert calls == []


def test_m_value_bisection_matches_reference_points():
    # unit-u slice at order 6, value known to 1e-9 from an independent
    # high-precision minimization
    got = float(sos.m_value(6, 1, 0))
    assert abs(got - 1.7373484717783816) <= 1e-6
    # two eigen-branch points cross-checked against the shipped tables
    assert abs(float(sos.m_value(6, 5, -1)) - 9.4254465011842588) <= 1e-4
    assert abs(float(sos.m_value(6, 10, 1)) - 16.6347899482) <= 1e-4


def test_m_value_computes_n_with_the_callers_config():
    cfg = SolverConfig(eigen_tol=1e-300)
    with pytest.raises(SolverFailure):
        boundary.n_value(6, 5, -1, cfg)
    with pytest.raises(SolverFailure):
        sos.m_value(6, 5, -1, cfg=cfg)


def test_upward_closure_in_the_diagonal_entry():
    # verdicts along an increasing diagonal sweep never flip back down
    verdicts = []
    for d in (13.5, 13.9, 14.0, 14.5, 20.0):
        ok, _ = sos.is_sos(make_tensor(4, d, -1, 0))
        verdicts.append(ok)
    assert verdicts == sorted(verdicts)
    assert verdicts[0] is False and verdicts[-1] is True


def test_threshold_scales_linearly_with_the_off_diagonal_pair():
    assert sos.m_value(6, Fraction(-1, 10), Fraction(-1, 10)) == Fraction(121, 5)
    base = float(sos.m_value(6, 1, 0))
    scaled = float(sos.m_value(6, 10, 0))
    assert abs(scaled - 10.0 * base) <= 1e-4


def test_certificate_round_trips_through_json():
    ok, cert = sos.is_sos(make_tensor(6, 2, 1, 1))
    assert ok
    doc = cert.to_json_dict()
    text = json.dumps(doc)
    back = sos.GramCertificate.from_json_dict(json.loads(text))
    assert back.basis == cert.basis
    assert np.array_equal(back.G, cert.G)
    assert back.min_eig == cert.min_eig
    assert back.reconstruction_error == cert.reconstruction_error
    # a short or long lower triangle, or a basis that is not the
    # half-degree's, is rejected instead of read partly
    lower = doc["gram_lower_triangle"]
    for bad in (
        {"gram_lower_triangle": lower[:-1]},
        {"gram_lower_triangle": lower + [0.0]},
        {"half_degree": 2},
        {"half_degree": 4},
        {"basis": doc["basis"][::-1]},
    ):
        with pytest.raises(ValueError):
            sos.GramCertificate.from_json_dict({**doc, **bad})


def test_gram_problem_shape_and_rhs():
    form = make_tensor(4, 3, -1, 2).to_form()
    prob = sos.build_gram_problem(form)
    assert prob.dim == 6  # monomials of degree 2 in three variables
    assert prob.coeffs.shape[0] == 15  # exponent triples of degree 4
    # each rhs entry is the corresponding form coefficient
    total = float(np.sum(prob.rhs))
    assert abs(total - float(form((1.0, 1.0, 1.0)))) <= 1e-9


def test_sandwich_between_psd_threshold_and_dominance_bound():
    # M is positively homogeneous: M(m, u, c) = |c| M(m, u / |c|, sign c)
    rng = np.random.default_rng(31)
    for _ in range(5):
        u, c = (float(v) for v in rng.uniform(-1.5, 1.5, size=2))
        psd_threshold = -lambda_min(make_tensor(4, 0.0, u, c)).lam
        got = abs(c) * float(sos.m_value(4, u / abs(c), 1 if c > 0 else -1))
        assert got >= psd_threshold - 1e-6
        assert got <= float(dd_bound(4, u, c)) + 1e-6


def test_certify_bundle_confirms_exact_point_and_reparses():
    bundle = sos.certify_pns_free(6, -1, 0)
    assert bundle.status == "CONFIRMED"
    assert bundle.critical_value == 62.0
    assert bundle.certificate is not None
    assert bundle.minimizer is not None
    assert abs(bundle.minimizer_value) <= 1e-6
    assert bundle.minimizer_residual <= 1e-7
    doc = json.loads(json.dumps(bundle.to_json_dict()))
    assert doc == bundle.to_json_dict()
    assert doc["status"] == "CONFIRMED"
    # the embedded certificate re-verifies against a freshly built problem
    cert = sos.GramCertificate.from_json_dict(doc["certificate"])
    prob = sos.build_gram_problem(
        make_tensor(6, 62.0 + bundle.tol_d, -1.0, 0.0).to_form()
    )
    ok, viol = sdp.check_certificate(cert.G, prob, tol=1e-5)
    assert ok, f"violation {viol:.3e}"


def test_bundle_reuses_the_certificate_accepted_at_m(monkeypatch):
    calls = []
    is_sos = sos.is_sos

    def spy(t, *args, **kwargs):
        calls.append(float(t.d))
        return is_sos(t, *args, **kwargs)

    monkeypatch.setattr(sos, "is_sos", spy)
    bundle = sos.certify_pns_free(6, 5, -1)
    assert bundle.status == "CONFIRMED"
    assert calls.count(bundle.critical_value) == 1


def test_bundle_certificate_is_exact_at_threshold_plus_tol_d():
    # the certificate is solved at M on the face of the form's zeros and
    # shifted by tol_d on the pure-power diagonal entries, which makes it
    # an exact Gram matrix at M + tol_d, up to rounding (3e-15 relative);
    # solved at M + tol_d itself it was off by 2e-11 and 7e-11 relative
    for m, u, c in [(8, 60, -1), (8, 20, 1)]:
        bundle = sos.certify_pns_free(m, u, c)
        assert bundle.status == "CONFIRMED"
        prob = sos.build_gram_problem(
            make_tensor(m, bundle.critical_value + bundle.tol_d, u, c).to_form()
        )
        rel = 1e-12 * max(1.0, float(np.max(np.abs(prob.rhs))))
        ok, viol = sdp.check_certificate(bundle.certificate.G, prob, tol=rel)
        assert ok, f"violation {viol:.3e} at (m={m}, u={u}, c={c})"


def test_sos_undecided_carries_solver_evidence():
    err = sos.SosUndecided("msg", None)
    assert isinstance(err, RuntimeError)


# Decisions that earlier solvers got wrong after a stalled interior-point
# run, so a change to the solver can flip them: below N the answer is "no",
# above N "yes" with a certificate that passes the independent check.
# Together with the points already in test_is_sos_accepts_known_members and
# test_is_sos_rejects_known_non_members they are every decision the
# sos-decide benchmark lists as a fault.
STALL_PRONE_BELOW_N = [
    (6, Fraction(22129895754933903, 703687441776640), Fraction(315, 16), -1),
    (6, Fraction(171805702030385023, 7036874417766400), Fraction(225, 16), -1),
    (8, Fraction(31779126091371303, 351843720888320), Fraction(3381, 64), -1),
    (12, Fraction(1659467648873439, 8796093022208), Fraction(507, 4), -1),
    (12, Fraction(23180990723877969, 43980465111040), Fraction(1183, 4), -1),
    (8, 24, 16, 1),
    (8, 100, 60, -1),
    (8, 60, 40, 0),
    (12, 400, 256, 1),
    (12, 60, 40, 0),
    (12, 400, 210, -1),
]
STALL_PRONE_ABOVE_N = [
    (8, Fraction(38841154111676037, 351843720888320), Fraction(3381, 64), -1),
    (8, 110, 52, -1),
]


@pytest.mark.parametrize("m, d, u, c", STALL_PRONE_BELOW_N)
def test_stall_prone_decisions_below_n_are_rejected(m, d, u, c):
    assert sos.is_sos(make_tensor(m, d, u, c)) == (False, None)


@pytest.mark.parametrize("m, d, u, c", STALL_PRONE_ABOVE_N)
def test_stall_prone_decisions_above_n_are_certified(m, d, u, c):
    t = make_tensor(m, d, u, c)
    ok, cert = sos.is_sos(t)
    assert ok
    prob = sos.build_gram_problem(t.to_form())
    good, viol = sdp.check_certificate(cert.G, prob, tol=sos.DEFAULT_SOS_TOL * prob.scale())
    assert good, f"violation {viol:.3e}"


def test_only_face_solves_are_given_a_target(monkeypatch):
    # at a threshold is_sos solves on the face with target 0 and stops at
    # the first PSD iterate; every full problem, such as the stall-prone
    # decisions above, is solved to the optimum, whose t* is the margin
    calls = []
    solve = sdp.solve

    def spy(problem, *args, **kwargs):
        calls.append((args, kwargs))
        return solve(problem, *args, **kwargs)

    m, u, c = 14, 1, 0
    at_n = make_tensor(m, boundary.n_value(m, u, c).value, u, c)
    monkeypatch.setattr(sdp, "solve", spy)
    ok, cert = sos.is_sos(at_n)
    assert ok
    assert cert.min_eig >= 0.0
    assert cert.reconstruction_error <= 1e-12
    assert calls == [((), {"target": 0.0})]
    for m, d, u, c in STALL_PRONE_BELOW_N + STALL_PRONE_ABOVE_N:
        calls.clear()
        sos.is_sos(make_tensor(m, d, u, c))
        assert calls == [((), {})], (m, d, u, c)


def _basis_permutations(k):
    # index arrays p with (P G P')[i, j] = G[p[i], p[j]], one per
    # permutation of x1, x2, x3 acting on the degree-k monomials
    monos = sos.MonomialBasis.for_half_degree(k).monos
    return [[monos.index(tuple(e[i] for i in perm)) for e in monos]
            for perm in itertools.permutations(range(3))]


def test_a_face_is_solved_on_one_constraint_per_s3_orbit(monkeypatch):
    # at (12, N, 1, 0) the 91 exponent triples of degree 12 fall into 19
    # orbits under permuting x1, x2, x3; the face solve gets at most one
    # constraint per orbit, where restricting the full problem gave it 82,
    # on the face's isotypic blocks of widths 6, 3 and 8 (side 17, where
    # the face has side 25), and G is invariant under the permutations and
    # passes the full check at theta
    m, u, c = 12, 1, 0
    t = make_tensor(m, boundary.n_value(m, u, c).value, u, c)
    shapes = []
    solve = sdp.solve

    def spy(problem, *args, **kwargs):
        shapes.append((problem.dim, len(problem.rhs)))
        return solve(problem, *args, **kwargs)

    monkeypatch.setattr(sdp, "solve", spy)
    ok, cert = sos.is_sos(t)
    assert ok
    [(side, size)] = shapes
    assert size <= 19 and side == 17
    assert _face_dim(sos._face(t)) == 25
    G = cert.G
    for p in _basis_permutations(m // 2):
        assert np.max(np.abs(G[np.ix_(p, p)] - G)) <= 1e-14 * np.max(np.abs(G))
    full = sos.build_gram_problem(t.to_form())
    assert len(sos._gram_structure(m).orbit_sum) == 19
    good, viol = sdp.check_certificate(G, full, tol=sos.DEFAULT_SOS_TOL * full.scale())
    assert good, f"violation {viol:.3e}"


def _face_dim(face):
    # the face's side: the standard coordinates K_1 count twice, once for
    # Q_1 and once for their partners Q_2
    K_t, K_s, K_1 = face
    return K_t.shape[1] + K_s.shape[1] + 2 * K_1.shape[1]


def _face_span(m, face):
    # [Q_t K_t, Q_s K_s, Q_1 K_1, Q_2 K_1]
    Q_t, Q_s, Q_1, Q_2 = sos._gram_structure(m).isotypic
    K_t, K_s, K_1 = face
    return np.hstack([Q_t @ K_t, Q_s @ K_s, Q_1 @ K_1, Q_2 @ K_1])


# the plane x1 + x2 + x3 = 0 in the basis the package restricts the
# degree-1 permutations to: (1, -1, 0)/sqrt(2) and (1, 1, -2)/sqrt(6)
_PLANE = np.array([[1.0, 1.0], [-1.0, 1.0], [0.0, -2.0]]) / np.sqrt([2.0, 6.0])


def test_each_order_splits_its_basis_and_orbit_constraints_into_isotypic_components():
    # [Q_t Q_s Q_1 Q_2] is square and orthogonal; Q_t, Q_s and Q_1 span
    # the ranges of E_t, E_s and E_11, built here from the permutation
    # matrices, and Q_2 = E_21 Q_1; the orbit blocks are the orbit sums of
    # the constraints restricted to each component; all of it read-only
    for m in range(4, 16, 2):
        structure = sos._gram_structure(m)
        Q_t, Q_s, Q_1, Q_2 = structure.isotypic
        n = len(structure.basis)
        Q = np.hstack(structure.isotypic)
        assert Q.shape == (n, n)
        assert np.max(np.abs(Q.T @ Q - np.eye(n))) <= 1e-13
        P = np.array([np.eye(n)[p] for p in _basis_permutations(m // 2)])
        rho = np.array([_PLANE.T @ np.eye(3)[p] @ _PLANE for p in _basis_permutations(1)])
        sign = np.round(np.linalg.det(rho))
        E_t, E_s, E_11, E_21 = (np.einsum("s,sij->ij", w, P) for w in (
            np.full(6, 1 / 6), sign / 6, rho[:, 0, 0] / 3, rho[:, 1, 0] / 3))
        for E, Q_c in ((E_t, Q_t), (E_s, Q_s), (E_11, Q_1)):
            assert Q_c.shape[1] == round(np.trace(E))
            assert np.max(np.abs(E @ Q_c - Q_c), initial=0.0) <= 1e-13
        assert np.max(np.abs(Q_2 - E_21 @ Q_1)) <= 1e-13
        orbits = {}
        for row, mu in enumerate(structure.monos):
            orbits.setdefault(tuple(sorted(mu)), []).append(row)
        A = np.array([structure.problem.coeffs[rows].sum(axis=0) for rows in orbits.values()])
        C_t, C_s, C_q = structure.orbit_blocks
        assert np.max(np.abs(C_t - Q_t.T @ A @ Q_t)) <= 1e-12
        assert np.max(np.abs(C_s - Q_s.T @ A @ Q_s), initial=0.0) <= 1e-12
        assert np.max(np.abs(C_q - Q_1.T @ A @ Q_1 - Q_2.T @ A @ Q_2)) <= 1e-12
        arrays = (structure.orbit_sum,) + structure.isotypic + structure.orbit_blocks
        assert not any(array.flags.writeable for array in arrays)


def _monomial_vectors(k, zeros):
    # z(p) for every permutation p of every zero, one row each
    monos = sos.MonomialBasis.for_half_degree(k).monos
    return np.array([[p[0] ** a * p[1] ** b * p[2] ** g for a, b, g in monos]
                     for x in zeros for p in itertools.permutations(x)])


def _table_faces():
    # (m, u, c, tensor) at d = N_computed of every table row
    golden = Path(__file__).with_name("table_all.csv")
    with golden.open(encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            m, u, c = int(row["m"]), float(tables.parse_scalar(row["u"])), float(row["c"])
            yield m, row["u"], row["c"], make_tensor(m, float(row["N_computed"]), u, c)


def test_the_face_coordinates_span_the_complement_of_the_zeros_monomial_vectors():
    # on every table face and at the breakpoint rows at float(N), the
    # component coordinates span the complement of the zeros' monomial
    # vectors, taken here by one SVD of all of them with the same cut,
    # 1e-9 of the largest singular value; the face sides are those of the
    # plain face basis the per-face SVD gave (987 over the table)
    breakpoints = [(m, str(u), "1", make_tensor(m, float(boundary.n_value(m, u, 1).value),
                                                float(u), 1.0)) for m, u in BREAKPOINT_ROWS]
    dims = {}
    for m, u, c, t in [*_table_faces(), *breakpoints]:
        face = sos._face(t)
        B = _face_span(m, face)
        assert np.max(np.abs(B.T @ B - np.eye(B.shape[1]))) <= 1e-12
        Z = _monomial_vectors(m // 2, sos._zeros(t))
        U, sing, _ = np.linalg.svd(Z.T)
        V = U[:, int(np.sum(sing > 1e-9 * sing[0])):]
        assert B.shape == V.shape, (m, u, c)
        assert np.max(np.abs(B @ B.T - V @ V.T)) <= 1e-10, (m, u, c)
        dims.setdefault((m, u, c), []).append(_face_dim(face))
    assert sum(sides[0] for sides in dims.values()) == 987
    assert dims[12, "1", "0"] == [25] and dims[14, "1", "0"] == [33]
    assert dims[6, "-70/11", "1"] == [6, 6] and dims[8, "-686/43", "1"] == [11, 11]
    # the zeros of (x1+x2+x3)^6 fill a plane, and its face is the single
    # vector w of multinomial coefficients of (x1+x2+x3)^3
    face = sos._face(make_tensor(6, 1, 1, 1))
    w = np.array([math.comb(3, a) * math.comb(3 - a, b)
                  for a, b, _ in sos.MonomialBasis.for_half_degree(3).monos])
    w = w / np.linalg.norm(w)
    B = _face_span(6, face)
    assert B.shape == (10, 1) and _face_dim(face) == 1
    assert np.max(np.abs(B @ B.T - np.outer(w, w))) <= 1e-10


def _random_block_gram(rng, m, face):
    # a random symmetric H = blockdiag(H_t, H_s, H_q) and G = sos._lift(H)
    K_t, K_s, K_1 = face
    side = K_t.shape[1] + K_s.shape[1] + K_1.shape[1]
    H = rng.standard_normal((side, side))
    return sos._lift(m, H + H.T, face)


@pytest.mark.parametrize("m, u, c", [(6, 5, -1), (8, 20, 1), (12, 1, 0), (14, 3, 1)])
def test_the_block_gram_matrix_meets_every_single_full_constraint(m, u, c):
    # the face solve imposes one constraint per S3 orbit; G lifted from
    # the isotypic blocks is invariant under permuting x1, x2, x3 whatever
    # the blocks hold, so <A_nu, G> is equal across each orbit, and the
    # orbit sum fixes every single constraint, as averaging G over the six
    # permutations used to
    t = make_tensor(m, boundary.n_value(m, u, c).value, u, c)
    full = sos.build_gram_problem(t.to_form())
    face = sos._face(t)
    structure = sos._gram_structure(m)
    G = _random_block_gram(np.random.default_rng(m), m, face)
    for p in _basis_permutations(m // 2):
        assert np.max(np.abs(G[np.ix_(p, p)] - G)) <= 1e-13 * np.max(np.abs(G))
    values = np.einsum("lij,ij->l", structure.problem.coeffs, G)
    for orbit in structure.orbit_sum.astype(bool):
        assert np.ptp(values[orbit]) <= 1e-12 * np.max(np.abs(values))
    # and on the face: G z = 0 for the monomial vectors z of the zeros
    V = _face_span(m, face)
    assert np.max(np.abs(G - V @ (V.T @ G @ V) @ V.T)) <= 1e-12 * np.max(np.abs(G))
    solution = sos._solve_on_face(m, full, face)
    assert solution.stop == "feasible"
    assert full.violation(solution.G) <= 1e-9 * full.scale()


def test_a_face_with_only_a_trivial_block_still_solves():
    # (x1+x2+x3)^6 lives on the single symmetric vector w: its face has a
    # trivial block of width 1 and empty sign and standard blocks, and the
    # block problem is one constraint on a 1 x 1 matrix
    t = make_tensor(6, 1, 1, 1)
    face = sos._face(t)
    assert [K.shape[1] for K in face] == [1, 0, 0]
    full = sos.build_gram_problem(t.to_form())
    prob = sos._restrict(6, full, face)
    assert (prob.dim, len(prob.rhs)) == (1, 1)
    ok, cert = sos.is_sos(t)
    assert ok
    w = _face_span(6, face)[:, 0] * np.linalg.norm(
        [math.factorial(3) / math.prod(map(math.factorial, e)) for e in cert.basis.monos])
    assert np.allclose(cert.G, np.outer(w, w), rtol=0.0, atol=1e-12)


def test_the_zero_form_of_order_4_is_certified_on_the_face_zero():
    # at m = 4 the zeros of the zero form span every monomial vector of
    # degree 2, so the face is {0}; G = 0 is its one point (a ValueError
    # escaped from the empty face before)
    t = make_tensor(4, 0, 0, 0)
    assert _face_span(4, sos._face(t)).shape == (6, 0)
    ok, cert = sos.is_sos(t)
    assert ok and not np.any(cert.G)


SWEEP_U = [-400.0, -50.0, -10.0, -5.0, -2.0, -1.0, -0.5, -0.1,
           0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 10.0, 100.0]


def test_every_point_of_a_threshold_sweep_is_sos_at_n():
    # is_sos at d = float(N) over m = 4..14, c in {-1, 0, 1} and 16 values
    # of u (288 points, every branch of N); (14, 3, 1) stalled at
    # t* = -1.55 on its face while G was averaged over the permutations,
    # and (4, 0, 0), the zero form, raised on its empty face
    failures = []
    for m in range(4, 16, 2):
        for c in (-1, 0, 1):
            for u in SWEEP_U:
                t = make_tensor(m, float(boundary.n_value(m, u, c).value), u, float(c))
                try:
                    ok, _ = sos.is_sos(t)
                except sos.SosUndecided as exc:
                    ok = str(exc)
                if ok is not True:
                    failures.append((m, u, c, ok))
    assert failures == []


def test_each_table_row_scans_its_section_once(monkeypatch):
    # N's scan at d = 0 and the zero scan of the face at d = N read one set
    # of section minima, as the form on the unit m-norm sphere moves by
    # exactly d; an eigen row ran kernels.section_minima twice when the
    # zero scan searched the section at d = N. A linear row scans no section
    # of its own: its certificate is combined from the order's two
    # breakpoint certificates, and only the row that builds those, the
    # first linear row of its order, scans, the two breakpoint sections
    calls = []
    section_minima = kernels.section_minima

    def spy(*args):
        calls.append(args)
        return section_minima(*args)

    monkeypatch.setattr(kernels, "section_minima", spy)
    built = set()
    for row in tables.load_fixture():
        kernels.cached_section_minima.cache_clear()
        calls.clear()
        assert tables.compute_row(row).passed
        if boundary.closed_form_n(row.m, row.u_value, row.c) is None:
            assert len(calls) == 1, (row.table, row.u)
            continue
        breakpoints = [
            (row.m, 0.0, float(boundary.breakpoint_u0_formula(row.m)), -1.0),
            (row.m, 0.0, float(boundary.breakpoint_v0_formula(row.m)), 1.0),
        ]
        expected = [] if row.m in built else breakpoints
        built.add(row.m)
        assert [args[:4] for args in calls] == expected, (row.table, row.u)
    assert built == {6, 8, 10, 12}


def test_forms_of_one_order_share_one_read_only_constraint_stack(monkeypatch):
    a = sos.build_gram_problem(make_tensor(8, 3, 1, -1).to_form())
    b = sos.build_gram_problem(make_tensor(8, 40, 20, 1).to_form())
    assert a.coeffs is b.coeffs
    assert not np.array_equal(a.rhs, b.rhs)
    with pytest.raises(ValueError):
        a.coeffs[0, 0, 0] = 2.0
    # the minima the kernels cache are one tuple of records, which N's scan
    # and the zero scan at d = N both read
    read = []
    cached = kernels.cached_section_minima

    def spy(*args):
        read.append(cached(*args))
        return read[-1]

    monkeypatch.setattr(kernels, "cached_section_minima", spy)
    cached.cache_clear()
    n = boundary.n_value(6, 5, -1).value
    assert sos._zeros(make_tensor(6, n, 5, -1))
    assert len(read) == 2 and read[0] is read[1]
    assert isinstance(read[0], tuple) and all(isinstance(p, tuple) for p in read[0])


BREAKPOINT_ROWS = [(6, Fraction(-70, 11)), (8, Fraction(-686, 43))]


def _has_direction(zeros, direction):
    # a zero parallel to ``direction``, up to sign
    d = np.array(direction) / np.linalg.norm(direction)
    return any(abs(abs(d @ z) - np.linalg.norm(z)) <= 1e-9 * np.linalg.norm(z)
               for z in map(np.array, zeros))


@pytest.mark.parametrize("m, u", BREAKPOINT_ROWS)
def test_the_breakpoint_rows_vanish_on_two_orbits_and_are_certified_on_their_face(m, u, monkeypatch):
    # at (6, -70/11, 1) and (8, -686/43, 1) the form at N vanishes at
    # (1, 1, 1) and at a multiple of (-2, -2, 1); the face cut by both
    # orbits holds a PSD point, so the face solve stops "feasible"
    t = make_tensor(m, float(boundary.n_value(m, u, 1).value), float(u), 1.0)
    zeros = sos._zeros(t)
    assert _has_direction(zeros, (1, 1, 1))
    assert _has_direction(zeros, (-2, -2, 1))
    stops = []
    solve = sdp.solve

    def spy(problem, *args, **kwargs):
        sol = solve(problem, *args, **kwargs)
        stops.append((sol.stop, sol.t_star))
        return sol

    monkeypatch.setattr(sdp, "solve", spy)
    ok, cert = sos.is_sos(t)
    assert ok
    [(stop, t_star)] = stops
    assert stop == "feasible" and t_star >= 0.0
    full = sos.build_gram_problem(t.to_form())
    good, viol = sdp.check_certificate(cert.G, full, tol=sos.DEFAULT_SOS_TOL * full.scale())
    assert good, f"violation {viol:.3e}"


def _svd_restrict(A, rhs):
    # the restriction by a singular value decomposition of the stack A:
    # orthonormal rows Wt spanning the row space, and the coordinates
    # (U' b) / sing in them of the least-norm point
    U, sing, Wt = np.linalg.svd(A, full_matrices=False)
    k = int(np.sum(sing > 1e-10 * sing[0]))
    return Wt[:k], (U[:, :k].T @ rhs) / sing[:k]


def _adjoint_stack(coeffs, m, face, side):
    # row l holds <A_l, G(E_ij)> for every unit matrix E_ij of the side x
    # side unknown H, with G = sos._lift: the constraints on H as the
    # adjoint of the map back to G, built without sos._restrict
    units = np.eye(side * side).reshape(-1, side, side)
    lifted = np.array([sos._lift(m, E, face) for E in units])
    return np.einsum("lij,kij->lk", coeffs, lifted)


def test_the_restricted_face_problem_is_the_svd_restriction_on_every_table_face():
    # the table solves at d = N_computed, with u and c as floats, on the
    # orbit sums restricted to the face's coordinates in the isotypic
    # components; that problem and the SVD restriction of the adjoint of
    # the orbit sums, taken here, through G = sos._lift(H) must define one
    # affine set {h : <A_l, h> = b_l}: the same row space (equal projectors
    # onto it) and the same least-norm point; the kept eigenvalues of A A'
    # are far from the dropped ones (at least 2.9e-2 and at most 1.7e-16 of
    # the largest)
    golden = Path(__file__).with_name("table_all.csv")
    sides = set()
    with golden.open(encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            m = int(row["m"])
            u = float(tables.parse_scalar(row["u"]))
            t = make_tensor(m, float(row["N_computed"]), u, float(row["c"]))
            structure = sos._gram_structure(m)
            full = sos.build_gram_problem(t.to_form())
            face = sos._face(t)
            prob = sos._restrict(m, full, face)
            side = prob.dim
            sides.add(side)
            assert side == sum(K.shape[1] for K in face)
            rows = prob.coeffs.reshape(len(prob.rhs), -1)
            norms = np.einsum("ij,ij->i", rows, rows)
            orbit_coeffs = np.tensordot(structure.orbit_sum, structure.problem.coeffs, axes=1)
            A = _adjoint_stack(orbit_coeffs, m, face, side)
            basis, point_coords = _svd_restrict(A, structure.orbit_sum @ full.rhs)
            assert rows.shape == basis.shape, (m, row["u"], row["c"])
            unit = rows / np.sqrt(norms)[:, None]
            assert np.max(np.abs(unit.T @ unit - basis.T @ basis)) <= 1e-10
            point = rows.T @ (prob.rhs / norms)
            assert np.max(np.abs(point - basis.T @ point_coords)) <= 1e-10 * max(
                1.0, float(np.max(np.abs(point))))
            lam = np.linalg.eigvalsh(A @ A.T)
            kept = lam > 1e-12 * lam[-1]
            assert lam[kept][0] >= 1e-2 * lam[-1]
            assert np.all(lam[~kept] <= 1e-14 * lam[-1])
    assert max(sides) == 22


def _linear_cone(m):
    # points of the cone K between the breakpoint rays (u0, -1) and (v0, 1):
    # both linear branches up to their breakpoints, c = 0 with u < 0 and a
    # point of the nonpositive quadrant off the slices c = -1, 0, 1
    u0, v0 = boundary.breakpoint_u0_formula(m), boundary.breakpoint_v0_formula(m)
    return [(u0, -1), (u0 * (1 - Fraction(4, 10**8)), -1), (u0 / 2, -1), (0, -1), (-5, -1),
            (v0, 1), (2 * v0, 1), (10 * v0, 1), (-1, 0), (-40, 0), (0, 0), (-2, -3)]


@pytest.mark.parametrize("m", [4, 6, 8, 10, 12, 14])
def test_the_linear_cone_is_certified_from_two_breakpoint_solves(m, monkeypatch):
    # the form and its Gram constraints are linear in (d, u, c), so a
    # nonnegative combination of the two breakpoint certificates certifies
    # each point of K at d = N, the linear threshold there; it passes the
    # point's own check far inside theta, and the order takes no face
    # solve beyond the two at its breakpoints
    solves = []
    solve = sdp.solve
    monkeypatch.setattr(sdp, "solve", lambda *a, **k: solves.append(1) or solve(*a, **k))
    for u, c in _linear_cone(m):
        n = boundary.n_value(m, u, c)
        assert n.value == boundary._linear(m, u, c)
        M, cert, undecided = sos._guarded_threshold(m, u, c, SolverConfig())
        assert undecided is None and M == n.value
        prob = sos.build_gram_problem(make_tensor(m, float(M), float(u), float(c)).to_form())
        ok, viol = sdp.check_certificate(cert.G, prob, tol=1e-12 * prob.scale())
        assert ok, f"violation {viol:.3e} at (m={m}, u={u}, c={c})"
    assert len(solves) <= 2


@pytest.mark.parametrize("side", [-1, 1])
def test_a_tampered_breakpoint_certificate_falls_back_to_the_face_solve(side, monkeypatch):
    # one diagonal entry of a cached breakpoint certificate off by 1e-3 of
    # its problem's scale: the combination fails the point's check, and the
    # point's own face solve decides, as it did before the cone route
    m, u, c = 8, 3, -1
    tol = sos.DEFAULT_SOS_TOL
    cached = sos._breakpoint_gram
    G = np.array(cached(m, side, tol))
    u_b = boundary.breakpoint_u0_formula(m) if side < 0 else boundary.breakpoint_v0_formula(m)
    at_b = make_tensor(m, float(boundary._linear(m, u_b, side)), float(u_b), float(side))
    G[0, 0] += 1e-3 * sos.build_gram_problem(at_b.to_form()).scale()
    cached(m, -side, tol)
    monkeypatch.setattr(
        sos, "_breakpoint_gram", lambda *key: G if key == (m, side, tol) else cached(*key))
    assert sos._cone_certificate(m, u, c, 1170, tol) is None
    solves = []
    solve = sdp.solve
    monkeypatch.setattr(sdp, "solve", lambda *a, **k: solves.append(1) or solve(*a, **k))
    report = boundary.analyze(m, u, c)
    assert report.confirmed and report.bundle.status == "CONFIRMED"
    assert report.m_val == report.n == 1170.0
    assert len(solves) == 1
    prob = sos.build_gram_problem(make_tensor(m, 1170, u, c).to_form())
    M, cert, _ = sos._guarded_threshold(m, u, c, SolverConfig())
    ok, viol = sdp.check_certificate(cert.G, prob, tol=tol * prob.scale())
    assert M == 1170 and ok, f"violation {viol:.3e}"
