"""SOS membership, threshold bisection, and certificate plumbing."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from circulant3 import kernels, sdp, sos
from circulant3 import boundary
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
    for module, name in ((sdp, "solve"), (kernels, "scan_two_equal")):
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
    doc = json.loads(bundle.to_json())
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
