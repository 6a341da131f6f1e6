"""Threshold dispatch, breakpoints, homogeneity, and reports."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import circulant3
from circulant3 import boundary, cli, eigen, kernels, sos, tables, tensor
from circulant3.boundary import (
    TAG_EIGEN_CNEG,
    TAG_EIGEN_CPOS,
    TAG_EQUAL_UC,
    TAG_LINEAR_CNEG,
    TAG_LINEAR_CPOS,
    TAG_NONPOS,
    TAG_UNIT_U,
)
from circulant3.eigen import SolverConfig, SolverFailure, lambda_min
from circulant3.tensor import make_tensor

# independently derived closed forms for the kink abscissas
KNOWN_BREAKPOINTS = {
    4: (Fraction(3, 4), Fraction(-2)),
    6: (Fraction(45, 16), Fraction(-70, 11)),
    8: (Fraction(483, 64), Fraction(-686, 43)),
    10: (Fraction(4665, 256), Fraction(-710, 19)),
    12: (Fraction(43263, 1024), Fraction(-58366, 683)),
}


def test_breakpoint_formulas_match_known_values():
    for m, (u0, v0) in KNOWN_BREAKPOINTS.items():
        assert boundary.breakpoint_u0_formula(m) == u0
        assert boundary.breakpoint_v0_formula(m) == v0
    with pytest.raises(ValueError):
        boundary.breakpoint_u0_formula(5)


def test_n_value_dispatch_tags_and_exact_values():
    val = boundary.n_value(6, -1, 0)
    assert (val.value, val.tag) == (62, TAG_NONPOS)
    val = boundary.n_value(6, -2, -3)
    assert (val.value, val.tag) == (664, TAG_NONPOS)
    val = boundary.n_value(6, Fraction(5, 2), Fraction(5, 2))
    assert (val.value, val.tag) == (Fraction(5, 2), TAG_EQUAL_UC)
    val = boundary.n_value(6, 3, 0)
    assert val.tag == TAG_UNIT_U
    assert abs(val.value - 3 * 1.7373484717783816) <= 1e-8
    val = boundary.n_value(6, 2, -1)
    assert (val.value, val.tag) == (56, TAG_LINEAR_CNEG)
    val = boundary.n_value(6, Fraction(45, 16), -1)  # exactly at the kink
    assert (val.value, val.tag) == (Fraction(45, 8), TAG_LINEAR_CNEG)
    val = boundary.n_value(6, 5, -1)
    assert val.tag == TAG_EIGEN_CNEG
    assert abs(val.value - 9.4254465011842588) <= 1e-6
    val = boundary.n_value(6, -10, 1)
    assert (val.value, val.tag) == (440, TAG_LINEAR_CPOS)
    val = boundary.n_value(6, Fraction(-70, 11), 1)  # exactly at the kink
    assert (val.value, val.tag) == (Fraction(2360, 11), TAG_LINEAR_CPOS)
    val = boundary.n_value(6, -5, 1)
    assert val.tag == TAG_EIGEN_CPOS
    assert val.value >= float(boundary._linear(6, -5, 1)) - 1e-9


def test_n_value_input_validation():
    with pytest.raises(ValueError, match=r"divide d, u and c by \|c\|"):
        boundary.n_value(6, 1, 2)  # c outside {-1, 0, 1}
    with pytest.raises(ValueError):
        boundary.n_value(5, 1, 1)
    with pytest.raises(ValueError):
        boundary.n_value(6, math.nan, 0)
    # u, c or the closed-form N beyond the float range
    for u, c in ((10**400, -1), (-1, -(10**400)), (-(10**305), -1)):
        with pytest.raises(ValueError, match="float"):
            boundary.n_value(14, u, c)


def test_threshold_is_continuous_across_the_kinks():
    # the linear closed form and the eigensolver value agree where the
    # two branches meet
    u0 = float(boundary.breakpoint_u0_formula(6))
    linear = float(boundary._linear(6, u0, -1))
    eigen = -lambda_min(make_tensor(6, 0, u0, -1)).lam
    assert abs(linear - eigen) <= 1e-6
    v0 = float(boundary.breakpoint_v0_formula(6))
    linear = float(boundary._linear(6, v0, 1))
    eigen = -lambda_min(make_tensor(6, 0, v0, 1)).lam
    assert abs(linear - eigen) <= 1e-6 * max(1.0, abs(linear))


def test_linear_branch_is_exact_for_exact_inputs():
    u0 = boundary.breakpoint_u0_formula(6)
    for k in (1, 2, 4, 8):
        u = u0 / k
        val = boundary.n_value(6, u, -1)
        assert val.tag == TAG_LINEAR_CNEG
        assert val.value == 180 - u * 62


def test_breakpoints_verify_via_the_eigensolver():
    bp_u = boundary.breakpoint_u0(6)
    assert bp_u.kind == "u0"
    assert bp_u.value == Fraction(45, 16)
    assert bp_u.verified
    assert abs(bp_u.lambda_residual) <= 1e-7
    bp_v = boundary.breakpoint_v0(6)
    assert bp_v.value == Fraction(-70, 11)
    assert bp_v.verified
    doc = bp_v.to_json_dict()
    assert doc["value"] == "-70/11"
    assert doc["verified"] is True


# breakpoint_u0(m) and breakpoint_v0(m) at the default settings, with
# lambda_residual as float.hex: the smallest H-eigenvalue of the tensor on
# the linear threshold at each kink
PINNED_BREAKPOINTS = {
    4: (("3/4", "0x0.0p+0"), ("-2", "-0x1.4000000000000p-46")),
    6: (("45/16", "0x1.0000000000000p-52"), ("-70/11", "-0x1.0000000000000p-45")),
    8: (("483/64", "0x1.2000000000000p-50"), ("-686/43", "-0x1.0000000000000p-41")),
    10: (("4665/256", "-0x1.0000000000000p-51"), ("-710/19", "-0x1.8000000000000p-42")),
    12: (("43263/1024", "-0x1.f000000000000p-49"), ("-58366/683", "-0x1.1000000000000p-38")),
    14: (("394485/4096", "0x1.3e00000000000p-46"), ("-528710/2731", "-0x1.2700000000000p-32")),
}


@pytest.mark.parametrize("m", sorted(PINNED_BREAKPOINTS))
def test_breakpoint_reports_are_pinned_bit_for_bit(m):
    for bp, kind, (value, residual) in zip(
        (boundary.breakpoint_u0(m), boundary.breakpoint_v0(m)),
        ("u0", "v0"),
        PINNED_BREAKPOINTS[m],
    ):
        doc = bp.to_json_dict()
        assert doc["lambda_residual"].hex() == residual, (m, kind)
        assert doc == {
            "kind": kind,
            "lambda_residual": float.fromhex(residual),
            "m": m,
            "value": value,
            "value_float": float(Fraction(value)),
            "verified": True,
        }


def test_breakpoint_verification_survives_solver_failure():
    cfg = SolverConfig(n_starts=4, eigen_tol=1e-300)
    bp = boundary.breakpoint_u0(6, cfg)
    assert bp.value == Fraction(45, 16)  # formula still exact
    assert not bp.verified


def test_thresholds_scale_with_the_tensor():
    # the threshold at (u, c) = (3, 2) is |c| = 2 times the one at
    # (3/2, 1), the pair divided by |c|; the raw value comes from the
    # eigensolver route
    canonical_n = float(boundary.n_value(6, Fraction(3, 2), 1).value)
    raw_n = -lambda_min(make_tensor(6, 0, 3, 2)).lam
    assert abs(raw_n - 2 * canonical_n) <= 1e-6 * max(1.0, raw_n)


def test_analyze_confirms_exact_branch_with_bundle():
    report = boundary.analyze(6, -1, -1)
    assert report.confirmed
    assert report.errors == ()
    assert report.n == 242.0
    assert report.n_tag == TAG_NONPOS
    assert report.m_val == 242.0
    assert report.m_method == "closed-form"
    assert abs(report.gap) <= 1e-9
    assert report.bundle is not None
    assert report.bundle.status == "CONFIRMED"
    assert report.breakpoint is None


def test_analyze_bisection_branch_without_certificate(monkeypatch):
    # is_sos accepts d = N at (6, 1, 0): M is N itself, and no bisection runs
    report = boundary.analyze(6, 1, 0, with_certificate=False)
    assert report.m_method == "at-n"
    assert report.m_val == report.n
    assert report.bundle is None
    assert abs(report.m_val - 1.7373484717783816) <= 1e-4
    assert report.confirmed
    doc = json.loads(json.dumps(report.to_json_dict()))
    assert doc == report.to_json_dict()
    assert doc["confirmed"] is True
    # rejected at d = N, M is bisected upward from N
    n, real = report.n, sos.is_sos

    def no_certificate_at_n(t, tol=sos.DEFAULT_SOS_TOL):
        return (False, None) if float(t.d) == n else real(t, tol)

    monkeypatch.setattr(sos, "is_sos", no_certificate_at_n)
    report = boundary.analyze(6, 1, 0, with_certificate=False)
    assert report.m_method == "bisection"
    assert n < report.m_val <= n + eigen.DEFAULT_CONFIG.tol_d


def test_analyze_attaches_breakpoint_on_unit_c_slices():
    report = boundary.analyze(6, 2, -1, with_certificate=False)
    assert report.n_tag == TAG_LINEAR_CNEG
    assert report.breakpoint is not None
    assert report.breakpoint.value == Fraction(45, 16)


def test_analyze_reports_solver_failure_instead_of_raising(tmp_path, capsys):
    # the scan's eigenpair fails its residual check: N is undecided, no M
    # is bisected from it, and analyze exits with the solver-failure code
    cfg = SolverConfig(n_starts=4, eigen_tol=1e-300)
    report = boundary.analyze(6, 5, -1, cfg=cfg, with_certificate=False)
    assert report.errors
    assert not report.confirmed
    assert (report.n_tag, report.n_guard) == (boundary.TAG_UNDECIDED, boundary.GUARD_SCAN)
    assert math.isnan(report.m_val) and report.failed
    assert report.m_method == "undecided"
    config = tmp_path / "tight.cfg"
    config.write_text("eigen_tol = 1e-300\n")
    argv = ["analyze", "--m", "6", "--u", "5", "--c", "-1", "--config", str(config)]
    assert cli.main(argv) == cli.EXIT_SOLVER
    assert "undecided" in capsys.readouterr().out


def test_certify_reports_solver_failure_with_exit_4(tmp_path, capsys):
    # the same failing scan on certify's path: a message naming the
    # residual and the solver-failure code, not a traceback
    config = tmp_path / "tight.cfg"
    config.write_text("eigen_tol = 1e-300\n")
    argv = ["certify", "--m", "6", "--u", "5", "--c", "-1", "--config", str(config)]
    assert cli.main(argv) == cli.EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("error: solver failure: eigenpair residual")
    assert "exceeds" in err


def test_analyze_computes_n_once(monkeypatch):
    # N at d = 0, the u0 breakpoint check, the bundle's minimizer at d = M: the
    # certificate is derived from the N already computed, not from a second
    # one, and N and the minimizer come from the scan alone
    seen = []

    def spy_on(name):
        real = getattr(eigen, name)

        def spy(t, cfg=eigen.DEFAULT_CONFIG):
            seen.append((name, float(t.d)))
            return real(t, cfg)

        return spy

    for name in ("lambda_min", "_scan_min"):
        spy = spy_on(name)
        for mod in (eigen, boundary, sos):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, spy)
    report = boundary.analyze(6, 5, -1)
    assert report.confirmed
    assert report.n_guard == boundary.GUARD_CERTIFICATE
    assert [d for _, d in seen].count(0.0) == 1
    assert ("_scan_min", 0.0) in seen
    assert ("_scan_min", report.m_val) in seen
    assert len(seen) == 3


_ZERO_FORM_CHILD = """
from circulant3 import boundary
report = boundary.analyze(6, 0, 0)
with open("/proc/self/status") as fh:
    peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(report.confirmed, report.n, report.m_val, peak_kb // 1024)
"""


def test_the_zero_form_is_confirmed_in_little_memory():
    # the zero form's section is flat, so each of its 2,001 grid points is
    # a minimum and a zero; with 6 permutations each, the full SVD of the
    # 10 x 12,006 matrix of their z-vectors built a 12,006-square Vt it
    # discarded, and analyze peaked at 2.2 GB. The peak is the child's own
    # VmHWM, which a fresh process does not inherit from this one
    if not os.path.exists("/proc/self/status"):
        pytest.skip("reads the peak resident set from /proc")
    src = str(Path(circulant3.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", _ZERO_FORM_CHILD],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert out.returncode == 0, out.stderr
    confirmed, n, m_val, peak_mb = out.stdout.split()
    assert confirmed == "True"
    assert float(n) == float(m_val) == 0.0
    assert int(peak_mb) < 200


def test_sdp_rejection_is_reported_not_raised(monkeypatch, capsys):
    # an SDP that rejects every form contradicts the closed forms; each
    # entry point must name that in its result instead of raising it; the
    # breakpoint certificates the nonpositive point would be combined from
    # are not cached, so the stub is asked for those too and rejects them
    sos._breakpoint_gram.cache_clear()
    monkeypatch.setattr(sos, "is_sos", lambda t, tol=sos.DEFAULT_SOS_TOL: (False, None))
    report = boundary.analyze(6, -1, -1, with_certificate=False)
    assert not report.confirmed
    assert math.isnan(report.m_val)
    assert len(report.errors) == 1 and "rejected by the SDP" in report.errors[0]
    row = next(r for r in tables.load_fixture() if (r.table, r.m, r.u, r.c) == (2, 6, "2", -1))
    res = tables.compute_row(row)
    assert not res.passed
    assert "rejected by the SDP" in res.error
    argv = ["analyze", "--m", "6", "--u", "-1", "--c", "-1", "--no-certificate"]
    assert cli.main(argv) == cli.EXIT_SOLVER
    assert "rejected by the SDP" in capsys.readouterr().out


def test_linear_segments_confirm_on_both_slices():
    # M = N = the linear closed form at each kink and at three points
    # strictly inside its branch
    u0, v0 = boundary.breakpoint_u0_formula(6), boundary.breakpoint_v0_formula(6)
    for c, tag, points in ((-1, TAG_LINEAR_CNEG, (u0, u0 / 2, u0 / 4, u0 / 8)),
                           (1, TAG_LINEAR_CPOS, (v0, 2 * v0, 4 * v0, 8 * v0))):
        for u in points:
            report = boundary.analyze(6, u, c, with_certificate=False)
            assert report.confirmed, (u, c, report.errors)
            assert report.breakpoint.verified
            assert report.n_tag == tag
            assert report.n == float(boundary._linear(6, u, c))


def test_unit_scale_reference_is_cached_and_positive():
    first = boundary.unit_scale_reference(6)
    second = boundary.unit_scale_reference(6)
    assert first == second
    assert first > 1.7


def test_unit_u_slice_honours_the_solver_config():
    # the c = 0 slice scales off a cached eigenvalue; with the default
    # config's value already cached, an impossible residual tolerance must
    # still fail there as it does on the c = -1 slice
    cfg = SolverConfig(n_starts=4, eigen_tol=1e-300)
    boundary.unit_scale_reference(6)
    with pytest.raises(SolverFailure):
        boundary.n_value(6, 5, -1, cfg)
    with pytest.raises(SolverFailure):
        boundary.n_value(6, 1, 0, cfg)


def _count_multistarts(monkeypatch):
    calls = []
    real = kernels.minimize_batch

    def spy(*args, **kwargs):
        calls.append(args[:4])
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "minimize_batch", spy)
    return calls


def _scan_at_the_diagonal(m, d, u, c):
    # (1, 1, 1) is an H-eigenvector of every member of the family, so it
    # passes the residual check, but it is not the minimizer here
    x = 3.0 ** (-1.0 / m)
    return kernels.eval_form(m, d, u, c, x, x, x), x, x, x, 0.0


def test_eigen_branch_table_runs_no_multistart(monkeypatch):
    calls = _count_multistarts(monkeypatch)
    results = tables.run_tables([2])
    assert calls == []
    assert all(r.passed for r in results)
    guards = {r.row.u: r.n_guard for r in results}
    assert guards == {"0.1": "closed-form", "2": "closed-form", "45/16": "closed-form",
                      "5": "certificate", "10": "certificate", "40": "certificate",
                      "300": "certificate"}


def test_m_value_and_certify_run_no_multistart(monkeypatch):
    # N, M and the bundle's minimizer all come from the scan
    calls = _count_multistarts(monkeypatch)
    sos.m_value(6, 5, -1)
    sos.certify_pns_free(6, 5, -1)
    assert calls == []


@pytest.mark.parametrize("u, c", [(-1, 0), (5, -1), (1, 0)])
def test_m_value_and_certify_agree_with_analyze(u, c):
    report = boundary.analyze(6, u, c)
    assert float(sos.m_value(6, u, c)) == report.m_val
    assert sos.certify_pns_free(6, u, c).to_json_dict() == report.bundle.to_json_dict()


def test_missing_certificate_at_n_bisects_up_from_the_scan(monkeypatch):
    guarded = sos.m_value(6, 5, -1)
    n = boundary.n_value(6, 5, -1).value
    calls = _count_multistarts(monkeypatch)
    real = sos.is_sos

    def no_certificate_at_n(t, tol=sos.DEFAULT_SOS_TOL):
        return (False, None) if float(t.d) == n else real(t, tol)

    monkeypatch.setattr(sos, "is_sos", no_certificate_at_n)
    row = next(r for r in tables.load_fixture() if (r.table, r.u) == (2, "5"))
    res = tables.compute_row(row)
    assert res.n_guard == boundary.GUARD_SCAN
    assert res.n_computed == n
    assert abs(res.m_computed - guarded) <= eigen.DEFAULT_CONFIG.tol_d
    assert res.passed  # M is bisected upward from the scan's N
    # m_value bisects upward from the same N
    assert n < sos.m_value(6, 5, -1) <= guarded + eigen.DEFAULT_CONFIG.tol_d
    assert calls == []


def test_non_minimal_scan_point_leaves_the_report_unconfirmed(monkeypatch):
    true_n = boundary.n_value(6, 5, -1).value
    monkeypatch.setattr(kernels, "scan_two_equal", _scan_at_the_diagonal)
    assert -eigen._scan_min(make_tensor(6, 0, 5, -1)).lam < true_n - 100.0
    report = boundary.analyze(6, 5, -1, with_certificate=False)
    assert report.n_guard == boundary.GUARD_SCAN
    assert report.n < true_n - 100.0
    assert not report.confirmed  # the gap [N, M] is wider than 100
    # bisected up from the scan's N, M lands on the true threshold; the
    # step next to it is left undecided (at (6, 5, -1) a midpoint 1.3e-5
    # below the threshold is), which is named in the errors, is not a
    # solver failure, and leaves M uncertified
    assert abs(report.m_val - true_n) <= 1e-4
    assert not report.failed
    assert report.errors[0].startswith(boundary.UNDECIDED_PREFIX + " at the bisection midpoint")
    assert report.m_method == "undecided"


def test_m_value_raises_when_sos_is_undecided(monkeypatch):
    # m_value returns only a certified M; where is_sos cannot decide, the
    # reason is raised, not dropped
    real = sos.is_sos

    def undecided(t, tol=sos.DEFAULT_SOS_TOL):
        raise sos.SosUndecided("forced")

    monkeypatch.setattr(sos, "is_sos", undecided)
    with pytest.raises(sos.SosUndecided, match="^at the PSD threshold d = .*: forced$"):
        sos.m_value(6, 5, -1)
    hi = float(tensor.dd_bound(6, 5, -1))

    def midpoint_undecided(t, tol=sos.DEFAULT_SOS_TOL):
        if float(t.d) == hi:
            return real(t, tol)
        if float(t.d) < 9.43:
            return False, None
        raise sos.SosUndecided("forced")

    monkeypatch.setattr(sos, "is_sos", midpoint_undecided)
    with pytest.raises(sos.SosUndecided, match="^at the bisection midpoint d = .*: forced$"):
        sos.m_value(6, 5, -1)


def test_undecided_sos_step_leaves_m_unconfirmed(monkeypatch, capsys):
    real = sos.is_sos

    def undecided(t, tol=sos.DEFAULT_SOS_TOL):
        raise sos.SosUndecided("forced")

    monkeypatch.setattr(sos, "is_sos", undecided)
    report = boundary.analyze(6, 5, -1)
    assert not report.confirmed
    assert report.bundle.status == "UNCONFIRMED"
    assert report.n_guard == boundary.GUARD_SCAN
    assert len(report.errors) == 1
    assert report.errors[0].startswith(boundary.UNDECIDED_PREFIX + " at the PSD threshold")
    assert not report.failed
    assert report.m_method == "undecided"
    assert cli.main(["analyze", "--m", "6", "--u", "5", "--c", "-1"]) == cli.EXIT_UNCONFIRMED
    assert "SOS undecided" in capsys.readouterr().out

    # undecided at a bisection midpoint: not SOS at N, SOS at the dominance
    # bound, undecided in between
    hi = float(tensor.dd_bound(6, 5, -1))

    def midpoint_undecided(t, tol=sos.DEFAULT_SOS_TOL):
        if float(t.d) == hi:
            return real(t, tol)
        if float(t.d) < 9.43:
            return False, None
        raise sos.SosUndecided("forced")

    monkeypatch.setattr(sos, "is_sos", midpoint_undecided)
    report = boundary.analyze(6, 5, -1, with_certificate=False)
    assert not report.confirmed
    assert report.errors[0].startswith(boundary.UNDECIDED_PREFIX + " at the bisection midpoint")
    assert report.m_method == "undecided"


# within about 1e-7 (relative) below u0 = 43263/1024 at m = 12 and
# 394485/4096 at m = 14; the face solve at N of the point itself left
# is_sos undecided at the last four, and the combination of the order's
# two breakpoint certificates decides all five
NEAR_U0 = [(12, 42.249019), (12, 42.249023), (14, 96.309812), (14, 96.309813), (14, 96.309814)]


@pytest.mark.parametrize("m, u", NEAR_U0)
def test_points_just_below_the_c_neg_breakpoint_confirm_at_n(m, u):
    report = boundary.analyze(m, u, -1)
    assert report.n_tag == TAG_LINEAR_CNEG
    assert report.confirmed and report.bundle.status == "CONFIRMED", report.errors
    assert report.m_val == report.n
    assert report.bundle.certificate.min_eig > 0.0
