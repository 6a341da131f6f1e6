"""Acceptance gates: one test, one pass/fail line per criterion.

Every criterion is checked at its stated tolerance against values either
shipped in the fixture or derived in-test from first principles; nothing
here trusts the code paths it is grading.
"""

import math
import time
from fractions import Fraction

import numpy as np

from circulant3 import boundary, sdp, sos, tables
from circulant3.eigen import lambda_min
from circulant3.tensor import make_tensor

from helpers import brute_force_eval, orbit_distance


def _margin_on_linear_threshold(m, u, c):
    """Smallest H-eigenvalue of A(m, d, u, c) with d on the linear threshold."""
    return lambda_min(make_tensor(m, boundary._linear(m, u, c), u, c)).lam


def _gate(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_first_table_reproduction():
    start = time.monotonic()
    results = tables.run_tables([1])
    worst = 0.0
    ok = len(results) == 5
    for res in results:
        tol = 5e-4 if res.row.m == 14 else 1e-4
        err = max(
            abs(res.m_computed - res.row.expected_m_value),
            abs(res.n_computed - res.row.expected_n_value),
        )
        worst = max(worst, err)
        ok = ok and err <= tol
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300.0
    _gate(
        "criterion 1: unit-u thresholds for m = 6..14",
        ok,
        f"worst deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_closed_form_exactness():
    rng = np.random.default_rng(2024)
    worst = 0.0
    ok = True
    for _ in range(20):
        m = int(rng.choice([4, 6, 8]))
        u = -Fraction(int(rng.integers(0, 25)), 8)
        c = -Fraction(int(rng.integers(0, 25)), 8)
        expected = -u * (2**m - 2) - c * (3 ** (m - 1) - 2**m + 1)
        n_err = abs(float(boundary.n_value(m, u, c).value - expected))
        m_err = abs(float(sos.m_value(m, u, c) - expected))
        worst = max(worst, n_err, m_err)
        ok = ok and n_err <= 1e-9 and m_err <= 1e-9
    for _ in range(5):
        m = int(rng.choice([4, 6]))
        u = Fraction(int(rng.integers(1, 17)), 4)
        n_err = abs(float(boundary.n_value(m, u, u).value - u))
        m_err = abs(float(sos.m_value(m, u, u) - u))
        worst = max(worst, n_err, m_err)
        ok = ok and n_err <= 1e-9 and m_err <= 1e-9
    _gate(
        "criterion 2: closed-form thresholds exact to 1e-9",
        ok,
        f"worst deviation {worst:.2e} over 25 samples",
    )


EXACT_INTEGER_ROWS = {
    56, 1170, 1678, 2300, 8440, 17638, 22220,
    83540, 91172, 168958, 236348, 400108,
}


def test_criterion_3_remaining_tables_reproduction():
    start = time.monotonic()
    results = tables.run_tables(list(range(2, 10)))
    ok = len(results) == 56 and all(r.passed for r in results)
    n_failed = sum(1 for r in results if not r.passed)
    exact_checked = 0
    worst_exact = 0.0
    for res in results:
        try:
            target = int(res.row.expected_n)
        except ValueError:
            continue
        if target in EXACT_INTEGER_ROWS:
            exact_checked += 1
            err = abs(res.n_computed - target)
            worst_exact = max(worst_exact, err)
            ok = ok and err <= 1e-9
    ok = ok and exact_checked == len(EXACT_INTEGER_ROWS)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1800.0
    _gate(
        "criterion 3: 56 table rows, 12 exact-integer rows at 1e-9",
        ok,
        f"{n_failed} rows failed, worst exact-row deviation {worst_exact:.2e}, "
        f"{elapsed:.1f}s",
    )


KINK_ABSCISSAS = {
    "45/16": ("u0", 6), "483/64": ("u0", 8),
    "4665/256": ("u0", 10), "43263/1024": ("u0", 12),
    "-70/11": ("v0", 6), "-686/43": ("v0", 8),
    "-710/19": ("v0", 10), "-58366/683": ("v0", 12),
}


def test_criterion_4_breakpoint_verification():
    ok = True
    worst = 0.0
    for m in (6, 8, 10, 12, 14):
        u0 = boundary.breakpoint_u0_formula(m)
        v0 = boundary.breakpoint_v0_formula(m)
        margin_u = _margin_on_linear_threshold(m, u0, -1)
        margin_v = _margin_on_linear_threshold(m, v0, 1)
        worst = min(worst, margin_u, margin_v) if worst else min(margin_u, margin_v)
        ok = ok and margin_u >= -1e-7 and margin_v >= -1e-7
    seen = set()
    for row in tables.load_fixture():
        info = KINK_ABSCISSAS.get(row.u)
        if info is None:
            continue
        kind, m = info
        seen.add(row.u)
        formula = (
            boundary.breakpoint_u0_formula(m)
            if kind == "u0"
            else boundary.breakpoint_v0_formula(m)
        )
        ok = ok and row.m == m and Fraction(row.u) == formula
    ok = ok and seen == set(KINK_ABSCISSAS)
    _gate(
        "criterion 4: kinks PSD on the linear threshold, fixture abscissas exact",
        ok,
        f"worst margin {worst:.2e}",
    )


def test_criterion_5_property_suite():
    rng = np.random.default_rng(77)
    failures = []

    # (a) grouped-power evaluation against the dense 3^m contraction
    worst = 0.0
    for m in (4, 6):
        for _ in range(50):
            d, u, c = (float(v) for v in rng.uniform(-2.0, 2.0, size=3))
            x = tuple(float(v) for v in rng.uniform(-1.5, 1.5, size=3))
            fast = make_tensor(m, d, u, c).eval_form(x)
            slow = brute_force_eval(m, d, u, c, x)
            worst = max(worst, abs(fast - slow) / max(1.0, abs(slow)))
    if worst > 1e-10:
        failures.append(f"(a) evaluation deviation {worst:.2e}")

    # (b) gradient against central finite differences
    worst = 0.0
    for _ in range(50):
        m = int(rng.choice([4, 6]))
        d, u, c = (float(v) for v in rng.uniform(-2.0, 2.0, size=3))
        x = rng.uniform(0.3, 1.3, size=3)
        t = make_tensor(m, d, u, c)
        grad = m * np.array(t.apply_power(tuple(x)))
        fd = np.zeros(3)
        h = 1e-5
        for j in range(3):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd[j] = (t.eval_form(tuple(xp)) - t.eval_form(tuple(xm))) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(fd))))
        worst = max(worst, float(np.max(np.abs(grad - fd))) / scale)
    if worst > 1e-4:
        failures.append(f"(b) gradient deviation {worst:.2e}")

    # (c) SOS membership is upward closed in the diagonal entry
    certificates = []
    closure_broken = 0
    for k in range(20):
        m = 4 if k % 2 == 0 else 6
        u = -float(rng.uniform(0.0, 2.0))
        c = -float(rng.uniform(0.0, 2.0))
        threshold = float(-u * (2**m - 2) - c * (3 ** (m - 1) - 2**m + 1))
        d_lo = threshold + (0.4 if k % 4 < 2 else -0.4)
        ok_lo, cert_lo = sos.is_sos(make_tensor(m, d_lo, u, c))
        ok_hi, cert_hi = sos.is_sos(make_tensor(m, d_lo + 0.5, u, c))
        if ok_lo and not ok_hi:
            closure_broken += 1
        for cert, d in ((cert_lo, d_lo), (cert_hi, d_lo + 0.5)):
            if cert is not None:
                certificates.append((m, d, u, c, cert))
    if closure_broken:
        failures.append(f"(c) closure broken on {closure_broken} pairs")

    # (d) shift covariance of the smallest eigenvalue
    worst = 0.0
    for _ in range(20):
        m = int(rng.choice([4, 6]))
        u, c = (float(v) for v in rng.uniform(-2.0, 2.0, size=2))
        d = float(rng.uniform(-4.0, 4.0))
        base = lambda_min(make_tensor(m, 0.0, u, c)).lam
        shifted = lambda_min(make_tensor(m, d, u, c)).lam
        worst = max(
            worst, abs(shifted - (d + base)) / max(1.0, abs(base), abs(d))
        )
    if worst > 1e-8:
        failures.append(f"(d) shift covariance deviation {worst:.2e}")

    # (e) every emitted certificate passes the independent verifier
    bad_certs = 0
    for m, d, u, c, cert in certificates:
        prob = sos.build_gram_problem(make_tensor(m, d, u, c).to_form())
        ok, _ = sdp.check_certificate(cert.G, prob, tol=1e-5)
        if not ok:
            bad_certs += 1
    if bad_certs or len(certificates) < 10:
        failures.append(
            f"(e) {bad_certs} bad certificates of {len(certificates)}"
        )

    # (f) margins on the linear threshold never positive on a 20-point grid
    u0 = float(boundary.breakpoint_u0_formula(6))
    v0 = float(boundary.breakpoint_v0_formula(6))
    worst = -math.inf
    for u in np.linspace(0.0, 2.0 * u0, 10):
        worst = max(worst, _margin_on_linear_threshold(6, float(u), -1))
    for u in np.linspace(2.0 * v0, 0.0, 10):
        worst = max(worst, _margin_on_linear_threshold(6, float(u), 1))
    if worst > 1e-10:
        failures.append(f"(f) positive margin on the linear threshold {worst:.2e}")

    # (g) midpoint convexity of both thresholds along the unit-c slices
    def n_of(u, c):
        return float(boundary.n_value(6, u, c).value)

    def m_of(u, c):
        return float(sos.m_value(6, u, c))

    worst = 0.0
    for func in (n_of, m_of):
        for (a, b, c_slice) in [(0.5, 4.5, -1), (-8.0, -2.0, 1)]:
            mid = func(0.5 * (a + b), c_slice)
            avg = 0.5 * (func(a, c_slice) + func(b, c_slice))
            worst = max(worst, mid - avg)
    if worst > 1e-5:
        failures.append(f"(g) convexity violated by {worst:.2e}")

    _gate(
        "criterion 5: property suite (a)-(g)",
        not failures,
        "; ".join(failures) if failures else "all seven properties hold",
    )


def test_criterion_6_certificate_bundles():
    ok = True
    details = []
    targets = {(1.0, 1.0): (2.0, -1.0, -1.0), (-1.0, -1.0): (1.0, 1.0, 1.0)}
    for (u, c) in [(1, 1), (-1, -1), (1, 0)]:
        bundle = sos.certify_pns_free(6, u, c)
        if bundle.status != "CONFIRMED":
            ok = False
            details.append(f"({u},{c}) {bundle.status}")
            continue
        target = targets.get((float(u), float(c)))
        if target is not None:
            dist = orbit_distance(6, bundle.minimizer, target)
            details.append(f"({u},{c}) minimizer within {dist:.1e}")
            ok = ok and dist <= 1e-3
        else:
            details.append(f"({u},{c}) f(minimizer) = {bundle.minimizer_value:.1e}")
            ok = ok and abs(bundle.minimizer_value) <= 1e-6
        prob = sos.build_gram_problem(
            make_tensor(
                6, float(bundle.critical_value) + bundle.tol_d, float(u), float(c)
            ).to_form()
        )
        cert_ok, viol = sdp.check_certificate(bundle.certificate.G, prob, tol=1e-5)
        ok = ok and cert_ok
    _gate(
        "criterion 6: three confirmed certificate bundles at order 6",
        ok,
        "; ".join(details),
    )
