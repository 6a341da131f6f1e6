"""Tests of the benchmark's own checkers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
import run
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def brute_force(m, d, u, c, x):
    """sum over all 3^m index tuples of entry * x_i1 * ... * x_im."""
    total = 0
    for idx in itertools.product(range(3), repeat=m):
        entry = (d, u, c)[len(set(idx)) - 1]
        for i in idx:
            entry = entry * x[i]
        total += entry
    return total


@pytest.mark.parametrize("m", range(3, 9))
def test_form_value_matches_dense_contraction(m):
    d, u, c = Fraction(7, 3), Fraction(-5, 4), Fraction(2, 9)
    x = (Fraction(3, 5), Fraction(-7, 4), Fraction(1, 3))
    assert oracle.form_value(m, d, u, c, *x) == brute_force(m, d, u, c, x)


@pytest.mark.parametrize("m", (4, 6, 8))
def test_coefficients_reproduce_the_form(m):
    d, u, c = Fraction(7, 3), Fraction(-5, 4), Fraction(2, 9)
    x = (Fraction(3, 5), Fraction(-7, 4), Fraction(1, 3))
    coef = oracle.form_coefficients(m, d, u, c)
    assert all(sum(k) == m for k in coef)
    assert sum(v * x[0] ** a * x[1] ** b * x[2] ** g for (a, b, g), v in coef.items()) == \
        oracle.form_value(m, d, u, c, *x)


@pytest.mark.parametrize("m", (4, 8, 12))
@pytest.mark.parametrize("u, c", [(Fraction(-3, 2), -1), (Fraction(1, 2), -1), (Fraction(-9), 1),
                                  (Fraction(-3), 0), (Fraction(1), 1)])
def test_sphere_search_finds_the_exact_thresholds(m, u, c):
    # scale u into the closed-form branch of each slice
    if c == -1 and u > 0:
        u = oracle.breakpoint_u0(m) * u
    if c == 1 and u < 0:
        u = oracle.breakpoint_v0(m) * 2
    exact = oracle.closed_form_n(m, u, c)
    assert exact is not None
    n, _ = oracle.numeric_n(m, u, c)
    assert abs(n - float(exact)) <= 1e-12 * max(1.0, abs(float(exact)))


def test_witness_is_negative_where_is_sos_says_yes():
    x = oracle.find_witness(8, 60, 40, 0)
    assert x is not None
    assert oracle.exact_value_at(8, 60, 40, 0, x) < -15
    assert oracle.exact_value_at(8, 60, 40, 0, (1, Fraction(-1, 3), Fraction(-1, 3))) < -15


def test_certificate_check_rejects_the_wrong_yes():
    from circulant3 import sos
    from circulant3.tensor import make_tensor

    ok, cert = sos.is_sos(make_tensor(8, 60, 40, 0))
    if not ok:
        pytest.skip("is_sos no longer answers 'yes' here")
    good, err, _ = oracle.verify_certificate(8, 60, 40, 0, cert.basis.monos, cert.G)
    assert not good and err > oracle.CERT_COEF_TOL


def test_certificate_check_accepts_an_exact_sum_of_squares():
    # d = u = c = 1 gives f = (x1 + x2 + x3)^4, the square of
    # (x1 + x2 + x3)^2 = v . z(x) on the basis below, so G = v v^T
    monos = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    v = [1, 1, 1, 2, 2, 2]
    G = [[a * b for b in v] for a in v]
    assert oracle.verify_certificate(4, 1, 1, 1, monos, G)[0]
    G[0][0] += 1e-3
    assert not oracle.verify_certificate(4, 1, 1, 1, monos, G)[0]


def test_perturbed_published_value_is_flagged():
    published = run.published_rows()
    key = ("2", "6", "-1", "2")
    pub_m, pub_n = published[key]
    assert oracle.check_table_row(pub_m, pub_n, 56.0, 56.0) == []
    assert oracle.check_table_row(pub_m, pub_n + 1e-2, 56.0, 56.0)
    csv_text = "table,m,c,u,M_computed,N_computed\n2,6,-1,2,56.0,56.0\n"
    attempted, failed, problems = run.grade_table({"exit": 0, "csv": csv_text},
                                                  {key: (pub_m, pub_n + 1e-2)})
    assert (attempted, failed) == (1, 1) and problems
    assert run.grade_table({"exit": 0, "csv": csv_text}, {key: (pub_m, pub_n)}) == (1, 0, [])


def test_sos_decide_seed_sets_only_the_order():
    # the known faults fail in every run only if every seed asks the same decisions
    key = lambda q: json.dumps(q, sort_keys=True)
    one, two = workloads.sos_queries(1), workloads.sos_queries(2)
    assert [key(q) for q in one] != [key(q) for q in two]
    assert sorted(map(key, one)) == sorted(map(key, two))
    assert sum(bool(q["fault"]) for q in one) == \
        len(workloads.SOS_FAULTS) + len(workloads.SOS_GRID_FAULTS)


def test_benchmark_json_names_what_run_prints():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    e2e = run.end_to_end([{"query_ms": [1.0], "wall_s": 1.0, "rss_mb": 1.0}], [1.0])
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        {k: v["unit"] for k, v in e2e.items()}
    layers = run.per_layer({"spans": [], "wall_s": 1.0, "span_cost_s": 1e-6}, 1.0)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        {k: v["unit"] for k, v in layers.items()}
