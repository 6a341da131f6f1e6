"""Structure layer: entry rule, form evaluation, coefficients, validation."""

import math
from fractions import Fraction

import pytest

from circulant3.tensor import (
    CirculantTensor,
    TernaryForm,
    dd_bound,
    make_tensor,
)

from helpers import (
    brute_force_apply,
    brute_force_eval,
    brute_force_offdiagonal_row_sum,
    entry_for_index,
)

import numpy as np


def test_entry_follows_distinct_value_rule():
    t = make_tensor(4, 7, -3, Fraction(1, 2))
    assert t.entry((1, 1, 1, 1)) == 7
    assert t.entry((2, 2, 2, 2)) == 7
    assert t.entry((1, 2, 1, 1)) == -3
    assert t.entry((3, 3, 1, 3)) == -3
    assert t.entry((1, 2, 3, 1)) == Fraction(1, 2)
    assert t.entry((3, 2, 1, 2)) == Fraction(1, 2)


def test_entry_validates_index_tuples():
    t = make_tensor(4, 1, 2, 3)
    with pytest.raises(ValueError):
        t.entry((1, 2, 3))
    with pytest.raises(ValueError):
        t.entry((1, 2, 3, 4))
    with pytest.raises(ValueError):
        t.entry((0, 1, 2, 3))


@pytest.mark.parametrize("m", [4, 6])
def test_eval_form_matches_brute_force(m):
    rng = np.random.default_rng(1000 + m)
    for _ in range(50):
        d, u, c = rng.uniform(-2.0, 2.0, size=3)
        x = rng.uniform(-1.5, 1.5, size=3)
        t = make_tensor(m, float(d), float(u), float(c))
        fast = t.eval_form(tuple(x))
        slow = brute_force_eval(m, float(d), float(u), float(c), tuple(x))
        assert abs(fast - slow) <= 1e-10 * max(1.0, abs(slow))


def test_eval_form_exact_for_fractions():
    m = 4
    d, u, c = Fraction(3, 7), Fraction(-5, 3), Fraction(11, 13)
    x = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))
    t = make_tensor(m, d, u, c)
    fast = t.eval_form(x)
    slow = brute_force_eval(m, d, u, c, x)
    assert isinstance(fast, Fraction)
    assert fast == slow


@pytest.mark.parametrize("m", [4, 6])
def test_apply_power_matches_brute_force(m):
    rng = np.random.default_rng(2000 + m)
    for _ in range(20):
        d, u, c = rng.uniform(-2.0, 2.0, size=3)
        x = rng.uniform(-1.5, 1.5, size=3)
        t = make_tensor(m, float(d), float(u), float(c))
        fast = t.apply_power(tuple(x))
        slow = brute_force_apply(m, float(d), float(u), float(c), tuple(x))
        for a, b in zip(fast, slow):
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))
        # contracting once more against x recovers the form value
        f = t.eval_form(tuple(x))
        dot = sum(xi * gi for xi, gi in zip(x, fast))
        assert abs(dot - f) <= 1e-10 * max(1.0, abs(f))


@pytest.mark.parametrize("m", [4, 6])
def test_to_form_coefficients_are_multinomial_times_entry(m):
    d, u, c = Fraction(2), Fraction(-3), Fraction(5, 2)
    form = make_tensor(m, d, u, c).to_form()
    for a in range(m + 1):
        for b in range(m - a + 1):
            g = m - a - b
            mult = math.factorial(m) // (
                math.factorial(a) * math.factorial(b) * math.factorial(g)
            )
            # an index tuple whose value counts are (a, b, g)
            idx = (1,) * a + (2,) * b + (3,) * g
            expected = mult * entry_for_index(d, u, c, idx)
            assert form.coefficient(a, b, g) == expected
    assert form.coefficient(m + 1, 0, 0) == 0


def test_form_evaluation_agrees_with_tensor():
    rng = np.random.default_rng(3)
    t = make_tensor(6, 1.25, -0.5, 2.0)
    form = t.to_form()
    assert form.degree == 6
    for _ in range(10):
        x = tuple(rng.uniform(-1.0, 1.0, size=3))
        assert abs(form(x) - t.eval_form(x)) <= 1e-10 * max(1.0, abs(form(x)))


@pytest.mark.parametrize("m", [4, 6])
def test_dd_bound_is_offdiagonal_absolute_row_sum(m):
    cases = [
        (Fraction(-5, 3), Fraction(7, 2)),
        (Fraction(2), Fraction(-1)),
        (Fraction(0), Fraction(4, 7)),
        (Fraction(-3), Fraction(0)),
    ]
    for u, c in cases:
        assert dd_bound(m, u, c) == brute_force_offdiagonal_row_sum(m, u, c)


def test_constructor_validation():
    with pytest.raises(ValueError):
        make_tensor(2, 1, 1, 1)
    with pytest.raises(ValueError):
        make_tensor(True, 1, 1, 1)
    with pytest.raises(ValueError):
        CirculantTensor(4.0, 1, 1, 1)
    with pytest.raises(ValueError):
        make_tensor(4, math.inf, 1, 1)
    with pytest.raises(ValueError):
        make_tensor(4, 1, "1", 1)
    with pytest.raises(ValueError):
        make_tensor(4, 1, True, 1)
    # odd m >= 3 is a valid tensor even though positivity analysis rejects it
    t = make_tensor(3, 1, 0, 0)
    assert t.eval_form((1, 1, 1)) == 3


def test_ternary_form_validation():
    with pytest.raises(ValueError):
        TernaryForm(4, {(3, 0, 0): 1})
    with pytest.raises(ValueError):
        TernaryForm(4, {(3, 2, -1): 1})
    form = TernaryForm(4, {(4, 0, 0): 1, (2, 1, 1): -2})
    assert form.coefficient(2, 1, 1) == -2
    assert form.coefficient(0, 4, 0) == 0
