"""Strongly symmetric circulant tensors with three independent entries.

A tensor of this family is identified by the tuple (m, d, u, c): order m,
diagonal entry d, entry u on index tuples with exactly two distinct
values, and entry c on tuples where all three values occur. The dense
3^m entry array is never materialized; evaluation, gradients, and the
polynomial coefficient map all come from the grouped power expansion of
the associated ternary form

    f(x) = d*P + u*(Q - 2*P) + c*(S - Q + P)

with P = x1^m + x2^m + x3^m, Q = (x1+x2)^m + (x1+x3)^m + (x2+x3)^m and
S = (x1+x2+x3)^m. All arithmetic is polymorphic: exact inputs (int,
Fraction) produce exact outputs, floats produce floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence, Tuple, Union

from circulant3 import kernels

Scalar = Union[int, float, Fraction]

_VALID_INDEX = frozenset((1, 2, 3))


def _check_scalar(name: str, value: Scalar) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class CirculantTensor:
    """Value object for the four structure parameters (m, d, u, c)."""

    m: int
    d: Scalar
    u: Scalar
    c: Scalar

    def __post_init__(self) -> None:
        if isinstance(self.m, bool) or not isinstance(self.m, int):
            raise ValueError(f"order m must be an integer, got {self.m!r}")
        if self.m < 3:
            raise ValueError(f"order m must be >= 3, got {self.m}")
        _check_scalar("d", self.d)
        _check_scalar("u", self.u)
        _check_scalar("c", self.c)

    def entry(self, idx: Sequence[int]) -> Scalar:
        """Entry at an index tuple of length m with values in {1, 2, 3}."""
        idx = tuple(idx)
        if len(idx) != self.m:
            raise ValueError(f"index tuple must have length {self.m}, got {len(idx)}")
        distinct = set(idx)
        if not distinct <= _VALID_INDEX:
            raise ValueError(f"indices must lie in {{1, 2, 3}}, got {sorted(distinct)}")
        if len(distinct) == 1:
            return self.d
        if len(distinct) == 2:
            return self.u
        return self.c

    def eval_form(self, x: Sequence[Scalar]) -> Scalar:
        """Value of the associated degree-m form at x = (x1, x2, x3)."""
        x1, x2, x3 = x
        return kernels.eval_form(self.m, self.d, self.u, self.c, x1, x2, x3)

    def apply_power(self, x: Sequence[Scalar]) -> Tuple[Scalar, Scalar, Scalar]:
        """The vector A x^{m-1}; its dot product with x equals eval_form(x)."""
        x1, x2, x3 = x
        return kernels.apply_power(self.m, self.d, self.u, self.c, x1, x2, x3)

    def to_form(self) -> "TernaryForm":
        """Explicit coefficient map of the associated ternary form.

        The coefficient of x1^a x2^b x3^g is multinomial(m; a, b, g)
        times d, u, or c according to whether one, two, or three of the
        exponents are nonzero. Coefficients are exact for exact inputs.
        """
        m = self.m
        coeffs: Dict[Tuple[int, int, int], Scalar] = {}
        for a in range(m + 1):
            for b in range(m - a + 1):
                g = m - a - b
                mult = math.comb(m, a) * math.comb(m - a, b)
                nonzero = (a > 0) + (b > 0) + (g > 0)
                if nonzero == 1:
                    val = self.d * mult
                elif nonzero == 2:
                    val = self.u * mult
                else:
                    val = self.c * mult
                if val != 0:
                    coeffs[(a, b, g)] = val
        return TernaryForm(self.m, coeffs)

    def dd_bound(self) -> Scalar:
        return dd_bound(self.m, self.u, self.c)


@dataclass(frozen=True)
class TernaryForm:
    """Degree-m form in three variables as an exponent-to-coefficient map.

    Triples absent from the map have coefficient zero; every stored
    triple sums to the degree.
    """

    degree: int
    coeffs: Dict[Tuple[int, int, int], Scalar]

    def __post_init__(self) -> None:
        for key in self.coeffs:
            if len(key) != 3 or any(e < 0 for e in key) or sum(key) != self.degree:
                raise ValueError(f"exponent triple {key} does not sum to {self.degree}")

    def coefficient(self, a: int, b: int, g: int) -> Scalar:
        return self.coeffs.get((a, b, g), 0)

    def __call__(self, x: Sequence[Scalar]) -> Scalar:
        x1, x2, x3 = x
        total = 0
        for (a, b, g), coef in self.coeffs.items():
            total += coef * x1**a * x2**b * x3**g
        return total


def require_even_order(m: int) -> None:
    """Reject any order but an even integer m >= 4, the orders positivity analysis covers."""
    if isinstance(m, bool) or not isinstance(m, int) or m < 4 or m % 2 != 0:
        raise ValueError(f"m must be an even integer >= 4, got {m}")


def make_tensor(m: int, d: Scalar, u: Scalar, c: Scalar) -> CirculantTensor:
    """Construct A(m, d, u, c); raises ValueError on invalid arguments."""
    return CirculantTensor(m, d, u, c)


def dd_bound(m: int, u: Scalar, c: Scalar) -> Scalar:
    """Common off-diagonal absolute row sum |u|(2^m - 2) + |c|(3^{m-1} - 2^m + 1).

    A diagonal entry d at or above this value makes the tensor diagonally
    dominated, hence PSD and SOS; it is the standard upper bracket for
    threshold searches. Exact for exact u, c.
    """
    if m < 3:
        raise ValueError(f"order m must be >= 3, got {m}")
    return abs(u) * (2**m - 2) + abs(c) * (3 ** (m - 1) - 2**m + 1)
