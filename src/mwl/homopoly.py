"""Exact homogeneous bivariate polynomials with rational coefficients.

A polynomial of degree D is stored as the coefficient list c_0 ... c_D of
sum_i c_i x^(D-i) y^i. Coefficients are exact: Python ints stay ints, and
every other value becomes a fractions.Fraction. An int and a Fraction of the
same value compare, hash and print alike, so equality checks are exact.

`krawtchouk_columns` is the single integer kernel behind every
MacWilliams-style expansion in the package: it streams the y-coefficients of
(x + (t-1)y)^(D-i) (x - y)^i, which are the Krawtchouk values K_k(i; D, t).
`substitute_transform` sums these columns and `krawtchouk.krawtchouk_matrix`
transposes them.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Iterable, Iterator

from .errors import DegreeMismatch, charge


class HomoPoly:
    """Homogeneous polynomial sum_i coeffs[i] * x^(D-i) * y^i."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, coeffs: Iterable[int | Fraction]):
        cs = tuple(c if type(c) is int else Fraction(c) for c in coeffs)
        if not cs:
            raise ValueError("a homogeneous polynomial needs degree + 1 coefficients")
        self.degree: int = len(cs) - 1
        self.coeffs: tuple[int | Fraction, ...] = cs

    @classmethod
    def zero(cls, degree: int) -> "HomoPoly":
        return cls([0] * (degree + 1))

    def coefficient(self, i: int) -> int | Fraction:
        return self.coeffs[i]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomoPoly):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.degree, self.coeffs))

    def __add__(self, other: "HomoPoly") -> "HomoPoly":
        if self.degree != other.degree:
            raise DegreeMismatch(f"degree {self.degree} vs {other.degree}")
        return HomoPoly(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "HomoPoly") -> "HomoPoly":
        if self.degree != other.degree:
            raise DegreeMismatch(f"degree {self.degree} vs {other.degree}")
        return HomoPoly(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __repr__(self) -> str:
        return f"HomoPoly({to_text(self)!r})"

    def __str__(self) -> str:
        return to_text(self)


def is_nonneg_integer_poly(p: HomoPoly) -> bool:
    """True iff every coefficient is a nonnegative integer."""
    return all(c.denominator == 1 and c >= 0 for c in p.coeffs)


def krawtchouk_columns(degree: int, multiplier: int) -> Iterator[list[int]]:
    """Yield, for i = 0..degree, the y-coefficients of (x + (t-1)y)^(D-i) (x - y)^i.

    Column i holds K_0(i) ... K_D(i) for length D and alphabet size t. Column
    0 is C(D, k) (t-1)^k; each later column is the previous one times (1 - z),
    divided exactly by (1 + (t-1)z). Python ints only, valid for every t >= 1.
    """
    charge((degree + 1) ** 2, f"Krawtchouk columns of degree {degree}")
    u = multiplier - 1
    col = [comb(degree, k) * u**k for k in range(degree + 1)]
    yield col
    for _ in range(degree):
        nxt, b_prev, c_prev = [], 0, 0
        for b in col:
            c_prev = b - b_prev - u * c_prev
            b_prev = b
            nxt.append(c_prev)
        col = nxt
        yield col


def substitute_transform(p: HomoPoly, multiplier: int, scale: int) -> HomoPoly:
    """Expand (1/scale) * p(x + (multiplier-1) y, x - y) exactly.

    This is the substitution behind MacWilliams-style transforms; the degree
    is preserved and coefficients stay exact rationals. The coefficients are
    put over one common denominator and the Krawtchouk columns summed in
    integers, with a single division per output coefficient: an int where it
    is exact, a Fraction otherwise.
    """
    t = int(multiplier)
    s = int(scale)
    if t < 1:
        raise ValueError(f"multiplier must be >= 1, got {multiplier}")
    if s < 1:
        raise ValueError(f"scale must be a positive integer, got {scale}")
    den = lcm(*(c.denominator for c in p.coeffs))
    out = [0] * (p.degree + 1)
    # columns past the last nonzero coefficient add nothing; the generator comes
    # first in zip so that its charge runs even for the zero polynomial
    last = max((i for i, c in enumerate(p.coeffs) if c), default=-1)
    for col, c in zip(krawtchouk_columns(p.degree, t), p.coeffs[: last + 1]):
        num = c.numerator * (den // c.denominator)
        if num:
            out = [o + num * v for o, v in zip(out, col)]
    q = den * s
    return HomoPoly(v // q if v % q == 0 else Fraction(v, q) for v in out)


def to_text(p: HomoPoly) -> str:
    """Serialize as ``deg D; i:c ...`` listing only nonzero coefficients.

    Rationals print as num/den, integers without the /1.
    """
    terms = [f"{i}:{c}" for i, c in enumerate(p.coeffs) if c != 0]
    head = f"deg {p.degree};"
    return " ".join([head] + terms) if terms else head


def from_text(text: str) -> HomoPoly:
    """Parse the ``deg D; i:c ...`` polynomial format.

    A coefficient is an integer, ``num/den`` or a plain decimal; exponent
    notation such as ``1e3`` is rejected.
    """
    head, _, tail = text.strip().partition(";")
    parts = head.split()
    if len(parts) != 2 or parts[0] != "deg":
        raise ValueError(f"polynomial text must start with 'deg D;', got {text!r}")
    degree = int(parts[1])
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    charge(degree + 1, f"coefficients of a degree-{degree} polynomial")
    coeffs = [Fraction(0)] * (degree + 1)
    seen: set[int] = set()
    for term in tail.split():
        idx_str, _, coeff_str = term.partition(":")
        if not coeff_str:
            raise ValueError(f"malformed term {term!r}")
        i = int(idx_str)
        if not 0 <= i <= degree:
            raise ValueError(f"term index {i} outside 0..{degree}")
        if i in seen:
            raise ValueError(f"duplicate term index {i}")
        seen.add(i)
        # Fraction would expand 1e1000000 to 10^1000000 before any charge
        if "e" in coeff_str or "E" in coeff_str:
            raise ValueError(f"exponent notation is not accepted: {coeff_str!r}")
        coeffs[i] = Fraction(coeff_str)
    return HomoPoly(coeffs)
