"""Tests for exact homogeneous polynomials and the substitution transform."""

import random
from fractions import Fraction
from math import comb

import pytest

from mwl import homopoly
from mwl.errors import BudgetExceeded, DegreeMismatch, budget_limit
from mwl.homopoly import (
    HomoPoly,
    from_text,
    is_nonneg_integer_poly,
    substitute_transform,
    to_text,
)

from oracles import sympy_transform


X2_PLUS_Y2 = HomoPoly([1, 0, 1])


def test_transform_fixed_point():
    # (1/2)[(x+y)^2 + (x-y)^2] = x^2 + y^2
    assert substitute_transform(X2_PLUS_Y2, 2, 2) == X2_PLUS_Y2


def test_transform_full_square():
    # (1/4)(2x)^2 = x^2
    p = HomoPoly([1, 2, 1])
    assert substitute_transform(p, 2, 4) == HomoPoly([1, 0, 0])


def test_transform_cubic():
    # (1/2)[(x+y)^3 + (x-y)^3] = x^3 + 3xy^2
    p = HomoPoly([1, 0, 0, 1])
    assert substitute_transform(p, 2, 2) == HomoPoly([1, 0, 3, 0])


def test_transform_monomial():
    # x^n goes to (x + (t-1)y)^n
    for t in (2, 3, 5):
        out = substitute_transform(HomoPoly([1, 0, 0, 0]), t, 1)
        assert out == HomoPoly([1, 3 * (t - 1), 3 * (t - 1) ** 2, (t - 1) ** 3])


def test_transform_stops_after_last_nonzero_coefficient(monkeypatch):
    pulled = []
    real = homopoly.krawtchouk_columns

    def counting(degree, multiplier):
        for col in real(degree, multiplier):
            pulled.append(col)
            yield col

    monkeypatch.setattr(homopoly, "krawtchouk_columns", counting)
    D = 300
    out = substitute_transform(HomoPoly([1] + [0] * D), 3, 1)
    assert out == HomoPoly([comb(D, k) * 2**k for k in range(D + 1)])
    # column 0 gives x^D; zip pulls at most one more before the coefficients end
    assert len(pulled) <= 2
    # the zero polynomial pulls no column it needs, yet still meets the (D+1)^2 charge
    with budget_limit(100), pytest.raises(BudgetExceeded):
        substitute_transform(HomoPoly.zero(10), 2, 1)


def test_transform_preserves_degree():
    rng = random.Random(5)
    for _ in range(20):
        D = rng.randint(0, 9)
        p = HomoPoly([rng.randint(-4, 9) for _ in range(D + 1)])
        assert substitute_transform(p, rng.randint(1, 5), rng.randint(1, 6)).degree == D


def test_transform_matches_sympy_oracle():
    rng = random.Random(99)
    for _ in range(25):
        D = rng.randint(0, 8)
        p = HomoPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(D + 1)])
        t = rng.randint(1, 5)
        s = rng.randint(1, 8)
        assert substitute_transform(p, t, s) == sympy_transform(p, t, s)
    # high degrees, including the degenerate multiplier 1
    for t in (1, 2, 9):
        D = rng.randint(30, 40)
        p = HomoPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(D + 1)])
        s = rng.randint(1, 8)
        assert substitute_transform(p, t, s) == sympy_transform(p, t, s), (D, t, s)


def test_transform_is_linear():
    rng = random.Random(31)
    for _ in range(15):
        D = rng.randint(0, 7)
        p = HomoPoly([rng.randint(-5, 9) for _ in range(D + 1)])
        q = HomoPoly([rng.randint(-5, 9) for _ in range(D + 1)])
        t, s = rng.randint(2, 4), rng.randint(1, 5)
        left = substitute_transform(p + q, t, s)
        right = substitute_transform(p, t, s) + substitute_transform(q, t, s)
        assert left == right


def test_transform_involution():
    # applying twice with multiplier q and scales s1*s2 = q^D recovers p
    rng = random.Random(47)
    for q in (2, 3, 4):
        for _ in range(10):
            D = rng.randint(0, 8)
            p = HomoPoly([rng.randint(0, 9) for _ in range(D + 1)])
            for s1 in (1, q ** (D // 2)):
                s2 = q**D // s1
                assert substitute_transform(substitute_transform(p, q, s1), q, s2) == p


def test_poly_equal():
    assert X2_PLUS_Y2 == HomoPoly([1, 0, 1])
    assert HomoPoly([1, 0, 2, 0]) != HomoPoly([1, 0, 3, 0])
    assert X2_PLUS_Y2 != HomoPoly([1, 0, 1, 0])


def test_poly_sub():
    assert HomoPoly([1, 0, 3, 0]) - HomoPoly([1, 0, 2, 0]) == HomoPoly([0, 0, 1, 0])
    p = HomoPoly([2, 5, 7])
    assert (p - p).is_zero()
    assert HomoPoly([1, 0, 0]) - HomoPoly([0, 0, 1]) == HomoPoly([1, 0, -1])
    with pytest.raises(DegreeMismatch):
        HomoPoly([1, 1]) - HomoPoly([1, 1, 1])


def test_is_nonneg_integer_poly():
    assert is_nonneg_integer_poly(HomoPoly([1, 0, 3, 0]))
    assert not is_nonneg_integer_poly(HomoPoly([Fraction(1, 2), 0, 1]))
    assert not is_nonneg_integer_poly(HomoPoly([1, 0, -1]))


def test_evaluate():
    assert sum(X2_PLUS_Y2.coeffs) == 2
    assert sum(HomoPoly([1, 2, 1]).coeffs) == 4
    p = HomoPoly([1, 0, 3, 0])
    assert sum(c * 2 ** (p.degree - i) for i, c in enumerate(p.coeffs)) == 8 + 3 * 2


def test_text_format():
    assert to_text(HomoPoly([1, 0, 3, 0])) == "deg 3; 0:1 2:3"
    assert to_text(HomoPoly.zero(2)) == "deg 2;"
    assert to_text(HomoPoly([Fraction(1, 2), -2])) == "deg 1; 0:1/2 1:-2"


def test_from_text_roundtrip():
    rng = random.Random(8)
    for _ in range(20):
        D = rng.randint(0, 10)
        p = HomoPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(D + 1)])
        assert from_text(to_text(p)) == p


def test_from_text_errors():
    with pytest.raises(ValueError):
        from_text("3; 0:1")
    with pytest.raises(ValueError):
        from_text("deg 2; 5:1")
    with pytest.raises(ValueError):
        from_text("deg 2; 0:1 0:2")
    with pytest.raises(ValueError):
        from_text("deg 2; 0")


def test_from_text_rejects_exponent_notation():
    # 1e400 would be expanded to a 401-digit integer before any charge
    for text in ("deg 0; 0:1e400", "deg 1; 1:2E3", "deg 0; 0:1/1e5"):
        with pytest.raises(ValueError, match="exponent"):
            from_text(text)
    assert from_text("deg 2; 0:-3 1:1/4 2:0.5") == HomoPoly([-3, Fraction(1, 4), Fraction(1, 2)])


def test_constructor_and_zero():
    with pytest.raises(ValueError):
        HomoPoly([])
    z = HomoPoly.zero(3)
    assert z.degree == 3 and z.is_zero()
    assert HomoPoly([1]).degree == 0


def test_transform_validates_arguments():
    with pytest.raises(ValueError):
        substitute_transform(X2_PLUS_Y2, 0, 1)
    with pytest.raises(ValueError):
        substitute_transform(X2_PLUS_Y2, 2, 0)
