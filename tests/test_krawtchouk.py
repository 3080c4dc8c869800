"""Tests for Krawtchouk values, orthogonality, and the coefficient-space transform."""

import random
from fractions import Fraction
from math import comb

import pytest

from mwl.homopoly import HomoPoly, substitute_transform
from mwl.krawtchouk import KrawtchoukParams, krawtchouk_matrix

from oracles import krawtchouk, orthogonality_check, transforms_agree


def test_k0_is_one():
    for q in (2, 3, 5):
        for n in (1, 4, 7):
            params = KrawtchoukParams(n=n, q=q)
            for x in range(n + 1):
                assert krawtchouk(0, x, params) == 1


def test_k1_binary_n2():
    params = KrawtchoukParams(n=2, q=2)
    assert [krawtchouk(1, x, params) for x in range(3)] == [2, 0, -2]


def test_k2_ternary_at_zero():
    assert krawtchouk(2, 0, KrawtchoukParams(n=2, q=3)) == 4


def test_value_at_zero_formula():
    for q in (2, 3, 4, 5):
        for n in range(0, 9):
            params = KrawtchoukParams(n=n, q=q)
            for k in range(n + 1):
                assert krawtchouk(k, 0, params) == (q - 1) ** k * comb(n, k)


def test_params_validation():
    with pytest.raises(ValueError):
        KrawtchoukParams(n=-1, q=2)
    with pytest.raises(ValueError):
        KrawtchoukParams(n=3, q=1)


def test_orthogonality_small_cases():
    assert orthogonality_check(KrawtchoukParams(n=1, q=2))
    assert orthogonality_check(KrawtchoukParams(n=2, q=3))
    assert orthogonality_check(KrawtchoukParams(n=8, q=2))


def test_orthogonality_sweep():
    for q in (2, 3, 4, 5):
        for n in range(1, 11):
            assert orthogonality_check(KrawtchoukParams(n=n, q=q)), (q, n)


def transformed_counts(counts, q, size):
    """A'_k = (1/size) sum_j counts[j] K_k(j), through the substitution transform."""
    return substitute_transform(HomoPoly(counts), q, size).coeffs


def test_coefficient_transform_zero_code():
    counts = (1, 0, 0, 0, 0, 0)
    out = transformed_counts(counts, 3, 1)
    assert out == tuple(Fraction(2**k * comb(5, k)) for k in range(6))


def test_coefficient_transform_examples():
    out = transformed_counts((1, 0, 1), 2, 2)
    assert out == (Fraction(1), Fraction(0), Fraction(1))
    out = transformed_counts((1, 0, 0, 1), 2, 2)
    assert out == (Fraction(1), Fraction(0), Fraction(3), Fraction(0))


def test_coefficient_transform_length_mismatch():
    with pytest.raises(ValueError, match="expected 3 counts, got 2"):
        transforms_agree((1, 0), KrawtchoukParams(n=2, q=2), 1)


def test_transforms_agree_examples():
    assert transforms_agree((1, 0, 0, 0, 0, 0), KrawtchoukParams(n=5, q=3), 1)
    assert transforms_agree((1, 0, 1), KrawtchoukParams(n=2, q=2), 2)
    assert transforms_agree((1, 0, 0, 1), KrawtchoukParams(n=3, q=2), 2)


def test_transforms_agree_random():
    rng = random.Random(1234)
    for q in (2, 3, 4):
        for _ in range(100):
            n = rng.randint(1, 8)
            counts = tuple(rng.randint(0, 20) for _ in range(n + 1))
            size = rng.randint(1, 16)
            assert transforms_agree(counts, KrawtchoukParams(n=n, q=q), size)


def test_double_transform_is_identity():
    # sizes s1 * s2 = q^n undo each other on any integer sequence
    rng = random.Random(55)
    for q in (2, 3, 4):
        for n in (1, 3, 5):
            counts = tuple(rng.randint(0, 9) for _ in range(n + 1))
            once = transformed_counts(counts, q, 1)
            twice = transformed_counts(once, q, q**n)
            assert twice == tuple(Fraction(c) for c in counts)


def test_matrix_shape():
    mat = krawtchouk_matrix(KrawtchoukParams(n=4, q=3))
    assert len(mat) == 5 and all(len(row) == 5 for row in mat)
    assert mat[0] == [1, 1, 1, 1, 1]
    # the kernel's columns against the defining sum, entry by entry
    for q in range(2, 8):
        for n in range(15):
            params = KrawtchoukParams(n=n, q=q)
            expected = [[krawtchouk(k, j, params) for j in range(n + 1)] for k in range(n + 1)]
            assert krawtchouk_matrix(params) == expected, (n, q)
