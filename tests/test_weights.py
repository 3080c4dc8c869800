"""Tests for the three weight functions and weight enumerators."""

import pytest

from mwl.homopoly import HomoPoly, substitute_transform
from mwl.weights import (
    WeightKind,
    euclidean_weight,
    lee_weight,
    vector_weight,
    weight_enumerator,
)
from mwl.zmod import LinearCode

from oracles import all_linear_codes, brute_weight_enumerator


def test_lee_weight_values():
    assert lee_weight(0, 7) == 0
    assert lee_weight(5, 6) == 1
    assert lee_weight(2, 4) == 2


def test_lee_weight_symmetry_and_range():
    for ell in range(2, 30):
        values = [lee_weight(a, ell) for a in range(ell)]
        assert max(values) == ell // 2
        for a in range(ell):
            assert lee_weight(a, ell) == lee_weight((ell - a) % ell, ell)


def test_euclidean_weight_values():
    assert euclidean_weight(0, 9) == 0
    assert euclidean_weight(2, 4) == 4
    assert euclidean_weight(4, 6) == 4
    for ell in range(2, 30):
        assert max(euclidean_weight(a, ell) for a in range(ell)) == (ell // 2) ** 2


def test_residue_range_check():
    with pytest.raises(ValueError):
        lee_weight(6, 6)
    with pytest.raises(ValueError):
        euclidean_weight(-1, 6)


def test_vector_weight():
    assert vector_weight((0, 0, 0), 6, WeightKind.LEE) == 0
    assert vector_weight((1, 3), 6, WeightKind.LEE) == 4
    assert vector_weight((1, 3), 6, WeightKind.EUCLIDEAN) == 10
    assert vector_weight((1, 3), 6, WeightKind.HAMMING) == 2


def test_weight_enumerator_examples():
    assert weight_enumerator(LinearCode(4, 1, [(2,)]), WeightKind.LEE) == HomoPoly([1, 0, 1])
    assert weight_enumerator(LinearCode(4, 1, [(1,)]), WeightKind.LEE) == HomoPoly([1, 2, 1])
    assert weight_enumerator(LinearCode(6, 1, [(2,)]), WeightKind.LEE) == HomoPoly([1, 0, 2, 0])
    assert weight_enumerator(LinearCode(4, 1, [(2,)]), WeightKind.EUCLIDEAN) == HomoPoly(
        [1, 0, 0, 0, 1]
    )


def test_weight_enumerator_matches_bruteforce():
    for ell in (2, 3, 4, 5, 6, 7):
        for kind in WeightKind:
            code = LinearCode(ell, 2, [(1, 2), (0, ell - 1)])
            scale = kind.scale(ell)
            expected = brute_weight_enumerator(
                code.codewords(), ell, 2, lambda a: kind.of_residue(a, ell), scale
            )
            assert list(weight_enumerator(code, kind).coeffs) == expected


def test_enumerator_degree_and_total():
    for ell in (2, 5, 6, 8):
        for n in (1, 2):
            for code in all_linear_codes(ell, n):
                for kind in WeightKind:
                    poly = weight_enumerator(code, kind)
                    assert poly.degree == kind.scale(ell) * n
                    assert sum(poly.coeffs) == code.cardinality()
                    assert poly.coefficient(0) >= 1  # the zero codeword


def test_lee_equals_hamming_for_small_prime_moduli():
    for ell in (2, 3):
        for n in (1, 2, 3):
            for code in all_linear_codes(ell, n):
                lee = weight_enumerator(code, WeightKind.LEE)
                ham = weight_enumerator(code, WeightKind.HAMMING)
                assert lee == ham


def test_hamming_macwilliams_oracle_small():
    # standard identity over Z_ell with multiplier ell; joint check of
    # enumeration, dual, and transform
    for ell in range(2, 7):
        for n in (1, 2):
            for code in all_linear_codes(ell, n):
                left = weight_enumerator(code.dual(), WeightKind.HAMMING)
                right = substitute_transform(
                    weight_enumerator(code, WeightKind.HAMMING), ell, code.cardinality()
                )
                assert left == right


def test_distribution_roundtrip():
    code = LinearCode(6, 2, [(1, 1)])
    for kind in WeightKind:
        poly = weight_enumerator(code, kind)
        assert sum(poly.coeffs) == code.cardinality()
        assert poly.coefficient(0) == 1


def test_scale_factors():
    assert WeightKind.HAMMING.scale(9) == 1
    assert WeightKind.LEE.scale(9) == 4
    assert WeightKind.EUCLIDEAN.scale(9) == 16
    assert WeightKind.LEE.scale(2) == 1
    assert WeightKind.EUCLIDEAN.scale(2) == 1
