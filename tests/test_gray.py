"""Tests for finite field arithmetic and Gray maps."""

import random
import time

import pytest

from mwl.errors import BudgetExceeded, NotPrimePower, budget_limit
from mwl.gray import (
    Field,
    GrayMap,
    apply_gray,
    bijective_extension_exists,
    canonical_gray_map,
    format_gray_table,
    image_is_linear,
    is_bijective_extension,
    is_weight_preserving,
    parse_gray_table,
    prime_base,
)
from mwl.weights import lee_weight, vector_weight, WeightKind
from mwl.zmod import LinearCode

from oracles import all_linear_codes

SUPPORTED_FIELD_SIZES = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def _prime_power_divisors(ell):
    return [m for m in range(2, ell + 1) if ell % m == 0 and prime_base(m) is not None]


def test_small_field_arithmetic():
    f2 = Field(2)
    assert f2.add(1, 1) == 0
    f3 = Field(3)
    assert f3.add(2, 2) == 1
    f4 = Field(4)
    assert f4.mul(2, 2) == 3  # x * x = x + 1 mod x^2+x+1
    assert Field(8).mul(2, 4) == 3  # x * x^2 = x + 1 mod x^3+x+1
    assert Field(9).mul(3, 3) == 2  # x * x = -1 mod x^2+1
    assert Field(16).mul(2, 8) == 3  # x * x^3 = x + 1 mod x^4+x+1


def test_field_axioms_all_supported():
    for m in SUPPORTED_FIELD_SIZES:
        f = Field(m)
        elems = range(m)
        for a in elems:
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.mul(a, 0) == 0
            assert any(f.add(a, b) == 0 for b in elems)
            for b in elems:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                for c in elems:
                    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        # every nonzero element invertible
        for a in range(1, m):
            assert any(f.mul(a, b) == 1 for b in range(1, m))


def test_field_rejects_non_prime_powers():
    for m in (6, 12, 1, 0):
        with pytest.raises((NotPrimePower, ValueError)):
            Field(m)
    # prime powers without a built-in irreducible polynomial
    for m in (25, 27, 32):
        with pytest.raises(NotPrimePower):
            Field(m)


def test_canonical_table_z6_f2():
    gmap = canonical_gray_map(6, Field(2))
    assert gmap.table == (
        (0, 0, 0),
        (0, 0, 1),
        (0, 1, 1),
        (1, 1, 1),
        (1, 1, 0),
        (1, 0, 0),
    )


def test_canonical_table_z4_f2():
    gmap = canonical_gray_map(4, Field(2))
    assert gmap.table == ((0, 0), (0, 1), (1, 1), (1, 0))


def test_canonical_table_z3_f3():
    gmap = canonical_gray_map(3, Field(3))
    assert gmap.table == ((0,), (1,), (2,))


def test_apply_gray():
    g4 = canonical_gray_map(4, Field(2))
    assert apply_gray(g4, (0, 0)) == (0, 0, 0, 0)
    assert apply_gray(g4, (2, 3)) == (1, 1, 1, 0)
    g6 = canonical_gray_map(6, Field(2))
    assert apply_gray(g6, (5, 1)) == (1, 0, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        apply_gray(g4, (4,))


def test_canonical_maps_weight_preserving():
    for ell in range(2, 17):
        for m in _prime_power_divisors(ell):
            gmap = canonical_gray_map(ell, Field(m))
            assert is_weight_preserving(gmap), (ell, m)


def test_non_weight_preserving_table():
    gmap = GrayMap(4, Field(2), [(0, 0), (1, 1), (1, 1), (1, 0)])
    assert not is_weight_preserving(gmap)


def test_support_patterns_reverse():
    for ell in range(4, 17):
        gmap = canonical_gray_map(ell, Field(2))
        ell1 = ell // 2
        for a in range(1, ell1):
            sup_a = [e != 0 for e in gmap.table[a]]
            sup_b = [e != 0 for e in gmap.table[ell - a]]
            assert sup_a == sup_b[::-1]


def test_weight_preserved_on_random_vectors():
    rng = random.Random(404)
    for ell, m in [(6, 2), (6, 3), (8, 2), (9, 3), (16, 2), (5, 5)]:
        gmap = canonical_gray_map(ell, Field(m))
        for _ in range(1000):
            n = rng.randint(1, 6)
            v = tuple(rng.randrange(ell) for _ in range(n))
            image = apply_gray(gmap, v)
            assert sum(e != 0 for e in image) == vector_weight(v, ell, WeightKind.LEE)


def test_bijective_extension_examples():
    assert is_bijective_extension(canonical_gray_map(4, Field(2)))
    assert not is_bijective_extension(canonical_gray_map(6, Field(2)))
    assert is_bijective_extension(canonical_gray_map(2, Field(2)))


def test_bijective_extension_scan_to_100():
    hits = []
    for ell in range(2, 101):
        for m in _prime_power_divisors(ell):
            if m in SUPPORTED_FIELD_SIZES:
                ok = is_bijective_extension(canonical_gray_map(ell, Field(m)))
            else:
                # field table unavailable, but the size condition ell = m^ell1
                # already fails for every such pair
                ok = bijective_extension_exists(ell, m)
                assert not ok
            if ok:
                hits.append((ell, m))
    assert hits == [(2, 2), (3, 3), (4, 2)]


def test_bijective_extension_exists_skips_the_power():
    # 3^(5 * 10^7) would have about 24 million digits; the rule needs none of them
    start = time.perf_counter()
    assert not bijective_extension_exists(10**8, 3)
    assert not bijective_extension_exists(2**4000, 2)
    assert time.perf_counter() - start < 1.0
    assert bijective_extension_exists(4, 2) and not bijective_extension_exists(4, 4)
    with pytest.raises(ValueError):
        bijective_extension_exists(1, 2)


def test_image_linearity_trivial_cases():
    g4 = canonical_gray_map(4, Field(2))
    assert image_is_linear(g4, LinearCode(4, 2))  # zero code
    g2 = canonical_gray_map(2, Field(2))
    for code in all_linear_codes(2, 3):
        assert image_is_linear(g2, code)  # the map is the identity here


def test_image_linearity_z4_span11():
    g4 = canonical_gray_map(4, Field(2))
    assert image_is_linear(g4, LinearCode(4, 2, [(1, 1)]))


def test_nonlinear_image_exists_over_z4():
    # brute force over all Z4 codes of length <= 3: images stay linear up to
    # length 2, and the first nonlinear image appears at length 3
    g4 = canonical_gray_map(4, Field(2))
    for n in (1, 2):
        assert all(image_is_linear(g4, code) for code in all_linear_codes(4, n))
    nonlinear = [
        code for code in all_linear_codes(4, 3) if not image_is_linear(g4, code)
    ]
    assert nonlinear
    witness = LinearCode(4, 3, [(1, 1, 0), (0, 1, 1)])
    assert witness in nonlinear
    # independent closure check on the witness image
    image = {apply_gray(g4, c) for c in witness.codewords()}
    sums_outside = [
        (u, v)
        for u in image
        for v in image
        if tuple((a + b) % 2 for a, b in zip(u, v)) not in image
    ]
    assert sums_outside


def test_image_modulus_mismatch():
    g4 = canonical_gray_map(4, Field(2))
    with pytest.raises(ValueError):
        image_is_linear(g4, LinearCode(6, 1, [(3,)]))


def test_image_linearity_charges_pairs():
    # the span of Z_4^2 charges at most 16 vectors; the 16^2 image pairs exceed 100
    g4 = canonical_gray_map(4, Field(2))
    full = LinearCode(4, 2, [(1, 0), (0, 1)])
    with budget_limit(100):
        assert full.cardinality() == 16
        with pytest.raises(BudgetExceeded):
            image_is_linear(g4, full)
    with budget_limit(256):
        assert image_is_linear(g4, full)


def test_gray_table_text_roundtrip():
    for ell, m in [(6, 2), (6, 3), (4, 2), (9, 3)]:
        field = Field(m)
        gmap = canonical_gray_map(ell, field)
        text = format_gray_table(gmap)
        back = parse_gray_table(text, field)
        assert back.table == gmap.table


def test_gray_table_format_exact():
    text = format_gray_table(canonical_gray_map(4, Field(2)))
    assert text == "0 : 0 0\n1 : 0 1\n2 : 1 1\n3 : 1 0\n"


def test_parse_gray_table_errors():
    field = Field(2)
    with pytest.raises(ValueError):
        parse_gray_table("0 : 0 0\n2 : 1 1\n", field)  # gap in residues
    with pytest.raises(ValueError):
        parse_gray_table("0 : 0 0\n0 : 1 1\n", field)
    with pytest.raises(ValueError):
        parse_gray_table("0 : 0 0\n1 : 0 5\n", field)  # label out of range


def test_graymap_validation():
    field = Field(2)
    with pytest.raises(ValueError):
        GrayMap(4, field, [(0, 0), (0, 1), (1, 1)])  # missing row
    with pytest.raises(ValueError):
        GrayMap(4, field, [(0,), (1,), (1,), (1,)])  # wrong width
