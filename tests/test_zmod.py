"""Tests for Z_ell vector spans, duals and code-spec text, and for the reference
subgroup lattice walk in `oracles` that other tests iterate over."""

import itertools
import math
import random

import numpy as np
import pytest

from mwl.errors import BudgetExceeded, budget_limit
from mwl.zmod import LinearCode, _dtype_for, format_code_spec, parse_code_spec

from oracles import all_linear_codes, brute_all_subgroups, brute_dual, brute_span


def test_span_order2_element():
    assert set(LinearCode(4, 1, [(2,)]).codewords()) == {(0,), (2,)}


def test_span_three_mod_six():
    assert set(LinearCode(6, 1, [(3,)]).codewords()) == {(0,), (3,)}


def test_span_diagonal_z4():
    code = LinearCode(4, 2, [(1, 1)])
    expected = {(0, 0), (1, 1), (2, 2), (3, 3)}
    assert set(code.codewords()) == expected
    assert set(code.codewords()) == brute_span([(1, 1)], 4, 2)


def test_span_matches_bruteforce_random():
    rng = random.Random(1009)
    for _ in range(40):
        ell = rng.randint(2, 9)
        n = rng.randint(1, 3)
        gens = [tuple(rng.randrange(ell) for _ in range(n)) for _ in range(rng.randint(0, 3))]
        code = LinearCode(ell, n, gens)
        assert set(code.codewords()) == brute_span(gens, ell, n)


def test_span_is_sorted_and_contains_zero():
    code = LinearCode(6, 2, [(2, 1), (0, 3)])
    words = code.codewords()
    assert list(words) == sorted(words)
    assert (0, 0) in words


def test_dual_examples():
    assert set(LinearCode(4, 1, [(2,)]).dual().codewords()) == {(0,), (2,)}
    assert set(LinearCode(6, 1, [(3,)]).dual().codewords()) == {(0,), (2,), (4,)}
    assert set(LinearCode(4, 1, [(1,)]).dual().codewords()) == {(0,)}


def test_dual_of_zero_code_is_full_space():
    code = LinearCode(3, 2)
    assert code.dual().cardinality() == 9


def test_dual_generator_list_is_codeword_list():
    text = format_code_spec(LinearCode(6, 2, [(3, 0)]).dual())
    words = [(a, b) for a in (0, 2, 4) for b in range(6)]
    assert text == "modulus 6\nlength 2\n" + "".join(f"gen {a} {b}\n" for a, b in words)


def test_dual_matches_bruteforce_random():
    rng = random.Random(2406)
    for _ in range(30):
        ell = rng.randint(2, 8)
        n = rng.randint(1, 3)
        gens = [tuple(rng.randrange(ell) for _ in range(n)) for _ in range(rng.randint(0, 3))]
        code = LinearCode(ell, n, gens)
        assert set(code.dual().codewords()) == brute_dual(code.codewords(), ell, n)


def test_cardinality_examples():
    assert LinearCode(5, 3).cardinality() == 1
    assert LinearCode(4, 1, [(1,)]).cardinality() == 4
    assert LinearCode(6, 2, [(2, 0), (0, 3)]).cardinality() == 6


def test_all_linear_codes_counts():
    assert len(list(all_linear_codes(2, 1))) == 2
    assert len(list(all_linear_codes(4, 1))) == 3
    assert len(list(all_linear_codes(6, 1))) == 4
    assert len(list(all_linear_codes(2, 4))) == 67
    # Z_2^9 has 8.3 million subgroups: the walk refuses once it holds 10^4
    with pytest.raises(AssertionError, match="subgroups"):
        all_linear_codes(2, 9)


def test_all_linear_codes_matches_bruteforce():
    for ell, n in [(2, 2), (3, 2), (4, 2), (6, 1), (5, 2)]:
        ours = {frozenset(c.codewords()) for c in all_linear_codes(ell, n)}
        assert ours == brute_all_subgroups(ell, n)


def test_all_linear_codes_canonical_order():
    codes = list(all_linear_codes(4, 2))
    lists = [c.codewords() for c in codes]
    assert lists == sorted(lists)
    assert len(set(lists)) == len(lists)
    assert codes[0].cardinality() == 1  # zero code first


def test_subgroup_closure_invariant():
    for ell in (2, 3, 4, 5, 6):
        for code in all_linear_codes(ell, 2):
            words = set(code.codewords())
            assert (0, 0) in words
            for u in words:
                for v in words:
                    assert tuple((a + b) % ell for a, b in zip(u, v)) in words
            assert ell**2 % code.cardinality() == 0  # Lagrange


def test_duality_invariants_exhaustive():
    for ell in range(2, 13):
        for code in all_linear_codes(ell, 2):
            dual = code.dual()
            assert code.cardinality() * dual.cardinality() == ell**2
            assert dual.dual() == code
            for x in dual.codewords():
                for y in code.codewords():
                    assert sum(a * b for a, b in zip(x, y)) % ell == 0


def test_duality_product_exhaustive_length3():
    for ell in (9, 10):
        for code in all_linear_codes(ell, 3):
            assert code.cardinality() * code.dual().cardinality() == ell**3


def test_duality_product_random_generators():
    rng = random.Random(77)
    for _ in range(50):
        ell = rng.randint(2, 12)
        n = rng.randint(1, 4)
        gens = [tuple(rng.randrange(ell) for _ in range(n)) for _ in range(rng.randint(0, n))]
        code = LinearCode(ell, n, gens)
        assert code.cardinality() * code.dual().cardinality() == ell**n


def test_code_equality_by_codeword_set():
    a = LinearCode(6, 1, [(2,)])
    b = LinearCode(6, 1, [(4,), (2,)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != LinearCode(6, 1, [(3,)])
    assert a != LinearCode(12, 1, [(2,)])


def _multiples_of_gcd(ell, gens):
    """Span of length-1 generators mod ell, by arithmetic alone: multiples of gcd(ell, *gens)."""
    d = math.gcd(ell, *gens)
    return [(i * d,) for i in range(ell // d)]


def test_big_modulus_span_matches_gcd_multiples():
    rng = random.Random(2**61)
    for _ in range(60):
        k = rng.randint(1, 40)  # the span has at most k words
        d = rng.randint(1, 2**70 // k)
        ell = max(2, k * d)
        gens = [d * rng.randrange(k) for _ in range(rng.randint(0, 3))]
        code = LinearCode(ell, 1, [(g,) for g in gens])
        assert list(code.codewords()) == _multiples_of_gcd(ell, gens)
        assert code.cardinality() == ell // math.gcd(ell, *gens)


def test_big_modulus_benchmark_inputs():
    ell = 3 * 2**61
    code = LinearCode(ell, 1, [(3 * 2**59,), (2**61,)])
    assert list(code.codewords()) == _multiples_of_gcd(ell, [3 * 2**59, 2**61])
    assert code.cardinality() == 12
    code = LinearCode(2**64, 2, [(2**62, 2**63)])
    assert code.codewords() == (
        (0, 0),
        (2**62, 2**63),
        (2**63, 0),
        (3 * 2**62, 2**63),
    )


def test_object_dtype_codewords_strictly_lex_ordered():
    ell = 2**66
    g, h = (2**63, 2**65, 3 * 2**64), (2**64, 0, 2**65)  # orders 8 and 4
    code = LinearCode(ell, 3, [g, h])
    assert code.codeword_array().dtype == object
    words = code.codewords()
    assert all(u < v for u, v in zip(words, words[1:]))
    combos = {
        tuple((a * x + b * y) % ell for x, y in zip(g, h)) for a in range(8) for b in range(4)
    }
    assert words == tuple(sorted(combos))


def _sums_of_multiples(gens, ell):
    """Every sum of a_i g_i with 0 <= a_i < the order of g_i: the span, without a diagonal form."""
    orders = [ell // math.gcd(ell, *g) for g in gens]
    return {
        tuple(sum(a * x for a, x in zip(coeffs, column)) % ell for column in zip(*gens))
        for coeffs in itertools.product(*map(range, orders))
    }


def _random_gens(seed, ell, n, k, step):
    rng = random.Random(seed)
    return [[step * rng.randrange(ell // step) for _ in range(n)] for _ in range(k)]


def _block_edge_gens(ell, n, width):
    """A unit vector on the last digit of the first int64 block of `width` digits, and
    ell - 1 on every digit after it: words whose first blocks differ by one."""
    return [[int(j == width - 1) for j in range(n)], [(ell - 1) * (j >= width) for j in range(n)]]


# (ell, n, generators, word dtype): every ell^n is past int64, so the sort key is a Python int
KEY_BOUNDARY_CASES = [
    (2, 70, _block_edge_gens(2, 70, 62) + _random_gens(1, 2, 70, 1, 1), np.int64),
    (3, 45, _block_edge_gens(3, 45, 39) + _random_gens(2, 3, 45, 1, 1), np.int64),
    (2**32, 2, _random_gens(3, 2**32, 2, 2, 2**29), np.int64),
    (3 * 2**21, 3, _random_gens(4, 3 * 2**21, 3, 1, 3 * 2**18) + [[2**21, 0, 2**22]], np.int64),
    (2**64, 2, [[2**62, 2**63], [2**63, 3 * 2**62]], object),
    (3 * 2**61, 3, [[3 * 2**59, 0, 2**61], [2**61, 3 * 2**60, 0]], object),
]


@pytest.mark.parametrize(
    "ell, n, gens, dtype", KEY_BOUNDARY_CASES, ids=[f"Z_{c[0]}^{c[1]}" for c in KEY_BOUNDARY_CASES]
)
def test_span_sort_key_past_int64(ell, n, gens, dtype):
    assert _dtype_for(ell**n - 1) is object
    array = LinearCode(ell, n, gens).codeword_array()
    assert array.dtype == dtype
    words = list(map(tuple, array.tolist()))
    assert all(u < v for u, v in zip(words, words[1:]))
    assert words == sorted(_sums_of_multiples(gens, ell))
    if ell ** len(gens) <= 10**4:
        assert words == sorted(brute_span(gens, ell, n))


def test_dtype_rule_boundary():
    assert _dtype_for(2**63 - 1) is np.int64
    assert _dtype_for(2**63) is object


def test_equality_and_hash_across_constructions():
    for code in all_linear_codes(6, 2):
        twice = code.dual().dual()
        spanned = LinearCode(6, 2, code.generators)
        assert twice == code and hash(twice) == hash(code)
        assert spanned == code and hash(spanned) == hash(code)
    big = LinearCode(2**64, 2, [(2**62, 2**63)])
    same = LinearCode(2**64, 2, [(3 * 2**62, 2**63), (2**63, 0)])
    assert big == same and hash(big) == hash(same)


def test_constructor_validation():
    with pytest.raises(ValueError):
        LinearCode(1, 2)
    with pytest.raises(ValueError):
        LinearCode(4, 0)
    with pytest.raises(ValueError):
        LinearCode(4, 2, [(1,)])


def test_constructor_reduces_entries():
    code = LinearCode(4, 2, [(-1, 7)])
    assert code.generators == ((3, 3),)


def test_budget_exceeded_on_span():
    code = LinearCode(7, 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    with budget_limit(100), pytest.raises(BudgetExceeded):
        code.codewords()


def test_budget_exceeded_on_dual():
    # the dual's span charges |C_dual| = 25; its diagonal form only (1 + 3) * 3 * 1
    code = LinearCode(5, 3, [(1, 2, 3)])
    with budget_limit(24), pytest.raises(BudgetExceeded, match="span"):
        code.dual().codewords()
    with budget_limit(25):
        assert len(code.dual().codewords()) == 25


def test_dual_charge_counts_generators():
    # k = 2 generators of length n = 3: the diagonal form charges (k + n) * n * min(k, n)
    code = LinearCode(5, 3, [(1, 2, 3), (0, 1, 1)])
    with budget_limit(29), pytest.raises(BudgetExceeded, match="diagonal form"):
        code.dual()
    with budget_limit(30):
        assert len(code.dual().codewords()) == 5


def test_budget_limit_nests_and_restores(monkeypatch):
    monkeypatch.setenv("MWL_BUDGET", "24")
    code = LinearCode(5, 3, [(1, 0, 0)])  # |C_dual| = 25
    with budget_limit(1000):
        with budget_limit(24):
            with pytest.raises(BudgetExceeded):
                code.dual().codewords()
        with budget_limit(25):
            assert len(code.dual().codewords()) == 25
        with budget_limit(None):  # None defers to MWL_BUDGET again
            with pytest.raises(BudgetExceeded):
                code.dual().codewords()
    with pytest.raises(BudgetExceeded):
        code.dual().codewords()


def test_env_budget_override(monkeypatch):
    monkeypatch.setenv("MWL_BUDGET", "24")
    with pytest.raises(BudgetExceeded):
        LinearCode(5, 3, [(1, 0, 0)]).dual().codewords()
    monkeypatch.setenv("MWL_BUDGET", "25")
    assert len(LinearCode(5, 3, [(1, 0, 0)]).dual().codewords()) == 25


def test_parse_code_spec_roundtrip():
    code = parse_code_spec("modulus 6\nlength 2\ngen 2 0\ngen 0 3\n")
    assert code.ell == 6 and code.length == 2
    assert code.generators == ((2, 0), (0, 3))
    canonical = format_code_spec(code)
    assert canonical == (
        "modulus 6\nlength 2\n"
        "gen 0 0\ngen 0 3\ngen 2 0\ngen 2 3\ngen 4 0\ngen 4 3\n"
    )
    assert parse_code_spec(canonical) == code
    for code in all_linear_codes(4, 2):
        assert parse_code_spec(format_code_spec(code)) == code


def test_parse_code_spec_comments_and_reduction():
    code = parse_code_spec("# a comment\nmodulus 6\nlength 1\ngen 8  # reduced\n")
    assert code.generators == ((2,),)


def test_parse_code_spec_errors():
    with pytest.raises(ValueError):
        parse_code_spec("length 2\ngen 1 1\n")
    with pytest.raises(ValueError):
        parse_code_spec("modulus 4\nlength 2\ngen 1\n")
    with pytest.raises(ValueError):
        parse_code_spec("modulus 4\nlength 2\nfoo 1\n")
    with pytest.raises(ValueError):
        parse_code_spec("modulus 4\n")
