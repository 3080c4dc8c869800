"""Tests for identity existence, verification, scans, and counterexample search."""

import math

import pytest

from mwl.errors import BudgetExceeded, budget_limit
from mwl.gray import Field, canonical_gray_map, is_bijective_extension, prime_base
from mwl.homopoly import HomoPoly, is_nonneg_integer_poly, substitute_transform
from mwl.identity import (
    IdentityQuery,
    IdentityStatus,
    IdentityVerdict,
    VerdictReason,
    check_identity,
    check_shiromoto_form,
    existence_condition,
    scan_existence,
    search_counterexample,
)
from mwl.weights import WeightKind, weight_enumerator
from mwl.zmod import LinearCode

from oracles import all_linear_codes, sympy_transform

LEE = WeightKind.LEE
EUC = WeightKind.EUCLIDEAN


def test_is_prime_power():
    assert all(prime_base(t) is not None for t in (2, 3, 4, 5, 7, 8, 9, 16, 27, 125))
    assert not any(prime_base(t) is not None for t in (0, 1, 6, 10, 12, 36, 100))


def test_existence_condition_examples():
    assert existence_condition(4, LEE) == 2
    assert existence_condition(6, LEE) is None
    assert existence_condition(4, EUC) is None
    assert existence_condition(3, EUC) == 3
    assert existence_condition(2, LEE) == 2
    assert existence_condition(2, EUC) == 2
    for ell in range(5, 40):
        assert existence_condition(ell, LEE) is None
    for ell in range(4, 40):
        assert existence_condition(ell, EUC) is None


def test_existence_rejects_hamming():
    with pytest.raises(ValueError):
        existence_condition(4, WeightKind.HAMMING)


def test_scan_existence():
    assert scan_existence(LEE, 100) == [(2, 2), (3, 3), (4, 2)]
    assert scan_existence(EUC, 100) == [(2, 2), (3, 3)]
    assert scan_existence(LEE, 2) == [(2, 2)]
    with pytest.raises(ValueError):
        scan_existence(LEE, 1)


def test_check_identity_z4_holds():
    verdict = check_identity(IdentityQuery(LinearCode(4, 1, [(2,)]), LEE, 2))
    assert verdict.status is IdentityStatus.HOLDS
    assert verdict.reason is VerdictReason.VERIFIED
    assert verdict.discrepancy is None


def test_check_identity_z6_fails():
    verdict = check_identity(IdentityQuery(LinearCode(6, 1, [(3,)]), LEE, 2))
    assert verdict.status is IdentityStatus.FAILS
    assert verdict.discrepancy == HomoPoly([0, 0, 1, 0])  # x y^2


def test_check_identity_z4_euclidean_fails():
    verdict = check_identity(IdentityQuery(LinearCode(4, 1, [(2,)]), EUC, 2))
    assert verdict.status is IdentityStatus.FAILS
    assert verdict.discrepancy == HomoPoly([0, 0, 6, 0, 0])  # 6 x^2 y^2


def test_check_identity_matches_sympy_route():
    # recompute both sides with the symbolic oracle for a mixed bag of codes
    cases = [
        (LinearCode(6, 1, [(3,)]), LEE, 2),
        (LinearCode(6, 1, [(2,)]), LEE, 3),
        (LinearCode(4, 2, [(1, 1)]), LEE, 2),
        (LinearCode(5, 1, [(1,)]), LEE, 5),
        (LinearCode(4, 1, [(2,)]), EUC, 2),
    ]
    for code, kind, t in cases:
        left = weight_enumerator(code.dual(), kind)
        right = sympy_transform(weight_enumerator(code, kind), t, code.cardinality())
        verdict = check_identity(IdentityQuery(code, kind, t))
        assert (verdict.status is IdentityStatus.HOLDS) == (left == right)
        if verdict.status is IdentityStatus.FAILS:
            assert verdict.discrepancy == right - left


def test_identity_holds_universally_for_admissible_moduli():
    for ell, lengths in [(2, (1, 2, 3)), (3, (1, 2, 3)), (4, (1, 2))]:
        t = existence_condition(ell, LEE)
        for n in lengths:
            for code in all_linear_codes(ell, n):
                verdict = check_identity(IdentityQuery(code, LEE, t))
                assert verdict.status is IdentityStatus.HOLDS, (ell, n, code.generators)
    for ell in (2, 3):
        t = existence_condition(ell, EUC)
        for n in (1, 2, 3):
            for code in all_linear_codes(ell, n):
                verdict = check_identity(IdentityQuery(code, EUC, t))
                assert verdict.status is IdentityStatus.HOLDS


def test_shiromoto_form():
    holds = check_shiromoto_form(LinearCode(4, 1, [(2,)]), LEE)
    assert holds.status is IdentityStatus.HOLDS

    notwf = check_shiromoto_form(LinearCode(6, 1, [(3,)]), LEE)
    assert notwf.status is IdentityStatus.NOT_WELL_FORMED
    assert notwf.reason is VerdictReason.MULTIPLIER_NOT_INTEGRAL
    assert notwf.discrepancy is None

    # 4^(1/4) is irrational, so the Euclidean form is not well formed either
    assert (
        check_shiromoto_form(LinearCode(4, 1, [(2,)]), EUC).status
        is IdentityStatus.NOT_WELL_FORMED
    )

    # over Z_2 the root is 2 and the classic binary identity holds everywhere
    for code in all_linear_codes(2, 2):
        for kind in (LEE, EUC):
            assert check_shiromoto_form(code, kind).status is IdentityStatus.HOLDS


def test_search_counterexample_returns_first_in_canonical_order():
    # independent pass: find the first failing code ourselves
    expected = None
    for code in all_linear_codes(6, 1):
        left = weight_enumerator(code.dual(), LEE)
        right = sympy_transform(weight_enumerator(code, LEE), 2, code.cardinality())
        if left != right:
            expected = (code, right - left)
            break
    assert expected is not None
    found = search_counterexample(6, LEE, 2, 1)
    assert found is not None
    assert found[0] == expected[0]
    assert found[1] == expected[1]
    # the zero code already fails over Z_6, so it is the canonical witness
    assert found[0].cardinality() == 1
    assert found[1] == HomoPoly([0, 1, 1, 0])


def test_search_counterexample_none_for_z4_and_z2():
    assert search_counterexample(4, LEE, 2, 3) is None
    assert search_counterexample(2, LEE, 2, 3) is None


def test_search_counterexample_finds_failures_for_bad_pairs():
    # every (ell, prime-power divisor) pair with ell <= 8 that the existence
    # condition rejects must admit a counterexample of length <= 2
    for kind in (LEE, EUC):
        for ell in range(2, 9):
            for t in range(2, ell + 1):
                if ell % t or prime_base(t) is None:
                    continue
                if existence_condition(ell, kind) == t:
                    continue
                found = search_counterexample(ell, kind, t, 2)
                assert found is not None, (kind, ell, t)
                code, disc = found
                assert code.length <= 2
                assert not disc.is_zero()
                verdict = check_identity(IdentityQuery(code, kind, t))
                assert verdict.status is IdentityStatus.FAILS


def test_search_budget():
    # Z_11^4 is past any lattice walk; 11^1 != 11^5, so the zero code of length 1 fails
    zero = LinearCode(11, 1)
    expected = check_identity(IdentityQuery(zero, LEE, 11)).discrepancy
    assert search_counterexample(11, LEE, 11, 4) == (zero, expected)
    # its check is still charged: the dual alone spans 11 words
    with budget_limit(10), pytest.raises(BudgetExceeded):
        search_counterexample(11, LEE, 11, 4)


def _first_failing_code(ell, kind, t, max_length):
    """The oracle route: walk every subgroup of Z_ell^n, n = 1..max_length, in order."""
    for n in range(1, max_length + 1):
        for code in all_linear_codes(ell, n):
            verdict = check_identity(IdentityQuery(code, kind, t))
            if verdict.status is IdentityStatus.FAILS:
                return code, verdict.discrepancy
    return None


def test_search_matches_oracle_walk():
    # 2 kinds x 11 moduli x 11 multipliers, every lattice with ell^n <= 64
    for kind in (LEE, EUC):
        for ell in range(2, 13):
            max_length = max(n for n in range(1, 7) if ell**n <= 64)
            for t in range(2, 13):
                found = search_counterexample(ell, kind, t, max_length)
                assert found == _first_failing_code(ell, kind, t, max_length), (kind, ell, t)


# 2 cos(2 pi m / ell) for each ell / gcd(m, ell) where it is an integer;
# by Niven's theorem it is irrational for every other order
TWO_COS = {1: 2, 2: -2, 3: -1, 4: 0, 6: 1}


def _doubled_character_sum(ell, kind, k):
    """2 * coefficients of sum_b cos(2 pi k b / ell) x^(S - w(b)) y^w(b), or None if irrational."""
    out = [0] * (kind.scale(ell) + 1)
    for b in range(ell // 2 + 1):
        if b == 0:
            doubled = 2
        elif 2 * b == ell:
            doubled = 2 * (-1) ** k  # cos(pi k)
        else:  # b and ell - b share the weight and give 2 cos(2 pi k b / ell)
            two_cos = TWO_COS.get(ell // math.gcd(k * b, ell))
            if two_cos is None:
                return None
            doubled = 2 * two_cos
        out[kind.of_residue(b, ell)] += doubled
    return out


def _factor_product(degree, t, w):
    """Coefficients of (x + (t-1)y)^(degree-w) (x - y)^w, by convolving two binomial rows."""
    a = [math.comb(degree - w, i) * (t - 1) ** i for i in range(degree - w + 1)]
    b = [math.comb(w, j) * (-1) ** j for j in range(w + 1)]
    out = [0] * (degree + 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def test_character_certificate_holds_exactly_at_the_five_triples():
    # every Lee class k matching its factor product is the MacWilliams identity for
    # the symmetrized enumerator (MacWilliams & Sloane 1977, ch. 5 sec. 6)
    for order, value in TWO_COS.items():
        assert abs(2 * math.cos(2 * math.pi / order) - value) < 1e-12
    certified = []
    for kind in (LEE, EUC):
        for ell in range(2, 13):
            S = kind.scale(ell)
            for t in range(2, 13):
                if all(
                    _doubled_character_sum(ell, kind, k)
                    == [2 * c for c in _factor_product(S, t, kind.of_residue(k, ell))]
                    for k in range(ell // 2 + 1)
                ):
                    certified.append((kind, ell, t))
    assert certified == [(LEE, 2, 2), (LEE, 3, 3), (LEE, 4, 2), (EUC, 2, 2), (EUC, 3, 3)]
    for kind, ell, t in certified:
        assert existence_condition(ell, kind) == t


def _transform_is_enumerator(code, t):
    transformed = substitute_transform(weight_enumerator(code, LEE), t, code.cardinality())
    return is_nonneg_integer_poly(transformed) and transformed.coefficient(0) == 1


def test_verify_identity_conditions():
    # (ell, m, generator): bijective Gray map, transform is an enumerator, identity holds
    cases = [
        (4, 2, 2, True, True, IdentityStatus.HOLDS),
        (6, 2, 3, False, True, IdentityStatus.FAILS),
        # with m=3 the transform picks up non-integer coefficients
        (6, 3, 3, False, False, IdentityStatus.FAILS),
    ]
    for ell, m, g, bijective, enumerator, status in cases:
        code = LinearCode(ell, 1, [(g,)])
        assert is_bijective_extension(canonical_gray_map(ell, Field(m))) is bijective
        assert _transform_is_enumerator(code, m) is enumerator
        assert check_identity(IdentityQuery(code, LEE, m)).status is status


def test_holds_implies_dual_match():
    for code in all_linear_codes(4, 2):
        verdict = check_identity(IdentityQuery(code, LEE, 2))
        assert verdict.status is IdentityStatus.HOLDS
        transformed = substitute_transform(weight_enumerator(code, LEE), 2, code.cardinality())
        assert transformed == weight_enumerator(code.dual(), LEE)


def test_query_validation():
    code = LinearCode(4, 1, [(2,)])
    with pytest.raises(ValueError):
        IdentityQuery(code, WeightKind.HAMMING, 2)
    with pytest.raises(ValueError):
        IdentityQuery(code, LEE, 1)


def test_verdict_validation():
    with pytest.raises(ValueError):
        IdentityVerdict(IdentityStatus.FAILS, VerdictReason.VERIFIED)
    with pytest.raises(ValueError):
        IdentityVerdict(IdentityStatus.FAILS, VerdictReason.VERIFIED, HomoPoly.zero(2))
    with pytest.raises(ValueError):
        IdentityVerdict(
            IdentityStatus.HOLDS, VerdictReason.VERIFIED, HomoPoly([1, 0])
        )
