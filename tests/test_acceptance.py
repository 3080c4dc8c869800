"""Acceptance suite: one test per criterion, every comparison exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. All checks are zero-tolerance equalities on integers and
rationals; the two timed criteria assert their wall-clock bounds.
"""

import random
import time

from mwl.cli import main
from mwl.gray import (
    Field,
    bijective_extension_exists,
    canonical_gray_map,
    is_bijective_extension,
    is_weight_preserving,
    prime_base,
)
from mwl.homopoly import HomoPoly, substitute_transform
from mwl.identity import (
    IdentityQuery,
    IdentityStatus,
    check_identity,
    check_shiromoto_form,
    scan_existence,
    search_counterexample,
)
from mwl.krawtchouk import KrawtchoukParams, krawtchouk_matrix
from mwl.weights import WeightKind, weight_enumerator
from mwl.zmod import LinearCode

from oracles import all_linear_codes, transforms_agree

LEE = WeightKind.LEE
EUC = WeightKind.EUCLIDEAN
HAM = WeightKind.HAMMING

SUPPORTED_FIELD_SIZES = {2, 3, 4, 5, 7, 8, 9, 11, 13, 16}


def _report(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def test_criterion_01_krawtchouk_orthogonality():
    start = time.perf_counter()
    for q in (2, 3, 4):
        for n in range(1, 9):
            K = krawtchouk_matrix(KrawtchoukParams(n=n, q=q))
            qn = q**n
            for k in range(n + 1):
                for j in range(n + 1):
                    total = sum(K[k][l] * K[l][j] for l in range(n + 1))
                    assert total == (qn if k == j else 0), (q, n, k, j)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"orthogonality sweep took {elapsed:.2f}s"
    _report(1, "krawtchouk orthogonality")


def test_criterion_02_transform_equivalence():
    rng = random.Random(20240)
    for q in (2, 3, 4):
        for n in range(1, 9):
            params = KrawtchoukParams(n=n, q=q)
            for _ in range(100):
                counts = tuple(rng.randint(0, 50) for _ in range(n + 1))
                size = rng.randint(1, 64)
                assert transforms_agree(counts, params, size), (q, n, counts, size)
    _report(2, "defining-sum vs substitution transform")


def test_criterion_03_z4_lee_identity_exhaustive(capsys):
    for n in (1, 2, 3):
        for code in all_linear_codes(4, n):
            verdict = check_identity(IdentityQuery(code, LEE, 2))
            assert verdict.status is IdentityStatus.HOLDS, (n, code.generators)
    exit_code = main(["gray", "--modulus", "4", "--m", "2"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert captured.out == "0 : 0 0\n1 : 0 1\n2 : 1 1\n3 : 1 0\n"
    with capsys.disabled():
        _report(3, "Z4 Lee identity holds exhaustively")


def test_criterion_04_z6_lee_failure():
    code = LinearCode(6, 1, [(3,)])
    assert weight_enumerator(code.dual(), LEE) == HomoPoly([1, 0, 2, 0])
    assert substitute_transform(weight_enumerator(code, LEE), 2, 2) == HomoPoly([1, 0, 3, 0])
    verdict = check_identity(IdentityQuery(code, LEE, 2))
    assert verdict.status is IdentityStatus.FAILS
    assert verdict.discrepancy == HomoPoly([0, 0, 1, 0])  # exactly x y^2
    shiromoto = check_shiromoto_form(code, LEE)
    assert shiromoto.status is IdentityStatus.NOT_WELL_FORMED
    _report(4, "Z6 Lee failure and ill-formed root multiplier")


def test_criterion_05_z8_lee_failure():
    for t in (2, 4, 8):
        found = search_counterexample(8, LEE, t, 2)
        assert found is not None, t
        code, discrepancy = found
        assert not discrepancy.is_zero()
        assert check_identity(IdentityQuery(code, LEE, t)).status is IdentityStatus.FAILS
    _report(5, "Z8 Lee failure for every prime-power divisor")


def test_criterion_06_euclidean_failure_at_4():
    verdict = check_identity(IdentityQuery(LinearCode(4, 1, [(2,)]), EUC, 2))
    assert verdict.status is IdentityStatus.FAILS
    assert verdict.discrepancy == HomoPoly([0, 0, 6, 0, 0])  # exactly 6 x^2 y^2
    _report(6, "Euclidean failure at ell=4")


def test_criterion_07_existence_scans():
    start = time.perf_counter()
    assert scan_existence(LEE, 10**6) == [(2, 2), (3, 3), (4, 2)]
    assert scan_existence(EUC, 10**6) == [(2, 2), (3, 3)]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"scans took {elapsed:.2f}s"
    _report(7, "existence scans to 10^6")


def test_criterion_08_duality_invariant():
    for ell in range(2, 9):
        for n in (1, 2, 3):
            for code in all_linear_codes(ell, n):
                assert code.cardinality() * code.dual().cardinality() == ell**n
    rng = random.Random(777)
    for _ in range(200):
        ell = rng.randint(2, 12)
        n = rng.randint(1, 4)
        gens = [tuple(rng.randrange(ell) for _ in range(n)) for _ in range(rng.randint(0, n))]
        code = LinearCode(ell, n, gens)
        assert code.cardinality() * code.dual().cardinality() == ell**n
    _report(8, "duality cardinality invariant")


def test_criterion_09_gray_map_fidelity():
    for ell in range(2, 17):
        for m in range(2, ell + 1):
            if ell % m == 0 and prime_base(m) is not None:
                gmap = canonical_gray_map(ell, Field(m))
                assert is_weight_preserving(gmap), (ell, m)
    z6 = canonical_gray_map(6, Field(2))
    assert z6.table == (
        (0, 0, 0),
        (0, 0, 1),
        (0, 1, 1),
        (1, 1, 1),
        (1, 1, 0),
        (1, 0, 0),
    )
    hits = []
    for ell in range(2, 101):
        for m in range(2, ell + 1):
            if ell % m != 0 or prime_base(m) is None:
                continue
            if m in SUPPORTED_FIELD_SIZES:
                ok = is_bijective_extension(canonical_gray_map(ell, Field(m)))
            else:
                ok = bijective_extension_exists(ell, m)
            if ok:
                hits.append((ell, m))
    assert hits == [(2, 2), (3, 3), (4, 2)]
    _report(9, "gray map fidelity and bijectivity")


def test_criterion_10_hamming_macwilliams_oracle():
    for ell in range(2, 9):
        for n in (1, 2, 3):
            for code in all_linear_codes(ell, n):
                left = weight_enumerator(code.dual(), HAM)
                right = substitute_transform(
                    weight_enumerator(code, HAM), ell, code.cardinality()
                )
                assert left == right, (ell, n, code.generators)
    _report(10, "hamming macwilliams cross-module oracle")
