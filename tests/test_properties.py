"""Property tests: arbitrary CLI text never escapes as a traceback, the
fixed-root form agrees with the existence condition at any modulus, the
identity holds exactly where the existence condition says, and the diagonal
form's span and dual agree with brute force and with duality."""

import contextlib
import io
import sys
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mwl.cli import main
from mwl.identity import (
    IdentityQuery,
    IdentityStatus,
    check_identity,
    check_shiromoto_form,
    existence_condition,
)
from mwl.weights import WeightKind
from mwl.zmod import LinearCode

from oracles import brute_dual, brute_span

SMALL = st.integers(-3, 12)
PROPERTY_BUDGET = "20000"


def _run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _joined(pieces):
    return st.lists(pieces, max_size=6).map(" ".join)


coefficient = st.one_of(
    SMALL.map(str),
    st.tuples(SMALL, SMALL).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.text(max_size=4),
)
term = st.one_of(st.tuples(SMALL, coefficient).map(lambda t: f"{t[0]}:{t[1]}"), st.text(max_size=5))
poly_text = st.one_of(
    st.tuples(SMALL, _joined(term)).map(lambda t: f"deg {t[0]}; {t[1]}"),
    st.text(max_size=20),
)

spec_line = st.one_of(
    st.tuples(st.sampled_from(["modulus", "length"]), _joined(SMALL.map(str))).map(" ".join),
    _joined(SMALL.map(str)).map(lambda rest: f"gen {rest}"),
    st.text(max_size=10),
)
spec_text = st.lists(spec_line, max_size=6).map("\n".join)


@settings(max_examples=150, deadline=None)
@given(poly=poly_text, m=SMALL, scale=SMALL)
def test_transform_text_exits_0_or_3(poly, m, scale):
    code, out, err = _run(["transform", "--poly", poly, "--m", str(m), "--scale", str(scale)])
    assert code in (0, 3)
    assert (code == 0) == (err == "")
    if code == 3:
        assert out == "" and err.startswith("error:")


@settings(max_examples=60, deadline=None)
@given(
    spec=spec_text,
    cmd=st.sampled_from([["enumerate"], ["dual"], ["wenum", "--weight", "lee"], ["wenum", "--weight", "hamming"]]),
)
def test_code_spec_text_exits_0_or_3(spec, cmd):
    code, out, err = _run(cmd + ["--code", "-", "--budget", PROPERTY_BUDGET], stdin=spec)
    assert code in (0, 3)
    if code == 3:
        assert out == "" and err.startswith("error:")


@settings(max_examples=200, deadline=None)
@given(ell=st.integers(2, 2**80), kind=st.sampled_from([WeightKind.LEE, WeightKind.EUCLIDEAN]))
@example(ell=2, kind=WeightKind.EUCLIDEAN)
@example(ell=3, kind=WeightKind.EUCLIDEAN)
@example(ell=4, kind=WeightKind.LEE)
@example(ell=4, kind=WeightKind.EUCLIDEAN)
def test_shiromoto_form_agrees_with_existence_condition(ell, kind):
    verdict = check_shiromoto_form(LinearCode(ell, 1, [(1,)]), kind)
    if existence_condition(ell, kind) is None:
        assert verdict.status is IdentityStatus.NOT_WELL_FORMED
    else:
        assert verdict.status is IdentityStatus.HOLDS


@st.composite
def small_codes(draw):
    """Up to 3 generators over Z_ell^n with ell <= 12 and ell^n <= 4096."""
    ell = draw(st.integers(2, 12))
    n = draw(st.integers(1, max(i for i in range(1, 13) if ell**i <= 4096)))
    gens = draw(st.lists(st.lists(st.integers(0, ell - 1), min_size=n, max_size=n), max_size=3))
    return ell, n, gens


@st.composite
def big_modulus_codes(draw):
    """Codes of length 1-2 over ell = m * d > 2^63 inside (d Z_ell)^n, so |C| <= m^n."""
    m = draw(st.integers(2, 12))
    d = draw(st.integers(2**63 // m + 1, 2**70))
    n = draw(st.integers(1, 2))
    entries = st.integers(0, 2**80).map(lambda c: c * d)
    gens = draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=3))
    return m * d, n, gens


@settings(max_examples=150, deadline=None)
@given(
    spec=small_codes(),
    kind=st.sampled_from([WeightKind.LEE, WeightKind.EUCLIDEAN]),
    t=st.integers(2, 12),
)
@example(spec=(4, 2, [[1, 1]]), kind=WeightKind.LEE, t=2)
@example(spec=(3, 3, [[1, 2, 0]]), kind=WeightKind.EUCLIDEAN, t=3)
@example(spec=(6, 2, [[2, 3]]), kind=WeightKind.LEE, t=2)
def test_identity_holds_iff_existence_condition(spec, kind, t):
    ell, n, gens = spec
    code = LinearCode(ell, n, gens)
    verdict = check_identity(IdentityQuery(code, kind, t))
    assert (verdict.status is IdentityStatus.HOLDS) == (existence_condition(ell, kind) == t)
    if verdict.status is IdentityStatus.FAILS:
        # at x = y = 1 the transform sums to t^(nS) / |C| and the dual's enumerator to |C_dual|
        S = kind.scale(ell)
        total = Fraction(t ** (n * S) - ell**n, code.cardinality())
        assert sum(verdict.discrepancy.coeffs) == total


def _check_duality(code):
    ell, n = code.ell, code.length
    dual = code.dual()
    assert len(code.codewords()) == code.cardinality()
    assert code.cardinality() * dual.cardinality() == ell**n
    assert dual.dual() == code
    # diagonalise the dual's generators afresh
    assert LinearCode(ell, n, dual.generators).dual() == code
    return dual


@settings(max_examples=150, deadline=None)
@given(spec=small_codes())
def test_diagonal_form_matches_brute_force(spec):
    ell, n, gens = spec
    code = LinearCode(ell, n, gens)
    assert set(code.codewords()) == brute_span(gens, ell, n)
    dual = _check_duality(code)
    assert set(dual.codewords()) == brute_dual(gens, ell, n)


@settings(max_examples=150, deadline=None)
@given(spec=big_modulus_codes())
def test_diagonal_form_duality_past_int64(spec):
    ell, n, gens = spec
    code = LinearCode(ell, n, gens)
    dual = _check_duality(code)
    for x in dual.generators:
        for g in code.generators:
            assert sum(a * b for a, b in zip(x, g)) % ell == 0
