"""Property tests: arbitrary CLI text never escapes as a traceback, and the
fixed-root form agrees with the existence condition at any modulus."""

import contextlib
import io
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mwl.cli import main
from mwl.identity import IdentityStatus, check_shiromoto_form, existence_condition
from mwl.weights import WeightKind
from mwl.zmod import LinearCode

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
