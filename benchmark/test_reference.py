"""Hand-worked cases for the benchmark's independent references.

    python3 -m pytest -q benchmark/test_reference.py
"""

from fractions import Fraction

import reference as ref

# The Z_6 code <3> = {0, 3} of the paper: Lee enumerator x^3 + y^3, dual
# {0, 2, 4} with Lee enumerator x^3 + 2xy^2, transform with t = 2 and
# |C| = 2 equal to x^3 + 3xy^2, so the discrepancy is xy^2.
Z6_GENS = [(3,)]


def test_z6_span_dual_and_sizes():
    assert ref.span(6, 1, Z6_GENS) == {(0,), (3,)}
    assert ref.dual_scan(6, 1, Z6_GENS) == [(0,), (2,), (4,)]
    assert ref.code_size(6, Z6_GENS) == 2


def test_z6_enumerators():
    assert ref.enumerator([(0,), (3,)], 6, 1, "lee") == [1, 0, 0, 1]
    assert ref.enumerator([(0,), (2,), (4,)], 6, 1, "lee") == [1, 0, 2, 0]


def test_z6_transform_and_discrepancy():
    code_enum = [1, 0, 0, 1]
    assert ref.is_transform(code_enum, 2, 2, [1, 0, 3, 0])
    assert not ref.is_transform(code_enum, 2, 2, [1, 0, 2, 0])
    dual_enum = [1, 0, 2, 0]
    discrepancy = ref.parse_poly("deg 3; 2:1")
    assert discrepancy == [0, 0, 1, 0]
    assert ref.is_transform(code_enum, 2, 2, [d + e for d, e in zip(discrepancy, dual_enum)])


def test_z4_identity_holds_for_code_generated_by_2():
    # <2> in Z_4: {0, 2}, Lee x^2 + y^2; dual {0, 2} too, and the paper's
    # identity at t = 2 holds: ((x+y)^2 + (x-y)^2) / 2 = x^2 + y^2.
    words = ref.span(4, 1, [(2,)])
    dual = ref.dual_scan(4, 1, [(2,)])
    assert sorted(words) == dual == [(0,), (2,)]
    lee = ref.enumerator(words, 4, 1, "lee")
    assert lee == [1, 0, 1]
    assert ref.is_transform(lee, ref.PAPER_IDENTITIES["lee"][4], 2, ref.enumerator(dual, 4, 1, "lee"))


def test_code_size_big_moduli():
    # int64 would wrap on these; the diagonal form uses Python integers
    assert ref.code_size(3 * 2**61, [(3 * 2**59,), (2**61,)]) == 12
    assert ref.code_size(2**64, [(2**62, 2**63)]) == 4
    assert ref.code_size(6, [(2, 0), (0, 3), (2, 3)]) == 6
    assert ref.code_size(5, []) == 1


def test_weights_and_roots():
    assert [ref.residue_weight("lee", a, 6) for a in range(6)] == [0, 1, 2, 3, 2, 1]
    assert [ref.residue_weight("euclidean", a, 5) for a in range(5)] == [0, 1, 4, 4, 1]
    assert ref.weight_scale("euclidean", 9) == 16
    assert [ref.shiromoto_multiplier("lee", ell) for ell in (2, 3, 4, 5, 6, 8, 9)] == [2, 3, 2, None, None, None, None]
    assert ref.shiromoto_multiplier("euclidean", 4) is None
    assert ref.int_root(80, 4) == 2 and ref.int_root(81, 4) == 3


def test_krawtchouk_columns():
    # q = 2, n = 3: K_k(x) for x = 0..3 are the columns of
    # [[1, 1, 1, 1], [3, 1, -1, -3], [3, -1, -1, 3], [1, -1, 1, -1]]
    assert ref.krawtchouk_column(2, 3, 0) == [1, 3, 3, 1]
    assert ref.krawtchouk_column(2, 3, 1) == [1, 1, -1, -1]
    assert ref.krawtchouk_column(2, 3, 3) == [1, -3, 3, -1]
    assert ref.krawtchouk_column(3, 1, 1) == [1, -1]


def test_parse_poly_rationals():
    assert ref.parse_poly("deg 2; 0:1/2 2:-3") == [Fraction(1, 2), 0, -3]
    assert ref.parse_poly("deg 1;") == [0, 0]
