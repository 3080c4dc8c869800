"""Gray maps from Z_ell into tuples over a finite field.

The canonical map sends a residue of Lee weight i to a tuple with exactly i
nonzero entries, arranged so that Lee weight on Z_ell^n becomes Hamming
weight on F_m^(ell1 * n), where ell1 = floor(ell/2).
"""

from __future__ import annotations

from math import isqrt
from typing import Sequence

from .errors import NotPrimePower, charge
from .identity import existence_condition
from .weights import WeightKind, lee_weight
from .zmod import LinearCode

# Irreducible polynomials used for the non-prime field sizes, as coefficient
# tuples (constant term first): x^2+x+1, x^3+x+1, x^2+1, x^4+x+1.
_IRREDUCIBLES: dict[int, tuple[int, tuple[int, ...]]] = {
    4: (2, (1, 1, 1)),
    8: (2, (1, 1, 0, 1)),
    9: (3, (1, 0, 1)),
    16: (2, (1, 1, 0, 0, 1)),
}


def prime_base(q: int) -> int | None:
    """The prime p with q = p^k for some k >= 1, or None if q is not a prime power."""
    if q < 2:
        return None
    charge(isqrt(q), f"trial division of {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            while q % p == 0:
                q //= p
            return p if q == 1 else None
        p += 1
    return q  # no divisor up to sqrt(q): q itself is prime


def _digits(label: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        label, r = divmod(label, p)
        out.append(r)
    return out


def _label(digs: Sequence[int], p: int) -> int:
    out = 0
    for d in reversed(digs):
        out = out * p + d
    return out


class Field:
    """Finite field with m elements: any prime, or 4, 8, 9, 16 via fixed irreducibles.

    The field is F_p[a] / (f) for a prime p and a monic irreducible f of
    degree k over F_p; a prime field is k = 1 with f = x. The element
    c0 + c1*a + c2*a^2 + ... gets label c0 + c1*p + c2*p^2 + ..., so for
    prime m the label is the residue itself. Sums and products are computed
    from the labels on each call; no table is built.
    """

    def __init__(self, m: int):
        m = int(m)
        if m in _IRREDUCIBLES:
            p, poly = _IRREDUCIBLES[m]
        elif prime_base(m) == m:
            p, poly = m, (0, 1)
        else:
            raise NotPrimePower(f"no field of size {m} available")
        self.m = m
        self.p = p
        self.poly = poly
        self.k = len(poly) - 1

    def add(self, a: int, b: int) -> int:
        p, k = self.p, self.k
        return _label([(x + y) % p for x, y in zip(_digits(a, p, k), _digits(b, p, k))], p)

    def mul(self, a: int, b: int) -> int:
        p, k, poly = self.p, self.k, self.poly
        da, db = _digits(a, p, k), _digits(b, p, k)
        prod = [0] * (2 * k - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        # reduce modulo the irreducible (monic, degree k)
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for j in range(k):
                    prod[d - k + j] = (prod[d - k + j] - c * poly[j]) % p
        return _label(prod[:k], p)

    def __repr__(self) -> str:
        return f"Field(m={self.m})"


class GrayMap:
    """Lookup table Z_ell -> F_m^ell1, extended coordinatewise to vectors.

    The table itself is unconstrained beyond shape and label range; use the
    predicates below to test weight preservation or bijectivity.
    """

    def __init__(self, ell: int, field: Field, table: Sequence[Sequence[int]]):
        if ell < 2:
            raise ValueError(f"modulus must be >= 2, got {ell}")
        self.ell = int(ell)
        self.field = field
        self.ell1 = self.ell // 2
        rows = []
        for a, row in enumerate(table):
            r = tuple(int(e) for e in row)
            if len(r) != self.ell1:
                raise ValueError(f"row {a} has width {len(r)}, expected {self.ell1}")
            if any(not 0 <= e < field.m for e in r):
                raise ValueError(f"row {a} contains labels outside 0..{field.m - 1}")
            rows.append(r)
        if len(rows) != self.ell:
            raise ValueError(f"need {self.ell} rows, got {len(rows)}")
        self.table: tuple[tuple[int, ...], ...] = tuple(rows)

    def __repr__(self) -> str:
        return f"GrayMap(ell={self.ell}, m={self.field.m})"


def canonical_gray_map(ell: int, field: Field) -> GrayMap:
    """The standard table: weight-i residues map to i nonzero entries.

    Residues a < ell1 put the nonzeros in the last i positions, a = ell1
    fills the row, and a > ell1 uses the first i positions. Nonzero entries
    are 1 at or below ell1 and the label m-1 above, which keeps the table
    deterministic and the rows distinct whenever that is possible.
    """
    ell = int(ell)
    if ell < 2:
        raise ValueError(f"modulus must be >= 2, got {ell}")
    ell1 = ell // 2
    charge(ell * ell1, f"Gray table for Z_{ell}")
    hi = field.m - 1
    rows = []
    for a in range(ell):
        i = lee_weight(a, ell)
        row = [0] * ell1
        if a != 0:
            if a <= ell1:
                for pos in range(ell1 - i, ell1):
                    row[pos] = 1
            else:
                for pos in range(i):
                    row[pos] = hi
        rows.append(row)
    return GrayMap(ell, field, rows)


def apply_gray(gmap: GrayMap, v: Sequence[int]) -> tuple[int, ...]:
    """Concatenated per-coordinate images, a tuple of length ell1 * len(v)."""
    out: list[int] = []
    for a in v:
        a = int(a)
        if not 0 <= a < gmap.ell:
            raise ValueError(f"residue {a} outside 0..{gmap.ell - 1}")
        out.extend(gmap.table[a])
    return tuple(out)


def is_weight_preserving(gmap: GrayMap) -> bool:
    """True iff every row has Hamming weight equal to the residue's Lee weight."""
    return all(
        sum(e != 0 for e in gmap.table[a]) == lee_weight(a, gmap.ell)
        for a in range(gmap.ell)
    )


def bijective_extension_exists(ell: int, m: int) -> bool:
    """Arithmetic core of bijectivity: ell = m^ell1 (sizes can match at all).

    That is the Lee existence equation, so it is decided without computing
    m^ell1; a modulus below 2 raises ValueError, as it does for every Gray map.
    """
    return m >= 2 and existence_condition(ell, WeightKind.LEE) == m


def is_bijective_extension(gmap: GrayMap) -> bool:
    """True iff the coordinatewise extension is a bijection for every length.

    Requires ell = m^ell1 (equal domain and codomain sizes) plus pairwise
    distinct table rows.
    """
    if not bijective_extension_exists(gmap.ell, gmap.field.m):
        return False
    return len(set(gmap.table)) == gmap.ell


def image_is_linear(gmap: GrayMap, code: LinearCode) -> bool:
    """True iff the image of the code is closed under addition and scaling."""
    if code.ell != gmap.ell:
        raise ValueError(f"code modulus {code.ell} does not match map modulus {gmap.ell}")
    field = gmap.field
    charge(code.cardinality() ** 2, f"image linearity check over Z_{code.ell}^{code.length}")
    image = {apply_gray(gmap, c) for c in code.codewords()}
    for u in image:
        for v in image:
            if tuple(field.add(a, b) for a, b in zip(u, v)) not in image:
                return False
        for lam in range(2, field.m):
            if tuple(field.mul(lam, a) for a in u) not in image:
                return False
    return True


def format_gray_table(gmap: GrayMap) -> str:
    """One line per residue: ``a : e1 e2 ... e_ell1``."""
    lines = [f"{a} : " + " ".join(map(str, row)) for a, row in enumerate(gmap.table)]
    return "\n".join(lines) + "\n"


def parse_gray_table(text: str, field: Field) -> GrayMap:
    """Parse the table format back into a GrayMap (rows may appear in any order)."""
    rows: dict[int, tuple[int, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, tail = line.partition(":")
        if not tail and ":" not in line:
            raise ValueError(f"line {lineno}: expected 'a : entries'")
        a = int(head)
        if a in rows:
            raise ValueError(f"line {lineno}: duplicate row for residue {a}")
        rows[a] = tuple(int(e) for e in tail.split())
    ell = len(rows)
    if sorted(rows) != list(range(ell)):
        raise ValueError("table rows must cover residues 0..ell-1 exactly once")
    return GrayMap(ell, field, [rows[a] for a in range(ell)])
