"""Linear codes over Z_ell: exact construction, codeword enumeration, duals.

A linear code is an additive subgroup of Z_ell^n. Everything here is exact
integer arithmetic. One diagonal form of the generators gives a code's size
and independent bases of the code and of its dual; nothing walks all of
Z_ell^n. The diagonal form and the span charge their work to
`errors.charge` before they start, and raise BudgetExceeded instead of
truncating.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import charge

if TYPE_CHECKING:
    import numpy as np


def validate_modulus(ell: int) -> int:
    ell = int(ell)
    if ell < 2:
        raise ValueError(f"modulus must be >= 2, got {ell}")
    return ell


def _dtype_for(bound: int) -> type:
    """int64 if every intermediate value is at most `bound`, else exact Python ints."""
    import numpy as np

    return np.int64 if bound <= np.iinfo(np.int64).max else object


def _numeral_keys(words: np.ndarray, ell: int) -> np.ndarray:
    """Each row of residues read as one base-ell numeral, so key order is lex order.

    The keys are int64 while ell^n fits and exact Python ints past that. The
    digits are read in blocks whose values fit int64, so past int64 the
    Python-int work is one step per block, not one per digit.
    """
    import numpy as np

    n = words.shape[1]
    width = 1
    while width < n and _dtype_for(ell ** (width + 1) - 1) is np.int64:
        width += 1
    keys = None
    for j in range(0, n, width):
        block = words[:, j : j + width]
        w = block.shape[1]
        dtype = _dtype_for(ell**w - 1)
        place = np.array([ell ** (w - 1 - i) for i in range(w)], dtype=dtype)
        value = block.astype(dtype, copy=False) @ place
        if keys is None:
            keys = value.astype(_dtype_for(ell**n - 1), copy=False)
        else:
            keys = keys * ell**w + value
    return keys


def _diagonal_form(
    gens: Sequence[Sequence[int]], ell: int, n: int
) -> tuple[list[list[int]], list[int], list[tuple[int, ...]]]:
    """Diagonalise the generator matrix G over Z_ell: U G V = diag(d_1, ..., d_r).

    U and V are products of row and column operations that run Euclid's
    algorithm on two entries at a time (Howell, Lin. Multilin. Algebra 19
    (1986); Storjohann, PhD thesis, ETH (2000)), in exact Python ints mod ell.
    Returns the r nonzero rows of U G, their diagonal entries d_i
    (0 < d_i < ell) and the columns of V. Row i of U G is d_i times row i of
    V^-1, so these rows are independent, of orders ell / gcd(d_i, ell). The
    charge counts one pass of each pivot over the k rows of G and the n rows of V.
    """
    k = len(gens)
    charge((k + n) * n * max(1, min(k, n)), f"diagonal form of {k} generators over Z_{ell}^{n}")
    # rows 0..k-1 are [U G V | U G] and rows k..k+n-1 are V: row operations
    # touch only the first k rows, column operations only the first n columns
    M = [list(g) * 2 for g in gens] + [[int(i == j) for j in range(n)] for i in range(n)]
    diag: list[int] = []
    for r in range(min(k, n)):
        pivot = next(((i, j) for i in range(r, k) for j in range(r, n) if M[i][j]), None)
        if pivot is None:
            break
        i, j = pivot
        M[r], M[i] = M[i], M[r]
        for row in M:
            row[r], row[j] = row[j], row[r]
        # Euclid on (pivot, entry): the pivot moves only to a smaller remainder,
        # so the passes end, with the gcd of row r and column r as the pivot
        while True:
            for i in range(r + 1, k):  # row operations clear column r
                while M[i][r]:
                    q = M[i][r] // M[r][r]
                    M[i] = [(b - q * a) % ell for a, b in zip(M[r], M[i])]
                    if M[i][r]:
                        M[r], M[i] = M[i], M[r]
            if not any(M[r][r + 1 : n]):
                break
            for j in range(r + 1, n):  # column operations clear row r
                while M[r][j]:
                    q = M[r][j] // M[r][r]
                    for row in M:
                        row[j] = (row[j] - q * row[r]) % ell
                    if M[r][j]:
                        for row in M:
                            row[r], row[j] = row[j], row[r]
            if not any(M[i][r] for i in range(r + 1, k)):
                break
        diag.append(M[r][r])
    return [row[n:] for row in M[: len(diag)]], diag, list(zip(*M[k:]))


class LinearCode:
    """Additive subgroup of Z_ell^n described by a list of generators.

    Value semantics: two codes are equal iff modulus, length, and codeword
    set agree, no matter which generators produced them. The codewords are
    held once, as the lex-sorted matrix of `codeword_array`; size, span and
    dual all come from one diagonal form of the generators. Instances are
    immutable apart from caching those, so they are safe to share across
    threads.
    """

    def __init__(self, ell: int, length: int, generators: Iterable[Sequence[int]] = ()):
        self.ell = validate_modulus(ell)
        self.length = int(length)
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {length}")
        gens = []
        for g in generators:
            row = tuple(int(e) % self.ell for e in g)
            if len(row) != self.length:
                raise ValueError(
                    f"generator {row} has length {len(row)}, expected {self.length}"
                )
            gens.append(row)
        self.generators: tuple[tuple[int, ...], ...] = tuple(gens)
        self._cw_array: np.ndarray | None = None
        # independent bases (rows, order of each row) of this code and of its dual
        self._bases: tuple[tuple, tuple] | None = None

    def _basis_pair(self) -> tuple[tuple, tuple]:
        """Independent bases of this code and of its dual, from one diagonal form.

        With U G V = diag(d_j), and d_j = 0 past the rank, x is in the dual iff
        d_j (V^-1 x)_j = 0 for every j. So column j of V times ell / gcd(d_j, ell),
        of order gcd(d_j, ell), generate the dual; rows of order 1 are dropped.
        """
        if self._bases is None:
            ell, n = self.ell, self.length
            rows, diag, columns = _diagonal_form(self.generators, ell, n)
            gcds = [math.gcd(d, ell) for d in diag] + [ell] * (n - len(diag))
            own = (tuple(map(tuple, rows)), tuple(ell // g for g in gcds[: len(diag)]))
            dual_rows = tuple(
                tuple(e * (ell // g) % ell for e in col) for col, g in zip(columns, gcds) if g > 1
            )
            self._bases = (own, (dual_rows, tuple(g for g in gcds if g > 1)))
        return self._bases

    def _span_array(self) -> np.ndarray:
        """Every codeword, as a lex-sorted matrix of rows: the basis is independent,
        so each codeword is one sum of c_i times row i, with 0 <= c_i < order_i.
        The codewords are distinct, so one argsort of their numeral keys sorts them.
        """
        import numpy as np

        rows, orders = self._basis_pair()[0]
        ell, n = self.ell, self.length
        size = math.prod(orders)
        charge(size, f"span of code over Z_{ell}^{n}")
        # a sum of products is at most sum (order_i - 1)(ell - 1); ell itself must fit too
        dtype = _dtype_for(max(ell, sum((r - 1) * (ell - 1) for r in orders)))
        coeffs = np.indices(orders).reshape(len(orders), size).T
        words = coeffs.astype(dtype, copy=False) @ np.array(rows, dtype=dtype).reshape(-1, n)
        del coeffs  # free the coefficients before the sort copies the words
        words %= ell
        return words[np.argsort(_numeral_keys(words, ell))]

    def codeword_array(self) -> np.ndarray:
        """All codewords as rows of a lex-sorted matrix: int64, or object past int64."""
        if self._cw_array is None:
            self._cw_array = self._span_array()
        return self._cw_array

    def codewords(self) -> tuple[tuple[int, ...], ...]:
        """All codewords, lexicographically sorted (canonical order)."""
        return tuple(map(tuple, self.codeword_array().tolist()))

    def cardinality(self) -> int:
        """|C|: the product of the orders of an independent basis."""
        return math.prod(self._basis_pair()[0][1])

    def dual(self) -> "LinearCode":
        """All vectors orthogonal to this code, generated by its dual basis.

        The returned code knows this code's basis as the basis of its own dual.
        """
        own, dual = self._basis_pair()
        code = LinearCode(self.ell, self.length, dual[0])
        code._bases = (dual, own)
        return code

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        import numpy as np

        return (
            self.ell == other.ell
            and self.length == other.length
            and np.array_equal(self.codeword_array(), other.codeword_array())
        )

    def __hash__(self) -> int:
        return hash((self.ell, self.length, tuple(self.codeword_array().ravel().tolist())))

    def __repr__(self) -> str:
        return f"LinearCode(ell={self.ell}, length={self.length}, generators={self.generators!r})"


def parse_code_spec(text: str) -> LinearCode:
    """Parse the code-spec text format.

    Lines: ``modulus L``, ``length N``, then ``gen r1 r2 ... rN`` per
    generator. ``#`` starts a comment; residues are reduced mod L on load.
    """
    modulus: int | None = None
    length: int | None = None
    gens: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw, rest = parts[0], parts[1:]
        if kw == "modulus":
            if len(rest) != 1:
                raise ValueError(f"line {lineno}: modulus takes one value")
            modulus = int(rest[0])
        elif kw == "length":
            if len(rest) != 1:
                raise ValueError(f"line {lineno}: length takes one value")
            length = int(rest[0])
        elif kw == "gen":
            if modulus is None or length is None:
                raise ValueError(f"line {lineno}: gen before modulus/length")
            if len(rest) != length:
                raise ValueError(
                    f"line {lineno}: generator has {len(rest)} entries, expected {length}"
                )
            gens.append([int(p) for p in rest])
        else:
            raise ValueError(f"line {lineno}: unknown directive {kw!r}")
    if modulus is None or length is None:
        raise ValueError("code spec must declare modulus and length")
    return LinearCode(modulus, length, gens)


def format_codewords(code: LinearCode, lead: str = "") -> str:
    """Every codeword in lex order, one line each: `lead`, then its residues."""
    row = lead + " ".join(["%d"] * code.length) + "\n"
    return "".join([row % word for word in map(tuple, code.codeword_array().tolist())])


def format_code_spec(code: LinearCode) -> str:
    """Render a code in the canonical code-spec text: one gen line per codeword, lex order."""
    return f"modulus {code.ell}\nlength {code.length}\n" + format_codewords(code, "gen ")
