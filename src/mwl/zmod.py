"""Linear codes over Z_ell: exact construction, codeword enumeration, duals.

A linear code is an additive subgroup of Z_ell^n. Everything here is exact
integer arithmetic. The span, the dual scan and the subgroup stream charge
their work to the budget of `errors.charge` before they start, and raise
BudgetExceeded instead of truncating.
"""

from __future__ import annotations

import math
from collections import deque
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded, charge

# Hard cap for the exhaustive all-subgroups regime (ell**n).
EXHAUSTIVE_CAP = 10**4

_CHUNK = 1 << 16


def validate_modulus(ell: int) -> int:
    ell = int(ell)
    if ell < 2:
        raise ValueError(f"modulus must be >= 2, got {ell}")
    return ell


def _vector_order(g: Sequence[int], ell: int) -> int:
    """Additive order of g in Z_ell^n."""
    d = ell
    for e in g:
        d = math.gcd(d, e)
    return ell // d


def _vector_chunks(ell: int, n: int, chunk: int = _CHUNK) -> Iterator[np.ndarray]:
    """All vectors of Z_ell^n in lexicographic order, as int64 blocks."""
    total = ell**n
    pows = [ell ** (n - 1 - j) for j in range(n)]
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        yield np.stack([(idx // p) % ell for p in pows], axis=1)


def _dtype_for(bound: int) -> type:
    """int64 if every intermediate value is at most `bound`, else exact Python ints."""
    return np.int64 if bound <= np.iinfo(np.int64).max else object


def _sorted_unique_rows(a: np.ndarray) -> np.ndarray:
    """Distinct rows of a 2-D array in lexicographic order (int64 or object)."""
    a = a[np.lexsort(a.T[::-1])]
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = (a[1:] != a[:-1]).any(axis=1)
    return a[keep]


class LinearCode:
    """Additive subgroup of Z_ell^n described by a list of generators.

    Value semantics: two codes are equal iff modulus, length, and codeword
    set agree, no matter which generators produced them. The codewords are
    held once, as the lex-sorted matrix of `codeword_array`; instances are
    immutable apart from caching it, so they are safe to share across threads.
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

    @classmethod
    def _from_codeword_array(cls, ell: int, length: int, arr: np.ndarray) -> "LinearCode":
        """Build a code from its lex-sorted codeword matrix; the rows become its generators."""
        code = cls(ell, length)
        code.generators = tuple(map(tuple, arr.tolist()))
        code._cw_array = arr
        return code

    def _span_array(self) -> np.ndarray:
        """Closure of the generators, as a lex-sorted matrix of rows.

        Each multiple t*g (0 <= t < r, the order of g) is reduced mod ell before
        it is added, so a sum of two residues, at most 2*(ell - 1), is the
        largest value the rows ever hold.
        """
        ell, n = self.ell, self.length
        dtype = _dtype_for(2 * (ell - 1))
        cur = np.zeros((1, n), dtype=dtype)
        count = 1
        for g in self.generators:
            r = _vector_order(g, ell)
            if r == 1:
                continue
            count += (r - 1) * len(cur)
            charge(count, f"span of code over Z_{ell}^{n}")
            mdtype = _dtype_for((r - 1) * (ell - 1))
            ts = np.arange(r, dtype=mdtype)[:, None]
            multiples = (ts * np.array(g, dtype=mdtype) % ell).astype(dtype)
            words = (cur[None, :, :] + multiples[:, None, :]).reshape(-1, n)
            words[words >= ell] -= ell
            cur = _sorted_unique_rows(words)
        return cur

    def codeword_array(self) -> np.ndarray:
        """All codewords as rows of a lex-sorted matrix: int64, or object past int64."""
        if self._cw_array is None:
            self._cw_array = self._span_array()
        return self._cw_array

    def codewords(self) -> tuple[tuple[int, ...], ...]:
        """All codewords, lexicographically sorted (canonical order)."""
        return tuple(map(tuple, self.codeword_array().tolist()))

    def cardinality(self) -> int:
        return len(self.codeword_array())

    def dual(self) -> "LinearCode":
        """All vectors orthogonal to this code under the standard inner product.

        Scans the whole ambient space; orthogonality is tested against the
        generators only, which suffices by linearity. The returned code's
        generator list is its full codeword list.
        """
        ell, n = self.ell, self.length
        charge(ell**n * max(1, len(self.generators)), f"dual scan over Z_{ell}^{n}")
        dtype = _dtype_for(n * (ell - 1) ** 2)
        G = np.array(self.generators, dtype=dtype).reshape(-1, n)
        kept = []
        for chunk in _vector_chunks(ell, n):
            if len(G):
                rem = (chunk.astype(dtype, copy=False) @ G.T) % ell
                chunk = chunk[~rem.astype(bool).any(axis=1)]
            kept.append(chunk)
        return LinearCode._from_codeword_array(ell, n, np.vstack(kept))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return (
            self.ell == other.ell
            and self.length == other.length
            and np.array_equal(self.codeword_array(), other.codeword_array())
        )

    def __hash__(self) -> int:
        return hash((self.ell, self.length, tuple(self.codeword_array().ravel().tolist())))

    def __repr__(self) -> str:
        return f"LinearCode(ell={self.ell}, length={self.length}, generators={self.generators!r})"


def check_exhaustive(ell: int, length: int) -> None:
    """Refuse a walk over all of Z_ell^length unless ell**length <= min(EXHAUSTIVE_CAP, budget)."""
    total = ell**length
    if total > EXHAUSTIVE_CAP:
        raise BudgetExceeded(f"exhaustive walk needs ell**n <= {EXHAUSTIVE_CAP}, got {total}")
    charge(total, f"exhaustive subgroup enumeration over Z_{ell}^{length}")


def all_linear_codes(ell: int, length: int) -> Iterator[LinearCode]:
    """Every distinct additive subgroup of Z_ell^length, each exactly once.

    Yields in canonical order: lexicographic on the sorted codeword list
    (so the zero code always comes first). Only available in the exhaustive
    regime, see `check_exhaustive`; the walk charges (subgroups found) * ell**length
    before each step.
    """
    ell = validate_modulus(ell)
    length = int(length)
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    check_exhaustive(ell, length)
    codes = _all_codes(ell, length)
    # charge a cached walk what its last step cost, so the cache changes no verdict
    charge(len(codes) * ell**length, f"subgroup lattice of Z_{ell}^{length}")
    yield from codes


@lru_cache(maxsize=None)
def _all_codes(ell: int, n: int) -> tuple[LinearCode, ...]:
    """BFS over the subgroup lattice: grow every known subgroup by one generator.

    Subgroups are tracked as sorted arrays of packed vector indices (index
    order equals lexicographic order on vectors). Every subgroup of Z_ell^n
    needs at most n generators, so single-generator extensions reach all of
    them.
    """
    N = ell**n
    pows = np.array([ell ** (n - 1 - j) for j in range(n)], dtype=np.int64)
    idx = np.arange(N, dtype=np.int64)
    digits = np.stack([(idx // p) % ell for p in pows], axis=1)

    if N <= 1024:
        # full addition table: add[u, v] = index of vector u + vector v
        table = np.empty((N, N), dtype=np.int64)
        for v in range(N):
            table[:, v] = ((digits + digits[v]) % ell) @ pows

        def add_set(h: np.ndarray, w: int) -> np.ndarray:
            return table[h, w]

        def add_one(u: int, w: int) -> int:
            return int(table[u, w])

    else:

        def add_set(h: np.ndarray, w: int) -> np.ndarray:
            return ((digits[h] + digits[w]) % ell) @ pows

        def add_one(u: int, w: int) -> int:
            return int(((digits[u] + digits[w]) % ell) @ pows)

    zero = np.array([0], dtype=np.int64)
    subgroups: dict[bytes, tuple[np.ndarray, tuple[int, ...]]] = {zero.tobytes(): (zero, ())}
    queue = deque([zero.tobytes()])
    while queue:
        charge(len(subgroups) * N, f"subgroup lattice of Z_{ell}^{n}")
        H, gens = subgroups[queue.popleft()]
        members = set(H.tolist())
        # vectors already known to regenerate an extension we have computed
        skip = set(members)
        for v in range(1, N):
            if v in skip:
                continue
            cosets = [H]
            w = v
            while w not in members:
                cosets.append(add_set(H, w))
                w = add_one(w, v)
            r = len(cosets)
            K = np.sort(np.concatenate(cosets))
            key = K.tobytes()
            if key not in subgroups:
                subgroups[key] = (K, gens + (v,))
                queue.append(key)
            # u in coset t with gcd(t, r) = 1 generates the same extension
            for t in range(1, r):
                if math.gcd(t, r) == 1:
                    skip.update(cosets[t].tolist())

    ordered = sorted(subgroups.values(), key=lambda item: tuple(item[0].tolist()))
    codes = []
    for K, gens in ordered:
        code = LinearCode(ell, n, tuple(tuple(digits[g].tolist()) for g in gens))
        code._cw_array = digits[K]
        codes.append(code)
    return tuple(codes)


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


def format_code_spec(code: LinearCode) -> str:
    """Render a code in the code-spec text format (one gen line per generator)."""
    lines = [f"modulus {code.ell}", f"length {code.length}"]
    lines.extend("gen " + " ".join(map(str, g)) for g in code.generators)
    return "\n".join(lines) + "\n"
