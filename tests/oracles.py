"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the library's own code paths: spans are
brute-forced over all coefficient tuples, duals test orthogonality against
every codeword, the subgroup lattice is walked by adding one generator at a
time, polynomial substitution goes through sympy, and Krawtchouk
values come from the defining sum with exact big-integer binomials. The last
two functions apply such references to the library's own output.
"""

import itertools
from collections import deque
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

import numpy as np
import sympy

from mwl.homopoly import HomoPoly, substitute_transform
from mwl.krawtchouk import KrawtchoukParams, krawtchouk_matrix
from mwl.zmod import LinearCode

# The lattice walk refuses to hold more subgroups than this: Z_2^7 has 29,212.
LATTICE_CAP = 10**4


def brute_span(gens, ell, n):
    """All sums sum_i lambda_i g_i over every lambda in Z_ell^k."""
    out = set()
    k = len(gens)
    for lam in itertools.product(range(ell), repeat=k):
        v = tuple(sum(c * g[j] for c, g in zip(lam, gens)) % ell for j in range(n))
        out.add(v)
    if not gens:
        out.add((0,) * n)
    return out


def brute_dual(codewords, ell, n):
    """Vectors orthogonal to every codeword (not just the generators)."""
    out = set()
    for x in itertools.product(range(ell), repeat=n):
        if all(sum(a * b for a, b in zip(x, c)) % ell == 0 for c in codewords):
            out.add(x)
    return out


def brute_all_subgroups(ell, n):
    """Dedupe the spans of every generator subset of size <= n."""
    vecs = list(itertools.product(range(ell), repeat=n))
    seen = set()
    for k in range(n + 1):
        for combo in itertools.combinations(vecs, k):
            seen.add(frozenset(brute_span(combo, ell, n)))
    return seen


@lru_cache(maxsize=None)
def all_linear_codes(ell, n):
    """Every additive subgroup of Z_ell^n, once each, in canonical order.

    Canonical order is lexicographic on the sorted codeword list, so the zero
    code comes first. A BFS over the subgroup lattice grows every known
    subgroup by one generator; every subgroup of Z_ell^n needs at most n
    generators, so single-generator extensions reach all of them. Subgroups
    are tracked as sorted arrays of packed vector indices (index order equals
    lexicographic order on vectors). The walk stops with an AssertionError
    once it holds more than LATTICE_CAP subgroups.
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

        def add_set(h, w):
            return table[h, w]

        def add_one(u, w):
            return int(table[u, w])

    else:

        def add_set(h, w):
            return ((digits[h] + digits[w]) % ell) @ pows

        def add_one(u, w):
            return int(((digits[u] + digits[w]) % ell) @ pows)

    zero = np.array([0], dtype=np.int64)
    subgroups = {zero.tobytes(): (zero, ())}
    queue = deque([zero.tobytes()])
    while queue:
        assert len(subgroups) <= LATTICE_CAP, f"Z_{ell}^{n} has over {LATTICE_CAP} subgroups"
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
                if gcd(t, r) == 1:
                    skip.update(cosets[t].tolist())

    ordered = sorted(subgroups.values(), key=lambda item: tuple(item[0].tolist()))
    codes = []
    for K, gens in ordered:
        code = LinearCode(ell, n, tuple(tuple(digits[g].tolist()) for g in gens))
        code._cw_array = digits[K]  # the walk already holds the sorted codewords
        codes.append(code)
    return tuple(codes)


def brute_weight_enumerator(codewords, ell, n, weight_of_residue, scale):
    """Coefficient list of the enumerator, via plain per-word counting."""
    counts = [0] * (scale * n + 1)
    for c in codewords:
        counts[sum(weight_of_residue(a) for a in c)] += 1
    return counts


def sympy_transform(p: HomoPoly, multiplier: int, scale: int) -> HomoPoly:
    """(1/scale) p(x + (multiplier-1) y, x - y), expanded symbolically."""
    x, y = sympy.symbols("x y")
    D = p.degree
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * x ** (D - i) * y**i
        for i, c in enumerate(p.coeffs)
    )
    expr = sympy.expand(
        expr.subs({x: x + (multiplier - 1) * y, y: x - y}, simultaneous=True)
        / sympy.Integer(scale)
    )
    poly = sympy.Poly(expr, x, y)
    coeffs = [Fraction(0)] * (D + 1)
    for (ex, ey), c in poly.terms():
        assert ex + ey == D, "transform lost homogeneity"
        coeffs[ey] = Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
    return HomoPoly(coeffs)


def krawtchouk(k: int, x: int, params: KrawtchoukParams) -> int:
    """K_k(x) = sum_j (-1)^j (q-1)^(k-j) C(x, j) C(n-x, k-j), for 0 <= k, x <= n."""
    n, q = params.n, params.q
    return sum(
        (-1) ** j * (q - 1) ** (k - j) * comb(x, j) * comb(n - x, k - j)
        for j in range(k + 1)
    )


def orthogonality_check(params: KrawtchoukParams) -> bool:
    """Exact check of sum_l K_k(l) K_l(j) = q^n delta(k, j) on the library's matrix."""
    n, q = params.n, params.q
    K = krawtchouk_matrix(params)
    qn = q**n
    for k in range(n + 1):
        for j in range(n + 1):
            total = sum(K[k][l] * K[l][j] for l in range(n + 1))
            if total != (qn if k == j else 0):
                return False
    return True


def transforms_agree(counts, params: KrawtchoukParams, size: int) -> bool:
    """The defining-sum transform A'_k = (1/size) sum_j counts[j] K_k(j) against
    the library's `substitute_transform`, exactly."""
    n = params.n
    if len(counts) != n + 1:
        raise ValueError(f"expected {n + 1} counts, got {len(counts)}")
    poly = substitute_transform(HomoPoly(counts), params.q, size)
    via_sum = tuple(
        Fraction(sum(counts[j] * krawtchouk(k, j, params) for j in range(n + 1)), size)
        for k in range(n + 1)
    )
    return via_sum == poly.coeffs
