"""Independent references the benchmark checks mwl's outputs against.

Nothing here imports mwl. Spans are closures under adding generators, duals
scan the whole ambient space, code sizes come from a diagonal form of the
generator matrix over Z, and polynomial transforms are checked by exact
evaluation at integer points instead of being expanded the way mwl does.
Everything is plain Python integers and Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, prod

# Moduli at which the paper proves the identity, with the multiplier t that
# the existence condition t^exponent = ell gives.
PAPER_IDENTITIES = {"lee": {2: 2, 3: 3, 4: 2}, "euclidean": {2: 2, 3: 3}}

# What `mwl scan` must print for any --max >= 4.
SCAN_TABLE = {"lee": [(2, 2), (3, 3), (4, 2)], "euclidean": [(2, 2), (3, 3)]}


def residue_weight(kind: str, a: int, ell: int) -> int:
    """Hamming, Lee or Euclidean weight of the residue a mod ell."""
    a %= ell
    if kind == "hamming":
        return int(a != 0)
    lee = min(a, ell - a)
    return lee if kind == "lee" else lee * lee


def weight_scale(kind: str, ell: int) -> int:
    """Largest weight of a single coordinate: 1, floor(ell/2) or its square."""
    if kind == "hamming":
        return 1
    half = ell // 2
    return half if kind == "lee" else half * half


def int_root(x: int, k: int) -> int:
    """floor(x ** (1/k)) for x, k >= 1, by bisection on integers."""
    lo, hi = 1, x
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def shiromoto_multiplier(kind: str, ell: int) -> int | None:
    """The integer root ell^(1/exponent) of the fixed-root form, or None."""
    kappa = weight_scale(kind, ell)
    t = int_root(ell, kappa)
    return t if t**kappa == ell else None


def diagonal_form(rows) -> list[int]:
    """Nonzero diagonal entries of a diagonalisation of the matrix over Z.

    Row and column operations over Z keep the subgroup the rows generate in
    Z_ell^n up to an automorphism, so these entries fix its order for every
    modulus. The divisibility chain of the Smith form is not needed for that.
    """
    A = [list(r) for r in rows]
    out = []
    while True:
        nonzero = [(abs(v), i, j) for i, r in enumerate(A) for j, v in enumerate(r) if v]
        if not nonzero:
            return out
        _, i, j = min(nonzero)
        p = A[i][j]
        cleared = True
        for r, row in enumerate(A):
            if r != i and row[j]:
                q = row[j] // p
                row[:] = [a - q * b for a, b in zip(row, A[i])]
                cleared = cleared and row[j] == 0
        for c in range(len(A[i])):
            if c != j and A[i][c]:
                q = A[i][c] // p
                for row in A:
                    row[c] -= q * row[j]
                cleared = cleared and A[i][c] == 0
        if cleared:
            out.append(abs(p))
            del A[i]
            for row in A:
                del row[j]


def code_size(ell: int, gens) -> int:
    """|C| for the code over Z_ell spanned by gens: prod of ell / gcd(d, ell)."""
    return prod(ell // gcd(d, ell) for d in diagonal_form(gens))


def span(ell: int, n: int, gens) -> set[tuple[int, ...]]:
    """All codewords, by closing {0} under adding each generator."""
    zero = (0,) * n
    seen = {zero}
    frontier = [zero]
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                v = tuple((a + b) % ell for a, b in zip(w, g))
                if v not in seen:
                    seen.add(v)
                    new.append(v)
        frontier = new
    return seen


def dual_scan(ell: int, n: int, gens) -> list[tuple[int, ...]]:
    """Every vector of Z_ell^n orthogonal to every generator."""
    return [
        x
        for x in product(range(ell), repeat=n)
        if all(sum(a * b for a, b in zip(x, g)) % ell == 0 for g in gens)
    ]


def enumerator(words, ell: int, n: int, kind: str) -> list[int]:
    """Coefficient list of the weight enumerator: entry i counts weight-i words."""
    counts = [0] * (weight_scale(kind, ell) * n + 1)
    for w in words:
        counts[sum(residue_weight(kind, a, ell) for a in w)] += 1
    return counts


def evaluate(coeffs, x: int, y: int):
    """sum_i coeffs[i] x^(D-i) y^i."""
    D = len(coeffs) - 1
    xp = [1] * (D + 1)
    yp = [1] * (D + 1)
    for k in range(1, D + 1):
        xp[k] = xp[k - 1] * x
        yp[k] = yp[k - 1] * y
    return sum(c * xp[D - i] * yp[i] for i, c in enumerate(coeffs) if c)


def is_transform(p, t: int, s: int, q) -> bool:
    """True iff q(x, y) = p(x + (t-1)y, x - y) / s as homogeneous polynomials.

    Both sides have degree D, so agreement of q(x, 1) at the D + 1 points
    x = 0..D fixes every coefficient.
    """
    D = len(p) - 1
    if len(q) != D + 1:
        return False
    return all(
        Fraction(evaluate(p, x + t - 1, x - 1), s) == evaluate(q, x, 1)
        for x in range(D + 1)
    )


def parse_poly(text: str) -> list[Fraction]:
    """Coefficients of a polynomial printed as ``deg D; i:c ...``."""
    head, sep, tail = text.strip().partition(";")
    word, degree = head.split()
    if word != "deg" or not sep:
        raise ValueError(f"not a polynomial: {text!r}")
    coeffs = [Fraction(0)] * (int(degree) + 1)
    for term in tail.split():
        i, c = term.split(":")
        coeffs[int(i)] = Fraction(c)
    return coeffs


def krawtchouk_column(q: int, n: int, x: int) -> list[int]:
    """K_0(x) .. K_n(x): coefficients of (1 + (q-1)z)^(n-x) (1 - z)^x."""
    out = [1]
    for factor in [(1, q - 1)] * (n - x) + [(1, -1)] * x:
        nxt = [0] * (len(out) + 1)
        for k, c in enumerate(out):
            nxt[k] += c * factor[0]
            nxt[k + 1] += c * factor[1]
        out = nxt
    return out
