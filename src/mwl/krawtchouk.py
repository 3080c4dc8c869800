"""Krawtchouk polynomials at integer points.

The matrix comes from the integer kernel `homopoly.krawtchouk_columns`, the
same one behind the substitution transform. Only `krawtchouk` still computes
single values straight from the defining sum with exact big-integer
binomials: K_k(x) = sum_j (-1)^j (q-1)^(k-j) C(x, j) C(n-x, k-j).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .errors import BudgetExceeded, LengthMismatch, OutOfRange
from .homopoly import HomoPoly, krawtchouk_columns, substitute_transform

ORTHOGONALITY_MAX_N = 64


@dataclass(frozen=True)
class KrawtchoukParams:
    n: int
    q: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.q < 2:
            raise ValueError(f"q must be >= 2, got {self.q}")


def krawtchouk(k: int, x: int, params: KrawtchoukParams) -> int:
    """Exact value of K_k(x) for integer 0 <= k, x <= n."""
    n, q = params.n, params.q
    if not 0 <= k <= n:
        raise OutOfRange(f"k={k} outside 0..{n}")
    if not 0 <= x <= n:
        raise OutOfRange(f"x={x} outside 0..{n}")
    return sum(
        (-1) ** j * (q - 1) ** (k - j) * comb(x, j) * comb(n - x, k - j)
        for j in range(k + 1)
    )


def krawtchouk_matrix(params: KrawtchoukParams) -> list[list[int]]:
    """The (n+1) x (n+1) matrix with entry [k][j] = K_k(j)."""
    return [list(row) for row in zip(*krawtchouk_columns(params.n, params.q))]


def orthogonality_check(params: KrawtchoukParams, max_n: int = ORTHOGONALITY_MAX_N) -> bool:
    """Exact check of sum_l K_k(l) K_l(j) = q^n delta(k, j) over all k, j."""
    if params.n > max_n:
        raise BudgetExceeded(f"orthogonality check limited to n <= {max_n}")
    n, q = params.n, params.q
    K = krawtchouk_matrix(params)
    qn = q**n
    for k in range(n + 1):
        for j in range(n + 1):
            total = sum(K[k][l] * K[l][j] for l in range(n + 1))
            if total != (qn if k == j else 0):
                return False
    return True


def transforms_agree(counts: Sequence[int], params: KrawtchoukParams, size: int) -> bool:
    """Cross-check: the defining-sum transform against the substitution route.

    Computes A'_k = (1/size) sum_j counts[j] K_k(j) with `krawtchouk` value by
    value and compares it exactly with `substitute_transform`; this should
    hold for every input, so it doubles as an internal consistency oracle.
    """
    n = params.n
    if len(counts) != n + 1:
        raise LengthMismatch(f"expected {n + 1} counts, got {len(counts)}")
    poly = substitute_transform(HomoPoly(counts), params.q, size)
    via_sum = tuple(
        Fraction(sum(counts[j] * krawtchouk(k, j, params) for j in range(n + 1)), size)
        for k in range(n + 1)
    )
    return via_sum == poly.coeffs
