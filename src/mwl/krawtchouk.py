"""Krawtchouk polynomials at integer points.

The matrix comes from the integer kernel `homopoly.krawtchouk_columns`, the
same one behind the substitution transform.
"""

from __future__ import annotations

from dataclasses import dataclass

from .homopoly import krawtchouk_columns


@dataclass(frozen=True)
class KrawtchoukParams:
    n: int
    q: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if self.q < 2:
            raise ValueError(f"q must be >= 2, got {self.q}")


def krawtchouk_matrix(params: KrawtchoukParams) -> list[list[int]]:
    """The (n+1) x (n+1) matrix with entry [k][j] = K_k(j)."""
    return [list(row) for row in zip(*krawtchouk_columns(params.n, params.q))]
