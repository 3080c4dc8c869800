"""Hamming, Lee, and Euclidean weights and the corresponding enumerators."""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from .errors import charge
from .homopoly import HomoPoly
from .zmod import LinearCode


class WeightKind(Enum):
    HAMMING = "hamming"
    LEE = "lee"
    EUCLIDEAN = "euclidean"

    def scale(self, ell: int) -> int:
        """Per-coordinate maximum weight: 1, floor(ell/2), or floor(ell/2)^2."""
        if self is WeightKind.HAMMING:
            return 1
        half = ell // 2
        return half if self is WeightKind.LEE else half * half

    def of_residue(self, a: int, ell: int) -> int:
        if self is WeightKind.HAMMING:
            _check_residue(a, ell)
            return int(a != 0)
        if self is WeightKind.LEE:
            return lee_weight(a, ell)
        return euclidean_weight(a, ell)


def _check_residue(a: int, ell: int) -> None:
    if not 0 <= a < ell:
        raise ValueError(f"residue {a} outside 0..{ell - 1}")


def lee_weight(a: int, ell: int) -> int:
    """min(a, ell - a); ranges over 0..floor(ell/2)."""
    _check_residue(a, ell)
    return min(a, ell - a)


def euclidean_weight(a: int, ell: int) -> int:
    """Square of the Lee weight; ranges over 0..floor(ell/2)^2."""
    w = lee_weight(a, ell)
    return w * w


def vector_weight(v: Sequence[int], ell: int, kind: WeightKind) -> int:
    """Coordinatewise weight sum of the chosen kind."""
    return sum(kind.of_residue(a, ell) for a in v)


def weight_enumerator(code: LinearCode, kind: WeightKind) -> HomoPoly:
    """Homogeneous enumerator of degree scale*n; coefficient i counts weight-i words."""
    import numpy as np

    ell = code.ell
    deg = kind.scale(ell) * code.length
    charge(deg + 1, f"{kind.value} enumerator over Z_{ell}^{code.length}")
    W = code.codeword_array()
    if kind is WeightKind.HAMMING:
        per_residue = W != 0
    else:
        per_residue = np.minimum(W, ell - W)
        if kind is WeightKind.EUCLIDEAN:
            per_residue = per_residue * per_residue
    # each row sum is at most deg, which the budget keeps within int64
    wts = per_residue.sum(axis=1).astype(np.int64, copy=False)
    return HomoPoly(np.bincount(wts, minlength=deg + 1).tolist())
