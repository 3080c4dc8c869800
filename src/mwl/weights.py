"""Hamming, Lee, and Euclidean weights and the corresponding enumerators."""

from __future__ import annotations

from enum import Enum
from typing import Sequence

import numpy as np

from .errors import LengthMismatch, charge
from .homopoly import HomoPoly, is_nonneg_integer_poly
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


class WeightDistribution:
    """Exact codeword counts per weight 0..scale*n for one weight kind."""

    def __init__(self, kind: WeightKind, ell: int, length: int, counts: Sequence[int]):
        self.kind = kind
        self.ell = int(ell)
        self.length = int(length)
        expected = kind.scale(self.ell) * self.length + 1
        counts = tuple(int(c) for c in counts)
        if len(counts) != expected:
            raise LengthMismatch(
                f"{kind.value} distribution over Z_{ell}^{length} needs "
                f"{expected} counts, got {len(counts)}"
            )
        if any(c < 0 for c in counts):
            raise ValueError("weight counts must be nonnegative")
        self.counts = counts

    @classmethod
    def from_code(cls, code: LinearCode, kind: WeightKind) -> "WeightDistribution":
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
        counts = np.bincount(wts, minlength=deg + 1)
        return cls(kind, ell, code.length, counts.tolist())

    @classmethod
    def from_poly(
        cls, poly: HomoPoly, kind: WeightKind, ell: int, length: int
    ) -> "WeightDistribution":
        """Inverse of to_poly; requires nonnegative integer coefficients."""
        if poly.degree != kind.scale(ell) * length:
            raise LengthMismatch(
                f"degree {poly.degree} does not match {kind.value} scale for "
                f"Z_{ell}^{length}"
            )
        if not is_nonneg_integer_poly(poly):
            raise ValueError("polynomial coefficients are not nonnegative integers")
        return cls(kind, ell, length, [int(c) for c in poly.coeffs])

    def to_poly(self) -> HomoPoly:
        return HomoPoly(self.counts)

    def total(self) -> int:
        return sum(self.counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightDistribution):
            return NotImplemented
        return (
            self.kind is other.kind
            and self.ell == other.ell
            and self.length == other.length
            and self.counts == other.counts
        )

    def __repr__(self) -> str:
        return (
            f"WeightDistribution({self.kind.value}, ell={self.ell}, "
            f"length={self.length}, counts={self.counts!r})"
        )


def weight_enumerator(code: LinearCode, kind: WeightKind) -> HomoPoly:
    """Homogeneous enumerator of degree scale*n; coefficient i counts weight-i words."""
    return WeightDistribution.from_code(code, kind).to_poly()
