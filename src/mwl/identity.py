"""Decision procedures for MacWilliams-type identities on Lee and Euclidean weights.

Covers: the exact existence condition on the modulus, per-code verification
of the identity against the dual's enumerator, the fixed-root (Shiromoto)
form with its integrality check, range scans, and counterexample search,
which is decided in closed form from the modulus, weight kind and multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import charge
from .homopoly import HomoPoly, substitute_transform
from .weights import WeightKind, weight_enumerator
from .zmod import LinearCode, validate_modulus


class IdentityStatus(Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    NOT_WELL_FORMED = "NotWellFormed"


class VerdictReason(Enum):
    MULTIPLIER_NOT_INTEGRAL = "MultiplierNotIntegral"
    VERIFIED = "Verified"


@dataclass(frozen=True)
class IdentityVerdict:
    status: IdentityStatus
    reason: VerdictReason
    discrepancy: HomoPoly | None = None

    def __post_init__(self):
        if self.status is IdentityStatus.FAILS:
            if self.discrepancy is None or self.discrepancy.is_zero():
                raise ValueError("a failing verdict needs a nonzero discrepancy")
        elif self.discrepancy is not None:
            raise ValueError(f"status {self.status.value} must not carry a discrepancy")


@dataclass(frozen=True)
class IdentityQuery:
    code: LinearCode
    kind: WeightKind
    multiplier: int

    def __post_init__(self):
        if self.kind is WeightKind.HAMMING:
            raise ValueError("identity queries cover Lee and Euclidean weights only")
        if self.multiplier < 2:
            raise ValueError(f"multiplier must be >= 2, got {self.multiplier}")


def _int_root(x: int, k: int) -> int:
    """floor(x ** (1/k)) by binary search; exact integer arithmetic only."""
    if x < 1 or k < 1:
        raise ValueError("root arguments must be positive")
    lo, hi = 1, x
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def existence_condition(ell: int, kind: WeightKind) -> int | None:
    """The unique multiplier t with t^exponent = ell, if a valid one exists.

    For the Lee weight the exponent is floor(ell/2), for the Euclidean
    weight floor(ell/2)^2. Such a t divides ell, and it is always prime:
    t^exponent = ell with t >= 2 holds only for t in {2, 3}.
    """
    ell = validate_modulus(ell)
    if kind is WeightKind.HAMMING:
        raise ValueError("existence conditions cover Lee and Euclidean weights only")
    kappa = kind.scale(ell)
    # t >= 2 forces 2^kappa <= ell; bit arithmetic keeps the scan exact and fast
    if kappa > ell.bit_length() - 1:
        return None
    t = _int_root(ell, kappa)
    if t >= 2 and t**kappa == ell:
        return t
    return None


def check_identity(query: IdentityQuery) -> IdentityVerdict:
    """Compare the dual's enumerator with the transformed enumerator, exactly.

    Holds iff wenum(dual) equals (1/|C|) wenum(C)(x + (t-1)y, x - y); a
    failing verdict carries the discrepancy transform - dual.
    """
    code, kind = query.code, query.kind
    left = weight_enumerator(code.dual(), kind)
    right = substitute_transform(weight_enumerator(code, kind), query.multiplier, code.cardinality())
    if left == right:
        return IdentityVerdict(IdentityStatus.HOLDS, VerdictReason.VERIFIED)
    return IdentityVerdict(IdentityStatus.FAILS, VerdictReason.VERIFIED, right - left)


def check_shiromoto_form(code: LinearCode, kind: WeightKind) -> IdentityVerdict:
    """The fixed-root form: multiplier ell^(1/exponent), checked for integrality.

    If `existence_condition` finds no multiplier, the claimed substitution
    has no exact meaning and the verdict is NotWellFormed; otherwise this
    delegates to check_identity with that multiplier.
    """
    t = existence_condition(code.ell, kind)
    if t is None:
        return IdentityVerdict(
            IdentityStatus.NOT_WELL_FORMED, VerdictReason.MULTIPLIER_NOT_INTEGRAL
        )
    return check_identity(IdentityQuery(code, kind, t))


def scan_existence(kind: WeightKind, max_ell: int) -> list[tuple[int, int]]:
    """All moduli 2..max_ell admitting an identity, with their multipliers."""
    if max_ell < 2:
        raise ValueError(f"max_ell must be >= 2, got {max_ell}")
    charge(max_ell - 1, f"existence scan over moduli 2..{max_ell}")
    out = []
    for ell in range(2, max_ell + 1):
        t = existence_condition(ell, kind)
        if t is not None:
            out.append((ell, t))
    return out


def search_counterexample(
    ell: int, kind: WeightKind, multiplier: int, max_length: int
) -> tuple[LinearCode, HomoPoly] | None:
    """First code (canonical order, lengths 1..max_length) failing the identity.

    Returns the code together with its discrepancy polynomial, or None if
    every code passes. The answer is closed form. At x = y = 1 the identity
    reads ell^n = |C| |C_dual| = t^(nS), with S = kind.scale(ell), so when
    t^S != ell every code fails, the length-1 zero code first. The triples
    with t^S = ell are exactly those `existence_condition` accepts, and there
    every code holds (MacWilliams & Sloane 1977, ch. 5 sec. 6).
    """
    ell = validate_modulus(ell)
    if max_length < 1:
        raise ValueError(f"max_length must be >= 1, got {max_length}")
    query = IdentityQuery(LinearCode(ell, 1), kind, multiplier)
    if existence_condition(ell, kind) == multiplier:
        return None
    verdict = check_identity(query)
    assert verdict.discrepancy is not None
    return query.code, verdict.discrepancy
