"""Exact weight enumerators and MacWilliams-type identities for codes over Z_ell."""

from .errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    DegreeMismatch,
    NotPrimePower,
    budget_limit,
)
from .gray import (
    Field,
    GrayMap,
    apply_gray,
    bijective_extension_exists,
    canonical_gray_map,
    format_gray_table,
    image_is_linear,
    is_bijective_extension,
    is_weight_preserving,
    parse_gray_table,
)
from .homopoly import (
    HomoPoly,
    from_text,
    is_nonneg_integer_poly,
    substitute_transform,
    to_text,
)
from .identity import (
    IdentityQuery,
    IdentityStatus,
    IdentityVerdict,
    VerdictReason,
    check_identity,
    check_shiromoto_form,
    existence_condition,
    scan_existence,
    search_counterexample,
)
from .krawtchouk import KrawtchoukParams, krawtchouk_matrix
from .weights import (
    WeightKind,
    euclidean_weight,
    lee_weight,
    vector_weight,
    weight_enumerator,
)
from .zmod import (
    LinearCode,
    format_code_spec,
    parse_code_spec,
)

__version__ = "0.1.0"
