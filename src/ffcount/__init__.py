"""Exact counts, symbolic main terms, and certified error bounds for special
classes of polynomials over finite fields, with a brute-force oracle."""

from .qrat import QPoly, SymRat, qpow, qvar
from .series import divisors, moebius
from .ff import (
    BudgetExceeded,
    FieldCtx,
    FqElem,
    UniPoly,
    field_embed,
    field_from_q,
    field_make,
)
from .mv_counts import (
    CountReport,
    absirr_exact,
    curve_bounds,
    irr_exact,
    mv_decomp_approx,
    p_count,
    powerful_approx,
    powerful_exact,
    powerfree_exact,
    red_approx,
    red_exact,
    relirr_approx,
    relirr_exact,
)
from .uv_counts import (
    Bracket,
    alpha_n,
    d_n_bracket,
    d_p2_exact,
    d_p2_terms,
    nu,
    tame_intersection,
    wild_intersection_bounds,
)
from .uv_families import (
    CollisionFamily,
    Decomposition,
    classify_census,
    classify_p2,
    dickson,
    frobenius_family,
    m_family,
    ritt_family_first,
    ritt_family_second,
    s_family,
)
from .oracle import CensusReport, oracle_decomp_census, oracle_mv_decomp
from .classes import exact_count, oracle_count

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
