"""Exact derivatives and eps-expansions of rising-factorial expressions.

Everything is computed over exact rationals: derivative coefficients of
rising factorials and their reciprocals to any order, partial-fraction
decompositions of rising-factorial quotients, and coefficient tables for the
eps-expansion of double hypergeometric-style series — with every closed form
cross-checked against an independent truncated-series engine.
"""

from .combinatorics import (
    binomial,
    double_factorial,
    gen_bernoulli_poly,
    harmonic,
    mod_harmonic,
    nested_ones_S,
    nested_ones_Z,
    stirling_s1,
)
from .duals import Dual
from .errors import (
    DegreeError,
    DomainError,
    MissingParameter,
    ParseError,
    PochexError,
    PoleError,
    RepeatedRoot,
    ZeroSeries,
    ZeroSlope,
)
from .hyper_expand import (
    CLOSED_EXAMPLES,
    ExpansionTable,
    HyperTermSpec,
    IndexLaw,
    closed_engine_spec,
    delta_dual_expand,
    emit_table,
    expand_closed,
    expand_general,
    regroup_total_degree,
)
from .partial_fractions import (
    PartialFractionForm,
    PFTerm,
    PochProductQuotient,
    decompose_multi,
    decompose_single,
    pf_derivative,
    quotient_deriv,
)
from .pochhammer import (
    LinearParam,
    PochMethod,
    RecipMethod,
    poch_deriv,
    poch_eps_series,
    pochhammer,
    recip_poch_deriv,
    recip_poch_laurent,
)
from .series import (
    EpsSeries,
    parse_rational,
    polynomial_series,
    series_invert,
)
from .specfile import SpecOptions, parse_quotient_text, parse_spec_text
from .verify import (
    DEFAULT_GENFUN_ORDER,
    CheckSummary,
    GenFunId,
    GenFunResult,
    IdentityId,
    IdentityResult,
    default_grid,
    genfun_check,
    identity_eval,
    run_relation,
    verify_all,
    verify_ids,
)

__version__ = "0.1.0"

__all__ = [
    "binomial",
    "double_factorial",
    "gen_bernoulli_poly",
    "harmonic",
    "mod_harmonic",
    "nested_ones_S",
    "nested_ones_Z",
    "stirling_s1",
    "Dual",
    "DegreeError",
    "DomainError",
    "MissingParameter",
    "ParseError",
    "PochexError",
    "PoleError",
    "RepeatedRoot",
    "ZeroSeries",
    "ZeroSlope",
    "CLOSED_EXAMPLES",
    "ExpansionTable",
    "HyperTermSpec",
    "IndexLaw",
    "closed_engine_spec",
    "delta_dual_expand",
    "emit_table",
    "expand_closed",
    "expand_general",
    "regroup_total_degree",
    "PartialFractionForm",
    "PFTerm",
    "PochProductQuotient",
    "decompose_multi",
    "decompose_single",
    "pf_derivative",
    "quotient_deriv",
    "LinearParam",
    "PochMethod",
    "RecipMethod",
    "poch_deriv",
    "poch_eps_series",
    "pochhammer",
    "recip_poch_deriv",
    "recip_poch_laurent",
    "EpsSeries",
    "parse_rational",
    "polynomial_series",
    "series_invert",
    "SpecOptions",
    "parse_quotient_text",
    "parse_spec_text",
    "DEFAULT_GENFUN_ORDER",
    "CheckSummary",
    "GenFunId",
    "GenFunResult",
    "IdentityId",
    "IdentityResult",
    "default_grid",
    "genfun_check",
    "identity_eval",
    "run_relation",
    "verify_all",
    "verify_ids",
]
