"""Exact derivatives and eps-expansions of rising-factorial expressions.

Everything is computed over exact rationals: derivative coefficients of
rising factorials and their reciprocals to any order, partial-fraction
decompositions of rising-factorial quotients, and coefficient tables for the
eps-expansion of double hypergeometric-style series — with every closed form
cross-checked against an independent truncated-series engine.

`import pochex` loads the core (`errors`, `duals`, `series`, `combinatorics`,
`pochhammer`); `hyper_expand`, `partial_fractions`, `specfile` and `verify`
load on first use of one of their names.  The public names are the same.
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

# Public names of the modules that `poch` and `recip` do not need: each loads on
# first use (PEP 562) and is kept in globals().  `pochhammer` stays eager, else a
# later load of the submodule would rebind `pochex.pochhammer` to the module.
_LAZY = {
    name: module
    for module, names in (
        ("hyper_expand", "CLOSED_EXAMPLES ExpansionTable HyperTermSpec IndexLaw closed_engine_spec "
         "delta_dual_expand emit_table expand_closed expand_general regroup_total_degree"),
        ("partial_fractions", "PartialFractionForm PFTerm PochProductQuotient decompose_multi "
         "decompose_single pf_derivative quotient_deriv"),
        ("specfile", "SpecOptions parse_quotient_text parse_spec_text"),
        ("verify", "DEFAULT_GENFUN_ORDER CheckSummary GenFunId GenFunResult IdentityId "
         "IdentityResult default_grid genfun_check identity_eval run_relation verify_all "
         "verify_ids"),
    )
    for name in names.split()
}


def __getattr__(name):
    """A public name of a module that loads on first use, or that module."""
    from importlib import import_module

    module = _LAZY.get(name, name if name in _LAZY.values() else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_LAZY.values()})


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
