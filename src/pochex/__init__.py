"""Exact derivatives and eps-expansions of rising-factorial expressions.

Everything is computed over exact rationals: derivative coefficients of
rising factorials and their reciprocals to any order, partial-fraction
decompositions of rising-factorial quotients, and coefficient tables for the
eps-expansion of double hypergeometric-style series — with every closed form
cross-checked against an independent truncated-series engine.

One table, `_NAMES`, files each public name under the module that defines it;
`__all__` is read from it.  `import pochex` binds `pochhammer` and so loads the
core (`errors`, `duals`, `series`, `combinatorics`, `pochhammer`); every other
name resolves on first use, which loads `hyper_expand`, `partial_fractions`,
`specfile` or `verify` only when one of their names is asked for.
"""

# Bound here, not on first use, so that `pochex.pochhammer` is the function: a
# later load of the submodule of the same name would rebind it to the module.
from .pochhammer import pochhammer

_NAMES = {
    "combinatorics": "binomial gen_bernoulli_poly harmonic mod_harmonic "
    "nested_ones_S nested_ones_Z stirling_s1",
    "duals": "Dual",
    "errors": "DegreeError DomainError MissingParameter ParseError PochexError PoleError "
    "RepeatedRoot ZeroSeries",
    "hyper_expand": "CLOSED_EXAMPLES ExpansionTable HyperTermSpec IndexLaw closed_engine_spec "
    "delta_dual_expand emit_table expand_closed expand_general regroup_total_degree",
    "partial_fractions": "PartialFractionForm PFTerm PochProductQuotient decompose_multi "
    "pf_derivative quotient_deriv",
    "pochhammer": "LinearParam PochMethod RecipMethod poch_deriv poch_eps_series pochhammer "
    "recip_poch_deriv recip_poch_laurent",
    "series": "EpsSeries parse_rational polynomial_series series_invert",
    "specfile": "SpecOptions parse_quotient_text parse_spec_text",
    "verify": "CheckSummary GenFunId GenFunResult IdentityId IdentityResult run_relation "
    "verify_all verify_ids",
}
_MODULE = {name: module for module, names in _NAMES.items() for name in names.split()}
__all__ = list(_MODULE)
__version__ = "0.1.0"


def __getattr__(name):
    """A public name or a submodule, loaded on first use (PEP 562) and kept in globals()."""
    from importlib import import_module

    module = _MODULE.get(name, name if name in _NAMES else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_NAMES})
