"""One argument contract for the public API.

Counts (lengths, orders, indices) are ints at or above a documented floor;
exponents and shifts are ints of either sign; scalars are ints, Fractions or,
where documented, Duals.  Anything else is a
DomainError, never a raw TypeError, a float result or a silent conversion.
"""

import inspect
import re
from fractions import Fraction as F

import pytest

import pochex
from pochex import (
    Dual,
    DomainError,
    EpsSeries,
    LinearParam,
    PochProductQuotient,
    closed_engine_spec,
    decompose_multi,
    run_relation,
)

_FORM = decompose_multi(PochProductQuotient([(LinearParam(1, 1), 1)], [(LinearParam(2, 1), 2)]))

# Valid keyword arguments for every public callable with a count or scalar argument.
VALID = {
    "pochhammer": dict(alpha=1, m=2),
    "poch_deriv": dict(alpha=1, m=2, k=1),
    "recip_poch_deriv": dict(beta=1, m=3, k=1),
    "recip_poch_laurent": dict(n=1, b=1, m=3, order=2),
    "poch_eps_series": dict(param=LinearParam(1, 1), m=2, order=2),
    "stirling_s1": dict(n=3, k=1),
    "gen_bernoulli_poly": dict(n=2, a=1, x=0),
    "harmonic": dict(m=3, k=1),
    "mod_harmonic": dict(m=3, k=1),
    "nested_ones_Z": dict(m=3, k=1),
    "nested_ones_S": dict(m=3, k=1),
    "binomial": dict(top=3, k=2),
    "polynomial_series": dict(coefficients=[1, 2], order=2),
    "pf_derivative": dict(form=_FORM, k=1, at_eps=0),
    "quotient_deriv": dict(num=LinearParam(1, 1), m=1, den=LinearParam(2, 1), n=2, k=1, at_eps=0),
    "IndexLaw": dict(c0=0, c1=1, c2=1),
    "expand_general": dict(spec=closed_engine_spec("F1"), eps_order=1, degree_bound=2),
    "expand_closed": dict(example="F1", eps_order=1, degree_bound=2),
    "delta_dual_expand": dict(spec=closed_engine_spec("dF7_ddelta"), eps_order=1, degree_bound=2),
    "closed_engine_spec": dict(example="F6", delta=F(1, 3)),
    "LinearParam": dict(constant=1, slope=1),
    "Dual": dict(val=1, der=1),
    "ExpansionTable": dict(entries={}, eps_order=1, degree_bound=2),
    "SpecOptions": dict(eps_order=1, degree_bound=2, regroup="total"),
    "CheckSummary": dict(identity="A9", points=1, failures=()),
    "IdentityResult": dict(identity=pochex.IdentityId.A9, params={}, lhs=1, rhs=F(1, 2)),
    "GenFunResult": dict(identity=pochex.GenFunId.a7, params={}, order=12, first_discrepancy=-1),
}

# Every count argument, with its floor where that is not 0.
COUNTS = {
    "pochhammer": ["m"],
    "poch_deriv": ["m", "k"],
    "recip_poch_deriv": ["m", "k"],
    "recip_poch_laurent": ["n", "m", "order"],
    "poch_eps_series": ["m", "order"],
    "stirling_s1": ["n", "k"],
    "gen_bernoulli_poly": ["n", "a"],
    "harmonic": ["m", "k"],
    "mod_harmonic": ["m", "k"],
    "nested_ones_Z": ["m", "k"],
    "nested_ones_S": ["m", "k"],
    "binomial": ["k"],
    "polynomial_series": ["order"],
    "pf_derivative": ["k"],
    "quotient_deriv": ["m", "n", "k"],
    "IndexLaw": ["c0", "c1", "c2"],
    "expand_general": ["eps_order", "degree_bound"],
    "expand_closed": ["eps_order", "degree_bound"],
    "delta_dual_expand": ["eps_order", "degree_bound"],
    "ExpansionTable": ["eps_order", "degree_bound"],
    "SpecOptions": ["eps_order", "degree_bound"],
    "CheckSummary": ["points"],
    "GenFunResult": ["order"],
}
FLOORS = {("recip_poch_laurent", "order"): -1, ("gen_bernoulli_poly", "a"): 1}
# Callables whose counts may also be None, for unset.
OPTIONAL = {"SpecOptions"}

# Every scalar argument; True where it must be rational, so a Dual is refused too.
SCALARS = {
    "pochhammer": {"alpha": False},
    "poch_deriv": {"alpha": False},
    "recip_poch_deriv": {"beta": False},
    "recip_poch_laurent": {"b": False},
    "gen_bernoulli_poly": {"x": True},
    "binomial": {"top": True},
    "pf_derivative": {"at_eps": False},
    "quotient_deriv": {"at_eps": False},
    "closed_engine_spec": {"delta": False},
    "LinearParam": {"constant": False, "slope": False},
    "Dual": {"val": True, "der": True},
    "IdentityResult": {"lhs": False, "rhs": False},
}

COUNT_NAMES = {"m", "n", "k", "a", "order", "eps_order", "degree_bound", "length"}
# Parameters that carry a count's name but hold a series.
NOT_COUNTS = {("series_invert", "a")}

BAD_SCALARS = ["1/2", "1", None, 1.5, True, False]


def _callable(name):
    owner, _, attr = name.partition(".")
    target = getattr(pochex, owner)
    return getattr(target, attr) if attr else target


def _bad_counts(low):
    return [low - 1, 1.0, 1.5, F(2), "2", None, True, False]


def _count_cases():
    for name, params in COUNTS.items():
        for param in params:
            for bad in _bad_counts(FLOORS.get((name, param), 0)):
                if bad is None and name in OPTIONAL:
                    continue
                yield pytest.param(name, param, bad, id=f"{name}-{param}-{bad!r}")


def _scalar_cases():
    for name, params in SCALARS.items():
        for param, rational in params.items():
            # A missing delta is None, which closed_engine_spec reports as MissingParameter.
            bad_values = [b for b in BAD_SCALARS if not (param == "delta" and b is None)]
            if rational:
                bad_values.append(Dual(1, 1))
            for bad in bad_values:
                yield pytest.param(name, param, bad, id=f"{name}-{param}-{bad!r}")


@pytest.mark.parametrize("name, param, bad", list(_count_cases()))
def test_bad_count_is_a_domain_error(name, param, bad):
    # The message names the function called, not one it delegates to.
    low = FLOORS.get((name, param), 0)
    message = f"{name} needs an integer {param} >= {low}, got {bad!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        _callable(name)(**{**VALID[name], param: bad})


@pytest.mark.parametrize("name, param, bad", list(_scalar_cases()))
def test_bad_scalar_is_a_domain_error(name, param, bad):
    with pytest.raises(DomainError):
        _callable(name)(**{**VALID[name], param: bad})


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_arguments_pass(name):
    _callable(name)(**VALID[name])


@pytest.mark.parametrize("bad", _bad_counts(0))
def test_bad_factor_length_is_a_domain_error(bad):
    with pytest.raises(DomainError, match="needs an integer length >= 0"):
        PochProductQuotient([(LinearParam(1, 1), bad)], [(LinearParam(2, 1), 2)])
    with pytest.raises(DomainError, match="needs an integer length >= 0"):
        PochProductQuotient([], [(LinearParam(2, 1), bad)])


_L = LinearParam(1, 1)

# Every argument that must be of a package type, a mapping or a text: a wrong
# type is a DomainError naming the function, what it needs and the argument.
TYPED = {
    "expand_general": (lambda: pochex.expand_general(5, 1, 1), "a HyperTermSpec spec, got 5"),
    "delta_dual_expand": (
        lambda: pochex.delta_dual_expand(5, 1, 1),
        "a HyperTermSpec spec, got 5",
    ),
    "expand_closed-extra": (lambda: pochex.expand_closed("F6", 1, 2, 5), "a Mapping extra, got 5"),
    # An empty list or False is refused like 5, not read as no extra.
    "expand_closed-extra_list": (
        lambda: pochex.expand_closed("F1", 1, 1, []),
        "a Mapping extra, got []",
    ),
    "expand_closed-extra_false": (
        lambda: pochex.expand_closed("F1", 1, 1, False),
        "a Mapping extra, got False",
    ),
    "HyperTermSpec-numer": (
        lambda: pochex.HyperTermSpec("x", numer=5),
        "an iterable of numer factors, got 5",
    ),
    "poch_eps_series": (lambda: pochex.poch_eps_series(5, 2, 2), "a LinearParam param, got 5"),
    "emit_table": (lambda: pochex.emit_table(5), "an ExpansionTable table, got 5"),
    "regroup_total_degree": (
        lambda: pochex.regroup_total_degree(5),
        "an ExpansionTable table, got 5",
    ),
    "decompose_multi": (
        lambda: pochex.decompose_multi(5),
        "a PochProductQuotient quotient, got 5",
    ),
    "quotient_deriv-num": (
        lambda: pochex.quotient_deriv(5, 1, _L, 2, 1),
        "a LinearParam num, got 5",
    ),
    "quotient_deriv-den": (
        lambda: pochex.quotient_deriv(_L, 1, 5, 2, 1),
        "a LinearParam den, got 5",
    ),
    "pf_derivative": (lambda: pochex.pf_derivative(5, 1), "a PartialFractionForm form, got 5"),
    "PochProductQuotient-pair": (
        lambda: PochProductQuotient([(_L,)]),
        f"(LinearParam, length) factors, got {(_L,)!r}",
    ),
    "PochProductQuotient-sides": (
        lambda: PochProductQuotient(5),
        "an iterable of (LinearParam, length) factors, got 5",
    ),
    "PochProductQuotient-param": (
        lambda: PochProductQuotient([], [(5, 2)]),
        "a LinearParam param, got 5",
    ),
    "PartialFractionForm-terms": (
        lambda: pochex.PartialFractionForm(1, 5),
        "an iterable of PFTerm terms, got 5",
    ),
    "PartialFractionForm-term": (
        lambda: pochex.PartialFractionForm(1, (pochex.PFTerm(1, 1, 1), 5)),
        "a PFTerm term, got 5",
    ),
    "SpecOptions": (
        lambda: pochex.SpecOptions(1, 2, "x"),
        "a regroup None, 'lattice' or 'total', got 'x'",
    ),
    "CheckSummary-identity": (lambda: pochex.CheckSummary(5, 1, ()), "a str identity, got 5"),
    "CheckSummary-failures": (
        lambda: pochex.CheckSummary("A9", 5, 5),
        "an iterable of result records, got 5",
    ),
    "CheckSummary-failure": (
        lambda: pochex.CheckSummary("A9", 1, [5]),
        "an IdentityResult or a GenFunResult failure, got 5",
    ),
    "IdentityResult-identity": (
        lambda: pochex.IdentityResult("A9", {}, 1, 1),
        "an IdentityId identity, got 'A9'",
    ),
    "IdentityResult-params": (
        lambda: pochex.IdentityResult(pochex.IdentityId.A9, [("m", 1)], 1, 1),
        "a Mapping params, got [('m', 1)]",
    ),
    "GenFunResult-identity": (
        lambda: pochex.GenFunResult(pochex.IdentityId.A9, {}, 12, 1),
        "a GenFunId identity, got <IdentityId.A9: 'A9'>",
    ),
    "GenFunResult-params": (
        lambda: pochex.GenFunResult(pochex.GenFunId.a7, 5, 12, 1),
        "a Mapping params, got 5",
    ),
    "GenFunResult-first_discrepancy": (
        lambda: pochex.GenFunResult(pochex.GenFunId.a7, {}, 12, 1.0),
        "an integer first_discrepancy, got 1.0",
    ),
    "parse_rational": (lambda: pochex.parse_rational(5), "a str text, got 5"),
    "parse_spec_text": (lambda: pochex.parse_spec_text(5), "a str text, got 5"),
    "parse_quotient_text": (lambda: pochex.parse_quotient_text(5), "a str text, got 5"),
}


@pytest.mark.parametrize("case", sorted(TYPED))
def test_wrong_typed_argument_is_a_domain_error(case):
    call, needs = TYPED[case]
    message = f"{case.partition('-')[0]} needs {needs}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


_P_NAMES = "recurrence, stirling_sum, coffey, bernoulli, series_oracle"
_Q_NAMES = "recurrence, closed_sum, delta_form, series_oracle"


@pytest.mark.parametrize(
    "call, method, message",
    [
        (
            "poch_deriv",
            pochex.RecipMethod.RECURRENCE,
            f"unknown method <RecipMethod.RECURRENCE: 'recurrence'>; expected one of: {_P_NAMES}",
        ),
        (
            "recip_poch_deriv",
            pochex.PochMethod.SERIES_ORACLE,
            "unknown method <PochMethod.SERIES_ORACLE: 'series_oracle'>; "
            f"expected one of: {_Q_NAMES}",
        ),
        ("poch_deriv", b"coffey", f"unknown method b'coffey'; expected one of: {_P_NAMES}"),
        ("poch_deriv", ["coffey"], f"unknown method ['coffey']; expected one of: {_P_NAMES}"),
        ("recip_poch_deriv", None, f"unknown method None; expected one of: {_Q_NAMES}"),
    ],
    ids=["poch_deriv-RecipMethod", "recip_poch_deriv-PochMethod", "bytes", "list", "None"],
)
def test_a_method_that_names_no_member_of_its_family_is_refused(call, method, message):
    # A member of the other enum names no method of this family, even where the
    # two share a value ("recurrence", "series_oracle").
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        getattr(pochex, call)(F(1, 3), 5, 2, method)


@pytest.mark.parametrize(
    "term, message",
    [
        ((0.5, 1, 1), "inexact float 0.5; pass an int or a Fraction"),
        ((1, 0.5, 1), "inexact float 0.5; pass an int or a Fraction"),
        ((1, 1, True), "True is not an exact scalar; pass an int or a Fraction"),
        ((1, 1, "1"), "'1' is not an exact scalar; pass an int or a Fraction"),
    ],
    ids=["coefficient", "pole_constant", "pole_slope-bool", "pole_slope-str"],
)
def test_a_partial_fraction_term_refuses_an_inexact_field(term, message):
    # A float coefficient once gave pf_derivative a float result.
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        pochex.pf_derivative(pochex.PartialFractionForm(F(1), (pochex.PFTerm(*term),)), 1)


@pytest.mark.parametrize(
    "sides, message",
    [
        ((0.5, 1), "inexact float 0.5; pass an int or a Fraction"),
        ((1, True), "True is not an exact scalar; pass an int or a Fraction"),
    ],
    ids=["lhs-float", "rhs-bool"],
)
def test_an_identity_result_refuses_an_inexact_side(sides, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        pochex.IdentityResult(pochex.IdentityId.A9, {"m": 1, "k": 1}, *sides)


@pytest.mark.parametrize(
    "use",
    [pochex.emit_table, lambda table: table.get(0, 0, 0), pochex.regroup_total_degree],
    ids=["emit_table", "get", "regroup_total_degree"],
)
@pytest.mark.parametrize(
    "fields, message",
    [
        ((5, 1, 1), "a Mapping entries, got 5"),
        (([], 1, 1), "a Mapping entries, got []"),
        (({}, -1, 1), "an integer eps_order >= 0, got -1"),
        (({}, 1, True), "an integer degree_bound >= 0, got True"),
        (({}, 1, 1.0), "an integer degree_bound >= 0, got 1.0"),
        (({}, 1, 1, "total"), "a regrouping 'lattice' or 'total_degree', got 'total'"),
    ],
    ids=["entries-int", "entries-list", "eps_order", "degree_bound-bool", "degree_bound-float",
         "regrouping"],
)
def test_bad_table_field_is_a_domain_error(fields, message, use):
    # Checked when the table is built, so no use of it meets a TypeError or AttributeError.
    with pytest.raises(DomainError, match=f"^{re.escape(f'ExpansionTable needs {message}')}$"):
        use(pochex.ExpansionTable(*fields))


def test_table_takes_any_mapping():
    from types import MappingProxyType

    table = pochex.ExpansionTable(MappingProxyType({(0, 0, 0): F(1)}), 0, 0)
    assert pochex.emit_table(pochex.regroup_total_degree(table)) == "k,m,n,coefficient\n0,0,0,1"


@pytest.mark.parametrize("bad", [5, None, F(1, 2), 1.5])
def test_non_iterable_coefficients_are_a_domain_error(bad):
    for where, call in (("EpsSeries", EpsSeries), ("polynomial_series", pochex.polynomial_series)):
        with pytest.raises(
            DomainError, match=re.escape(f"{where} needs an iterable of coefficients, got {bad!r}")
        ):
            call(bad, 2)


@pytest.mark.parametrize("bad", [["1/2"], [None], [1.5], [1, "2"]])
def test_bad_series_coefficient_is_a_domain_error(bad):
    with pytest.raises(DomainError):
        EpsSeries(bad)
    with pytest.raises(DomainError):
        pochex.polynomial_series(bad, 2)


_SERIES = EpsSeries([1, 2, 3], -1)

# Every exponent and shift: an int of either sign, so it has no floor.
SIGNED = [
    ("EpsSeries", "min_exponent", lambda x: EpsSeries([1], x)),
    ("EpsSeries.coefficient", "exponent", _SERIES.coefficient),
    ("EpsSeries.truncated", "new_max", _SERIES.truncated),
    ("EpsSeries.shifted", "offset", _SERIES.shifted),
    ("LinearParam.shifted", "offset", LinearParam(1, 1).shifted),
]


@pytest.mark.parametrize("bad", [1.0, 0.5, F(2), "1", "1/2", None, True, False])
@pytest.mark.parametrize("where, param, call", SIGNED, ids=[w for w, _, _ in SIGNED])
def test_bad_signed_integer_is_a_domain_error(where, param, call, bad):
    with pytest.raises(DomainError, match=re.escape(f"{where} needs an integer {param}, got")):
        call(bad)


@pytest.mark.parametrize("where, param, call", SIGNED, ids=[w for w, _, _ in SIGNED])
def test_signed_integer_takes_either_sign(where, param, call):
    call(-1)
    call(1)


_RATIONAL_HINT = "; pass an int or a Fraction"


BAD_VERIFY_PARAMS = [
    ("A9", {"m": 1.0, "k": 0}, "needs an integer m >= 0, got 1.0"),
    ("A9", {"m": "2", "k": 0}, "needs an integer m >= 0, got '2'"),
    ("A9", {"m": F(1, 2), "k": 0}, "needs an integer m >= 0, got Fraction(1, 2)"),
    ("A9", {"m": -1, "k": 0}, "needs an integer m >= 0, got -1"),
    ("A9", {"m": None, "k": 0}, "needs an integer m >= 0, got None"),
    ("A9", {"k": 0}, "is missing parameter 'm'"),
    (
        "A13",
        {"m": 2, "k": 1, "alpha": Dual(1, 1)},
        "needs a rational alpha, got Dual(1, 1)" + _RATIONAL_HINT,
    ),
    (
        "A13",
        {"m": 2, "k": 1, "alpha": 0.5},
        "needs a rational alpha, got 0.5" + _RATIONAL_HINT,
    ),
    (
        "A13",
        {"m": 2, "k": 1, "alpha": "1/2"},
        "needs a rational alpha, got '1/2'" + _RATIONAL_HINT,
    ),
]


# Ids `<relation>-params<i>`, as pytest names a (relation, params) case.
@pytest.mark.parametrize(
    "relation, params, message",
    BAD_VERIFY_PARAMS,
    ids=[f"{relation}-params{i}" for i, (relation, _, _) in enumerate(BAD_VERIFY_PARAMS)],
)
def test_bad_verify_parameter_is_a_domain_error(relation, params, message):
    message = f"run_relation({relation!r}) at grid point 0 {message}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        run_relation(relation, [params])


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: run_relation("A29", [{"m": 1, "k": 0, "n": 0}]),
            "run_relation('A29') at grid point 0 needs an integer n >= 1, got 0",
        ),
        (
            lambda: run_relation("a4", [{"k": 0, "alpha": 1}, {"k": 0, "alpha": 0.5}]),
            "run_relation('a4') at grid point 1 needs a rational alpha, got 0.5" + _RATIONAL_HINT,
        ),
        (
            lambda: run_relation("A18", [{"x": 0}]),
            "run_relation('A18') at grid point 0 is missing parameter 'a'",
        ),
        (
            lambda: pochex.run_relation("A9", [{"m": 1, "k": 0}, {"m": 2, "k": -1}]),
            "run_relation('A9') at grid point 1 needs an integer k >= 0, got -1",
        ),
        (
            lambda: pochex.run_relation("a7", [{"k": 1}, {}]),
            "run_relation('a7') at grid point 1 is missing parameter 'k'",
        ),
    ],
)
def test_verify_parameter_error_names_the_call_relation_and_point(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("bad", [5, [1, 2], None, F(1, 2)])
def test_series_invert_refuses_a_non_series(bad):
    with pytest.raises(
        DomainError, match=f"^{re.escape(f'series_invert needs an EpsSeries, got {bad!r}')}$"
    ):
        pochex.series_invert(bad)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: pochex.run_relation("A5", 5),
            "run_relation needs an iterable of parameter mappings, got 5",
        ),
        (
            lambda: pochex.run_relation("A5", [5]),
            "run_relation needs a mapping of parameters, got 5",
        ),
        (
            lambda: pochex.run_relation("a4", [{"k": 0, "alpha": 1}, ("k", 0)]),
            "run_relation needs a mapping of parameters, got ('k', 0)",
        ),
        (lambda: pochex.verify_ids(5), "verify_ids needs an iterable of relation ids, got 5"),
    ],
    ids=["run_relation-grid", "run_relation-point",
         "run_relation-second-point", "verify_ids"],
)
def test_verify_entry_points_refuse_non_mappings_and_non_iterables(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


def test_verify_entry_points_take_any_mapping_and_iterable():
    from types import MappingProxyType

    point = MappingProxyType({"m": 2, "k": 1})
    assert pochex.run_relation("A9", iter([point])).points == 1
    assert [s.identity for s in pochex.verify_ids(iter(["A9"]))] == ["A9"]


@pytest.mark.parametrize(
    "relation, params, message",
    [
        ("A9", {"m": 2, "k": 1, "alpha": 1}, "has unknown parameter 'alpha'; A9 takes m, k"),
        ("a7", {"j": 0, "k": 1}, "has unknown parameter 'j'; a7 takes k"),
        # A bad declared parameter comes before an unknown key, and an unknown
        # key before the point's range (AA19 needs k <= m).
        ("A9", {"m": 2, "k": -1, "alpha": 1}, "needs an integer k >= 0, got -1"),
        ("AA19", {"m": 1, "k": 2, "z": 0}, "has unknown parameter 'z'; AA19 takes m, k"),
    ],
)
def test_verify_refuses_a_parameter_the_relation_does_not_declare(relation, params, message):
    message = f"run_relation({relation!r}) at grid point 0 {message}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        run_relation(relation, [params])


def test_integral_fraction_counts_as_its_integer_in_verify():
    assert run_relation("A9", [{"m": F(3), "k": F(1)}]).passed


# Every relation's parameters in the order they are read: `name>=low` is an
# integer of at least low, `name:Q` a rational.
VERIFY_DECLARATIONS = {
    "A5": "m>=0 k>=0 alpha:Q",
    "A6": "m>=1 k>=1",
    "A8": "n>=0 k>=0",
    "A9": "m>=0 k>=0",
    "AA19": "m>=0 k>=0",
    "A12": "m>=0 k>=0",
    "A13": "m>=0 k>=0 alpha:Q",
    "A14coeff": "m>=1 k>=0 j>=0",
    "A15": "m>=0 k>=0",
    "A27": "m>=0 k>=0 x:Q",
    "A28": "m>=0 k>=0",
    "A29": "m>=0 k>=0 n>=1",
    "A30": "m>=0 k>=0 n>=1",
    "A31": "m>=0 k>=0 n>=1",
    "A32": "m>=0 k>=0 n>=1",
    "ii16": "m>=0 n>=1 A:Q B:Q x:Q",
    "ii17": "n>=1 A:Q B:Q x:Q",
    "iii4": "m>=0",
    "iii5": "m>=0 n>=0",
    "iii10": "m>=0 n>=0",
    "conjugate_HS": "m>=0 k>=0",
    "a4": "k>=0 alpha:Q",
    "a7": "k>=0",
    "A18": "a>=1 x:Q",
    "A25": "k>=0 beta:Q",
    "A26": "k>=0",
    "nueva1": "m>=0 c:Q",
    "nueva2": "m>=1 c:Q",
}


def _parameter_faults(declaration, point):
    """Each (bad point, message tail) for one parameter of `point` dropped or
    replaced by a value that `declaration` refuses."""
    for item in declaration.split():
        name, _, low = item.partition(">=")
        if low:
            low = int(low)
            bad = [0.5, "1", None, True, low - 1, F(1, 2)]
            tail = f"needs an integer {name} >= {low}, got {{!r}}"
        else:
            name = name.removesuffix(":Q")
            bad = [0.5, "1", None, True, Dual(1, 1)]
            tail = f"needs a rational {name}, got {{!r}}" + _RATIONAL_HINT
        yield {key: value for key, value in point.items() if key != name}, (
            f"is missing parameter {name!r}"
        )
        for value in bad:
            yield {**point, name: value}, tail.format(value)


@pytest.mark.parametrize("relation", VERIFY_DECLARATIONS)
def test_every_declared_verify_parameter_refuses_a_bad_value(relation):
    # From the relation's first default point, drop or spoil one parameter at a
    # time; each fault names the parameter exactly as the declaration does.
    default = pochex.verify._relation(relation)[3]
    assert pochex.verify._RELATIONS[relation][1] == VERIFY_DECLARATIONS[relation]
    point = default()[0]
    expected, got = [], []
    for params, tail in _parameter_faults(VERIFY_DECLARATIONS[relation], point):
        expected.append(f"run_relation({relation!r}) at grid point 0 {tail}")
        with pytest.raises(DomainError) as fault:
            run_relation(relation, [params])
        got.append(str(fault.value))
    assert got == expected


def test_every_public_count_parameter_is_listed():
    unlisted = []
    for name in pochex.__all__:
        obj = getattr(pochex, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # exception classes without a Python signature
            continue
        unlisted += [
            (name, p) for p in params
            if p in COUNT_NAMES and p not in COUNTS.get(name, ()) and (name, p) not in NOT_COUNTS
        ]
    assert unlisted == []
