"""Pochhammer derivatives: closed forms, cross-method agreement, poles."""

import copy
import dataclasses
import inspect
import itertools
import math
import pickle
import re
import sys
from collections.abc import Mapping
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pochex.combinatorics
from pochex.combinatorics import binomial, gen_bernoulli_poly
from pochex.duals import Dual
from pochex.errors import DomainError, PoleError
from pochex.hyper_expand import ExpansionTable, HyperTermSpec, IndexLaw
from pochex.partial_fractions import PartialFractionForm, PFTerm, quotient_deriv
from pochex.pochhammer import (
    LinearParam,
    PochMethod,
    RecipMethod,
    _int_factor,
    _vanishing_shift,
    poch_deriv,
    poch_eps_series,
    pochhammer,
    recip_poch_deriv,
    recip_poch_laurent,
)
from pochex.series import _coerce, _count, _iterable, _signed, _typed, series_invert
from pochex.specfile import SpecOptions
from pochex.verify import CheckSummary, GenFunId, GenFunResult, IdentityId, IdentityResult

from engine_digest import matched


# -- plain Pochhammer ------------------------------------------------------------


@pytest.mark.parametrize(
    "alpha,m,value",
    [
        (1, 0, 1),
        (1, 3, 6),
        (F(1, 2), 2, F(3, 4)),
        (-2, 3, 0),
        (-2, 2, 2),
        (F(-5, 2), 3, F(-15, 8)),
    ],
)
def test_pochhammer_values(alpha, m, value):
    assert pochhammer(alpha, m) == value


@given(
    v=st.fractions(max_denominator=12),
    d=st.one_of(st.integers(-5, 5), st.fractions(max_denominator=7)),
    m=st.integers(0, 12),
)
def test_pochhammer_at_a_dual_is_the_value_and_its_derivative(v, d, m):
    # d/dalpha (alpha)_m = P(m, 1, alpha): a Dual for m >= 1, the empty product 1 at m = 0.
    result = pochhammer(Dual(v, d), m)
    if m == 0:
        assert (type(result), result) == (F, 1)
        return
    expected = Dual(pochhammer(v, m), d * poch_deriv(v, m, 1))
    assert (type(result), type(result.val), type(result.der)) == (Dual, F, F)
    assert (result.val, result.der) == (expected.val, expected.der)


def test_pochhammer_negative_length_rejected():
    with pytest.raises(DomainError):
        pochhammer(1, -1)


def test_poch_eps_series_matches_expansion():
    # (1+eps)(2+eps) = 2 + 3 eps + eps^2
    s = poch_eps_series(LinearParam(1, 1), 2, 2)
    assert s.coefficient(0) == 2
    assert s.coefficient(1) == 3
    assert s.coefficient(2) == 1


@given(
    c=st.builds(F, st.integers(-9, 9), st.integers(1, 4)),
    s=st.builds(F, st.integers(-4, 4), st.integers(1, 3)),
    m=st.integers(0, 12),
    order=st.integers(0, 14),
)
def test_poch_eps_series_is_the_truncated_full_polynomial(c, s, m, order):
    # Reference: expand (c + s*eps)_m completely, then cut at `order`.
    full = [F(1)]
    for j in range(m):
        full = [
            (full[i] * (c + j) if i < len(full) else 0) + (full[i - 1] * s if i else 0)
            for i in range(len(full) + 1)
        ]
    padded = (full + [F(0)] * (order + 1))[: order + 1]
    series = poch_eps_series(LinearParam(c, s), m, order)
    assert list(series.coefficients) == padded
    assert all(type(x) is F for x in series.coefficients)


@pytest.mark.parametrize(
    "call",
    [
        lambda: poch_deriv(0.5, 3, 1),
        lambda: poch_deriv(0.5, 1, 3),
        lambda: recip_poch_deriv(0.5, 3, 1),
        lambda: pochhammer(0.5, 3),
        lambda: LinearParam(0.5, 1),
        lambda: LinearParam(1, 0.5),
        lambda: binomial(0.5, 2),
        lambda: gen_bernoulli_poly(2, 1, 0.5),
        lambda: Dual(0.5, 1),
    ],
    ids=[
        "poch_deriv", "poch_deriv_k_above_m", "recip_poch_deriv", "pochhammer", "constant", "slope",
        "binomial", "gen_bernoulli_poly", "dual",
    ],
)
def test_float_arguments_are_refused(call):
    with pytest.raises(DomainError, match="inexact float 0.5"):
        call()


def test_linear_param_helpers():
    p = LinearParam(F(1, 2), -2)
    assert p.at(F(1, 4)) == 0
    assert p.shifted(3) == LinearParam(F(7, 2), -2)


class _Twin:
    """Each public record as the frozen dataclass it stands for, with the same
    checks.  A twin's repr and messages say `_Twin.Name` where the record's say
    `Name`."""

    @dataclasses.dataclass(frozen=True)
    class LinearParam:
        constant: "Fraction"
        slope: "Fraction"

        def __post_init__(self):
            object.__setattr__(self, "constant", _coerce(self.constant))
            object.__setattr__(self, "slope", _coerce(self.slope))

    @dataclasses.dataclass(frozen=True)
    class IndexLaw:
        c0: "int"
        c1: "int"
        c2: "int"

        def __post_init__(self):
            _count("IndexLaw", c0=self.c0, c1=self.c1, c2=self.c2)

    @dataclasses.dataclass(frozen=True)
    class HyperTermSpec:
        name: "str"
        numer: "tuple" = ()
        denom: "tuple" = ()

        def __post_init__(self):
            for side in ("numer", "denom"):
                what = f"{side} factors"
                factors = tuple(_iterable("HyperTermSpec", getattr(self, side), what))
                for idx, factor in enumerate(factors):
                    if not (
                        isinstance(factor, tuple)
                        and len(factor) == 2
                        and isinstance(factor[0], LinearParam)
                        and isinstance(factor[1], IndexLaw)
                    ):
                        raise DomainError(
                            f"{side} factor {idx} of {self.name or 'spec'} is not a "
                            f"(LinearParam, IndexLaw) pair: {factor!r}"
                        )
                object.__setattr__(self, side, factors)

    @dataclasses.dataclass(frozen=True)
    class ExpansionTable:
        entries: "dict"
        eps_order: "int"
        degree_bound: "int"
        regrouping: "str" = "lattice"

        def __post_init__(self):
            _typed("ExpansionTable", Mapping, entries=self.entries)
            _count("ExpansionTable", eps_order=self.eps_order, degree_bound=self.degree_bound)
            if self.regrouping not in ("lattice", "total_degree"):
                raise DomainError(
                    "ExpansionTable needs a regrouping 'lattice' or 'total_degree', "
                    f"got {self.regrouping!r}"
                )

    @dataclasses.dataclass(frozen=True)
    class PFTerm:
        coefficient: "Fraction"
        pole_constant: "Fraction"
        pole_slope: "Fraction"

        def __post_init__(self):
            for name in ("coefficient", "pole_constant", "pole_slope"):
                object.__setattr__(self, name, _coerce(getattr(self, name)))

    @dataclasses.dataclass(frozen=True)
    class PartialFractionForm:
        constant: "Fraction"
        terms: "tuple"
        scalar: "Fraction" = F(1)

        def __post_init__(self):
            object.__setattr__(self, "constant", _coerce(self.constant))
            terms = tuple(_iterable("PartialFractionForm", self.terms, "PFTerm terms"))
            for term in terms:
                _typed("PartialFractionForm", PFTerm, term=term)
            object.__setattr__(self, "terms", terms)
            object.__setattr__(self, "scalar", _coerce(self.scalar))

    @dataclasses.dataclass(frozen=True)
    class SpecOptions:
        eps_order: "int | None" = None
        degree_bound: "int | None" = None
        regroup: "str | None" = None

        def __post_init__(self):
            for name in ("eps_order", "degree_bound"):
                if getattr(self, name) is not None:
                    _count("SpecOptions", **{name: getattr(self, name)})
            if self.regroup not in (None, "lattice", "total"):
                raise DomainError(
                    "SpecOptions needs a regroup None, 'lattice' or 'total', "
                    f"got {self.regroup!r}"
                )

    @dataclasses.dataclass(frozen=True)
    class IdentityResult:
        identity: "IdentityId"
        params: "Mapping"
        lhs: "Fraction"
        rhs: "Fraction"

        def __post_init__(self):
            _typed("IdentityResult", IdentityId, identity=self.identity)
            _typed("IdentityResult", Mapping, params=self.params)
            object.__setattr__(self, "lhs", _coerce(self.lhs))
            object.__setattr__(self, "rhs", _coerce(self.rhs))

    @dataclasses.dataclass(frozen=True)
    class GenFunResult:
        identity: "GenFunId"
        params: "Mapping"
        order: "int"
        first_discrepancy: "int"

        def __post_init__(self):
            _typed("GenFunResult", GenFunId, identity=self.identity)
            _typed("GenFunResult", Mapping, params=self.params)
            _count("GenFunResult", order=self.order)
            _signed("GenFunResult", first_discrepancy=self.first_discrepancy)

    @dataclasses.dataclass(frozen=True)
    class CheckSummary:
        identity: "str"
        points: "int"
        failures: "tuple"

        def __post_init__(self):
            _typed("CheckSummary", str, identity=self.identity)
            _count("CheckSummary", points=self.points)
            failures = tuple(_iterable("CheckSummary", self.failures, "result records"))
            for failure in failures:
                if not isinstance(failure, (IdentityResult, GenFunResult)):
                    raise DomainError(
                        "CheckSummary needs an IdentityResult or a GenFunResult failure, "
                        f"got {failure!r}"
                    )
            object.__setattr__(self, "failures", failures)


def _result_or_error(call):
    """What a call gives: ("ok", its repr), or the type and message of what it raised,
    with `_Twin.` dropped.  A frozen dataclass's FrozenInstanceError counts as the
    AttributeError it subclasses."""
    try:
        outcome = "ok", repr(call())
    except AttributeError as exc:
        outcome = "AttributeError", str(exc)
    except Exception as exc:  # the exception is the outcome being compared
        outcome = type(exc).__name__, str(exc)
    return tuple(text.replace("_Twin.", "") for text in outcome)


_TWIN_SCALARS = st.one_of(
    st.integers(-20, 20),
    st.fractions(max_denominator=30),
    st.builds(Dual, st.fractions(max_denominator=9), st.fractions(max_denominator=9)),
)


@given(_TWIN_SCALARS, _TWIN_SCALARS, _TWIN_SCALARS, _TWIN_SCALARS)
def test_linear_param_behaves_like_the_frozen_dataclass(c, s, c2, s2):
    p, q = LinearParam(c, s), LinearParam(constant=c2, slope=s2)
    t, u = _Twin.LinearParam(c, s), _Twin.LinearParam(constant=c2, slope=s2)
    pairs = [(p, q, t, u), (p, p, t, t), (p, LinearParam(c, s), t, _Twin.LinearParam(c, s))]
    for x, y, tx, ty in pairs:
        assert (x == y, x != y) == (tx == ty, tx != ty)
    # Hashes agree; with a Dual part both raise "unhashable type: 'Dual'".
    _assert_record_behaves_like_its_twin(p, t)


def test_linear_param_has_the_dataclass_signature_and_messages():
    twin = _Twin.LinearParam
    assert LinearParam.__match_args__ == twin.__match_args__
    assert inspect.signature(LinearParam).parameters == inspect.signature(twin).parameters
    for bad in ["1/2", None, 1.5, True, False]:
        for args in [(bad, 1), (1, bad)]:
            expected = _result_or_error(lambda: twin(*args))
            assert expected[0] == "DomainError"
            assert _result_or_error(lambda: LinearParam(*args)) == expected


def _assert_record_behaves_like_its_twin(record, twin):
    """`record` and the `_Twin` instance built from the same arguments agree on repr,
    fields, `==` against a tuple, hash, refused assignment and deletion, copies and
    a class pattern."""
    cls = type(record)
    assert repr(record) == repr(twin).replace("_Twin.", "")
    fields = tuple(getattr(twin, name) for name in cls.__match_args__)
    types = list(map(type, fields))
    mine = tuple(getattr(record, name) for name in cls.__match_args__)
    assert (mine, list(map(type, mine))) == (fields, types)
    assert _result_or_error(lambda: hash(record)) == _result_or_error(lambda: hash(twin))
    assert record.__eq__(twin) is NotImplemented
    for other in (fields, twin):
        assert (record == other, record != other) == (False, True)
        assert (twin == other, twin != other) == (other is twin, other is not twin)
    for name in [*cls.__match_args__, "other"]:
        for change in [lambda obj: setattr(obj, name, 1), lambda obj: delattr(obj, name)]:
            mine, theirs = copy.deepcopy(record), copy.deepcopy(twin)
            assert _result_or_error(lambda: change(mine) or mine) == _result_or_error(
                lambda: change(theirs) or theirs
            )
    for clone in [copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))]:
        assert type(clone) is cls
        assert clone == record and repr(clone) == repr(record)
        assert [type(getattr(clone, name)) for name in cls.__match_args__] == types
    assert matched(record) == fields


_SPEC_FACTOR = (LinearParam(1, -2), IndexLaw(0, 1, 1))
_IDENTITY = IdentityResult(IdentityId.A9, {"m": 2}, F(1), F(2))
# Per record: arguments of instances, which are compared with one another too, and
# arguments that each constructor refuses.
_RECORDS = {
    LinearParam: (
        [(F(1, 2), -2), (1, 1), (Dual(1, 2), 3)],
        [(), (1,), (1, 2, 3)],
    ),
    IndexLaw: (
        [(0, 1, 1), (2, 0, 3), (0, 1, 1)],
        [(), (0, 1), (0, 1, 1, 1), (-1, 0, 0), (1.5, 0, 0), (True, 0, 0), (0, 0, "1")],
    ),
    HyperTermSpec: (
        [("s", (_SPEC_FACTOR,), [_SPEC_FACTOR]), ("t",), ("u", [], ())],
        [(), ("s", 5), ("s", [(1, 2)]), ("", (), [LinearParam(1, 1)]), ("s", (), (), 1)],
    ),
    ExpansionTable: (
        [({(0, 0, 0): F(1)}, 0, 0), ({}, 2, 3, "total_degree"), ({(0, 0, 0): F(1)}, 0, 0)],
        [(), ({},), ([], 0, 0), ({}, -1, 0), ({}, 0, 0.5), ({}, 0, 0, "x")],
    ),
    PFTerm: (
        [(F(1), F(2), F(1)), (F(3), Dual(1, 1), F(-1)), (1, F(1, 2), -1), (Dual(0, 1), 2, 1)],
        [(), (1, 2), (1, 2, 3, 4), (0.5, 1, 1), (1, True, 1), (1, 1, "1"), (1, 1, None)],
    ),
    PartialFractionForm: (
        [
            (F(0), (PFTerm(1, 1, 1),)),
            (F(1), (), F(3)),
            (F(1), (), F(1)),
            (F(1), ()),
            (1, [PFTerm(1, 1, 1), PFTerm(2, 3, -1)], 2),
            (Dual(1, 1), (), Dual(2, 0)),
        ],
        [
            (),
            (1,),
            (1, (), 1, 1),
            (0.5, ()),
            (1, 5),
            (1, (5,)),
            (1, [PFTerm(1, 1, 1), "x"]),
            (1, (), 1.5),
            (False, ()),
        ],
    ),
    SpecOptions: (
        [(), (3, 5, "lattice"), (None, None, None), (0, None, "total")],
        [(1, 2, 3, 4), (1.5,), (True,), (None, -1), (None, "2"), (0, 0, "x"), (0, 0, 1)],
    ),
    IdentityResult: (
        [
            (IdentityId.A9, {"m": 2}, F(1), F(2)),
            (IdentityId.A5, {}, F(0), F(0)),
            (IdentityId.A9, {"m": 1}, 1, -2),
        ],
        [
            (),
            (IdentityId.A9, {}, 1),
            ("A9", {}, 1, 2),
            (GenFunId.a7, {}, 1, 2),
            (IdentityId.A9, 5, 1, 2),
            (IdentityId.A9, {}, 0.5, 1),
            (IdentityId.A9, {}, 1, True),
            (IdentityId.A9, {}, "1", 1),
        ],
    ),
    GenFunResult: (
        [(GenFunId.a7, {"k": 0}, 12, 2), (GenFunId.A18, {}, 12, 7), (GenFunId.a7, {}, 0, -1)],
        [
            (),
            (GenFunId.a7, {}, 12),
            (IdentityId.A9, {}, 12, 2),
            (GenFunId.a7, [], 12, 2),
            (GenFunId.a7, {}, -1, 2),
            (GenFunId.a7, {}, 12.0, 2),
            (GenFunId.a7, {}, 12, 2.5),
            (GenFunId.a7, {}, 12, False),
        ],
    ),
    CheckSummary: (
        [
            ("A9", 2, ()),
            ("A9", 1, (_IDENTITY,)),
            ("A9", 2, ()),
            (IdentityId.A9, 3, [_IDENTITY, GenFunResult(GenFunId.a7, {}, 12, 2)]),
        ],
        [(), ("A9", 2), (5, 2, ()), ("A9", 2.5, 5), ("A9", -1, ()), ("A9", 2, 5), ("A9", 2, (5,))],
    ),
}


@pytest.mark.parametrize("cls", _RECORDS, ids=[cls.__name__ for cls in _RECORDS])
def test_record_behaves_like_its_dataclass_twin(cls):
    twin_cls = getattr(_Twin, cls.__name__)
    made, refused = _RECORDS[cls]
    assert cls.__match_args__ == twin_cls.__match_args__
    assert not dataclasses.is_dataclass(cls)
    assert inspect.signature(cls).parameters == inspect.signature(twin_cls).parameters
    for args in refused:
        assert _result_or_error(lambda: cls(*args)) == _result_or_error(lambda: twin_cls(*args))
    kwargs = {"bogus": 1}
    assert _result_or_error(lambda: cls(**kwargs)) == _result_or_error(lambda: twin_cls(**kwargs))
    pairs = [(cls(*args), twin_cls(*args)) for args in made]
    for record, twin in pairs:
        _assert_record_behaves_like_its_twin(record, twin)
    for (x, tx), (y, ty) in itertools.product(pairs, repeat=2):
        assert (x == y, x != y) == (tx == ty, tx != ty)


# -- normalized derivatives of (alpha)_m ------------------------------------------


@pytest.mark.parametrize(
    "alpha,m,k,value",
    [
        (1, 2, 0, 2),
        (1, 2, 1, 3),
        (2, 2, 1, 5),
        (F(-5, 2), 3, 2, F(-9, 2)),
        (-1, 2, 1, -1),
        (-1, 3, 2, 0),
        (-1, 2, 2, 1),
        (1, 2, 5, 0),  # k > m vanishes identically
    ],
)
def test_poch_deriv_values(alpha, m, k, value):
    assert poch_deriv(alpha, m, k) == value


def test_poch_deriv_methods_agree():
    grid = [F(0), F(1), F(2), F(5), F(-1), F(-3), F(1, 2), F(-5, 2), F(7, 3)]
    for alpha in grid:
        for m in range(0, 7):
            for k in range(0, m + 1):
                reference = poch_deriv(alpha, m, k, method=PochMethod.RECURRENCE)
                for method in PochMethod:
                    assert poch_deriv(alpha, m, k, method=method) == reference, (
                        alpha,
                        m,
                        k,
                        method,
                    )


@pytest.mark.parametrize("m, k", [(200, 5), (300, 7), (50, 50), (2000, 3)])
def test_poch_deriv_stirling_routes_match_recurrence_at_large_m(m, k):
    alpha = F(2, 7)
    reference = poch_deriv(alpha, m, k, PochMethod.RECURRENCE)
    methods = [PochMethod.STIRLING_SUM, PochMethod.BERNOULLI, PochMethod.SERIES_ORACLE]
    methods += [PochMethod.COFFEY] if m <= 300 else []
    for method in methods:
        value = poch_deriv(alpha, m, k, method)
        assert type(value) is type(reference) is F and value == reference, method


def test_recip_series_oracle_matches_recurrence_at_large_m():
    beta, m, k = F(-23, 5), 800, 4
    reference = recip_poch_deriv(beta, m, k, RecipMethod.RECURRENCE)
    value = recip_poch_deriv(beta, m, k, RecipMethod.SERIES_ORACLE)
    assert type(value) is type(reference) is F and value == reference


_X = st.builds(F, st.integers(-60, 60), st.integers(1, 12))
_MK = st.integers(0, 40).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m)))


@settings(max_examples=150, deadline=None)
@given(x=_X, mk=_MK)
def test_norlund_route_is_the_generalized_bernoulli_value(x, mk):
    # P(m, k, 1 - x) = (-1)**(m-k) C(m, k) B_{m-k}^(m+1)(x): the Noerlund route
    # against Miller's cached core, which gen_bernoulli_poly still reads.
    m, k = mk
    expected = (-1) ** (m - k) * math.comb(m, k) * gen_bernoulli_poly(m - k, m + 1, x)
    value = poch_deriv(1 - x, m, k, PochMethod.BERNOULLI)
    assert type(value) is F and value == expected


@settings(max_examples=150, deadline=None)
@given(x=_X, d=_X, mk=_MK)
def test_bernoulli_and_series_oracles_match_recurrence(x, d, mk):
    # Rational and Dual arguments; a Dual goes through `_dual_rule`, which
    # evaluates the route at its value part for P(m, k) and P(m, k + 1).
    m, k = mk
    for arg in (x, Dual(x, d)):
        reference = repr(poch_deriv(arg, m, k, PochMethod.RECURRENCE))
        for method in (PochMethod.BERNOULLI, PochMethod.SERIES_ORACLE):
            assert repr(poch_deriv(arg, m, k, method)) == reference, (arg, method)
        assert _outcome(lambda: recip_poch_deriv(arg, m, k, RecipMethod.SERIES_ORACLE)) == (
            _outcome(lambda: recip_poch_deriv(arg, m, k, RecipMethod.RECURRENCE))
        ), arg


@settings(max_examples=60, deadline=None)
@given(x=_X, mk=_MK)
def test_norlund_route_makes_m_minus_k_steps_per_row(x, mk):
    # The start row and each of the k recurrence rows take m - k integer
    # multiply-adds, (m - k)(k + 1) in all, and no Bernoulli core is read.
    module = sys.modules["pochex.pochhammer"]  # the package's `pochhammer` is the function
    m, k = mk
    rows = []
    norlund_row = module._norlund_row

    def counted(row, p, q, d):
        rows.append((d, len(row) - 1))
        norlund_row(row, p, q, d)

    def refuse(*args):
        raise AssertionError("the bernoulli method read a Bernoulli core")

    with (
        mock.patch.object(module, "_norlund_row", counted),
        mock.patch.object(pochex.combinatorics, "_bernoulli_values", refuse),
    ):
        poch_deriv(x, m, k, PochMethod.BERNOULLI)
    assert rows == [(d, m - k) for d in range(k + 1)]
    assert sum(steps for _, steps in rows) == (m - k) * (k + 1)


def test_poch_deriv_rejects_bad_orders():
    with pytest.raises(DomainError):
        poch_deriv(1, -1, 0)
    with pytest.raises(DomainError):
        poch_deriv(1, 2, -1)


# -- normalized derivatives of 1/(beta)_m ------------------------------------------


@pytest.mark.parametrize(
    "beta,m,k,value",
    [
        (2, 1, 1, F(-1, 4)),
        (1, 2, 1, F(-3, 4)),
        (2, 2, 1, F(-5, 36)),
        (-3, 2, 1, F(5, 36)),
        (1, 0, 0, 1),
        (1, 0, 3, 0),  # no beta dependence at length zero
    ],
)
def test_recip_poch_deriv_values(beta, m, k, value):
    assert recip_poch_deriv(beta, m, k) == value


def test_recip_delta_form_power_sums_match_closed_sum():
    # delta_form goes through exp of power sums, a route apart from the others.
    for beta in (F(2), F(5, 4), F(7, 3), F(1, 2), F(-7, 2)):
        for m in (0, 1, 2, 9, 29):
            for k in range(7):
                assert recip_poch_deriv(beta, m, k, RecipMethod.DELTA_FORM) == recip_poch_deriv(
                    beta, m, k, RecipMethod.CLOSED_SUM
                ), (beta, m, k)


def test_recip_poch_deriv_methods_agree():
    grid = [F(1), F(2), F(1, 2), F(7, 3)]
    for beta in grid:
        for m in range(0, 7):
            for k in range(0, 5):
                reference = recip_poch_deriv(beta, m, k, method=RecipMethod.RECURRENCE)
                for method in RecipMethod:
                    assert recip_poch_deriv(beta, m, k, method=method) == reference, (
                        beta,
                        m,
                        k,
                        method,
                    )


# der 0, value 0, and negative integers, where 1/(beta)_m has poles.
_DUAL_ARGS = [
    Dual(F(1, 3), 1),
    Dual(0, 1),
    Dual(-2, 1),
    Dual(F(2, 5), 0),
    Dual(F(-7, 2), F(3, 4)),
    Dual(5, -2),
    Dual(-1, F(1, 2)),
]


def _outcome(call):
    try:
        value = call()
    except PoleError as exc:
        return PoleError, str(exc)
    return type(value), repr(value)


@pytest.mark.parametrize("x", _DUAL_ARGS, ids=repr)
def test_every_method_agrees_on_dual_arguments(x):
    # A Dual argument is applied before any method runs, so every method,
    # bernoulli included, gives the same value and type, or the same PoleError.
    for m in range(9):
        for k in range(m + 2):
            for family, methods, depends in (
                (poch_deriv, PochMethod, k < m),
                (recip_poch_deriv, RecipMethod, m > 0),
            ):
                outcomes = {_outcome(lambda: family(x, m, k, method)) for method in methods}
                assert len(outcomes) == 1, (family.__name__, x, m, k, outcomes)
                kind = outcomes.pop()[0]
                assert kind in ((Dual, PoleError) if depends else (F,)), (family.__name__, x, m, k)


_SMALL_RATIONALS = st.integers(-45, 5) | st.builds(F, st.integers(-45, 5), st.integers(1, 6))


@given(x=_SMALL_RATIONALS, n=st.integers(0, 40), d=_SMALL_RATIONALS)
def test_vanishing_shift_is_where_pochhammer_vanishes(x, n, d):
    j = _vanishing_shift(x, n)
    if j is None:
        assert pochhammer(x, n) != 0
    else:
        assert 0 <= j < n and x + j == 0
    assert _vanishing_shift(Dual(x, d), n) == j


def test_recip_poch_deriv_pole_reports_index():
    with pytest.raises(PoleError) as exc_info:
        recip_poch_deriv(-2, 4, 1)
    assert exc_info.value.index == 2  # beta + 2 == 0


def test_recip_series_inversion_consistency():
    # Taylor coefficients of 1/(beta+eps)_m equal the normalized derivatives.
    beta, m, order = F(7, 3), 5, 6
    inv = series_invert(poch_eps_series(LinearParam(beta, 1), m, order))
    for k in range(order + 1):
        assert inv.coefficient(k) == recip_poch_deriv(beta, m, k)


@pytest.mark.parametrize("x", [F(7, 3), F(-5, 2), Dual(F(1, 3), 2)], ids=["7/3", "-5/2", "dual"])
def test_series_oracles_do_not_use_the_integer_rows(monkeypatch, x):
    # The series oracles cross-check the integer rows of the other methods, so
    # they must still answer with every row step patched to raise.
    module = sys.modules["pochex.pochhammer"]  # the package's `pochhammer` is the function
    m, k = 6, 3
    expected = poch_deriv(x, m, k, "recurrence"), recip_poch_deriv(x, m, k, "recurrence")

    def refuse(*args):
        raise AssertionError("a series oracle used an integer row step")

    for name in ("_poch_step", "_recip_step", "_times", "_solve"):
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError):
        poch_deriv(x, m, k, "recurrence")
    got = poch_deriv(x, m, k, "series_oracle"), recip_poch_deriv(x, m, k, "series_oracle")
    assert repr(got) == repr(expected)


# -- Laurent window at a non-positive integer --------------------------------------


def test_recip_poch_laurent_n1_values():
    s = recip_poch_laurent(1, F(1), 3, 3)
    expected = {-1: F(-1), 0: F(0), 1: F(-1), 2: F(0), 3: F(-1)}
    for e, c in expected.items():
        assert s.coefficient(e) == c


def test_recip_poch_laurent_matches_direct_inversion():
    # Direct inversion of the series of (-1+eps)_3 is an independent oracle.
    oracle = series_invert(poch_eps_series(LinearParam(-1, 1), 3, 8))
    s = recip_poch_laurent(1, F(1), 3, 6)
    for e in range(-1, 7):
        assert s.coefficient(e) == oracle.coefficient(e)


def test_recip_poch_laurent_scales_with_slope():
    a = recip_poch_laurent(2, F(1, 3), 5, 4)
    oracle = series_invert(poch_eps_series(LinearParam(-2, F(1, 3)), 5, 10))
    for e in range(-1, 5):
        assert a.coefficient(e) == oracle.coefficient(e)


def test_recip_poch_laurent_guards():
    with pytest.raises(DomainError):
        recip_poch_laurent(-1, F(1), 3, 3)
    with pytest.raises(DomainError):
        recip_poch_laurent(1, F(0), 3, 3)
    with pytest.raises(DomainError, match="needs a nonzero slope b"):
        recip_poch_laurent(0, Dual(0, 1), 2, 1)  # a zero value part
    with pytest.raises(DomainError):
        recip_poch_laurent(3, F(1), 2, 3)  # needs m > n
    with pytest.raises(DomainError):
        recip_poch_laurent(1, F(1), 3, -2)  # order below the pole


# -- derivatives of Pochhammer quotients -------------------------------------------


@pytest.mark.parametrize(
    "num,m,den,n,k,value",
    [
        ((1, 1), 1, (2, 1), 1, 1, F(1, 4)),
        ((1, 1), 2, (2, 0), 1, 1, F(3, 2)),
        ((1, 1), 3, (2, 1), 1, 0, 3),
        ((1, 1), 0, (2, 1), 0, 0, 1),
    ],
)
def test_quotient_deriv_values(num, m, den, n, k, value):
    assert quotient_deriv(LinearParam(*num), m, LinearParam(*den), n, k) == value


def _quotient_series_oracle(num, m, den, n, k, at_eps):
    """k-th normalized derivative via recentered series division."""
    order = k + 1
    num_series = poch_eps_series(LinearParam(num.at(at_eps), num.slope), m, order)
    den_series = poch_eps_series(LinearParam(den.at(at_eps), den.slope), n, order)
    return (num_series * series_invert(den_series)).coefficient(k)


def test_quotient_deriv_against_series_oracle():
    cases = [
        (LinearParam(1, 1), 2, LinearParam(2, 1), 3),
        (LinearParam(1, 1), 3, LinearParam(2, 1), 1),  # excess numerator degree
        (LinearParam(F(1, 2), -1), 2, LinearParam(F(7, 3), 2), 2),
        (LinearParam(3, 2), 4, LinearParam(F(1, 2), 1), 4),
        (LinearParam(1, 0), 2, LinearParam(2, 1), 2),  # constant numerator
        (LinearParam(1, 1), 2, LinearParam(2, 0), 2),  # constant denominator
    ]
    for num, m, den, n in cases:
        for k in range(0, 4):
            for at_eps in (F(0), F(1, 2), F(-1, 3)):
                expected = _quotient_series_oracle(num, m, den, n, k, at_eps)
                got = quotient_deriv(num, m, den, n, k, at_eps=at_eps)
                assert got == expected, (num, m, den, n, k, at_eps)


def test_quotient_deriv_pole_detection():
    # denominator factor (2+eps) at eps=-2 vanishes
    with pytest.raises(PoleError) as exc_info:
        quotient_deriv(LinearParam(1, 1), 2, LinearParam(2, 1), 3, 1, at_eps=F(-2))
    assert exc_info.value.index == 0
    # shifted factor: (2+eps)+2 vanishes at eps=-4
    with pytest.raises(PoleError) as exc_info:
        quotient_deriv(LinearParam(1, 1), 2, LinearParam(2, 1), 3, 1, at_eps=F(-4))
    assert exc_info.value.index == 2


def test_quotient_deriv_constant_denominator_pole():
    with pytest.raises(PoleError):
        quotient_deriv(LinearParam(1, 1), 2, LinearParam(0, 0), 2, 1)


def test_quotient_deriv_rejects_bad_arguments():
    with pytest.raises(DomainError):
        quotient_deriv(LinearParam(1, 1), -1, LinearParam(2, 1), 1, 0)
    with pytest.raises(DomainError):
        quotient_deriv(LinearParam(1, 1), 1, LinearParam(2, 1), -1, 0)
    with pytest.raises(DomainError):
        quotient_deriv(LinearParam(1, 1), 1, LinearParam(2, 1), 1, -1)


def test_method_names_as_strings_equal_the_enum_members():
    # Each method may be named by its string value; an unknown name lists them all.
    for method in PochMethod:
        assert poch_deriv(F(7, 3), 5, 2, method.value) == poch_deriv(F(7, 3), 5, 2, method)
    for method in RecipMethod:
        assert recip_poch_deriv(F(7, 3), 5, 2, method.value) == recip_poch_deriv(
            F(7, 3), 5, 2, method
        )
    listed = {
        poch_deriv: "recurrence, stirling_sum, coffey, bernoulli, series_oracle",
        recip_poch_deriv: "recurrence, closed_sum, delta_form, series_oracle",
    }
    for fn, names in listed.items():
        message = f"unknown method 'pade'; expected one of: {names}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            fn(F(7, 3), 5, 2, "pade")


def _reference_int_factor(c, s):
    # The Fraction definition at rational c, s: g = lcm(c.den, 1) * lcm(s.den, 1)
    # and a, b the numerators of c*g and s*g.
    g = math.lcm(F(c).denominator, 1) * math.lcm(F(s).denominator, 1)
    return (F(c) * g).numerator, (F(s) * g).numerator, g, None


_rationals = st.one_of(st.integers(-50, 50), st.fractions(max_denominator=60))


@given(_rationals, _rationals)
def test_int_factor_is_the_fraction_definition(c, s):
    # repr: the entries must be ints, not merely equal to them.
    assert repr(_int_factor(c, s)) == repr(_reference_int_factor(c, s))
    assert repr(_int_factor(F(c), F(s))) == repr(_reference_int_factor(c, s))
