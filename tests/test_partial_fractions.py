"""Partial-fraction splitting of rising-factorial quotients."""

import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from pochex.duals import Dual
from pochex.errors import DegreeError, DomainError, PoleError, RepeatedRoot
from pochex.partial_fractions import (
    PartialFractionForm,
    PFTerm,
    PochProductQuotient,
    decompose_multi,
    pf_derivative,
    quotient_deriv,
)
from pochex.pochhammer import LinearParam, poch_eps_series
from pochex.series import EpsSeries, series_invert


def _series_deriv(num, m, den, n, k, at_eps):
    """(1/k!) d^k/deps^k of (num)_m/(den)_n at at_eps, by truncated series division."""
    num_series = poch_eps_series(LinearParam(num.at(at_eps), num.slope), m, k + 1)
    den_series = poch_eps_series(LinearParam(den.at(at_eps), den.slope), n, k + 1)
    return (num_series * series_invert(den_series)).coefficient(k)


# -- single-factor decomposition ---------------------------------------------------


def decompose_single(num, m, den, n):
    """(num)_m / (den)_n decomposed: a quotient of one factor over one factor."""
    return decompose_multi(PochProductQuotient([(num, m)], [(den, n)]))


def test_single_reciprocal_rising_factorial():
    form = decompose_single(LinearParam(1, -1), 1, LinearParam(1, 1), 2)
    assert form.constant == 0
    assert str(form) == "2/(1+eps) - 3/(2+eps)"


def test_single_equal_degrees_has_constant():
    form = decompose_single(LinearParam(1, 2), 1, LinearParam(1, 1), 1)
    assert form.constant == 2
    assert form.terms == (PFTerm(F(-1), F(1), F(1)),)
    assert str(form) == "2 - 1/(1+eps)"


def test_single_matches_direct_evaluation():
    num, m, den, n = LinearParam(F(1, 2), 3), 2, LinearParam(F(7, 3), -1), 4
    form = decompose_single(num, m, den, n)
    for at_eps in (F(0), F(1), F(-1, 2), F(5, 7)):
        direct = _series_deriv(num, m, den, n, 0, at_eps)
        assert pf_derivative(form, 0, at_eps) == direct


def test_single_zero_slope_numerator_becomes_scalar():
    # (3)_2 = 12 carries no eps-dependence, so it is the form's scalar prefactor
    form = decompose_single(LinearParam(3, 0), 2, LinearParam(1, 1), 2)
    assert form.scalar == 12
    assert str(form) == "12*(1/(1+eps) - 1/(2+eps))"


def test_single_rejects_excess_degree():
    with pytest.raises(DegreeError):
        decompose_single(LinearParam(1, 1), 3, LinearParam(2, 1), 2)


def test_pf_term_pole_location():
    assert PFTerm(F(1), F(3), F(-2)).pole_location == F(3, 2)
    # A term without slope has no pole: a DomainError names it.
    message = "term 1/2/(3+0*eps) has pole slope 0, so it has no pole"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        PFTerm(F(1, 2), F(3), F(0)).pole_location


# -- derivative of a decomposed form ------------------------------------------------


def test_pf_derivative_matches_quotient_deriv():
    num, m, den, n = LinearParam(1, 1), 2, LinearParam(F(1, 2), 1), 3
    form = decompose_single(num, m, den, n)
    for k in range(0, 5):
        for at_eps in (F(0), F(1, 3), F(-1, 5)):
            assert pf_derivative(form, k, at_eps) == _series_deriv(num, m, den, n, k, at_eps)


def test_pf_derivative_at_pole_raises():
    # A Dual point is a pole when its value part is one.
    form = decompose_single(LinearParam(1, 1), 1, LinearParam(1, 1), 2)
    for at_eps in (F(-2), Dual(-2, 1)):
        with pytest.raises(PoleError, match="has its pole at eps = "):
            pf_derivative(form, 1, at_eps=at_eps)


@pytest.mark.parametrize(
    "term, at_eps, printed",
    [
        (PFTerm(F(3, 4), F(1, 2), F(-1)), F(1, 2), "3/4/(1/2-eps)"),
        (PFTerm(F(-5, 2), F(3, 2), F(-1)), F(3, 2), "-5/2/(3/2-eps)"),
        (PFTerm(F(2), F(1), F(1)), F(-1), "2/(1+eps)"),
        (PFTerm(F(1), F(1), F(-3, 2)), F(2, 3), "1/(1-3/2*eps)"),
    ],
)
def test_pf_derivative_pole_names_the_term_as_str_prints_it(term, at_eps, printed):
    # The message prints the term as str(term) and str(form) do, sign included.
    form = PartialFractionForm(F(0), (term,))
    assert str(term) == str(form) == printed
    message = f"term {printed} has its pole at eps = {at_eps}"
    with pytest.raises(PoleError, match=f"^{re.escape(message)}$"):
        pf_derivative(form, 0, at_eps)


def test_pf_derivative_rejects_negative_order():
    form = decompose_single(LinearParam(1, 1), 1, LinearParam(1, 1), 2)
    with pytest.raises(DomainError):
        pf_derivative(form, -1)


# -- multi-factor quotients ----------------------------------------------------------


def test_quotient_folds_slope_free_factors():
    q = PochProductQuotient(
        numer=[(LinearParam(3, 0), 2), (LinearParam(1, 1), 1)],
        denom=[(LinearParam(2, 0), 1), (LinearParam(1, 1), 2)],
    )
    assert q.scalar == F(12, 2)  # (3)_2 / (2)_1
    assert q.numer == ((LinearParam(1, 1), 1),)
    assert q.denom == ((LinearParam(1, 1), 2),)


def test_quotient_repr_shows_the_kept_factors_and_scalar():
    q = PochProductQuotient(
        numer=[(LinearParam(3, 0), 2), (LinearParam(1, 1), 1)],
        denom=[(LinearParam(2, 0), 1), (LinearParam(1, 1), 2)],
    )
    assert repr(q) == (
        "PochProductQuotient("
        "numer=[(LinearParam(constant=Fraction(1, 1), slope=Fraction(1, 1)), 1)], "
        "denom=[(LinearParam(constant=Fraction(1, 1), slope=Fraction(1, 1)), 2)], scalar=6)"
    )


def test_quotient_vanishing_constant_denominator_is_a_pole():
    with pytest.raises(PoleError) as exc_info:
        PochProductQuotient(denom=[(LinearParam(-1, 0), 3)])
    assert exc_info.value.index == 1
    assert exc_info.value.factor == 0


def test_quotient_rejects_excess_degree():
    with pytest.raises(DegreeError):
        PochProductQuotient(
            numer=[(LinearParam(1, 1), 3)], denom=[(LinearParam(2, 1), 2)]
        )


def test_decompose_multi_two_factors():
    q = PochProductQuotient(
        denom=[(LinearParam(1, 1), 1), (LinearParam(2, 1), 1)]
    )
    form = decompose_multi(q)
    assert form.constant == 0
    assert form.terms == (PFTerm(F(1), F(1), F(1)), PFTerm(F(-1), F(2), F(1)))
    assert pf_derivative(form, 1) == F(-3, 4)  # -1/1 + 1/4 at eps = 0


def test_decompose_multi_repeated_root():
    q = PochProductQuotient(
        denom=[(LinearParam(1, 1), 2), (LinearParam(2, 1), 1)]
    )
    with pytest.raises(RepeatedRoot) as exc_info:
        decompose_multi(q)
    assert len(exc_info.value.collisions) == 1
    (first, second, location) = exc_info.value.collisions[0]
    assert location == F(-2)
    assert {first, second} == {(0, 1), (1, 0)}


def test_decompose_multi_equal_degree_constant():
    q = PochProductQuotient(
        numer=[(LinearParam(1, 2), 1)],
        denom=[(LinearParam(1, 1), 1)],
    )
    form = decompose_multi(q)
    assert form.constant == 2


def _random_series(form: PartialFractionForm, order: int) -> EpsSeries:
    """Recombine a decomposed form into a truncated series around eps = 0."""
    total = EpsSeries([form.constant] + [F(0)] * order, 0)
    for t in form.terms:
        inv = EpsSeries([t.coefficient] + [F(0)] * order, 0) * series_invert(
            EpsSeries([t.pole_constant, t.pole_slope] + [F(0)] * (order - 1), 0)
        )
        total = total + inv
    return total.scaled(form.scalar)


def _assert_recombines(q: PochProductQuotient, form: PartialFractionForm):
    # work two orders above the comparison point: a numerator zero cancelling
    # a denominator pole at eps = 0 costs the inversion route truncation order
    order, compare_to = 12, 10
    # direct truncated division of the raw products
    num_series = EpsSeries([q.scalar] + [F(0)] * order, 0)
    for param, m in q.numer:
        num_series = num_series * poch_eps_series(param, m, order)
    den_series = EpsSeries([F(1)] + [F(0)] * order, 0)
    for param, n in q.denom:
        den_series = den_series * poch_eps_series(param, n, order)
    direct = num_series.truncated(order) * series_invert(den_series.truncated(order))
    recombined = _random_series(form, order)
    assert recombined.truncated(compare_to) == direct.truncated(compare_to)


def test_decompose_multi_recombines_seeded_random_quotients():
    rng = random.Random(20260816)
    built = 0
    while built < 20:
        nonzero = lambda: F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        denom = [
            (LinearParam(F(rng.randint(-4, 6), rng.randint(1, 3)), nonzero()), rng.randint(1, 3))
            for _ in range(rng.randint(1, 3))
        ]
        den_degree = sum(n for _, n in denom)
        numer = []
        budget = den_degree
        for _ in range(rng.randint(0, 2)):
            m = rng.randint(0, budget)
            budget -= m
            numer.append((LinearParam(F(rng.randint(-4, 6), rng.randint(1, 3)), nonzero()), m))
        try:
            q = PochProductQuotient(numer=numer, denom=denom)
            form = decompose_multi(q)
        except (RepeatedRoot, PoleError):
            continue  # reroll degenerate draws
        _assert_recombines(q, form)
        built += 1
    assert built == 20


# The draws of the seeded test above: constants p/q with -4 <= p <= 6 and
# q <= 3, nonzero slopes, 1..3 denominator factors of length 1..3, and 0..2
# numerator factors whose lengths stay within the denominator's degree.
_PF_FACTOR = st.builds(
    LinearParam,
    st.builds(F, st.integers(-4, 6), st.integers(1, 3)),
    st.builds(F, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 3)),
)


@st.composite
def _quotients(draw):
    denom = draw(st.lists(st.tuples(_PF_FACTOR, st.integers(1, 3)), min_size=1, max_size=3))
    budget = sum(n for _, n in denom)
    numer = []
    for _ in range(draw(st.integers(0, 2))):
        m = draw(st.integers(0, budget))
        budget -= m
        numer.append((draw(_PF_FACTOR), m))
    return numer, denom


@settings(max_examples=60, deadline=None)
@given(_quotients())
def test_decompose_multi_recombines_random_quotients(quotient):
    numer, denom = quotient
    try:
        q = PochProductQuotient(numer=numer, denom=denom)
        form = decompose_multi(q)
    except (RepeatedRoot, PoleError):
        reject()  # a degenerate draw
    _assert_recombines(q, form)


# -- excess-degree preprocessing -------------------------------------------------------


def test_excess_quotient_splits_into_prefix_and_core():
    num, m, den, n = LinearParam(1, 1), 3, LinearParam(2, 1), 1
    # (1+eps)_3/(2+eps)_1 = (1+eps)_2 * (3+eps)/(2+eps)
    form = decompose_multi(PochProductQuotient([(num.shifted(2), 1)], [(den, 1)]))
    for at_eps in (F(0), F(1, 2)):
        left = quotient_deriv(num, m, den, n, 0, at_eps=at_eps)
        prefix_val = quotient_deriv(num, 2, LinearParam(1, 0), 0, 0, at_eps=at_eps)
        assert left == prefix_val * pf_derivative(form, 0, at_eps)


def test_quotient_without_excess_is_the_plain_decomposition():
    num, den = LinearParam(1, 1), LinearParam(2, 1)
    form = decompose_single(num, 2, den, 2)
    for k in range(4):
        for at_eps in (F(0), F(1, 2)):
            assert quotient_deriv(num, 2, den, 2, k, at_eps) == pf_derivative(form, k, at_eps)


# -- rendering --------------------------------------------------------------------------


def test_render_scalar_prefactor_and_negative_slopes():
    form = PartialFractionForm(
        F(0),
        (PFTerm(F(1, 2), F(3), F(-1)), PFTerm(F(-2), F(1), F(-2))),
        scalar=F(5),
    )
    assert str(form) == "5*(1/2/(3-eps) - 2/(1-2*eps))"


def test_render_positive_slopes_other_than_one():
    # A positive slope other than 1, whole or fractional, is printed as +s*eps.
    form = PartialFractionForm(F(0), (PFTerm(F(1), F(2), F(3)), PFTerm(F(-1, 2), F(1), F(1, 2))))
    assert str(form) == "1/(2+3*eps) - 1/2/(1+1/2*eps)"
    form = decompose_multi(PochProductQuotient([], [(LinearParam(1, 3), 1)]))
    assert str(form) == "1/(1+3*eps)"


def test_render_zero_coefficient_is_added():
    # A zero coefficient has no sign: it is printed after " + ".
    form = PartialFractionForm(F(0), (PFTerm(F(1), F(2), F(1)), PFTerm(F(0), F(3), F(1))))
    assert str(form) == "1/(2+eps) + 0/(3+eps)"
    assert str(PartialFractionForm(F(1), (PFTerm(F(0), F(1), F(-1)),))) == "1 + 0/(1-eps)"


def test_render_constant_only():
    assert str(PartialFractionForm(F(7), ())) == "7"
    assert str(PartialFractionForm(F(0), ())) == "0"


# -- Dual parameters -----------------------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda den: decompose_multi(PochProductQuotient([], [(den, 1)])),
        lambda den: quotient_deriv(LinearParam(1, 1), 1, den, 1, 1),
    ],
    ids=["decompose_multi", "quotient_deriv"],
)
@pytest.mark.parametrize("den", [LinearParam(2, Dual(1, 1)), LinearParam(Dual(2, 1), 1)])
def test_dual_in_a_sloped_denominator_is_a_domain_error(call, den):
    # Pole locations are rational; the message names the factor.
    with pytest.raises(DomainError, match=r"denominator factor 0, .* has a Dual part"):
        call(den)


def test_dual_numerator_and_slope_free_dual_denominator_still_work():
    num = LinearParam(Dual(1, 1), 1)
    assert quotient_deriv(num, 1, LinearParam(2, 1), 1, 1) == Dual(F(1, 4), F(-1, 4))
    q = PochProductQuotient([], [(LinearParam(2, 1), 1), (LinearParam(Dual(3, 1), 0), 2)])
    assert q.scalar == Dual(F(1, 12), F(-7, 144))


def test_render_prints_a_dual_coefficient_whole():
    form = decompose_single(LinearParam(Dual(1, 1), 1), 1, LinearParam(2, 1), 1)
    assert str(form) == "1 + Dual(-1, 1)/(2+eps)"
    form = decompose_multi(
        PochProductQuotient([(LinearParam(Dual(1, 1), 1), 1)], [(LinearParam(2, 1), 1), (LinearParam(3, 1), 1)])
    )
    assert str(form) == "Dual(-1, 1)/(2+eps) + Dual(2, -1)/(3+eps)"


def test_render_prints_a_dual_slope_whole():
    # A Dual slope has no sign either: it is printed whole, after "+".
    form = PartialFractionForm(F(0), (PFTerm(F(1), F(1), Dual(1, 1)),))
    assert str(form) == "1/(1+Dual(1, 1)*eps)"
    form = PartialFractionForm(F(2), (PFTerm(F(-3), F(1, 2), Dual(-1, 2)),))
    assert str(form) == "2 - 3/(1/2+Dual(-1, 2)*eps)"
