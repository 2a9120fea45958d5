"""First-order dual numbers used for exact parameter derivatives."""

import operator
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pochex.duals import Dual
from pochex.errors import DomainError
from pochex.series import EpsSeries, series_invert


def test_construction_coerces_to_fractions():
    d = Dual(1, 2)
    assert d.val == F(1) and isinstance(d.val, F)
    assert d.der == F(2) and isinstance(d.der, F)
    assert Dual(F(1, 2)).der == 0


class _Ratio(F):
    """A Fraction subclass, which a Dual part does not keep."""


def test_construction_keeps_fractions_and_converts_the_rest():
    # A part that is exactly a Fraction is the same object; an int or a
    # Fraction subclass becomes a plain Fraction of the same value.
    f, g = F(2, 3), F(-5, 7)
    d = Dual(f, g)
    assert d.val is f and d.der is g
    d = Dual(4, _Ratio(1, 2))
    assert (type(d.val), d.val) == (F, F(4)) and (type(d.der), d.der) == (F, F(1, 2))
    d = Dual(_Ratio(3, 4))
    assert (type(d.val), d.val) == (F, F(3, 4)) and (type(d.der), d.der) == (F, F(0))


@pytest.mark.parametrize(
    "args, message",
    [
        ((True, 1), "True is not a rational; pass an int or a Fraction"),
        ((1, False), "False is not a rational; pass an int or a Fraction"),
        ((1.5, 1), "inexact float 1.5; pass an int or a Fraction"),
        ((F(1, 2), 0.25), "inexact float 0.25; pass an int or a Fraction"),
    ],
)
def test_construction_refuses_bools_and_floats(args, message):
    with pytest.raises(DomainError) as exc:
        Dual(*args)
    assert str(exc.value) == message


def test_equality_lifts_plain_scalars():
    assert Dual(3) == 3
    assert Dual(3, 1) != 3
    assert Dual(F(1, 2)) == F(1, 2)


def test_arithmetic_follows_product_and_chain_rules():
    x = Dual(F(2), F(1))  # the variable itself
    assert x + 1 == Dual(3, 1)
    assert 1 - x == Dual(-1, -1)
    assert x * x == Dual(4, 4)
    assert 3 * x == Dual(6, 3)
    assert -x == Dual(-2, -1)


def test_division():
    x = Dual(F(2), F(1))
    assert 1 / x == Dual(F(1, 2), F(-1, 4))
    assert x / x == Dual(1, 0)
    with pytest.raises(DomainError, match="zero value part"):
        1 / Dual(0, 1)


def test_series_led_by_a_dual_without_value_part_is_a_domain_error():
    with pytest.raises(DomainError, match="zero value part"):
        series_invert(EpsSeries([Dual(0, 1), Dual(1)]))


def test_power_matches_derivative_formula():
    x = Dual(F(3), F(1))
    for n in range(5):
        assert x**n == Dual(F(3) ** n, n * F(3) ** (n - 1) if n else 0)
    assert x**-2 == Dual(F(1, 9), F(-2, 27))


def test_power_of_a_zero_value_part():
    with pytest.raises(DomainError, match=r"^Dual\(0, 1\) has a zero value part and no inverse$"):
        Dual(0, 1) ** -1
    assert Dual(0, 0) ** 0 == Dual(1, 0)
    assert Dual(0, 3) ** 1 == Dual(0, 3)
    assert Dual(0, 3) ** 2 == Dual(0, 0)


_RATIONALS = st.builds(F, st.integers(-12, 12), st.integers(1, 12))


@settings(max_examples=200, deadline=None)
@given(val=_RATIONALS, der=_RATIONALS, n=st.integers(-6, 6))
def test_power_rule_matches_repeated_multiplication(val, der, n):
    x = Dual(val, der)
    if n < 0 and val == 0:
        with pytest.raises(DomainError, match="zero value part"):
            x**n
        return
    product = Dual(1)
    for _ in range(abs(n)):
        product = product * x
    expected = product if n >= 0 else 1 / product
    result = x**n
    assert (result.val, result.der) == (expected.val, expected.der)
    assert type(result.val) is type(result.der) is F


def test_polynomial_derivative_via_duals():
    # p(t) = t^3 - 2t + 5, p'(t) = 3t^2 - 2, evaluated at t = 7/5
    t = Dual(F(7, 5), 1)
    p = t**3 - 2 * t + 5
    assert p.val == F(7, 5) ** 3 - 2 * F(7, 5) + 5
    assert p.der == 3 * F(7, 5) ** 2 - 2


def test_truthiness():
    assert not Dual(0, 0)
    assert Dual(0, 1)
    assert Dual(1, 0)


@pytest.mark.parametrize("other", ["x", None, 1.5], ids=["str", "None", "float"])
@pytest.mark.parametrize(
    "op", [operator.add, operator.sub, operator.mul, operator.truediv, operator.pow]
)
def test_operators_refuse_other_types(op, other):
    # Each operator returns NotImplemented for an operand that is not an int, a
    # Fraction or a Dual, on either side, so Python raises TypeError.
    with pytest.raises(TypeError):
        op(Dual(1, 2), other)
    with pytest.raises(TypeError):
        op(other, Dual(1, 2))


def test_comparison_with_other_types_is_unequal():
    assert (Dual(1, 2) == "x") is False
    assert (Dual(1, 2) != 1.5) is True
