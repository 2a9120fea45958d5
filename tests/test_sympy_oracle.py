"""An independent oracle: sympy's rising factorial, differentiated symbolically.

Several pochex routes share code: the recurrence methods and the engine take
the same linear-factor steps.  Their agreement with one another cannot catch
a slip they share; sympy's `rf` can.
"""

import random
from fractions import Fraction as F

import pytest

sympy = pytest.importorskip("sympy")

from pochex.combinatorics import gen_bernoulli_poly, stirling_s1  # noqa: E402
from pochex.duals import Dual  # noqa: E402
from pochex.partial_fractions import quotient_deriv  # noqa: E402
from pochex.pochhammer import (  # noqa: E402
    LinearParam,
    PochMethod,
    RecipMethod,
    poch_deriv,
    recip_poch_deriv,
)

_X = sympy.Symbol("x")


def _rational(x: F):
    return sympy.Rational(x.numerator, x.denominator)


def _taylor(expr, kmax: int) -> list:
    """(1/k!) d^k/dx^k expr for k = 0..kmax, each as a function of a Fraction x."""
    derivative = expr
    out = []
    for k in range(kmax + 1):
        scaled = derivative / sympy.factorial(k)
        out.append(lambda at, f=scaled: _fraction(f.xreplace({_X: _rational(at)})))
        derivative = sympy.diff(derivative, _X)
    return out


def _fraction(value) -> F:
    return F(int(value.p), int(value.q))


def _non_integer(rng) -> F:
    while True:
        x = F(rng.randint(-20, 20), rng.randint(2, 7))
        if x.denominator != 1:
            return x


# Each rising factorial is expanded before it is differentiated: sympy turns
# the derivative of an unexpanded product of m factors into m**k terms.


def test_poch_deriv_methods_match_sympy():
    rng = random.Random(11)
    points = [F(rng.randint(-12, 12), rng.randint(1, 7)) for _ in range(2)] + [F(-3)]
    for m in range(9):
        for k, expected in enumerate(_taylor(sympy.expand(sympy.rf(_X, m)), 4)):
            for alpha in points:
                for method in PochMethod:
                    assert poch_deriv(alpha, m, k, method) == expected(alpha), (alpha, m, k, method)


def test_recip_poch_deriv_methods_match_sympy():
    rng = random.Random(12)
    points = [_non_integer(rng) for _ in range(3)]
    for m in range(7):
        for k, expected in enumerate(_taylor(1 / sympy.expand(sympy.rf(_X, m)), 4)):
            for beta in points:
                for method in RecipMethod:
                    value = recip_poch_deriv(beta, m, k, method)
                    assert value == expected(beta), (beta, m, k, method)


def test_dual_argument_derivative_parts_match_sympy():
    # The delta-part of P(m, k, v + d*delta) is d times the alpha-derivative of
    # P(m, k, alpha) at v, and the same for Q: the Taylor coefficients of the
    # first derivative, (1/k!) d^(k+1)/dx^(k+1), as sympy differentiates them.
    rng = random.Random(15)
    points = [_non_integer(rng) for _ in range(2)] + [F(-3), F(0)]
    for m in range(1, 8):
        rising = sympy.expand(sympy.rf(_X, m))
        poch = _taylor(sympy.diff(rising, _X), m - 1)
        recip = _taylor(sympy.diff(1 / rising, _X), 4)
        for v in points:
            x = Dual(v, F(-2, 3))
            for k in range(m):
                for method in PochMethod:
                    value = poch_deriv(x, m, k, method)
                    assert value.der == x.der * poch[k](v), (v, m, k, method)
            if v.denominator == 1 and -m < v <= 0:
                continue
            for k in range(5):
                for method in RecipMethod:
                    value = recip_poch_deriv(x, m, k, method)
                    assert value.der == x.der * recip[k](v), (v, m, k, method)


def test_quotient_deriv_matches_sympy():
    # (num)_m / (den)_n in eps, at m <= n (proper partial fractions) and at
    # m > n (a polynomial part peeled off first).
    rng = random.Random(13)
    for m, n in [(0, 3), (2, 2), (3, 4), (4, 1), (5, 3), (3, 0)]:
        num = LinearParam(
            F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(-3, 3), rng.randint(1, 3))
        )
        den = LinearParam(_non_integer(rng), F(rng.choice([-2, -1, 1, 2, 3]), rng.randint(1, 3)))
        at = F(0) if rng.random() < 0.5 else F(rng.randint(-4, 4), 3)
        if (den.constant + den.slope * at).denominator == 1:
            at = F(0)
        numer = sympy.expand(sympy.rf(_rational(num.constant) + _rational(num.slope) * _X, m))
        denom = sympy.expand(sympy.rf(_rational(den.constant) + _rational(den.slope) * _X, n))
        for k, expected in enumerate(_taylor(numer / denom, 4)):
            assert quotient_deriv(num, m, den, n, k, at) == expected(at), (m, n, k)


def test_gen_bernoulli_order_one_matches_sympy():
    # At order 1 the generalized Bernoulli polynomial is the classical one.
    rng = random.Random(14)
    points = [F(0), F(1)] + [F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(4)]
    for x in points:
        for n in range(31):
            expected = _fraction(sympy.bernoulli(n, _rational(x)))
            assert gen_bernoulli_poly(n, 1, x) == expected, (n, x)


def test_stirling_s1_matches_sympy():
    stirling = sympy.functions.combinatorial.numbers.stirling
    for n in range(61):
        for k in range(n + 1):
            value = stirling_s1(n, k)
            assert type(value) is F and value == stirling(n, k, kind=1, signed=True), (n, k)
