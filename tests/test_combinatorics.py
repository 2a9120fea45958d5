"""Integer/rational combinatorial helpers."""

import hashlib
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pochex.combinatorics
from pochex.combinatorics import (
    binomial,
    gen_bernoulli_poly,
    harmonic,
    mod_harmonic,
    nested_ones_S,
    nested_ones_Z,
    stirling_s1,
)
from pochex.duals import Dual
from pochex.errors import DomainError
from pochex.hyper_expand import expand_closed
from pochex.pochhammer import PochMethod, poch_deriv
from pochex.series import EpsSeries, series_invert


# -- signed Stirling numbers of the first kind ----------------------------------


@pytest.mark.parametrize(
    "m,k,value",
    [
        (0, 0, 1),
        (1, 1, 1),
        (3, 1, 2),
        (3, 2, -3),
        (4, 1, -6),
        (4, 2, 11),
        (4, 3, -6),
        (5, 2, -50),
        (3, 0, 0),
        (2, 3, 0),
    ],
)
def test_stirling_values(m, k, value):
    assert stirling_s1(m, k) == value


def test_stirling_row_sums_vanish():
    # sum_k s(m,k) x^k at x=1 equals (1-m+1)_m restricted: rows m>=2 sum to 0.
    for m in range(2, 9):
        assert sum(stirling_s1(m, k) for k in range(m + 1)) == 0


def test_stirling_generates_falling_factorial():
    # x(x-1)(x-2) = sum_k s(3,k) x^k
    x = F(7, 2)
    direct = x * (x - 1) * (x - 2)
    assert direct == sum(stirling_s1(3, k) * x**k for k in range(4))


def test_stirling_negative_arguments_rejected():
    with pytest.raises(DomainError):
        stirling_s1(-1, 0)
    with pytest.raises(DomainError):
        stirling_s1(2, -1)


# -- generalized Bernoulli polynomials ------------------------------------------


@pytest.mark.parametrize(
    "k,a,x,value",
    [
        (0, 3, F(1, 2), F(1)),
        (1, 1, 0, F(-1, 2)),
        (1, 1, 1, F(1, 2)),
        (1, 3, F(1, 2), F(-1)),
        (2, 1, 0, F(1, 6)),
    ],
)
def test_gen_bernoulli_values(k, a, x, value):
    assert gen_bernoulli_poly(k, a, x) == value


def test_gen_bernoulli_order_zero_is_classical():
    # order-a polynomial at a=1 reduces to the classical Bernoulli polynomial.
    # B_3(x) = x^3 - 3x^2/2 + x/2
    x = F(2, 3)
    assert gen_bernoulli_poly(3, 1, x) == x**3 - F(3, 2) * x**2 + F(1, 2) * x


def _power(series, a):
    # series**a for a >= 1 by binary powering: plain EpsSeries products only.
    result = None
    while a:
        if a & 1:
            result = series if result is None else result * series
        a >>= 1
        if a:
            series = series * series
    return result


def _series_bernoulli(n, a, x):
    # The definition by series arithmetic: B_j^(a)(x) for j = 0..n are the
    # coefficients of (z/(e^z - 1))**a * e^{xz}, scaled by j!.
    base = EpsSeries([F(1, math.factorial(j + 1)) for j in range(n + 1)])
    core = _power(series_invert(base), a)
    expx = EpsSeries([x**j / math.factorial(j) for j in range(n + 1)])
    prod = core * expx
    return [prod.coefficient(j) * math.factorial(j) for j in range(n + 1)]


def _assert_matches_series_route(n, a, x):
    expected = _series_bernoulli(n, a, x)
    got = [gen_bernoulli_poly(j, a, x) for j in range(n + 1)]
    assert got == expected, (n, a, x)
    assert all(type(v) is F for v in got), (n, a, x)


def test_gen_bernoulli_matches_series_route_on_seeded_draws():
    rng = random.Random(10)
    for _ in range(150):
        n, a = rng.randint(0, 40), rng.randint(1, 45)
        x = F(rng.randint(-30, 30), rng.randint(1, 9))
        _assert_matches_series_route(n, a, x)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 24),
    a=st.integers(1, 30),
    x=st.fractions(min_value=-8, max_value=8, max_denominator=12),
)
def test_gen_bernoulli_matches_series_route(n, a, x):
    _assert_matches_series_route(n, a, x)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(0, 40),
    a=st.integers(1, 30),
    x=st.integers(-30, 30) | st.fractions(min_value=-30, max_value=30, max_denominator=60),
)
def test_gen_bernoulli_sum_is_the_fraction_horner(n, a, x):
    # The integer sum equals Horner's rule in Fraction arithmetic over the same
    # core g_j = B_j^(a)(0)/j!: value = value*x + g_j n!/(n-j)!, one multiply-add a j.
    core = pochex.combinatorics._bernoulli_values(n, a)
    value, falling = F(0), 1
    for j in range(n + 1):
        value = value * x + core[j] * falling
        falling *= n - j
    got = gen_bernoulli_poly(n, a, x)
    assert type(got) is F and got == value


def test_bernoulli_core_one_pass_equals_two_passes():
    # The core is sum(z**j/(j+1)!)**(-a) in one Miller pass; the reference
    # takes the power -1 first and then the power a.
    miller = pochex.combinatorics._miller_power
    base = [F(1, math.factorial(j + 1)) for j in range(41)]
    h = miller(base, -1, 40)
    for a in range(1, 13):
        assert pochex.combinatorics._bernoulli_values(40, a) == miller(h, a, 40), a


def test_bernoulli_values_are_pinned():
    # The outputs of every reader of the Bernoulli core, and of the bernoulli
    # P-method, entry types included, pinned by one digest: gen_bernoulli_poly
    # over an (n, a, x) grid, the closed dF7 tables and P(m, k, alpha).
    lines = [
        f"B {n} {a} {x} {type(v).__name__} {v!r}"
        for a in (*range(1, 9), 13, 30)
        for x in (0, 1, -2, F(1, 2), F(-5, 3), F(7, 4))
        for n in range(31)
        for v in [gen_bernoulli_poly(n, a, x)]
    ]
    for K, D in ((0, 0), (4, 12), (2, 20)):
        table = expand_closed("dF7_ddelta", K, D)
        lines += [f"dF7 {key} {type(v).__name__} {v!r}" for key, v in sorted(table.entries.items())]
    lines += [
        f"P {alpha!r} {m} {k} {type(v).__name__} {v!r}"
        for alpha in (F(1, 3), F(-9, 4), F(7, 2), Dual(F(2, 5), 1))
        for m in range(10)
        for k in range(m + 1)
        for v in [poch_deriv(alpha, m, k, PochMethod.BERNOULLI)]
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (
        3229,
        "4daabe52e734f0f849c5d8652893ad298fc494ce76d2f39af931e9c3749cf1f9",
    )


def test_gen_bernoulli_additivity_in_order():
    # (t/(e^t-1))^(a+b) e^{(x+y)t} factors, giving a Vandermonde-style convolution.
    a, b, x, y = 2, 3, F(1, 2), F(1, 3)
    for k in range(6):
        direct = gen_bernoulli_poly(k, a + b, x + y)
        conv = sum(
            binomial(k, j) * gen_bernoulli_poly(j, a, x) * gen_bernoulli_poly(k - j, b, y)
            for j in range(k + 1)
        )
        assert direct == conv


# -- harmonic-style sums ---------------------------------------------------------


def test_harmonic_values():
    assert harmonic(0, 1) == 0
    assert harmonic(3, 1) == F(11, 6)
    assert harmonic(3, 2) == 1 + F(1, 4) + F(1, 9)


def test_mod_harmonic_values():
    assert mod_harmonic(0, 0) == 1
    assert mod_harmonic(0, 2) == 0
    assert mod_harmonic(2, 1) == F(3, 2)
    assert mod_harmonic(2, 2) == F(7, 4)


def test_nested_ones_values():
    assert nested_ones_Z(0, 0) == 1
    assert nested_ones_Z(2, 2) == F(1, 2)
    assert nested_ones_S(2, 2) == F(7, 4)


def test_nested_sums_against_brute_force():
    # Z(m,k) nests strictly decreasing indices, S(m,k) weakly decreasing.
    def brute_Z(m, k):
        if k == 0:
            return F(1)
        return sum((brute_Z(i - 1, k - 1) * F(1, i) for i in range(1, m + 1)), F(0))

    def brute_S(m, k):
        if k == 0:
            return F(1)
        return sum((brute_S(i, k - 1) * F(1, i) for i in range(1, m + 1)), F(0))

    for m in range(0, 7):
        for k in range(0, 4):
            assert nested_ones_Z(m, k) == brute_Z(m, k)
            assert nested_ones_S(m, k) == brute_S(m, k)


def _reference_Z(m, k):
    # The Fraction definition: Z(i, j) = Z(i-1, j) + Z(i-1, j-1)/i, one Fraction
    # operation at a time.
    if k == 0:
        return F(1)
    if k > m:
        return F(0)
    row = [F(1)] + [F(0)] * k
    for i in range(1, m + 1):
        for j in range(min(i, k), 0, -1):
            row[j] = row[j] + row[j - 1] / i
    return row[k]


def _reference_S(m, k):
    # The Fraction definition: S(i, depth) = S(i-1, depth) + S(i, depth-1)/i.
    if k == 0:
        return F(1)
    prev = [F(1)] * (m + 1)
    for _ in range(k):
        cur = [F(0)] * (m + 1)
        for i in range(1, m + 1):
            cur[i] = cur[i - 1] + prev[i] / i
        prev = cur
    return prev[m]


def test_nested_sums_are_the_fraction_definitions():
    # Every (m, k) with m <= 30, k <= 10, compared by repr (type and value).
    for m in range(31):
        for k in range(11):
            assert repr(nested_ones_Z(m, k)) == repr(_reference_Z(m, k)), (m, k)
            assert repr(nested_ones_S(m, k)) == repr(_reference_S(m, k)), (m, k)


# -- binomial and double factorial ----------------------------------------------


def test_binomial_integers_match_math_comb():
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert binomial(n, k) == math.comb(n, k)


def test_binomial_generalized():
    assert binomial(F(1, 2), 2) == F(-1, 8)
    assert binomial(F(-1, 2), 1) == F(-1, 2)
    assert binomial(F(-3), 2) == 6
    with pytest.raises(DomainError):
        binomial(5, -1)


@given(st.fractions(max_denominator=50), st.integers(0, 12))
def test_binomial_is_the_fraction_product(top, k):
    # The definition: prod(top - i, i < k) / k!, one Fraction operation at a time.
    product = F(1)
    for i in range(k):
        product *= top - i
    assert binomial(top, k) == product / math.factorial(k)
