"""Integer/rational combinatorial helpers."""

import math
from fractions import Fraction as F

import pytest

import pochex.combinatorics
from pochex.combinatorics import (
    binomial,
    double_factorial,
    gen_bernoulli_poly,
    harmonic,
    mod_harmonic,
    nested_ones_S,
    nested_ones_Z,
    stirling_s1,
)
from pochex.errors import DomainError


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


def test_gen_bernoulli_cache_evicts_oldest_past_its_cap(monkeypatch):
    # A small cap keeps the fill cheap, and a fresh dict keeps the module's
    # cache as it was.
    monkeypatch.setattr(pochex.combinatorics, "_BERNOULLI_CACHE_CAP", 16)
    monkeypatch.setattr(pochex.combinatorics, "_bernoulli_cache", {})

    def b3(x):
        return x**3 - F(3, 2) * x**2 + F(1, 2) * x

    xs = [F(i, 7) for i in range(20)]
    for x in xs:
        assert gen_bernoulli_poly(3, 1, x) == b3(x)
    cache = pochex.combinatorics._bernoulli_cache
    assert list(cache) == [(1, x) for x in xs[4:]]
    assert all(values[3] == b3(x) for (_, x), values in cache.items())
    # An evicted key is recomputed, and evicts the oldest key in turn.
    assert gen_bernoulli_poly(3, 1, xs[0]) == b3(xs[0])
    assert len(cache) == 16 and (1, xs[4]) not in cache and (1, xs[0]) in cache


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


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(5) == 15
    assert double_factorial(6) == 48
    with pytest.raises(DomainError):
        double_factorial(-3)
