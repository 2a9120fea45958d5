"""Registry of cross-checkable relations among the library's quantities.

Every checkable relation is either an `IdentityId` (an exact scalar equation
evaluated with both sides computed by maximally independent code paths) or a
`GenFunId` (a power-series equation compared coefficientwise to order
`_GENFUN_ORDER`).  The enum tokens are opaque stable labels; each evaluator's
docstring states the mathematical content.

`_IDENTITIES` and `_GENFUNS` give each relation, keyed by its token, its
evaluator, its parameters and its default parameter grid, built by `_grid`.
They are the only list of the tokens: `IdentityId` and `GenFunId` are read from
them, each member named as its token, and `_RELATIONS` joins the two.  There
are three entry points: `run_relation` checks one relation over a grid, its
default grid or one the caller gives (a single point is a grid of one);
`verify_ids` and `verify_all` check each relation they are given over its
default grid.

Each relation declares its parameters once, in the order they are read and
passed: `"m>=0 k>=0 alpha:Q"` is two integers of at least 0 and a rational.
`_read` checks a point against it, and the evaluator takes the plain values
after the dict of shared calls and, for a generating relation, the series
order; a default grid's points get their keys in declared order.  A
missing or bad parameter is found first, in declared order, then a key not
declared, then the point's range: an evaluator raises `_OutOfRange` with the
message's tail (`needs k <= m`), and `run_relation` heads every fault with the
call, the relation and the point.

Cost model: a side that is a sum adds its terms as one integer sum.
`_sum_of_products` makes each term, a product of ints and Fractions, one
(numerator, denominator) pair, and `series._int_sum` adds the pairs over one
lcm and reduces by one gcd, in place of a Fraction multiply-add per term.  A
side that needs a Stirling row or column at one point takes it from one
`_stirling_walk`.  Only how a side adds up its terms is shared: the two sides
of every relation still run on their separate routes.

Every evaluator takes its calls of seven pure building blocks (`poch_deriv`,
`recip_poch_deriv`, `pochhammer`, `stirling_s1`, `mod_harmonic`, `binomial`
and `_stirling_walk`) from one dict keyed by function and arguments
(`series._shared`).  One `verify_ids` or `verify_all` call resolves each token
once and runs every relation against one such dict, so each distinct call runs
once per run, not once per relation or per point; a lone `run_relation` makes
its own dict for its own grid.  The dict is made by the call and dropped when it
returns, so nothing is kept between calls.  A repeated call returns what the
same code would compute again, so no check is weakened: the two sides of every
relation still run on their own routes.  Each relation compares its two
sides directly and builds an `IdentityResult` or `GenFunResult` only for a
point that fails.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from enum import Enum
from fractions import Fraction

from .combinatorics import (
    _bernoulli_sum,
    _bernoulli_values,
    _stirling_walk,
    binomial,
    gen_bernoulli_poly,
    mod_harmonic,
    nested_ones_S,
    nested_ones_Z,
    stirling_s1,
)
from .errors import DomainError
from .pochhammer import (
    LinearParam,
    PochMethod,
    RecipMethod,
    _vanishing_shift,
    poch_deriv,
    poch_eps_series,
    pochhammer,
    recip_poch_deriv,
)
from .series import (
    EpsSeries,
    _coerce,
    _convolve,
    _count,
    _entries,
    _int_row,
    _int_sum,
    _iterable,
    _Record,
    _shared,
    _signed,
    _typed,
    polynomial_series,
    series_invert,
)

_F = Fraction


class IdentityResult(_Record):
    """A point where an identity's two sides differ; each side is an exact scalar."""

    def __init__(self, identity: IdentityId, params: Mapping, lhs: Fraction, rhs: Fraction):
        _typed("IdentityResult", IdentityId, identity=identity)
        _typed("IdentityResult", Mapping, params=params)
        self._store(identity, params, _coerce(lhs), _coerce(rhs))


class GenFunResult(_Record):
    """A point where a generating relation's two series differ below `order`."""

    def __init__(self, identity: GenFunId, params: Mapping, order: int, first_discrepancy: int):
        _typed("GenFunResult", GenFunId, identity=identity)
        _typed("GenFunResult", Mapping, params=params)
        _count("GenFunResult", order=order)
        _signed("GenFunResult", first_discrepancy=first_discrepancy)
        self._store(identity, params, order, first_discrepancy)


def _sign(exponent: int) -> int:
    # (-1)**exponent for any integer, without the float that Python's **
    # produces on negative exponents.
    return 1 if exponent % 2 == 0 else -1


class _OutOfRange(DomainError):
    """A point outside its relation's range; the message is its tail (`needs k <= m`)."""


def _read(where, params, relation, declared):
    """The values in `params` of the (name, minimum) pairs `declared` for `relation`,
    in order, or a DomainError headed by `where`.  A minimum of None marks a
    rational, and an integral Fraction counts as its integer.  An int in range, or
    a Fraction for a rational, passes on one type test."""
    values = {}
    for name, low in declared:
        if name not in params:
            raise DomainError(f"{where} is missing parameter {name!r}")
        value = params[name]
        if low is not None:
            if type(value) is not int or value < low:
                if isinstance(value, Fraction) and value.denominator == 1:
                    value = int(value)
                _count(where, low, **{name: value})
        elif type(value) is not Fraction:
            try:
                value = _coerce(value, rational=True)
            except DomainError:
                raise DomainError(
                    f"{where} needs a rational {name}, got {value!r}; pass an int or a Fraction"
                ) from None
        values[name] = value
    if len(params) > len(values):
        unknown = next(key for key in params if key not in values)
        raise DomainError(
            f"{where} has unknown parameter {unknown!r}; {relation} takes {', '.join(values)}"
        )
    return values.values()


def _sum_of_products(terms) -> Fraction:
    """sum(prod(term)) over `terms`, each a tuple of ints and Fractions, as one
    Fraction (the empty sum is 0).

    Each term becomes one integer pair (the product of its factors' numerators,
    the product of their denominators), and `_int_sum` adds the pairs over one
    lcm and reduces once, in place of a Fraction multiply-add per term.
    """
    pairs = []
    for term in terms:
        n = d = 1
        for x in term:
            n *= x.numerator
            d *= x.denominator
        pairs.append((n, d))
    return _int_sum(pairs)


# -- scalar identity evaluators ------------------------------------------------
# Each returns (lhs, rhs) with the two sides computed by independent routes:
# lhs through the general recurrence-based operation, rhs through the closed
# form under test.


def _eval_A5(calls, m, k, alpha):
    """Derivative boundary cases: m = 0 gives delta_{k,0}; k = 0 gives the
    plain rising factorial; k > m gives zero."""
    if not (m == 0 or k == 0 or k > m):
        raise _OutOfRange("needs m = 0, k = 0 or k > m")
    lhs = _shared(calls, poch_deriv, alpha, m, k, PochMethod.RECURRENCE)
    if m == 0:
        rhs = _F(1 if k == 0 else 0)
    elif k == 0:
        rhs = _shared(calls, pochhammer, alpha, m)
    else:
        rhs = _F(0)
    return lhs, rhs


def _eval_A6(calls, m, k):
    """k-th derivative coefficient at argument 0 is a signed Stirling number."""
    if k > m:
        raise _OutOfRange("needs 0 < k <= m")
    lhs = _shared(calls, poch_deriv, _F(0), m, k, PochMethod.RECURRENCE)
    rhs = _sign(m - k) * _shared(calls, stirling_s1, m, k)
    return lhs, rhs


def _eval_A8(calls, n, k):
    """Stirling row recurrence expressed as a factorial-weighted column sum."""
    lhs = _shared(calls, stirling_s1, n + 1, k + 1)
    column = _shared(calls, _stirling_walk, n, k)[0]  # s(j, k) for j = 0..n
    rhs = _sum_of_products(
        (_sign(n - j) * math.perm(n, n - j), column[j])  # perm(n, n - j) = n!/j!
        for j in range(k, n + 1)
    )
    return lhs, rhs


def _eval_A9(calls, m, k):
    """Derivative coefficient at argument 1 is a shifted signed Stirling number."""
    lhs = _shared(calls, poch_deriv, _F(1), m, k, PochMethod.RECURRENCE)
    rhs = _sign(m - k) * _shared(calls, stirling_s1, m + 1, k + 1)
    return lhs, rhs


def _eval_AA19(calls, m, k):
    """Derivative coefficient at argument 1 via a generalized Bernoulli value."""
    if k > m:
        raise _OutOfRange("needs k <= m")
    lhs = _shared(calls, poch_deriv, _F(1), m, k, PochMethod.RECURRENCE)
    c = _shared(calls, binomial, m, k)
    rhs = _sign(m - k) * c * gen_bernoulli_poly(m - k, m + 1, _F(0))
    return lhs, rhs


def _eval_A12(calls, m, k):
    """Reciprocal derivative at argument 1 via the modified harmonic numbers."""
    lhs = _shared(calls, recip_poch_deriv, _F(1), m, k, RecipMethod.RECURRENCE)
    rhs = _F((-1) ** k) / math.factorial(m) * _shared(calls, mod_harmonic, m, k)
    return lhs, rhs


def _eval_A13(calls, m, k, alpha):
    """Taylor expansion of the derivative coefficient around argument 1."""
    if k > m:
        raise _OutOfRange("needs k <= m")
    lhs = _shared(calls, poch_deriv, alpha, m, k, PochMethod.RECURRENCE)
    row = _shared(calls, _stirling_walk, m + 1, m + 1)[1]  # s(m+1, i) for i = 0..m+1
    shift = alpha - 1
    rhs = _sum_of_products(
        (_sign(m - j) * math.comb(j, k) * row[j + 1], shift ** (j - k))
        for j in range(k, m + 1)
    )
    return lhs, rhs


def _eval_A14coeff(calls, m, k, j):
    """Taylor coefficients of the reciprocal derivative around argument 1:
    the j-th coefficient of Q_m^(k) is (±) C(k+j, k) Hhat_m^(k+j) / m!."""
    c = _shared(calls, binomial, k + j, k)
    lhs = c * _shared(calls, recip_poch_deriv, _F(1), m, k + j, RecipMethod.RECURRENCE)
    rhs = _F((-1) ** (k + j)) * c * _shared(calls, mod_harmonic, m, k + j) / math.factorial(m)
    return lhs, rhs


def _eval_A15(calls, m, k):
    """Derivative coefficient at argument 1 equals m! times the strictly
    nested all-ones harmonic sum of depth k."""
    lhs = _shared(calls, poch_deriv, _F(1), m, k, PochMethod.RECURRENCE)
    rhs = math.factorial(m) * nested_ones_Z(m, k)
    return lhs, _F(rhs)


def _eval_A27(calls, m, k, x):
    """Cauchy-product orthogonality of derivative and reciprocal-derivative
    coefficients at a common argument."""
    lhs = _sum_of_products(
        (
            _shared(calls, poch_deriv, x, m, k - j, PochMethod.STIRLING_SUM),
            _shared(calls, recip_poch_deriv, x, m, j, RecipMethod.CLOSED_SUM),
        )
        for j in range(k + 1)
    )
    rhs = _F(1 if k == 0 else 0)
    return lhs, rhs


def _eval_A28(calls, m, k):
    """Convolution of a Stirling row with the modified harmonic numbers
    telescopes to delta_{k,0} (-1)^m m!."""
    row = _shared(calls, _stirling_walk, m + 1, k + 1)[1]  # s(m+1, i) for i = 0..k+1
    lhs = _sum_of_products(
        (row[k + 1 - j], _shared(calls, mod_harmonic, m, j)) for j in range(k + 1)
    )
    rhs = _F((-1) ** m * math.factorial(m) if k == 0 else 0)
    return lhs, rhs


def _eval_A29(calls, m, k, n):
    """Derivative coefficient at a positive integer argument via Stirling
    numbers and modified harmonic numbers."""
    lhs = _shared(calls, poch_deriv, _F(n), m, k, PochMethod.RECURRENCE)
    row = _shared(calls, _stirling_walk, m + n, k + 1)[1]  # s(m+n, i) for i = 0..k+1
    weight = _F(_sign(m + n - 1 - k), math.factorial(n - 1))
    rhs = _sum_of_products(
        (weight, row[k + 1 - j], _shared(calls, mod_harmonic, n - 1, j)) for j in range(k + 1)
    )
    return lhs, rhs


def _eval_A30(calls, m, k, n):
    """Reciprocal derivative at a positive integer argument via Stirling
    numbers and modified harmonic numbers."""
    lhs = _shared(calls, recip_poch_deriv, _F(n), m, k, RecipMethod.RECURRENCE)
    row = _shared(calls, _stirling_walk, n, k + 1)[1]  # s(n, i) for i = 0..k+1
    weight = _F(_sign(n - 1 - k), math.factorial(m + n - 1))
    rhs = _sum_of_products(
        (weight, row[k + 1 - j], _shared(calls, mod_harmonic, m + n - 1, j)) for j in range(k + 1)
    )
    return lhs, rhs


def _eval_A31(calls, m, k, n):
    """Derivative coefficient at a negative integer argument: a reflection
    when the pole order allows, a finite Stirling double product otherwise."""
    lhs = _shared(calls, poch_deriv, _F(-n), m, k, PochMethod.RECURRENCE)
    if m <= n:
        rhs = _sign(m - k) * _shared(
            calls, poch_deriv, _F(n + 1 - m), m, k, PochMethod.STIRLING_SUM
        )
    else:
        acc = sum(
            (-1) ** j
            * _shared(calls, stirling_s1, n + 1, j + 1)
            * _shared(calls, stirling_s1, m - n, k - j)
            for j in range(k)
        )
        rhs = _F(_sign(m - n - k)) * acc
    return lhs, _F(rhs)


def _eval_A32(calls, m, k, n):
    """Reciprocal derivative at a negative integer argument reflects to a
    positive one while the factorial cast holds (m <= n)."""
    if m > n:
        raise _OutOfRange("needs m <= n")
    lhs = _shared(calls, recip_poch_deriv, _F(-n), m, k, RecipMethod.RECURRENCE)
    rhs = _sign(m - k) * _shared(
        calls, recip_poch_deriv, _F(n + 1 - m), m, k, RecipMethod.CLOSED_SUM
    )
    return lhs, rhs


def _pf_sum(calls, A, B, x, m, n):
    # sum_{j<n} (-1)^j (A - (B+j) x)_m / (j! (n-1-j)! (B+j)), the shared
    # right side of ii16 and ii17; (B)_n must have no zero factor.
    j = _vanishing_shift(B, n)
    if j is not None:
        raise _OutOfRange(f"has B = {B}, which puts a zero at shift {j}")
    terms = []
    for j in range(n):
        shifted = B + j
        weight = math.factorial(j) * math.factorial(n - 1 - j) * shifted.numerator
        value = _shared(calls, pochhammer, A - shifted * x, m)
        terms.append((_sign(j), value, _F(shifted.denominator, weight)))
    return _sum_of_products(terms)


def _eval_ii16(calls, m, n, A, B, x):
    """Partial-fraction value identity for a rising-factorial quotient with
    numerator shorter than denominator; holds for an arbitrary slope ratio x."""
    if m >= n:
        raise _OutOfRange("needs m < n")
    rhs = _pf_sum(calls, A, B, x, m, n)
    return _shared(calls, pochhammer, A, m) / _shared(calls, pochhammer, B, n), rhs


def _eval_ii17(calls, n, A, B, x):
    """Equal-length variant of ii16; the free parameter x survives as x**n."""
    rhs = x**n + _pf_sum(calls, A, B, x, n, n)
    return _shared(calls, pochhammer, A, n) / _shared(calls, pochhammer, B, n), rhs


def _eval_iii4(calls, m):
    """First Stirling column: s(m+1, 1) = (-1)^m m!."""
    return _shared(calls, stirling_s1, m + 1, 1), _F((-1) ** m * math.factorial(m))


def _eval_iii5(calls, m, n):
    """Alternating binomial double sum collapsing to a single binomial
    (the eps^0 normalization of the first expansion family)."""
    if n > m:
        raise _OutOfRange("needs n <= m")
    lhs = 1 - sum(
        (-1) ** j * _shared(calls, binomial, m - j, n) * _shared(calls, binomial, n, j)
        for j in range(1, n + 1)
    )
    return _F(lhs), _shared(calls, binomial, m, n)


def _eval_iii10(calls, m, n):
    """Companion alternating binomial sum with upward-shifted top index."""
    lhs = _F((-1) ** n) - sum(
        (-1) ** j * _shared(calls, binomial, m + j, n) * _shared(calls, binomial, n, j)
        for j in range(1, n + 1)
    )
    return _F(lhs), _shared(calls, binomial, m, n)


def _eval_conjugate_HS(calls, m, k):
    """The modified harmonic number equals the depth-k non-strict nested sum."""
    return _shared(calls, mod_harmonic, m, k), nested_ones_S(m, k)


# -- generating-relation checks ------------------------------------------------


def _first_discrepancy(lhs: EpsSeries, rhs: EpsSeries):
    # The lowest exponent known on both sides where they differ, or None.
    lo = min(lhs.min_exponent, rhs.min_exponent)
    hi = min(lhs.max_exponent, rhs.max_exponent)
    for e in range(lo, hi + 1):
        if lhs.coefficient(e) != rhs.coefficient(e):
            return e
    return None


def _geometric_minus(order: int) -> EpsSeries:
    # -z/(1-z) = -(z + z^2 + ...)
    return EpsSeries([_F(0)] + [_F(-1)] * order)


def _log1p_power(k: int, order: int) -> EpsSeries:
    # log(1+z)**k, known at least through z**order, by k plain products.
    log1p = EpsSeries([_F(0)] + [_F(_sign(n - 1), n) for n in range(1, order + 1)])
    power = polynomial_series([1], order)
    for _ in range(k):
        power = power * log1p
    return power


def _compose(outer: EpsSeries, inner: EpsSeries) -> EpsSeries:
    # outer(inner(z)) to outer's order by Horner's rule on one integer row, over
    # den_o * den_i**t after t steps; inner has no constant term, both are rational.
    order = outer.max_exponent
    den_o, top, _, _ = _int_row([outer.coefficient(e) for e in range(order + 1)])
    den_i, low, _, _ = _int_row([inner.coefficient(e) for e in range(order + 1)])
    acc = [top[order]] + [0] * order
    scale = 1
    for e in range(order - 1, -1, -1):
        scale *= den_i
        acc = _convolve(acc, low)
        acc[0] += top[e] * scale
    return EpsSeries._of(_entries((den_o * scale, acc, None, 0)), 0)


def _genfun_a4(calls, order, k, alpha):
    """Exponential-type generating relation for the derivative coefficients:
    sum_m k! P_m^(k)(alpha) (-t)^m / m! = (-1)^k (1+t)^(-alpha) log(1+t)^k."""
    lhs = EpsSeries(
        [
            _F((-1) ** m * math.factorial(k), math.factorial(m))
            * _shared(calls, poch_deriv, alpha, m, k, PochMethod.STIRLING_SUM)
            for m in range(order + 1)
        ]
    )
    binom = EpsSeries([_shared(calls, binomial, -alpha, l) for l in range(order + 1)])
    rhs = binom * _log1p_power(k, order)
    if k % 2:
        rhs = -rhs
    return lhs, rhs


def _genfun_a7(calls, order, k):
    """Powers of log(1+t) generate a Stirling column."""
    lhs = _log1p_power(k, order)
    rhs = EpsSeries(
        [
            _F(0)
            if n < k
            else _F(math.factorial(k), math.factorial(n)) * _shared(calls, stirling_s1, n, k)
            for n in range(order + 1)
        ]
    )
    return lhs, rhs


def _classical_bernoulli(order):
    # B_0..B_order from the textbook first-order recurrence.
    values = [_F(1)]
    for n in range(1, order + 1):
        weight = _F(-1, n + 1)
        values.append(
            _sum_of_products((weight, math.comb(n + 1, i), values[i]) for i in range(n))
        )
    return values


def _genfun_A18(calls, order, a, x):
    """Exponential generating function of the generalized Bernoulli
    polynomials.  The lhs is one Miller core per point, z/(e^z - 1) raised to
    the power a, summed at each n as gen_bernoulli_poly sums it; the reference
    side is built from the classical first-order recurrence plus binomial
    convolution."""
    core = _bernoulli_values(order, a)
    lhs = EpsSeries(
        [_bernoulli_sum(core, n, x) / _F(math.factorial(n)) for n in range(order + 1)]
    )
    level = _classical_bernoulli(order)
    base = list(level)
    for _ in range(a - 1):
        level = [
            _sum_of_products((math.comb(n, i), level[i], base[n - i]) for i in range(n + 1))
            for n in range(order + 1)
        ]
    powers = [x**e for e in range(order + 1)]
    shifted = []
    for n in range(order + 1):
        scale = _F(1, math.factorial(n))
        shifted.append(
            _sum_of_products(
                (scale, math.comb(n, i), level[i], powers[n - i]) for i in range(n + 1)
            )
        )
    return lhs, EpsSeries(shifted)


def _genfun_A25(calls, order, k, beta):
    """Composed-series transform of the shifted-pole sum reproduces the
    reciprocal-derivative coefficients of one extra length."""
    j = _vanishing_shift(beta, order + 2)
    if j is not None:
        raise _OutOfRange(f"has beta = {beta}, which hits a pole at shift {j}")
    outer = EpsSeries([1 / (beta + j) ** (k + 1) for j in range(order + 1)])
    composed = _compose(outer, _geometric_minus(order))
    lhs = composed * series_invert(polynomial_series([1, -1], order))
    rhs = EpsSeries(
        [
            _F((-1) ** k * math.factorial(m))
            * _shared(calls, recip_poch_deriv, beta, m + 1, k, RecipMethod.CLOSED_SUM)
            for m in range(order + 1)
        ]
    )
    return lhs, rhs


def _genfun_A26(calls, order, k):
    """Composed-series transform of the polylogarithm sum generates the
    modified harmonic numbers weighted by 1/m."""
    outer = EpsSeries(
        [_F(0)] + [_F(1) / _F(j) ** (k + 1) for j in range(1, order + 1)]
    )
    lhs = -_compose(outer, _geometric_minus(order))
    rhs = EpsSeries(
        [_F(0)] + [_shared(calls, mod_harmonic, m, k) / m for m in range(1, order + 1)]
    )
    return lhs, rhs


def _nueva_product_side(order, m, c):
    # prod_{j=1..m} (1 - (c/j) z) = (1 - c z)_m / m!, inverted.
    product = poch_eps_series(LinearParam(1, -c), m, order)
    return series_invert(product.scaled(_F(1, math.factorial(m))))


def _genfun_nueva1(calls, order, m, c):
    """The inverse of prod_j (1 - (c/j) z) generates c^k Hhat_m^(k) in z^k."""
    if c <= 0:
        raise _OutOfRange("needs c > 0")
    lhs = _nueva_product_side(order, m, c)
    rhs = EpsSeries([c**k * _shared(calls, mod_harmonic, m, k) for k in range(order + 1)])
    return lhs, rhs


def _genfun_nueva2(calls, order, m, c):
    """Same product, decomposed into simple geometric pieces."""
    if c <= 0:
        raise _OutOfRange("needs c > 0")
    lhs = _nueva_product_side(order, m, c)
    ratios = [(_sign(j - 1) * math.comb(m, j), c / j) for j in range(1, m + 1)]
    rhs = EpsSeries(
        [_sum_of_products((w, r**k) for w, r in ratios) for k in range(order + 1)]
    )
    return lhs, rhs


# -- default parameter grids ---------------------------------------------------

_RAT_SPOTS = (_F(1, 2), _F(5, 2), _F(7, 3))
_ALPHA_GRID = (_F(0), _F(1), _F(2), _F(5), _F(-1), _F(-3)) + _RAT_SPOTS
_A5_MK = [(0, k) for k in range(4)] + [(m, 0) for m in range(7)] + [(0, 1), (1, 2), (2, 4), (3, 5)]
_II_ARGS = {
    "A": (_F(1), _F(1, 2), _F(7, 3)),
    "B": (_F(1), _F(1, 2), _F(5, 2)),
    "x": (_F(0), _F(1), _F(1, 2), _F(-2)),
}


def _grid(**axes):
    """A default grid: a function returning the points of nested loops over `axes`.

    The first axis is the outermost loop.  An axis is a sequence of values or a
    function of the point built so far (a dict) that returns one.
    """

    def points():
        built = [{}]
        for name, axis in axes.items():
            built = [
                {**point, name: value}
                for point in built
                for value in (axis(point) if callable(axis) else axis)
            ]
        return built

    return points


def _up_to_m(point):
    return range(point["m"] + 1)


def _c_choices(point):
    # 1, lcm(1..m) and m!, each once, in that order.
    m = point["m"]
    return map(_F, dict.fromkeys((1, math.lcm(*range(1, m + 1)), math.factorial(m))))


# Every checkable relation by its token: its evaluator, its parameter declaration
# and its default parameter grid (a function returning parameter dicts), in the
# order `verify_all` reports them.  The identities come first.
_IDENTITIES = {
    "A5": (
        _eval_A5,
        "m>=0 k>=0 alpha:Q",
        lambda: [{"m": m, "k": k, "alpha": a} for a in _ALPHA_GRID for m, k in _A5_MK],
    ),
    "A6": (_eval_A6, "m>=1 k>=1", _grid(m=range(11), k=lambda p: range(1, p["m"] + 1))),
    "A8": (_eval_A8, "n>=0 k>=0", _grid(n=range(11), k=lambda p: range(p["n"] + 1))),
    "A9": (_eval_A9, "m>=0 k>=0", _grid(m=range(11), k=_up_to_m)),
    "AA19": (_eval_AA19, "m>=0 k>=0", _grid(m=range(11), k=_up_to_m)),
    "A12": (_eval_A12, "m>=0 k>=0", _grid(m=range(11), k=range(7))),
    "A13": (
        _eval_A13,
        "m>=0 k>=0 alpha:Q",
        _grid(alpha=(_F(0), _F(3, 2), _F(-2)) + _RAT_SPOTS, m=range(8), k=_up_to_m),
    ),
    "A14coeff": (_eval_A14coeff, "m>=1 k>=0 j>=0", _grid(m=range(1, 9), k=range(4), j=range(4))),
    "A15": (_eval_A15, "m>=0 k>=0", _grid(m=range(11), k=_up_to_m)),
    "A27": (
        _eval_A27,
        "m>=0 k>=0 x:Q",
        _grid(x=(_F(1), _F(2), _F(1, 2), _F(7, 3)), m=range(9), k=range(7)),
    ),
    "A28": (_eval_A28, "m>=0 k>=0", _grid(m=range(11), k=lambda p: range(p["m"] + 3))),
    "A29": (_eval_A29, "m>=0 k>=0 n>=1", _grid(n=(1, 2, 3, 4), m=range(9), k=_up_to_m)),
    "A30": (_eval_A30, "m>=0 k>=0 n>=1", _grid(n=(1, 2, 3, 4), m=range(7), k=range(6))),
    "A31": (_eval_A31, "m>=0 k>=0 n>=1", _grid(n=(1, 2, 3), m=range(9), k=_up_to_m)),
    "A32": (
        _eval_A32,
        "m>=0 k>=0 n>=1",
        _grid(n=(1, 2, 3), m=lambda p: range(p["n"] + 1), k=range(6)),
    ),
    "ii16": (
        _eval_ii16,
        "m>=0 n>=1 A:Q B:Q x:Q",
        _grid(m=range(4), n=lambda p: ((1, 2), (2, 3), (3, 5), (4,))[p["m"]], **_II_ARGS),
    ),
    "ii17": (_eval_ii17, "n>=1 A:Q B:Q x:Q", _grid(n=range(1, 6), **_II_ARGS)),
    "iii4": (_eval_iii4, "m>=0", _grid(m=range(13))),
    "iii5": (_eval_iii5, "m>=0 n>=0", _grid(m=range(11), n=lambda p: range(p["m"] + 1))),
    "iii10": (_eval_iii10, "m>=0 n>=0", _grid(m=range(9), n=range(7))),
    "conjugate_HS": (_eval_conjugate_HS, "m>=0 k>=0", _grid(m=range(13), k=range(7))),
}
_GENFUNS = {
    "a4": (_genfun_a4, "k>=0 alpha:Q", _grid(k=range(4), alpha=(_F(1), _F(1, 2)))),
    "a7": (_genfun_a7, "k>=0", _grid(k=range(5))),
    "A18": (_genfun_A18, "a>=1 x:Q", _grid(a=range(1, 6), x=(_F(0), _F(1, 2)))),
    "A25": (_genfun_A25, "k>=0 beta:Q", _grid(k=range(4), beta=(_F(1), _F(2), _F(1, 2)))),
    "A26": (_genfun_A26, "k>=0", _grid(k=range(4))),
    "nueva1": (_genfun_nueva1, "m>=0 c:Q", _grid(m=range(6), c=_c_choices)),
    "nueva2": (_genfun_nueva2, "m>=1 c:Q", _grid(m=range(1, 6), c=_c_choices)),
}
_RELATIONS = {**_IDENTITIES, **_GENFUNS}

IdentityId = Enum("IdentityId", {token: token for token in _IDENTITIES}, type=str, module=__name__)
IdentityId.__doc__ = "Exact scalar relations checkable at a parameter point."
GenFunId = Enum("GenFunId", {token: token for token in _GENFUNS}, type=str, module=__name__)
GenFunId.__doc__ = "Power-series relations compared coefficientwise to a truncation order."


def _relation(token):
    """Resolve a relation token to (id, evaluator, declared parameters, default grid).

    The default grid's points have their keys in declared order.  A token that
    names no relation raises DomainError.
    """
    for kind in (IdentityId, GenFunId):
        try:
            identity = kind(token)
        except ValueError:
            continue
        evaluate, declaration, default = _RELATIONS[identity.value]
        parts = (item.partition(">=") for item in declaration.split())
        declared = [(name.removesuffix(":Q"), int(low) if low else None) for name, _, low in parts]
        names = [name for name, _ in declared]
        return identity, evaluate, declared, lambda: [
            {name: point[name] for name in names} for point in default()
        ]
    known = ", ".join(_RELATIONS)
    raise DomainError(f"unknown relation id {token!r}; known ids: {known}")


_GENFUN_ORDER = 12


class CheckSummary(_Record):
    """Outcome of one relation checked over a whole parameter grid: its token, the
    number of points and the result record of each failing point, kept as a tuple."""

    def __init__(self, identity: str, points: int, failures: tuple):
        _typed("CheckSummary", str, identity=identity)
        _count("CheckSummary", points=points)
        failures = tuple(_iterable("CheckSummary", failures, "result records"))
        for failure in failures:
            if not isinstance(failure, (IdentityResult, GenFunResult)):
                raise DomainError(
                    f"CheckSummary needs an IdentityResult or a GenFunResult failure, "
                    f"got {failure!r}"
                )
        self._store(identity, points, failures)

    @property
    def passed(self) -> bool:
        return not self.failures


def _check(resolved, grid, calls) -> CheckSummary:
    """Check the relation `resolved` by `_relation` at every point of `grid` (its
    default grid if None), sharing the pure calls in the dict `calls`; a result
    record is built only for a point that fails."""
    relation, evaluate, declared, default = resolved
    if grid is None:
        grid = default()
    at = f"run_relation({relation.value!r}) at grid point"
    identity = isinstance(relation, IdentityId)
    first = (calls,) if identity else (calls, _GENFUN_ORDER)
    failures = []
    for i, params in enumerate(grid):
        where = f"{at} {i}"
        try:
            lhs, rhs = evaluate(*first, *_read(where, params, relation.value, declared))
        except _OutOfRange as fault:
            raise DomainError(f"{where} {fault}") from None
        if identity:
            if lhs != rhs:
                failures.append(IdentityResult(relation, params, lhs, rhs))
        else:
            discrepancy = _first_discrepancy(lhs, rhs)
            if discrepancy is not None:
                failures.append(GenFunResult(relation, params, _GENFUN_ORDER, discrepancy))
    return CheckSummary(relation.value, len(grid), failures)


def run_relation(token, grid=None) -> CheckSummary:
    """Check one relation at every point of `grid` (its default grid if None).

    A generating relation is compared to order _GENFUN_ORDER.  The points share
    one dict of pure calls, dropped when this call returns.  A DomainError for a
    missing, bad, undeclared or out-of-range parameter names the call, the
    relation and the point.
    """
    resolved = _relation(token)
    if grid is not None:
        grid = list(_iterable("run_relation", grid, "parameter mappings"))
        for i, params in enumerate(grid):
            if not isinstance(params, Mapping):
                raise DomainError(f"run_relation needs a mapping of parameters, got {params!r}")
            grid[i] = dict(params)
    return _check(resolved, grid, {})


def verify_ids(tokens):
    """Check a list of relation tokens over their default grids; returns one
    CheckSummary per token.  Every relation shares one dict of pure calls,
    dropped when this call returns."""
    if isinstance(tokens, str):
        raise DomainError(
            f"verify_ids takes a list of relation ids: pass [{tokens!r}], not {tokens!r}"
        )
    # Resolve every token before running any, so a bad token costs no work.
    relations = [_relation(token) for token in _iterable("verify_ids", tokens, "relation ids")]
    calls = {}
    return [_check(relation, None, calls) for relation in relations]


def verify_all():
    """Check every registered relation over its documented grid."""
    return verify_ids(_RELATIONS)

