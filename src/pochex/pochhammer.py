"""Rising factorials, their reciprocals, and exact derivatives of both.

The two derivative families are normalized by k!:

    P(m, k, alpha) = (1/k!) d^k/dalpha^k  (alpha)_m
    Q(m, k, beta)  = (1/k!) d^k/dbeta^k   1/(beta)_m

Each family has several closed forms plus a series oracle; they are kept as
separate code paths on purpose so they can cross-check one another, and all
of them must agree exactly.  `recip_poch_laurent` expands a reciprocal around
a simple pole in eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .combinatorics import gen_bernoulli_poly, stirling_s1
from .duals import Dual
from .errors import DomainError, PoleError
from .series import EpsSeries, _coerce, _count, polynomial_series, series_invert

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LinearParam:
    """A parameter that is linear in the expansion variable: constant + slope*eps."""

    constant: Fraction
    slope: Fraction

    def __post_init__(self):
        object.__setattr__(self, "constant", _coerce(self.constant))
        object.__setattr__(self, "slope", _coerce(self.slope))

    def at(self, eps):
        return self.constant + self.slope * _coerce(eps)

    def shifted(self, offset) -> "LinearParam":
        return LinearParam(self.constant + offset, self.slope)


class PochMethod(str, Enum):
    RECURRENCE = "recurrence"
    STIRLING_SUM = "stirling_sum"
    COFFEY = "coffey"
    BERNOULLI = "bernoulli"
    SERIES_ORACLE = "series_oracle"


class RecipMethod(str, Enum):
    RECURRENCE = "recurrence"
    CLOSED_SUM = "closed_sum"
    DELTA_FORM = "delta_form"
    SERIES_ORACLE = "series_oracle"


def _as_method(method, enum_cls):
    if isinstance(method, enum_cls):
        return method
    try:
        return enum_cls(method)
    except ValueError:
        names = ", ".join(m.value for m in enum_cls)
        raise DomainError(f"unknown method {method!r}; expected one of: {names}") from None


def pochhammer(alpha, m: int):
    """Rising factorial (alpha)_m = alpha (alpha+1) ... (alpha+m-1); empty product is 1."""
    _count("pochhammer", m=m)
    alpha = _coerce(alpha)
    value = _ONE
    for j in range(m):
        value = value * (alpha + j)
    return value


def _vanishing_shift(x, n: int):
    """The shift j in [0, n) with x + j == 0, or None when (x)_n has no zero factor.

    A Dual counts as zero when its value part is zero: it then has no inverse.
    """
    if isinstance(x, Dual):
        x = x.val
    j = -int(x)
    return j if 0 <= j < n and x + j == 0 else None


def _poch_step(row: list, c, s, width: int) -> list:
    """The first `width` coefficients of row * (c + s*eps), in O(width).

    A row shorter than `width` is an exact polynomial; it grows by one coefficient.
    """
    nxt = [row[0] * c] + [row[i] * c + row[i - 1] * s for i in range(1, len(row))]
    if len(row) < width:
        nxt.append(row[-1] * s)
    return nxt


def _recip_step(row: list, c, s, width: int) -> list:
    """The first `width` coefficients of row / (c + s*eps), in O(width); c != 0.

    `row` holds `width` coefficients.  (c + s*eps) * nxt = row is solved
    coefficient by coefficient.
    """
    inv = 1 / c
    nxt = [row[0] * inv]
    for i in range(1, width):
        nxt.append((row[i] - s * nxt[i - 1]) * inv)
    return nxt


def poch_eps_series(param: LinearParam, m: int, order: int) -> EpsSeries:
    """Exact polynomial (constant + slope*eps)_m as a series with window [0, order]."""
    _count("poch_eps_series", m=m, order=order)
    poly = [_ONE]
    for j in range(m):
        poly = _poch_step(poly, param.constant + j, param.slope, order + 1)
    return polynomial_series(poly, order)


# -- derivatives of the rising factorial ------------------------------------


def _poch_deriv_recurrence(alpha, m, k):
    # Row-by-row: P(m+1, k) = (alpha + m) P(m, k) + P(m, k-1).  k <= m, so
    # the row reaches k + 1 coefficients.
    row = [_ONE]
    for j in range(m):
        row = _poch_step(row, alpha + j, _ONE, k + 1)
    return row[k]


def _poch_deriv_stirling(alpha, m, k):
    # Alternating sum over s(m-l, k) weighted by binomials and (alpha)_l.
    acc = _ZERO
    poch = _ONE  # (alpha)_l, accumulated
    for l in range(m - k + 1):
        s = stirling_s1(m - l, k)
        if s != 0:
            acc += (-1) ** l * math.comb(m, l) * s * poch
        poch = poch * (alpha + l)
    return (-1) ** (m - k) * acc


def _poch_deriv_coffey(alpha, m, k):
    # Polynomial in alpha with Stirling-number coefficients.
    acc = _ZERO
    power = _ONE  # alpha**j, accumulated
    for j in range(m - k + 1):
        s = stirling_s1(m, k + j)
        if s != 0:
            acc += (-1) ** j * math.comb(k + j, k) * s * power
        power = power * alpha
    return (-1) ** (m - k) * acc


def _poch_deriv_bernoulli(alpha, m, k):
    # Single generalized-Bernoulli evaluation at 1 - alpha.
    return (
        (-1) ** (m - k)
        * math.comb(m, k)
        * gen_bernoulli_poly(m - k, m + 1, _ONE - alpha)
    )


def _poch_deriv_oracle(alpha, m, k):
    # The generic series product of the m linear factors, apart from _poch_step.
    product = EpsSeries.one(k)
    for j in range(m):
        product = product * polynomial_series([alpha + j, _ONE], k)
    return product.coefficient(k)


_POCH_DISPATCH = {
    PochMethod.RECURRENCE: _poch_deriv_recurrence,
    PochMethod.STIRLING_SUM: _poch_deriv_stirling,
    PochMethod.COFFEY: _poch_deriv_coffey,
    PochMethod.BERNOULLI: _poch_deriv_bernoulli,
    PochMethod.SERIES_ORACLE: _poch_deriv_oracle,
}


def poch_deriv(alpha, m: int, k: int, method=PochMethod.STIRLING_SUM):
    """P(m, k, alpha): the k-th derivative of (alpha)_m divided by k!."""
    _count("poch_deriv", m=m, k=k)
    alpha = _coerce(alpha)
    if k > m:
        return _ZERO
    return _POCH_DISPATCH[_as_method(method, PochMethod)](alpha, m, k)


# -- derivatives of the reciprocal -------------------------------------------


def _recip_deriv_recurrence(beta, m, k):
    # Q(m+1, k) = (Q(m, k) - Q(m+1, k-1)) / (beta + m), filled k-ascending.
    row = [_ONE] + [_ZERO] * k
    for j in range(m):
        row = _recip_step(row, beta + j, _ONE, k + 1)
    return row[k]


def _recip_deriv_closed_sum(beta, m, k):
    if m == 0:
        return _ONE if k == 0 else _ZERO
    acc = _ZERO
    for l in range(m):
        term = Fraction((-1) ** l, math.factorial(l) * math.factorial(m - 1 - l))
        acc += term / (beta + l) ** (k + 1)
    return (-1) ** k * acc


def _recip_deriv_delta_form(beta, m, k):
    # 1/(beta+eps)_m = exp(sum_r (-eps)^r H_r / r) / (beta)_m, with the power
    # sums H_r = sum_{j<m} (beta+j)^-r; the exponential's coefficients g_n
    # follow from n g_n = sum_{r=1..n} (-1)^r H_r g_{n-r}.
    inverses = [1 / (beta + j) for j in range(m)]
    powers = list(inverses)
    signed = [_ZERO]  # signed[r] = (-1)^r H_r
    for r in range(1, k + 1):
        signed.append((-1) ** r * sum(powers, _ZERO))
        powers = [p * inv for p, inv in zip(powers, inverses)]
    g = [_ONE]
    for n in range(1, k + 1):
        g.append(sum((signed[r] * g[n - r] for r in range(1, n + 1)), _ZERO) / n)
    return g[k] / pochhammer(beta, m)


def _recip_deriv_oracle(beta, m, k):
    return series_invert(poch_eps_series(LinearParam(beta, 1), m, k)).coefficient(k)


_RECIP_DISPATCH = {
    RecipMethod.RECURRENCE: _recip_deriv_recurrence,
    RecipMethod.CLOSED_SUM: _recip_deriv_closed_sum,
    RecipMethod.DELTA_FORM: _recip_deriv_delta_form,
    RecipMethod.SERIES_ORACLE: _recip_deriv_oracle,
}


def recip_poch_deriv(beta, m: int, k: int, method=RecipMethod.CLOSED_SUM):
    """Q(m, k, beta): the k-th derivative of 1/(beta)_m divided by k!."""
    _count("recip_poch_deriv", m=m, k=k)
    beta = _coerce(beta)
    l = _vanishing_shift(beta, m)
    if l is not None:
        raise PoleError(
            f"1/(beta)_{m} has a pole at beta = {beta}: factor beta + {l} vanishes", index=l
        )
    return _RECIP_DISPATCH[_as_method(method, RecipMethod)](beta, m, k)


def recip_poch_laurent(n: int, b, m: int, order: int) -> EpsSeries:
    """Laurent expansion of 1/(-n + b*eps)_m around eps = 0 (simple pole).

    Requires m > n >= 0 and b != 0; the factor at shift n is exactly b*eps,
    and the remaining factors split into (1 - b*eps)_n and (1 + b*eps)_{m-n-1}.
    """
    _count("recip_poch_laurent", n=n, m=m)
    _count("recip_poch_laurent", -1, order=order)
    b = _coerce(b)
    if b == 0:
        raise DomainError("recip_poch_laurent needs a nonzero slope b")
    if m <= n:
        raise DomainError(
            f"recip_poch_laurent needs m > n (got m = {m}, n = {n}); "
            "a pole-free reciprocal belongs to recip_poch_deriv"
        )
    falling = poch_eps_series(LinearParam(1, -b), n, order + 1)
    rising = poch_eps_series(LinearParam(1, b), m - n - 1, order + 1)
    unit = series_invert(falling * rising)
    return unit.scaled(Fraction((-1) ** n) / b).shifted(-1).truncated(order)
