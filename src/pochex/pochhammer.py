"""Rising factorials, their reciprocals, and exact derivatives of both.

The two derivative families are normalized by k!:

    P(m, k, alpha) = (1/k!) d^k/dalpha^k  (alpha)_m
    Q(m, k, beta)  = (1/k!) d^k/dbeta^k   1/(beta)_m

Each family has several closed forms plus a series oracle; they are kept as
separate code paths on purpose so they can cross-check one another, and all
of them must agree exactly.  `recip_poch_laurent` expands a reciprocal around
a simple pole in eps.  Every method computes in rationals: `poch_deriv` and
`recip_poch_deriv` apply a Dual argument once, by the identities (`_dual_rule`)
dP(m, k)/dalpha = (k+1) P(m, k+1) and dQ(m, k)/dbeta = (k+1) Q(m, k+1).
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .combinatorics import _stirling_walk
from .duals import Dual
from .errors import DomainError, PoleError
from .series import (
    EpsSeries,
    _coerce,
    _count,
    _entries,
    _entry,
    _int_sum,
    _product,
    _signed,
    _typed,
    polynomial_series,
    series_invert,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class LinearParam:
    """A parameter that is linear in the expansion variable: constant + slope*eps.

    A frozen value class with a frozen dataclass's repr, ==, hash and
    `__match_args__`, but not a dataclass, so `import pochex` loads no `dataclasses`.
    """

    __match_args__ = ("constant", "slope")

    def __init__(self, constant: Fraction, slope: Fraction):
        object.__setattr__(self, "constant", _coerce(constant))
        object.__setattr__(self, "slope", _coerce(slope))

    def __repr__(self):
        return f"{type(self).__qualname__}(constant={self.constant!r}, slope={self.slope!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.constant, self.slope) == (other.constant, other.slope)

    def __hash__(self):
        return hash((self.constant, self.slope))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def at(self, eps):
        return self.constant + self.slope * _coerce(eps)

    def shifted(self, offset: int) -> "LinearParam":
        """The parameter with its constant moved by the integer offset."""
        _signed("LinearParam.shifted", offset=offset)
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
    """Rising factorial (alpha)_m = alpha (alpha+1) ... (alpha+m-1); empty product is 1.

    For alpha = p/q it is prod(p + j*q) / q**m in integers, reduced by one gcd.
    A Dual alpha takes the width-1 integer row: a Dual for m >= 1, Fraction 1 at m = 0.
    """
    _count("pochhammer", m=m)
    alpha = _coerce(alpha)
    if isinstance(alpha, Dual):
        return _poch_deriv_recurrence(alpha, m, 0)
    p, q = alpha.numerator, alpha.denominator
    return Fraction(math.prod(range(p, p + m * q, q)), q**m)


def _vanishing_shift(x, n: int):
    """The shift j in [0, n) with x + j == 0, or None when (x)_n has no zero factor.

    A Dual counts as zero when its value part is zero: it then has no inverse.
    """
    if isinstance(x, Dual):
        x = x.val
    j = -int(x)
    return j if 0 <= j < n and x + j == 0 else None


# -- integer rows -------------------------------------------------------------
#
# The two linear-factor steps carry a truncated series in eps as a row (see
# `series`).  A step sets bit i of mask where the Fraction/Dual computation of
# coefficient i would have touched a Dual.  A linear factor c + s*eps is the
# integer tuple (a, b, g, dual) of `_int_factor`; shifted by j it is
# (a + j*g, b, g, dual).  No step reduces a row; `_divided` does.


def _int_factor(c, s) -> tuple:
    """c + s*eps as integers (a, b, g, dual) with c + s*eps = (a + b*eps) / g.

    dual is None when neither c nor s is a Dual: then (a, b, g) is
    (c.num*s.den, s.num*c.den, c.den*s.den), three integer products.
    Otherwise it is (da, db, c is a Dual, s is a Dual), and c + s*eps is
    ((a + da*delta) + (b + db*delta)*eps) / g, with g the lcm of c's part
    denominators times the lcm of s's.
    """
    if not isinstance(c, Dual) and not isinstance(s, Dual):
        cn, cq, sn, sq = c.numerator, c.denominator, s.numerator, s.denominator
        return cn * sq, sn * cq, cq * sq, None
    cv, cd = (c.val, c.der) if isinstance(c, Dual) else (c, _ZERO)
    sv, sd = (s.val, s.der) if isinstance(s, Dual) else (s, _ZERO)
    g = math.lcm(cv.denominator, cd.denominator) * math.lcm(sv.denominator, sd.denominator)
    a, da, b, db = ((x * g).numerator for x in (cv, cd, sv, sd))
    return a, b, g, (da, db, isinstance(c, Dual), isinstance(s, Dual))


def _unit_row(width: int) -> tuple:
    """The integer row of 1 with `width` coefficients; width 1 starts an exact polynomial."""
    return 1, [1] + [0] * (width - 1), None, 0


def _times(val: list, a: int, b: int, grow: bool) -> list:
    """The coefficients of val * (a + b*eps), one more when `grow`."""
    out = [val[0] * a] + [x * a + y * b for x, y in zip(val[1:], val)]
    if grow:
        out.append(val[-1] * b)
    return out


def _solve(val: list, a: int, b: int, scale: int) -> list:
    """The w = len(val) coefficients of out with (a + b*eps) * out = scale * a**w * val.

    With x_0 = val_0 and x_i = val_i * a**i - b * x_{i-1}, out_i = scale * a**(w-1-i) * x_i.
    """
    powers = [1]
    for _ in val[1:]:
        powers.append(powers[-1] * a)
    out, x = [], 0
    for v, up, down in zip(val, powers, reversed(powers)):
        x = v * up - b * x
        out.append(x * down * scale)
    return out


def _poch_step(row: tuple, factor: tuple, j: int, width: int) -> tuple:
    """The integer row of row * (c + j + s*eps), first `width` coefficients, in O(width).

    `factor` is `_int_factor(c, s)`.  Each coefficient n_i over den becomes
    n_i*a + n_{i-1}*b over den*g.  A row shorter than `width` is an exact
    polynomial; it grows by one coefficient.
    """
    den, val, der, mask = row
    a, b, g, dual = factor
    a += j * g
    n = len(val)
    grow = n < width
    nxt = _times(val, a, b, grow)
    if der is None and dual is None:
        return den * g, nxt, None, 0
    # (A + B*delta) * ((a + da*delta) + (b + db*delta)*eps): the delta-part is
    # B*(a + b*eps) + A*(da + db*eps).
    nder = _times(der, a, b, grow) if der else [0] * len(nxt)
    full = (1 << len(nxt)) - 1
    mask = (mask | mask << 1) & full
    if dual:
        da, db, c_dual, s_dual = dual
        nder = [x + y for x, y in zip(nder, _times(val, da, db, grow))]
        mask |= ((1 << n) - 1 if c_dual else 0) | (full - 1 if s_dual else 0)
    return den * g, nxt, nder if mask else None, mask


def _recip_step(row: tuple, factor: tuple, j: int, width: int) -> tuple:
    """The integer row of row / (c + j + s*eps), in O(width); c + j != 0.

    `factor` is `_int_factor(c, s)` and `row` holds `width` coefficients.
    (a + b*eps) * nxt = g * row is solved in integers (`_solve`), which scales
    the denominator by a**width: powers of the constant's numerator and of
    the slope's denominator.
    """
    den, val, der, mask = row
    a, b, g, dual = factor
    a += j * g
    nxt = _solve(val, a, b, g)
    power = a**width
    if der is None and dual is None:
        return den * power, nxt, None, 0
    # (A + B*delta) / (alpha + alpha'*delta) = N + M*delta with alpha*N = A and
    # alpha*M = B - alpha'*N, alpha = a + b*eps and alpha' = da + db*eps.  The
    # solve makes every entry from the lowest Dual one on a Dual; a Dual c makes
    # entry 0 one, and a Dual s entry 1.
    rhs = [x * g * power for x in der] if der else [0] * width
    full = (1 << width) - 1
    low = mask
    if dual:
        da, db, c_dual, s_dual = dual
        rhs = [x - y for x, y in zip(rhs, _times(nxt, da, db, False))]
        low |= (1 if c_dual else 0) | (2 if s_dual else 0)
    mask = full & -(low & -low)
    nder = _solve(rhs, a, b, 1) if mask else None
    return den * power * power, [x * power for x in nxt], nder, mask


def _divided(row: tuple, m: int) -> tuple:
    """The integer row of row / m, reduced by one gcd, with a positive denominator."""
    den, val, der, mask = row
    den *= m
    d = math.gcd(den, *val, *(der or ()))
    if den < 0:
        d = -d
    if d == 1:
        return den, val, der, mask
    return den // d, [x // d for x in val], der and [x // d for x in der], mask


def poch_eps_series(param: LinearParam, m: int, order: int) -> EpsSeries:
    """Exact polynomial (constant + slope*eps)_m as a series with window [0, order]."""
    _typed("poch_eps_series", LinearParam, param=param)
    _count("poch_eps_series", m=m, order=order)
    factor = _int_factor(param.constant, param.slope)
    row = _unit_row(1)
    for j in range(m):
        row = _poch_step(row, factor, j, order + 1)
    return polynomial_series(_entries(row), order)


# -- derivatives of the rising factorial ------------------------------------


def _poch_deriv_recurrence(alpha, m, k):
    # Row-by-row: P(m+1, k) = (alpha + m) P(m, k) + P(m, k-1).  k <= m, so
    # the row reaches k + 1 coefficients.
    factor = _int_factor(alpha, _ONE)
    row = _unit_row(1)
    for j in range(m):
        row = _poch_step(row, factor, j, k + 1)
    return _entry(row, k)


def _factor_sum(coeffs: list, alpha, step: int):
    """sum(c_l * alpha (alpha + step) ... (alpha + (l-1)*step)) over integers c_l.

    Step 1 gives the rising factorials (alpha)_l, step 0 the powers alpha**l.
    For alpha = p/q this is one Horner pass in p + l*step*q over q**L, with
    L + 1 = len(coeffs), reduced by one gcd.
    """
    p, q = alpha.numerator, alpha.denominator
    num, power = 0, 1  # power = q**(L - l)
    for l in range(len(coeffs) - 1, -1, -1):
        num = coeffs[l] * power + (p + l * step * q) * num
        power *= q
    return Fraction(num, q ** (len(coeffs) - 1))


def _poch_deriv_stirling(alpha, m, k):
    # (-1)**(m-k) sum((-1)**l C(m, l) s(m-l, k) (alpha)_l, l = 0..m-k), with
    # C(m, l) carried along l.
    coeffs, binom = [], 1
    for l, s in enumerate(reversed(_stirling_walk(m, k)[0][k:])):
        coeffs.append((-1) ** (m - k + l) * binom * s)
        binom = binom * (m - l) // (l + 1)
    return _factor_sum(coeffs, alpha, 1)


def _poch_deriv_coffey(alpha, m, k):
    # Polynomial in alpha with Stirling-number coefficients:
    # (-1)**(m-k) sum((-1)**j C(k+j, k) s(m, k+j) alpha**j, j = 0..m-k), with
    # C(k+j, k) carried along j.
    coeffs, binom = [], 1
    for j, s in enumerate(_stirling_walk(m, m)[1][k:]):
        coeffs.append((-1) ** (m - k + j) * binom * s)
        binom = binom * (k + j + 1) // (j + 1)
    return _factor_sum(coeffs, alpha, 0)


def _norlund_row(row: list, p: int, q: int, d: int) -> None:
    """Row N_{d-1} of `_poch_deriv_bernoulli` becomes N_d in place, n ascending:
    row[n] += n*(p - (n + d)*q)*row[n-1], len(row) - 1 integer multiply-adds."""
    c = p - d * q
    for n in range(1, len(row)):
        row[n] += n * (c - n * q) * row[n - 1]


def _poch_deriv_bernoulli(alpha, m, k):
    # P = (-1)**(m-k) C(m, k) B_{m-k}^(m+1)(x) at x = 1 - alpha = p/q, where the
    # generalized Bernoulli value comes from Noerlund's identities (Vorlesungen
    # ueber Differenzenrechnung, 1924), not from Miller's core:
    #   B_n^(n+1)(x) = (x - 1)(x - 2)...(x - n),
    #   B_n^(a+1)(x) = (1 - n/a) B_n^(a)(x) + (x - a)(n/a) B_{n-1}^(a)(x).
    # Scaled by q**n (n + d)!/d!, E_d(n) = B_n^(n+d+1)(x) is the integer N_d(n):
    #   N_d(0) = 1,  N_d(n) = N_{d-1}(n) + n (p - (n + d) q) N_d(n-1),
    # and with N_{-1}(n) = 0 for n >= 1 the d = 0 pass gives the start row
    # N_0(n) = n! prod(p - j q, j = 1..n).  That row is the rising factorial the
    # other routes build, as prod(x - j, j = 1..n) = (-1)**n (alpha)_n: at k = 0
    # the route returns (alpha)_m.  After the passes d = 0..k over n = 0..m - k,
    # C(m, k) k!/m! = 1/(m - k)! gives P = (-1)**(m-k) N_k(m-k) / (q**(m-k) (m-k)!),
    # one Fraction, so one gcd.
    q = alpha.denominator
    p = q - alpha.numerator
    row = [1] + [0] * (m - k)
    for d in range(k + 1):
        _norlund_row(row, p, q, d)
    return Fraction((-1) ** (m - k) * row[-1], q ** (m - k) * math.factorial(m - k))


def _linear_product(x, m: int, k: int) -> EpsSeries:
    """(x + eps)_m through eps**k as the generic series product of its m linear
    factors: the series oracles' route, apart from the engine's steps.

    x is a rational: `_dual_rule` strips a Dual before any method runs.  At
    x = p/q factor j is the row (q, [p + j*q, q, 0, ...], None) of width k + 1;
    the rows fold through `series._product` (one integer convolution each)
    and the product becomes Fractions in one `_entries` call.
    """
    p, q = x.numerator, x.denominator
    pad = [0] * (k - 1)  # empty at k = 0
    row = (1, [1, 0][: k + 1] + pad, None)
    for j in range(m):
        row = _product(row, (q, [p + j * q, q][: k + 1] + pad, None))
    return EpsSeries._of(_entries((*row, 0)), 0)


def _poch_deriv_oracle(alpha, m, k):
    return _linear_product(alpha, m, k).coefficient(k)


_POCH_DISPATCH = {
    PochMethod.RECURRENCE: _poch_deriv_recurrence,
    PochMethod.STIRLING_SUM: _poch_deriv_stirling,
    PochMethod.COFFEY: _poch_deriv_coffey,
    PochMethod.BERNOULLI: _poch_deriv_bernoulli,
    PochMethod.SERIES_ORACLE: _poch_deriv_oracle,
}


def _dual_rule(run, x, m: int, k: int, depends: bool):
    """run(x, m, k) at a rational x.  At a Dual x = v + d*delta it is run(v, m, k),
    made Dual(run(v, m, k), d*(k+1)*run(v, m, k+1)) when the result `depends` on x."""
    if not isinstance(x, Dual):
        return run(x, m, k)
    value = run(x.val, m, k)
    return Dual(value, x.der * (k + 1) * run(x.val, m, k + 1)) if depends else value


def poch_deriv(alpha, m: int, k: int, method=PochMethod.STIRLING_SUM):
    """P(m, k, alpha): the k-th derivative of (alpha)_m divided by k!.

    A Fraction, except at a Dual alpha = v + d*delta and k < m, where every
    method gives Dual(P(m, k, v), d*(k+1)*P(m, k+1, v)).
    """
    _count("poch_deriv", m=m, k=k)
    alpha = _coerce(alpha)
    if k > m:
        return _ZERO
    return _dual_rule(_POCH_DISPATCH[_as_method(method, PochMethod)], alpha, m, k, k < m)


# -- derivatives of the reciprocal -------------------------------------------


def _recip_deriv_recurrence(beta, m, k):
    # Q(m+1, k) = (Q(m, k) - Q(m+1, k-1)) / (beta + m), filled k-ascending.
    factor = _int_factor(beta, _ONE)
    row = _unit_row(k + 1)
    for j in range(m):
        row = _recip_step(row, factor, j, k + 1)
    return _entry(row, k)


def _recip_deriv_closed_sum(beta, m, k):
    # (-1)**k sum((-1)**l / (l! (m-1-l)! (beta + l)**(k+1)), l = 0..m-1).  For
    # beta = p/q, 1/(l! (m-1-l)!) = C(m-1, l)/(m-1)! and 1/(beta + l) = q/(p + l*q),
    # so (m-1)! and q**(k+1) stay out of the lcm.
    if m == 0:
        return _ONE if k == 0 else _ZERO
    p, q = beta.numerator, beta.denominator
    terms, binom = [], 1
    for l in range(m):
        terms.append(((-1) ** l * binom, (p + l * q) ** (k + 1)))
        binom = binom * (m - 1 - l) // (l + 1)
    inner = _int_sum(terms)
    return Fraction(
        (-1) ** k * inner.numerator * q ** (k + 1), inner.denominator * math.factorial(m - 1)
    )


def _recip_deriv_delta_form(beta, m, k):
    # 1/(beta+eps)_m = exp(sum_r (-eps)^r H_r / r) / (beta)_m, with the power sums
    # H_r = sum_{j<m} (beta+j)^-r = q^r sum_j (p + j*q)^-r at beta = p/q; the
    # exponential's coefficients g_n follow from n g_n = sum_{r=1..n} (-1)^r H_r g_{n-r}.
    p, q = beta.numerator, beta.denominator
    signed = [_ZERO]  # signed[r] = (-1)^r H_r
    for r in range(1, k + 1):
        signed.append((-q) ** r * _int_sum([(1, (p + j * q) ** r) for j in range(m)]))
    g = [_ONE]
    for n in range(1, k + 1):
        g.append(sum((signed[r] * g[n - r] for r in range(1, n + 1)), _ZERO) / n)
    return g[k] / pochhammer(beta, m)


def _recip_deriv_oracle(beta, m, k):
    return series_invert(_linear_product(beta, m, k)).coefficient(k)


_RECIP_DISPATCH = {
    RecipMethod.RECURRENCE: _recip_deriv_recurrence,
    RecipMethod.CLOSED_SUM: _recip_deriv_closed_sum,
    RecipMethod.DELTA_FORM: _recip_deriv_delta_form,
    RecipMethod.SERIES_ORACLE: _recip_deriv_oracle,
}


def recip_poch_deriv(beta, m: int, k: int, method=RecipMethod.CLOSED_SUM):
    """Q(m, k, beta): the k-th derivative of 1/(beta)_m divided by k!.

    A Fraction, except at a Dual beta = v + d*delta and m >= 1, where every
    method gives Dual(Q(m, k, v), d*(k+1)*Q(m, k+1, v)); a pole at v is a PoleError.
    """
    _count("recip_poch_deriv", m=m, k=k)
    beta = _coerce(beta)
    l = _vanishing_shift(beta, m)
    if l is not None:
        raise PoleError(
            f"1/(beta)_{m} has a pole at beta = {beta}: factor beta + {l} vanishes", index=l
        )
    return _dual_rule(_RECIP_DISPATCH[_as_method(method, RecipMethod)], beta, m, k, m > 0)


def recip_poch_laurent(n: int, b, m: int, order: int) -> EpsSeries:
    """Laurent expansion of 1/(-n + b*eps)_m around eps = 0 (simple pole).

    Requires m > n >= 0 and b != 0; the factor at shift n is exactly b*eps,
    and the remaining factors split into (1 - b*eps)_n and (1 + b*eps)_{m-n-1}.
    """
    _count("recip_poch_laurent", n=n, m=m)
    _count("recip_poch_laurent", -1, order=order)
    b = _coerce(b)
    if _vanishing_shift(b, 1) is not None:  # a zero value part
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
