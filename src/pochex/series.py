"""Exact rational scalars and truncated Laurent series in one variable.

Scalars are `fractions.Fraction` values; they are always stored reduced
with a positive denominator, and `str()` renders them in the package's
bit-exact text format (`-3/4`, `0`, `12`).  `parse_rational` is the strict
inverse of that rendering.

`EpsSeries` is a truncated Laurent series: coefficients are known exactly
from `min_exponent` through `max_exponent` (inclusive), are exactly zero
below `min_exponent`, and are unknown above `max_exponent`.  Arithmetic
never reports a coefficient the operands cannot justify, which is why the
truncation order of a result depends on the pole depths of the inputs.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable

from .duals import Dual
from .errors import DomainError, ParseError, ZeroSeries

_ZERO = Fraction(0)
_ONE = Fraction(1)

_RATIONAL_RE = re.compile(r"^-?[0-9]+(?:/[0-9]+)?$")
# The most digits `parse_rational` reads in `p` or `q`: Python's default
# int<->str limit, fixed here so that no process setting moves it.
_MAX_DIGITS = 4300


def parse_rational(text: str) -> Fraction:
    """Parse `p` or `p/q` (decimal digits, optional leading minus), each part
    at most 4,300 digits long."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ParseError(f"{text!r} is not a rational literal")
    num, _, den = s.partition("/")
    digits = max(len(num.lstrip("-")), len(den))
    if digits > _MAX_DIGITS:
        raise ParseError(
            f"a rational literal with a {digits}-digit part exceeds the {_MAX_DIGITS}-digit limit"
        )
    if den:
        if int(den) == 0:
            raise ParseError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(num))


def _coerce(value, rational: bool = False):
    """An exact scalar argument: an int (made a Fraction), a Fraction or, unless
    `rational`, a Dual.  Anything else, a float above all, is a DomainError."""
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction) or (isinstance(value, Dual) and not rational):
        return value
    if isinstance(value, float):
        raise DomainError(f"inexact float {value!r}; pass an int or a Fraction")
    kind = "a rational" if rational else "an exact scalar"
    raise DomainError(f"{value!r} is not {kind}; pass an int or a Fraction")


def _int_sum(pairs: list) -> Fraction:
    """sum(n/d) over a list of integer pairs (n, d) with d != 0, as a Fraction
    (the empty sum is 0).

    The numerators are summed over the lcm of the denominators and reduced by
    one gcd, instead of taking a gcd per Fraction addition (Knuth, TAOCP vol. 2,
    section 4.5.1).  The harmonic sums, Miller's power recurrence, the
    generalized Bernoulli polynomials and the `closed_sum` and `delta_form`
    Q-methods sum through here.
    """
    lcm = math.lcm(*(d for _, d in pairs))
    return Fraction(sum(n * (lcm // d) for n, d in pairs), lcm)


def _count(where: str, low: int = 0, **counts) -> None:
    """Refuse each of `counts` that is not an int >= low, naming `where`, the count
    and the value.  Every public length, order and index goes through here."""
    for name, value in counts.items():
        if not isinstance(value, int) or value < low:
            raise DomainError(f"{where} needs an integer {name} >= {low}, got {value!r}")


def _signed(where: str, **exponents) -> None:
    """Refuse each of `exponents` that is not an int of either sign, naming `where`,
    the argument and the value.  Every exponent and shift goes through here."""
    for name, value in exponents.items():
        if not isinstance(value, int):
            raise DomainError(f"{where} needs an integer {name}, got {value!r}")


class EpsSeries:
    """Truncated Laurent series sum(c_e * eps**e, min_exponent <= e <= max_exponent).

    Instances are immutable and normalized: leading zero coefficients at
    negative exponents are stripped, and an all-zero series is stored with
    min_exponent = min(0, max_exponent).  Coefficients are Fractions (or any
    exact field scalar with the same operator surface, such as
    `pochex.duals.Dual`).

    Window rules, with p_a the leading exponent of a (min_exponent when a is
    all zero): a + b knows exponents up to min(max_a, max_b); a * b starts at
    p_a + p_b and knows exponents up to min(max_a + p_b, max_b + p_a).
    """

    __slots__ = ("_min", "_coeffs")

    def __init__(self, coefficients: Iterable, min_exponent: int = 0):
        _signed("EpsSeries", min_exponent=min_exponent)
        coeffs = [_coerce(c) for c in coefficients]
        if not coeffs:
            raise DomainError("a series needs at least one coefficient in its window")
        max_exp = min_exponent + len(coeffs) - 1
        if all(c == 0 for c in coeffs):
            # Canonical zero: the window starts at min(0, max_exp) and keeps max_exp.
            self._min = min(0, max_exp)
            self._coeffs = (_ZERO,) * (max_exp - self._min + 1)
            return
        while min_exponent < 0 and coeffs[0] == 0:
            del coeffs[0]
            min_exponent += 1
        self._min = min_exponent
        self._coeffs = tuple(coeffs)

    # -- window -----------------------------------------------------------

    @property
    def min_exponent(self) -> int:
        return self._min

    @property
    def max_exponent(self) -> int:
        return self._min + len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple:
        return self._coeffs

    def _get(self, exponent: int):
        if exponent < self._min:
            return _ZERO
        return self._coeffs[exponent - self._min]

    def coefficient(self, exponent: int):
        """Coefficient of eps**exponent; exact zero below the window, error above it."""
        _signed("EpsSeries.coefficient", exponent=exponent)
        if exponent > self.max_exponent:
            raise DomainError(
                f"coefficient at exponent {exponent} lies above the truncation "
                f"order {self.max_exponent}"
            )
        return self._get(exponent)

    def leading_exponent(self):
        """Exponent of the lowest known nonzero coefficient, or None if all zero."""
        for i, c in enumerate(self._coeffs):
            if c != 0:
                return self._min + i
        return None

    def is_zero(self) -> bool:
        return self.leading_exponent() is None

    # -- basic reshaping ---------------------------------------------------

    def truncated(self, new_max: int) -> "EpsSeries":
        """Forget coefficients above new_max (never extends the window)."""
        _signed("EpsSeries.truncated", new_max=new_max)
        if new_max >= self.max_exponent:
            return self
        if new_max < self._min:
            return EpsSeries([_ZERO], new_max)
        return EpsSeries(self._coeffs[: new_max - self._min + 1], self._min)

    def shifted(self, offset: int) -> "EpsSeries":
        """Multiply by eps**offset (exact)."""
        _signed("EpsSeries.shifted", offset=offset)
        return EpsSeries(self._coeffs, self._min + offset)

    def scaled(self, factor) -> "EpsSeries":
        factor = _coerce(factor)
        return EpsSeries([factor * c for c in self._coeffs], self._min)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, EpsSeries):
            return NotImplemented
        new_min = min(self._min, other._min)
        new_max = min(self.max_exponent, other.max_exponent)
        coeffs = [self._get(e) + other._get(e) for e in range(new_min, new_max + 1)]
        return EpsSeries(coeffs, new_min)

    def __sub__(self, other):
        if not isinstance(other, EpsSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return EpsSeries([-c for c in self._coeffs], self._min)

    def __mul__(self, other):
        if not isinstance(other, EpsSeries):
            return NotImplemented
        # The product window is limited by each operand's truncation shifted
        # by the other's leading exponent.
        pa = self.leading_exponent()
        pb = other.leading_exponent()
        pa = self._min if pa is None else pa
        pb = other._min if pb is None else pb
        new_min = pa + pb
        new_max = min(self.max_exponent + pb, other.max_exponent + pa)
        out = [_ZERO] * (new_max - new_min + 1)
        for i, ca in enumerate(self._coeffs):
            if ca == 0:
                continue
            ea = self._min + i
            for j, cb in enumerate(other._coeffs):
                if cb == 0:
                    continue
                e = ea + other._min + j
                if e > new_max:
                    break
                out[e - new_min] = out[e - new_min] + ca * cb
        return EpsSeries(out, new_min)

    def __eq__(self, other):
        if not isinstance(other, EpsSeries):
            return NotImplemented
        if self.max_exponent != other.max_exponent:
            return False
        lo = min(self._min, other._min)
        return all(
            self._get(e) == other._get(e) for e in range(lo, self.max_exponent + 1)
        )

    __hash__ = None

    def __repr__(self):
        terms = []
        for i, c in enumerate(self._coeffs):
            e = self._min + i
            if c == 0 and len(self._coeffs) > 1:
                continue
            if e == 0:
                terms.append(f"{c}")
            elif e == 1:
                terms.append(f"{c}*eps")
            else:
                terms.append(f"{c}*eps^{e}")
        body = " + ".join(terms) if terms else "0"
        return f"EpsSeries({body} + O(eps^{self.max_exponent + 1}))"

    # -- constructors --------------------------------------------------------

    @staticmethod
    def constant(value, order: int = 0) -> "EpsSeries":
        _count("EpsSeries.constant", order=order)
        return EpsSeries([_coerce(value)] + [_ZERO] * order, 0)

    @staticmethod
    def one(order: int = 0) -> "EpsSeries":
        return EpsSeries.constant(_ONE, order)


def polynomial_series(coefficients: Iterable, order: int) -> EpsSeries:
    """Series for an exact polynomial (constant term first), window [0, order].

    The caller asserts the list is the complete polynomial, so padding with
    zeros up to `order` is justified.
    """
    _count("polynomial_series", order=order)
    coeffs = [_coerce(c) for c in coefficients]
    if len(coeffs) < order + 1:
        coeffs = coeffs + [_ZERO] * (order + 1 - len(coeffs))
    else:
        coeffs = coeffs[: order + 1]
    return EpsSeries(coeffs, 0)


def series_invert(a: EpsSeries) -> EpsSeries:
    """Multiplicative inverse.

    If the lowest known nonzero coefficient sits at exponent p, the result
    window is [-p, max_exponent - 2p]: relative precision is preserved and
    inverting twice restores the original window.
    """
    p = a.leading_exponent()
    if p is None:
        raise ZeroSeries(
            "cannot invert a series with no known nonzero coefficient "
            f"(window [{a.min_exponent}, {a.max_exponent}])"
        )
    u = list(a.coefficients[p - a.min_exponent :])
    lead = u[0]
    v = [1 / lead]
    for n in range(1, len(u)):
        acc = _ZERO
        for i in range(1, n + 1):
            if u[i] != 0:
                acc = acc + u[i] * v[n - i]
        v.append(-acc / lead)
    return EpsSeries(v, -p)
