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

Integer rows.  The expansion engine, these products and inverses, and the
closed forms compute on one encoding of a run of coefficients, the row (den,
val, der, mask): coefficient i is val[i]/den, or the Dual with delta-part
der[i]/den where bit i of the int mask is set; der is None when mask is 0.
`_int_row` builds a row by one lcm, `_product` convolves two by the product
rule, and only `_entries` turns a row into Fractions and Duals, one gcd per
part, in place of a gcd per Fraction multiply-add.  Each route sets mask by
its own rule: here an entry is a Dual exactly where the Fraction/Dual
computation that skips zero coefficients would make one (rules at
`EpsSeries.__mul__` and `series_invert`), and an all-zero series is stored
as Fractions.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import attrgetter, mul
from typing import Iterable

from .duals import Dual
from .errors import DomainError, ParseError, ZeroSeries

_ZERO = Fraction(0)

_RATIONAL_RE = re.compile(r"^-?[0-9]+(?:/[0-9]+)?$")
# The most digits `parse_rational` reads in `p` or `q`: Python's default
# int<->str limit, fixed here so that no process setting moves it.
_MAX_DIGITS = 4300


def parse_rational(text: str) -> Fraction:
    """Parse `p` or `p/q` (decimal digits, optional leading minus), each part
    at most 4,300 digits long."""
    _typed("parse_rational", str, text=text)
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
    `rational`, a Dual.  Anything else, a float or a bool above all, is a
    DomainError."""
    if isinstance(value, int) and not isinstance(value, bool):
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
    """Refuse each of `counts` that is not an int >= low (a bool is not a count),
    naming `where`, the count and the value.  Every public length, order and
    index goes through here."""
    for name, value in counts.items():
        if type(value) is int and value >= low:
            continue
        if not isinstance(value, int) or isinstance(value, bool) or value < low:
            raise DomainError(f"{where} needs an integer {name} >= {low}, got {value!r}")


def _signed(where: str, **exponents) -> None:
    """Refuse each of `exponents` that is not an int of either sign (a bool is
    not an exponent), naming `where`, the argument and the value.  Every
    exponent and shift goes through here."""
    for name, value in exponents.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise DomainError(f"{where} needs an integer {name}, got {value!r}")


def _iterable(where: str, values, what: str = "coefficients"):
    """An iterator over `values`, or a DomainError naming `where`, `what` it
    needs an iterable of, and the argument."""
    try:
        return iter(values)
    except TypeError:
        raise DomainError(f"{where} needs an iterable of {what}, got {values!r}") from None


def _typed(where: str, kind: type, **values) -> None:
    """Refuse each of `values` that is not a `kind`, naming `where`, the type, the
    argument and the value.  Every public argument that must be a package type
    or a text goes through here."""
    for name, value in values.items():
        if not isinstance(value, kind):
            article = "an" if kind.__name__[0] in "AEIOU" else "a"
            raise DomainError(f"{where} needs {article} {kind.__name__} {name}, got {value!r}")


def _shared(calls: dict, build, *args):
    """build(*args), computed once per `calls` dict and keyed (build, *args): a
    repeated call returns the same object, which no caller changes.  The dict
    belongs to one public call and is dropped when it returns."""
    key = (build, *args)
    try:
        return calls[key]
    except KeyError:
        value = calls[key] = build(*args)
        return value


class _Record:
    """The base of the public records: each has the repr, `==`, hash and
    `__match_args__` of a dataclass, refuses assignment to and deletion of its
    fields, and uses no `dataclasses`.

    A record's fields are the parameters of its `__init__`, which checks them and
    passes their values, in order, to `_store`, the one place a field is set.  A
    record hashes as the tuple of its fields, so one holding a dict or a `Dual`
    is unhashable.  Copies and pickles restore the fields unchecked.
    """

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls.__match_args__ = code.co_varnames[1 : code.co_argcount]
        # Every record has at least two fields, so this getter returns a tuple.
        cls._fields = attrgetter(*cls.__match_args__)

    def _store(self, *values) -> None:
        for name, value in zip(self.__match_args__, values, strict=True):
            object.__setattr__(self, name, value)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _int_row(coeffs) -> tuple:
    """A nonempty run of Fractions and Duals as a row over one lcm.  Bit i of mask
    marks a nonzero Dual: a Dual(0, 0) counts as a zero Fraction."""
    if Dual not in set(map(type, coeffs)):
        ratios = [c.as_integer_ratio() for c in coeffs]
        den = math.lcm(*(d for _, d in ratios))
        return den, [n * (den // d) for n, d in ratios], None, 0
    mask = sum(1 << i for i, c in enumerate(coeffs) if isinstance(c, Dual) and c)
    parts = [(c.val, c.der) if isinstance(c, Dual) else (c, _ZERO) for c in coeffs]
    den = math.lcm(*(x.denominator for pair in parts for x in pair))
    val = [v.numerator * (den // v.denominator) for v, _ in parts]
    der = [w.numerator * (den // w.denominator) for _, w in parts]
    return den, val, der if mask else None, mask


def _convolve(a: list, b: list) -> list:
    """The first len(a) coefficients of the product of two integer lists of equal length."""
    rb = b[::-1]
    return [sum(map(mul, a, rb[-n:])) for n in range(1, len(a) + 1)]


def _product(a: tuple, b: tuple) -> tuple:
    """The product of two rows, or of their (den, val, der), of equal length, to
    that length: (den, val, der), der by the product rule or None.  The caller
    sets the mask by its route's rule."""
    (den_a, x, dx), (den_b, y, dy) = a[:3], b[:3]
    der = None
    if dx is not None or dy is not None:
        zero = [0] * len(x)
        der = [s + t for s, t in zip(_convolve(x, dy or zero), _convolve(dx or zero, y))]
    return den_a * den_b, _convolve(x, y), der


def _entries(row: tuple) -> list:
    """Every coefficient of a row: a Fraction, or a Dual where its mask bit is set."""
    den, val, der, mask = row
    if der is None:
        return [Fraction(x, den) for x in val]
    return [
        Dual(Fraction(x, den), Fraction(y, den)) if mask >> i & 1 else Fraction(x, den)
        for i, (x, y) in enumerate(zip(val, der))
    ]


class EpsSeries:
    """Truncated Laurent series sum(c_e * eps**e, min_exponent <= e <= max_exponent).

    Instances are immutable and normalized: leading zero coefficients at
    negative exponents are stripped, and an all-zero series is stored with
    min_exponent = min(0, max_exponent).  Coefficients are Fractions or
    `pochex.duals.Dual`s.

    Window rules, with p_a the leading exponent of a (min_exponent when a is
    all zero): a + b knows exponents up to min(max_a, max_b); a * b starts at
    p_a + p_b and knows exponents up to min(max_a + p_b, max_b + p_a).
    """

    __slots__ = ("_min", "_coeffs")

    def __init__(self, coefficients: Iterable, min_exponent: int = 0):
        _signed("EpsSeries", min_exponent=min_exponent)
        coeffs = [_coerce(c) for c in _iterable("EpsSeries", coefficients)]
        if not coeffs:
            raise DomainError("a series needs at least one coefficient in its window")
        self._normalize(coeffs, min_exponent)

    @staticmethod
    def _of(coeffs: list, min_exponent: int) -> "EpsSeries":
        """The series of a nonempty list of Fractions and Duals, unchecked."""
        series = object.__new__(EpsSeries)
        series._normalize(coeffs, min_exponent)
        return series

    def _normalize(self, coeffs: list, min_exponent: int) -> None:
        max_exp = min_exponent + len(coeffs) - 1
        if not any(coeffs):
            # Canonical zero: the window starts at min(0, max_exp) and keeps max_exp.
            self._min = min(0, max_exp)
            self._coeffs = (_ZERO,) * (max_exp - self._min + 1)
            return
        while min_exponent < 0 and not coeffs[0]:
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

    def _lead_index(self) -> int:
        """The index of the lowest nonzero coefficient, or 0 when all are zero."""
        for i, c in enumerate(self._coeffs):
            if c:
                return i
        return 0

    def leading_exponent(self):
        """Exponent of the lowest known nonzero coefficient, or None if all zero."""
        i = self._lead_index()
        return self._min + i if self._coeffs[i] else None

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

    def __neg__(self):
        return EpsSeries([-c for c in self._coeffs], self._min)

    def __mul__(self, other):
        """The product, with window [p_a + p_b, min(max_a + p_b, max_b + p_a)].

        Cost: one lcm per operand (`_int_row`), then an integer convolution
        over the window (`_product`) and one Fraction, so one gcd, per
        coefficient.  An entry is a Dual exactly where some term of its sum
        pairs two nonzero coefficients, at least one of them a Dual: the entries
        of the Fraction/Dual product that skips zero coefficients.
        """
        if not isinstance(other, EpsSeries):
            return NotImplemented
        ia, ib = self._lead_index(), other._lead_index()
        width = min(len(self._coeffs) - ia, len(other._coeffs) - ib)
        row_a = _int_row(self._coeffs[ia : ia + width])
        row_b = _int_row(other._coeffs[ib : ib + width])
        den, val, der = _product(row_a, row_b)
        mask = 0
        if der is not None:
            # A nonzero Dual at i makes a Dual of entry i + j for each nonzero
            # coefficient j of the other operand: its nonzero bits shifted by i.
            for (_, _, _, dual), (_, y, _, other_dual) in ((row_a, row_b), (row_b, row_a)):
                nonzero = other_dual | sum(1 << j for j, v in enumerate(y) if v)
                for i in range(width):
                    if dual >> i & 1:
                        mask |= nonzero << i
            mask &= (1 << width) - 1
        row = den, val, der if mask else None, mask
        return EpsSeries._of(_entries(row), self._min + ia + other._min + ib)

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


def polynomial_series(coefficients: Iterable, order: int) -> EpsSeries:
    """Series for an exact polynomial (constant term first), window [0, order].

    The caller asserts the list is the complete polynomial, so padding with
    zeros up to `order` is justified.
    """
    _count("polynomial_series", order=order)
    coeffs = [_coerce(c) for c in _iterable("polynomial_series", coefficients)]
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

    Cost: one lcm (`_int_row`) puts u_i = U_i/d over one denominator; then
    v_n = d*W_n / U_0**(n+1) with the integer recurrence W_0 = 1,
    W_n = -sum(U_i * W_(n-i) * U_0**(i-1), i = 1..n), and one Fraction, so one
    gcd, per coefficient.  A Dual's delta-part is -V**2 * D/d (D the
    delta-part numerators), whose entry n is d*X_n / U_0**(n+2) with
    X = -sum(D_i * U_0**i * (W*W)_(n-i)).  An entry is a Dual exactly where
    the Fraction/Dual recurrence would give one: every entry if the lead is a
    Dual, otherwise entry n iff some u_i with 1 <= i <= n is a nonzero Dual.
    """
    if not isinstance(a, EpsSeries):
        raise DomainError(f"series_invert needs an EpsSeries, got {a!r}")
    p = a.leading_exponent()
    if p is None:
        raise ZeroSeries(
            "cannot invert a series with no known nonzero coefficient "
            f"(window [{a.min_exponent}, {a.max_exponent}])"
        )
    u = a.coefficients[p - a.min_exponent :]
    if isinstance(u[0], Dual) and u[0].val == 0:
        raise DomainError(
            "series_invert needs a lead with a nonzero value part; "
            f"the coefficient of eps^{p} is {u[0]!r}"
        )
    d, U, D, mask = _int_row(u)
    lead = U[0]
    powers = [1]  # powers[n] = lead**n
    for _ in U:
        powers.append(powers[-1] * lead)
    scaled = [x * y for x, y in zip(U[1:], powers)]  # U_i * lead**(i-1)
    W = [1]
    for _ in U[1:]:
        W.append(-sum(map(mul, scaled, reversed(W))))
    if D is None:
        return EpsSeries._of([Fraction(d * w, y) for w, y in zip(W, powers[1:])], -p)
    X = _convolve([-x * y for x, y in zip(D, powers)], _convolve(W, W))
    powers.append(powers[-1] * lead)
    first = (mask & -mask).bit_length() - 1  # from the lowest nonzero Dual on, a Dual
    return EpsSeries._of(
        [
            Dual(Fraction(d * w, y), Fraction(d * x, z)) if n >= first else Fraction(d * w, y)
            for n, (w, x, y, z) in enumerate(zip(W, X, powers[1:], powers[2:]))
        ],
        -p,
    )
