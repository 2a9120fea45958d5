"""First-order dual numbers over exact rationals.

A Dual carries a value and the derivative of that value with respect to one
formal perturbation, so running an exact computation on Dual inputs yields
the exact derivative alongside the result.  The operator surface matches
what EpsSeries needs from its scalars, so series arithmetic works over
Duals unchanged.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError

_RATIONAL = (int, Fraction)


def _lift(x):
    if isinstance(x, Dual):
        return x
    if isinstance(x, _RATIONAL):
        return Dual(Fraction(x))
    return None


class Dual:
    __slots__ = ("val", "der")

    def __init__(self, val, der=0):
        # Each part must be rational, and a bool is not.  One exact type test per
        # part: every Dual result is built here, and calling series._coerce would
        # cost each one a call.
        if type(val) not in _RATIONAL or type(der) not in _RATIONAL:
            from .series import _coerce  # imported here: series imports this module

            _coerce(val, rational=True)
            _coerce(der, rational=True)
        # A part that is exactly a Fraction is kept as it is: Fractions are
        # immutable, and Fraction(x) of one would rebuild it through the
        # numbers.Rational checks.  An int or a Fraction subclass becomes a
        # plain Fraction.
        self.val = val if type(val) is Fraction else Fraction(val)
        self.der = der if type(der) is Fraction else Fraction(der)

    def __repr__(self):
        return f"Dual({self.val}, {self.der})"

    def __bool__(self):
        return self.val != 0 or self.der != 0

    def __eq__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        return self.val == o.val and self.der == o.der

    __hash__ = None

    def __neg__(self):
        return Dual(-self.val, -self.der)

    def __add__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        return Dual(self.val + o.val, self.der + o.der)

    __radd__ = __add__

    def __sub__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        return Dual(self.val - o.val, self.der - o.der)

    def __rsub__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        return Dual(o.val - self.val, o.der - self.der)

    def __mul__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        return Dual(self.val * o.val, self.val * o.der + self.der * o.val)

    __rmul__ = __mul__

    def _inverse(self):
        if self.val == 0:
            raise DomainError(f"{self!r} has a zero value part and no inverse")
        inv = 1 / self.val
        return Dual(inv, -self.der * inv * inv)

    def __truediv__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        return o * self._inverse()

    def __pow__(self, n):
        # The power rule: (v + d*eps)**n = v**n + n*v**(n-1)*d*eps.
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return Dual(1)
        if n < 0 and self.val == 0:
            self._inverse()  # raises the DomainError of a zero value part
        return Dual(self.val**n, n * self.val ** (n - 1) * self.der)
