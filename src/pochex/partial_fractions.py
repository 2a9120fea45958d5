"""Partial-fraction decomposition of quotients of rising factorials.

A quotient  prod (A_p + a_p eps)_{m_p} / prod (B_q + b_q eps)_{n_q}  whose
numerator eps-degree does not exceed its denominator eps-degree, and whose
denominator poles are simple, splits into a constant plus simple-pole terms
C / (B_q + j_q + b_q eps).  The k-th normalized derivative of the quotient
is then a single finite sum over those poles; `quotient_deriv` takes that
route for a single-factor quotient, peeling off any excess numerator degree
first.

`decompose_multi` is the one decomposition: a single factor pair (num)_m /
(den)_n is `decompose_multi(PochProductQuotient([(num, m)], [(den, n)]))`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .duals import Dual
from .errors import DegreeError, DomainError, PoleError, RepeatedRoot
from .pochhammer import LinearParam, _vanishing_shift, poch_deriv, pochhammer
from .series import _coerce, _count, _iterable, _Record, _typed

_ZERO = Fraction(0)
_ONE = Fraction(1)


class PFTerm(_Record):
    """One simple-pole contribution: coefficient / (pole_constant + pole_slope*eps).

    Each field is an exact scalar: an int becomes a Fraction, and a Dual is kept.
    """

    def __init__(self, coefficient: Fraction, pole_constant: Fraction, pole_slope: Fraction):
        self._store(_coerce(coefficient), _coerce(pole_constant), _coerce(pole_slope))

    @property
    def pole_location(self) -> Fraction:
        if self.pole_slope == 0:
            raise DomainError(f"term {self} has pole slope 0, so it has no pole")
        return -self.pole_constant / self.pole_slope

    def __str__(self):
        """The term with its sign, e.g. `-5/2/(3/2-eps)`."""
        s = self.pole_slope
        if s == 1 or s == -1:
            slope = "+eps" if s == 1 else "-eps"
        else:
            # A Dual has no sign: a Dual slope is printed whole, after "+".
            slope = f"{s}*eps" if not isinstance(s, Dual) and s < 0 else f"+{s}*eps"
        return f"{self.coefficient}/({self.pole_constant}{slope})"


class PartialFractionForm(_Record):
    """constant + sum of PFTerms, the whole thing times a scalar prefactor.

    constant and scalar are exact scalars, as a PFTerm's fields are; terms is an
    iterable of PFTerms, kept as a tuple.
    """

    def __init__(self, constant: Fraction, terms: tuple, scalar: Fraction = _ONE):
        constant = _coerce(constant)
        terms = tuple(_iterable("PartialFractionForm", terms, "PFTerm terms"))
        for term in terms:
            _typed("PartialFractionForm", PFTerm, term=term)
        self._store(constant, terms, _coerce(scalar))

    def __str__(self):
        """Human-readable sum, e.g. `2/(1+eps) - 3/(2+eps)`."""
        pieces = [str(self.constant)] if self.constant != 0 or not self.terms else []
        pieces += map(str, self.terms)
        # Only a term with a negative (so not a Dual) coefficient starts with "-".
        text = pieces[0] + "".join(
            f" - {p[1:]}" if p[0] == "-" else f" + {p}" for p in pieces[1:]
        )
        if self.scalar != 1:
            return f"{self.scalar}*({text})"
        return text


def _factors(side) -> list:
    """The (LinearParam, length) pairs of one side of a quotient, each checked."""
    what = "(LinearParam, length) factors"
    factors = list(_iterable("PochProductQuotient", side, what))
    for factor in factors:
        if not (isinstance(factor, (tuple, list)) and len(factor) == 2):
            raise DomainError(f"PochProductQuotient needs {what}, got {factor!r}")
        _typed("PochProductQuotient", LinearParam, param=factor[0])
        _count("PochProductQuotient", length=factor[1])
    return factors


class PochProductQuotient:
    """A quotient of products of rising factorials with linear-in-eps arguments.

    Zero-slope factors are evaluated and folded into `.scalar` at construction
    (they contribute no eps-dependence); the remaining factors must satisfy the
    degree condition sum(m_p) <= sum(n_q), and a remaining denominator factor
    must be rational, since its poles are.
    """

    __slots__ = ("numer", "denom", "scalar")

    def __init__(self, numer=(), denom=()):
        numer, denom = _factors(numer), _factors(denom)
        scalar = _ONE
        kept_num = []
        for param, length in numer:
            if param.slope == 0 or length == 0:
                scalar *= pochhammer(param.constant, length)
            else:
                kept_num.append((param, length))
        kept_den = []
        for q, (param, length) in enumerate(denom):
            if param.slope == 0 or length == 0:
                j = _vanishing_shift(param.constant, length)
                if j is not None:
                    raise PoleError(
                        f"slope-free denominator factor ({param.constant})_{length} "
                        f"vanishes identically (shift {j})",
                        index=j,
                        factor=q,
                    )
                scalar /= pochhammer(param.constant, length)
            elif isinstance(param.constant, Dual) or isinstance(param.slope, Dual):
                raise DomainError(
                    f"denominator factor {q}, ({param.constant} + {param.slope}*eps)_{length}, "
                    "has a Dual part: its pole locations must be rational"
                )
            else:
                kept_den.append((param, length))
        num_degree = sum(m for _, m in kept_num)
        den_degree = sum(n for _, n in kept_den)
        if num_degree > den_degree:
            raise DegreeError(
                f"numerator eps-degree {num_degree} exceeds denominator "
                f"eps-degree {den_degree}; reduce the excess first"
            )
        self.numer = tuple(kept_num)
        self.denom = tuple(kept_den)
        self.scalar = scalar

    def __repr__(self):
        return (
            f"PochProductQuotient(numer={list(self.numer)}, "
            f"denom={list(self.denom)}, scalar={self.scalar})"
        )


def decompose_multi(quotient: PochProductQuotient) -> PartialFractionForm:
    """Decompose a multi-factor quotient over the union of its simple poles.

    Every pole (B_q + j_q)/(-b_q) must be distinct across all denominator
    factors and shifts; collisions raise RepeatedRoot naming the pairs.
    """
    _typed("decompose_multi", PochProductQuotient, quotient=quotient)
    poles = []  # (q, j, location)
    for q, (param, length) in enumerate(quotient.denom):
        for j in range(length):
            poles.append((q, j, -(param.constant + j) / param.slope))
    by_location: dict[Fraction, tuple] = {}
    collisions = []
    for q, j, loc in poles:
        if loc in by_location:
            collisions.append((by_location[loc], (q, j), loc))
        else:
            by_location[loc] = (q, j)
    if collisions:
        spots = "; ".join(
            f"factors {a} and {b} both vanish at eps = {loc}" for a, b, loc in collisions
        )
        raise RepeatedRoot(f"repeated denominator root: {spots}", collisions=collisions)

    num_degree = sum(m for _, m in quotient.numer)
    den_degree = sum(n for _, n in quotient.denom)
    if num_degree == den_degree:
        constant = _ONE
        for param, m in quotient.numer:
            constant *= param.slope**m
        for param, n in quotient.denom:
            constant /= param.slope**n
    else:
        constant = _ZERO

    terms = []
    for q, (den_q, n_q) in enumerate(quotient.denom):
        b_q = den_q.slope
        for j in range(n_q):
            root = den_q.constant + j  # the pole sits where B_q + j + b_q*eps = 0
            c = Fraction((-1) ** j, math.factorial(j) * math.factorial(n_q - 1 - j))
            for param, m_p in quotient.numer:
                c *= pochhammer(param.constant - (param.slope / b_q) * root, m_p)
            for kk, (den_k, n_k) in enumerate(quotient.denom):
                if kk == q:
                    continue
                c /= pochhammer(den_k.constant - (den_k.slope / b_q) * root, n_k)
            terms.append(PFTerm(c, root, b_q))
    return PartialFractionForm(constant, tuple(terms), quotient.scalar)


def pf_derivative(form: PartialFractionForm, k: int, at_eps=0) -> Fraction:
    """(1/k!) d^k/deps^k of the decomposed quotient, evaluated at eps = at_eps."""
    _typed("pf_derivative", PartialFractionForm, form=form)
    _count("pf_derivative", k=k)
    at_eps = _coerce(at_eps)
    acc = form.constant if k == 0 else _ZERO
    for i, t in enumerate(form.terms):
        denominator = t.pole_constant + t.pole_slope * at_eps
        if _vanishing_shift(denominator, 1) is not None:  # a zero value part
            raise PoleError(
                f"term {t} has its pole at eps = {at_eps}",
                index=i,
            )
        acc += (-t.pole_slope) ** k * t.coefficient / denominator ** (k + 1)
    return form.scalar * acc


def quotient_deriv(
    num: LinearParam, m: int, den: LinearParam, n: int, k: int, at_eps=0
):
    """(1/k!) d^k/deps^k [ (num)_m / (den)_n ] evaluated at eps = at_eps."""
    _typed("quotient_deriv", LinearParam, num=num, den=den)
    _count("quotient_deriv", m=m, n=n, k=k)
    at_eps = _coerce(at_eps)
    j = _vanishing_shift(den.at(at_eps), n)
    if j is not None:
        raise PoleError(
            f"denominator factor {den.constant + j} + {den.slope}*eps vanishes at eps = {at_eps}",
            index=j,
        )
    if den.slope == 0:
        # Constant denominator: differentiate the numerator polynomial directly.
        value = num.slope**k * poch_deriv(num.at(at_eps), m, k)
        return value / pochhammer(den.constant, n)
    # Peel off the excess numerator degree (num)_excess, decompose the rest and
    # apply the product rule; with no excess it is the single term k1 = 0.
    excess = max(m - n, 0)
    form = decompose_multi(PochProductQuotient([(num.shifted(excess), m - excess)], [(den, n)]))
    acc, power = _ZERO, _ONE  # power = num.slope**k1
    for k1 in range(k + 1):
        left = power * poch_deriv(num.at(at_eps), excess, k1)
        power *= num.slope
        if left == 0:
            continue
        acc += left * pf_derivative(form, k - k1, at_eps)
    return acc
