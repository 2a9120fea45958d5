"""Exact eps-expansion of double hypergeometric-style series.

A `HyperTermSpec` describes the general term of a double series: products of
rising factorials whose arguments are linear in eps and whose lengths are
affine in the summation indices (m1, m2), divided by the same kind of
product, with x1**m1 x2**m2 / (m1! m2!) implicit.  `expand_general` expands
every lattice point exactly and tabulates the coefficient of
eps**k x1**m1 x2**m2.

Cost model of `expand_general` at eps order K: the term, truncated at
eps**K, is walked across the lattice by its ratio as one integer row (see
`series`) of K + 1 numerators over one denominator.  A unit move in m_i
multiplies in the c_i new linear factors c + j + s*eps of each numerator
factor f and divides out those of each denominator factor, each in O(K)
integer products (`_poch_step`, `_recip_step`), folds 1/m_i into the
denominator, and reduces the row by one gcd: O(sum_f c_f*K) integer products
and one gcd per lattice move, with c_f the law coefficient of f for the
index moved.  For c = p/q and s = u/v a numerator step scales the
denominator by q*v and a reciprocal step by (p*v)**(K+1); the gcd takes back
what the entries do not need.  A Dual constant or slope adds the row's der,
K + 1 more numerators.  One walk, `_walk`, serves `expand_general` and
`delta_dual_expand`: it checks the lattice for a pole, then builds its factor
plan once per call, each factor's integer linear factor and law coefficients,
so a move finds its j-range in a few integer products.  `expand_general`
builds the Fractions and Duals of each row's entries; `delta_dual_expand`
builds one Fraction per delta-part, from der, and no value part.

Seven built-in examples F1..F7 (plus an alternative route to F6 and the
delta-derivative of F7) also have hand-derived closed-form coefficient
formulas.  One table, `_EXAMPLES`, gives each its closed-form column function,
delta rule and engine spec as a function of delta, resolved once for both
`closed_engine_spec` and `expand_closed`.  Engine and closed forms are
independent code paths that must agree entry by entry, and that fail on the
same inputs: `expand_closed` first checks the lattice against the engine
spec's denominator, so it raises the engine's PoleError.  That check costs one
`_vanishing_shift` per denominator factor, at the factor's longest length on
the lattice; only where one can vanish does a scan in m1-major order name the
first pole.  dF7_ddelta is taken at delta = 0 on both routes.

Cost model of `expand_closed` at eps order K: each closed coefficient is a
signed power sum lead*delta_{k,0} + sum_j w_j r_j**k, for F1, F5 and F6 joined
over k1 by a Cauchy product.  Each example returns the whole k-column of a
lattice point, so its weights w_j are evaluated once per lattice point,
independent of K.  A part that depends on one index only is built once per
table: F1's Stirling row once per total degree m, F5's inner power column once
per m1 and its outer one once per m2, and F6's t1 column once per n1.  Each
call of `expand_closed` keeps these parts in one dict of its own, dropped on
return (`series._shared`).  Every weight, ratio, lead term and prefactor is an
integer triple (num, der, den), never reduced: a rising factorial (delta + c)_m at
delta = p/q is the product of the m integers p + (c + j)*q over q**m, binomials
are `math.comb` and factorials are ints.  So a weight costs O(D) integer
products.  A column is one integer row of K + 1 numerators over one den: one
lcm for a power column, the product of two dens for a convolution (O(K**2)
products).  The prefactor folds into the one Fraction built per table entry:
one lcm per column and one gcd per entry.  dF7 is F7's column differentiated
at delta = 0: its triples are F7's at delta = (0, 1, 1), whose ders are the
delta-derivatives, so it needs no Bernoulli polynomial.  The delta rising
factorials of F6, F6_alt and F7 are not kept: at D = 12 a lookup cost more than
the product it saved.  A Dual delta carries its t-part as der, by the product
rule; an entry is a Dual where it depends on delta, as on the engine's route.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from fractions import Fraction

from .combinatorics import _stirling_walk
from .duals import Dual
from .errors import DomainError, MissingParameter, PoleError
from .pochhammer import (
    LinearParam,
    _divided,
    _int_factor,
    _poch_step,
    _recip_step,
    _unit_row,
    _vanishing_shift,
)
from .series import (
    _coerce,
    _count,
    _entries,
    _iterable,
    _product,
    _Record,
    _shared,
    _typed,
)

_ZERO = Fraction(0)


class IndexLaw(_Record):
    """Affine length law L(m1, m2) = c0 + c1*m1 + c2*m2 with nonnegative coefficients."""

    def __init__(self, c0: int, c1: int, c2: int):
        _count("IndexLaw", c0=c0, c1=c1, c2=c2)
        self._store(c0, c1, c2)

    def __call__(self, m1: int, m2: int) -> int:
        return self.c0 + self.c1 * m1 + self.c2 * m2


class HyperTermSpec(_Record):
    """General term of a double series (see module docstring): numer and denom are
    kept as tuples.  A parameter such as delta lives in the LinearParam constants.  A
    denominator that vanishes at eps = 0 on some lattice point makes `expand_general`
    raise PoleError.
    """

    def __init__(self, name: str, numer: tuple = (), denom: tuple = ()):
        sides = []
        for side, given in (("numer", numer), ("denom", denom)):
            factors = tuple(_iterable("HyperTermSpec", given, f"{side} factors"))
            for idx, factor in enumerate(factors):
                if not (
                    isinstance(factor, tuple)
                    and len(factor) == 2
                    and isinstance(factor[0], LinearParam)
                    and isinstance(factor[1], IndexLaw)
                ):
                    raise DomainError(
                        f"{side} factor {idx} of {name or 'spec'} is not a "
                        f"(LinearParam, IndexLaw) pair: {factor!r}"
                    )
            sides.append(factors)
        self._store(name, *sides)


class ExpansionTable(_Record):
    """Exact coefficient table keyed (k, m1, m2) — or (k, m, n) after regrouping."""

    def __init__(
        self, entries: dict, eps_order: int, degree_bound: int, regrouping: str = "lattice"
    ):
        # Type checks only, not a walk over the entries: a table costs O(1) to build.
        _typed("ExpansionTable", Mapping, entries=entries)
        _count("ExpansionTable", eps_order=eps_order, degree_bound=degree_bound)
        if regrouping not in ("lattice", "total_degree"):
            raise DomainError(
                "ExpansionTable needs a regrouping 'lattice' or 'total_degree', "
                f"got {regrouping!r}"
            )
        self._store(entries, eps_order, degree_bound, regrouping)

    def get(self, k: int, i: int, j: int):
        key = (k, i, j)
        if key not in self.entries:
            keying = "(k, m, n)" if self.regrouping == "total_degree" else "(k, m1, m2)"
            raise DomainError(
                f"no entry {key} in a table keyed {keying} with eps_order "
                f"{self.eps_order} and degree_bound {self.degree_bound}"
            )
        return self.entries[key]


def _checked_points(spec: HyperTermSpec, degree_bound: int) -> list:
    """The lattice points m1 + m2 <= degree_bound, m1-major, once each is checked for a
    denominator factor of spec that vanishes at eps = 0 there: the first raises PoleError."""
    points = [(m1, m2) for m1 in range(degree_bound + 1) for m2 in range(degree_bound + 1 - m1)]
    # A factor's longest length on the lattice is c0 + max(c1, c2)*degree_bound,
    # as law coefficients are >= 0, and a rising factorial with no zero factor at
    # some length has none at a shorter one.  So one check per factor clears it
    # for every point, and the scan below runs only to name the first pole.  It
    # always finds one: a factor that vanishes at its longest length does so on
    # lattice point (D, 0) or (0, D).
    if all(
        _vanishing_shift(param.constant, law.c0 + max(law.c1, law.c2) * degree_bound) is None
        for param, law in spec.denom
    ):
        return points
    for m1, m2 in points:
        for idx, (param, law) in enumerate(spec.denom):
            if _vanishing_shift(param.constant, law(m1, m2)) is not None:
                raise PoleError(
                    f"denominator factor {idx} of {spec.name or 'spec'} "
                    f"vanishes at eps = 0 on lattice point ({m1}, {m2})",
                    lattice_point=(m1, m2),
                    factor=idx,
                )


def _walk(spec: HyperTermSpec, eps_order: int, degree_bound: int):
    """Yield (m1, m2, row), m1-major, for the term's integer row (see `series`) at
    every lattice point m1 + m2 <= degree_bound, once no pole is on the lattice."""
    _checked_points(spec, degree_bound)
    width = eps_order + 1
    plan = [
        (_int_factor(p.constant, p.slope), (law.c0, law.c1, law.c2), step)
        for side, step in ((spec.numer, _poch_step), (spec.denom, _recip_step))
        for p, law in side
    ]

    def move(row, m1, m2, moved, m):
        # The term at (m1, m2) from the term `row` one unit back in m_moved (or,
        # for moved = 0, from the empty product): each factor's linear factors
        # c + j + s*eps for L(m1, m2) - c_moved <= j < L(m1, m2), multiplied in
        # for a numerator and divided out for a denominator, then over m,
        # reduced by one gcd.
        for factor, law, step in plan:
            c0, c1, c2 = law
            end = c0 + c1 * m1 + c2 * m2
            for j in range(end - law[moved], end):
                row = step(row, factor, j, width)
        return _divided(row, m)

    # A term with a denominator holds all `width` coefficients; one without is
    # an exact polynomial until it reaches that width.
    column = [move(_unit_row(width if spec.denom else 1), 0, 0, 0, 1)]
    for m1 in range(1, degree_bound + 1):
        column.append(move(column[-1], m1, 0, 1, m1))
    for m1, row in enumerate(column):
        yield m1, 0, row
        for m2 in range(1, degree_bound + 1 - m1):
            row = move(row, m1, m2, 2, m2)
            yield m1, m2, row


def expand_general(spec: HyperTermSpec, eps_order: int, degree_bound: int) -> ExpansionTable:
    """Expand every lattice point of the spec exactly; tabulate eps-coefficients.

    Entries cover all k in [0, eps_order] and all m1 + m2 <= degree_bound.
    The term is walked from lattice point to lattice point by its ratio, in
    O(sum_f c_f*K) per unit move in m_i at K = eps_order (see the module
    docstring).  Every point is checked for a denominator pole before any
    work, in m1-major order, so the first pole on the lattice raises PoleError.

    An entry is a Dual, coefficient by coefficient, exactly where its
    Fraction/Dual computation touches a Dual (it may be Dual(x, 0)), else a
    Fraction; a closed-form entry is a Dual where it depends on delta, and the two
    agree on every built-in example.  The `EpsSeries` route can give Fraction(x)
    for Dual(x, 0): a product entry is a Dual only where a term pairs two nonzero
    coefficients, one of them a Dual, and an all-zero series is stored as Fractions.
    """
    _typed("expand_general", HyperTermSpec, spec=spec)
    _count("expand_general", eps_order=eps_order, degree_bound=degree_bound)
    entries = {}
    for m1, m2, row in _walk(spec, eps_order, degree_bound):
        values = _entries(row)
        for k in range(eps_order + 1):
            entries[(k, m1, m2)] = values[k] if k < len(values) else _ZERO
    return ExpansionTable(entries, eps_order, degree_bound, "lattice")


def regroup_total_degree(table: ExpansionTable) -> ExpansionTable:
    """Re-key a lattice table to (k, m, n) with m = m1 + m2 and n = m1 (lossless)."""
    _typed("regroup_total_degree", ExpansionTable, table=table)
    if table.regrouping != "lattice":
        raise DomainError("only a lattice-keyed table can be regrouped by total degree")
    entries = {(k, m1 + m2, m1): v for (k, m1, m2), v in table.entries.items()}
    return ExpansionTable(entries, table.eps_order, table.degree_bound, "total_degree")


def delta_dual_expand(spec: HyperTermSpec, eps_order: int, degree_bound: int) -> ExpansionTable:
    """Derivative of every table entry with respect to the spec's delta parameter.

    The spec must carry its delta-dependence as Dual scalars inside the
    LinearParam constants (see `closed_engine_spec`); a delta-free spec
    yields the all-zero table.  The walk is `expand_general`'s, with the same
    pole check and the same steps, but each entry is read straight from the
    row's der: one Fraction where the engine's entry would be a Dual, and 0
    elsewhere.  No value part and no Dual is built.
    """
    _typed("delta_dual_expand", HyperTermSpec, spec=spec)
    _count("delta_dual_expand", eps_order=eps_order, degree_bound=degree_bound)
    entries = {}
    for m1, m2, (den, _, der, mask) in _walk(spec, eps_order, degree_bound):
        for k in range(eps_order + 1):
            entries[(k, m1, m2)] = Fraction(der[k], den) if mask >> k & 1 else _ZERO
    return ExpansionTable(entries, eps_order, degree_bound, "lattice")


# -- built-in examples --------------------------------------------------------

_LAW_SUM = IndexLaw(0, 1, 1)
_LAW_M1 = IndexLaw(0, 1, 0)
_LAW_M2 = IndexLaw(0, 0, 1)

_LP = LinearParam


def _f1_to_f4_spec(name, a, b, c, d):
    """The engine spec builder of F1..F4, which take no delta: the term
    (1 + a*eps)_{m1+m2} (1 + b*eps)_{m1+m2} / ((1 + c*eps)_{m1} (1 + d*eps)_{m2})."""
    return lambda delta: HyperTermSpec(
        name,
        numer=[(_LP(1, a), _LAW_SUM), (_LP(1, b), _LAW_SUM)],
        denom=[(_LP(1, c), _LAW_M1), (_LP(1, d), _LAW_M2)],
    )


def _f6_f7_spec(name, s):
    """The engine spec builder of F6 (s = -1) or F7 (s = 1), delta in its constants."""
    return lambda d: HyperTermSpec(
        name,
        numer=[(_LP(1 + d, 0), _LAW_SUM), (_LP(1 + d, s), _LAW_SUM), (_LP(1, 0), _LAW_M1)],
        denom=[(_LP(1 + d, 0), _LAW_M1), (_LP(1, s), _LAW_M1), (_LP(1 + d, 1), _LAW_M2)],
    )


# F6_alt, a second closed-form route to F6, shares F6's spec; dF7_ddelta's is
# F7's at delta = Dual(0, 1).
_F6_SPEC, _F7_SPEC = _f6_f7_spec("F6", -1), _f6_f7_spec("F7", 1)


# -- closed forms in integers -------------------------------------------------
#
# Every closed-form weight, ratio, lead term and prefactor is an integer triple
# (num, der, den): num/den, plus der/den times t for a Dual delta v + w*t
# (t*t = 0).  der is None for a quantity that does not depend on delta, which
# at a rational delta is every one.  den may be negative.  A column is the
# (den, val, der) of a row (see `series`); `_scaled` gives it its mask.


def _delta_triple(delta) -> tuple:
    """delta (a Fraction or a Dual) as the triple (p, r, q) over one q > 0."""
    if isinstance(delta, Dual):
        q = math.lcm(delta.val.denominator, delta.der.denominator)
        return (delta.val * q).numerator, (delta.der * q).numerator, q
    return delta.numerator, None, delta.denominator


def _mul(x, y) -> tuple:
    """The product of two triples, its der by the product rule."""
    (n, dn, d), (m, dm, e) = x, y
    if dn is None and dm is None:
        return n * m, None, d * e
    return n * m, (dn or 0) * m + n * (dm or 0), d * e


def _inv(x) -> tuple:
    """1/x for a triple with num != 0: d/(n + dn*t) = d*(n - dn*t)/n**2, as t*t = 0."""
    n, dn, d = x
    if dn is None:
        return d, None, n
    return d * n, -d * dn, n * n


def _rising(x, c: int, m: int) -> tuple:
    """The rising factorial (x + c)_m of x = (p, r, q), q > 0: the product of the
    integers p + j*q, c <= j < c + m, over q**m.  Its der, r times the sum of
    the products that leave one factor out, is None at m = 0, the empty product."""
    p, r, q = x
    factors = range(p + c * q, p + (c + m) * q, q)
    if r is None or not m:
        return math.prod(factors), None, q**m
    num, der = 1, 0
    for f in factors:
        num, der = num * f, der * f + num * r
    return num, der, q**m


def _power_column(K, lead, terms) -> tuple:
    """The row of lead*delta_{k,0} + sum w * r**k, k = 0..K, over (weight, ratio)
    pairs of triples; a sign (-1)**k rides in a negative ratio.  Its den is one
    lcm (Knuth, TAOCP vol. 2, section 4.5.1) of lead's and each w_den*r_den**K,
    which w_den*r_den**k divides for every k <= K: so a term's numerator goes
    from k to k + 1 by one multiply by r_num and one exact division by r_den."""
    ln, ld, lden = lead
    den = math.lcm(lden, *(w[2] * r[2] ** K for w, r in terms))
    dual = ld is not None or any(w[1] is not None or r[1] is not None for w, r in terms)
    nums, ders = [ln * (den // lden)] + [0] * K, [(ld or 0) * (den // lden)] + [0] * K
    for (a, d, wden), (rn, rd, rden) in terms:
        scale = den // wden
        a, d, rd = a * scale, (d or 0) * scale, rd or 0
        nums[0] += a
        ders[0] += d
        for k in range(1, K + 1):
            if dual:
                d = (d * rn + a * rd) // rden
                ders[k] += d
            a = a * rn // rden
            nums[k] += a
    return den, nums, ders if dual else None


def _scaled(pref, column) -> list:
    """The table entries pref * v for the coefficients v of a column: one Fraction
    each, or every one a Dual where the column or pref has a der."""
    (p, pd, q), (den, nums, ders) = pref, column
    val = [p * n for n in nums]
    if pd is None and ders is None:
        return _entries((den * q, val, None, 0))
    der = [(pd or 0) * n + p * dn for n, dn in zip(nums, ders or [0] * len(nums))]
    return _entries((den * q, val, der, (1 << len(nums)) - 1))


def _sign_over_factorials(s: int, a: int, b: int) -> tuple:
    """(-1)**s / (a! b!) as a triple."""
    return (-1) ** s, None, math.factorial(a) * math.factorial(b)


def _prefactor(delta, n1: int, n2: int) -> tuple:
    """(1 + n1 + delta)_n2 / n2!, the prefactor of F6, F6_alt and F7."""
    return _mul(_rising(delta, 1 + n1, n2), (1, None, math.factorial(n2)))


_UNIT = (1, None, 1)
_NEGATE = (-1, None, 1)
_TWO = (2, None, 1)


def _f1_stirling(K, m):
    # 2**k1 (-1)**m s(m + 1, k1 + 1), k1 = 0..K, from one walk.
    walk = _stirling_walk(m + 1, K + 1)[1][1:]
    return 1, [2**k1 * (-1) ** m * s for k1, s in enumerate(walk)], None


def _closed_f1(parts, K, m1, m2):
    n, m = m1, m1 + m2
    terms = [
        (((-1) ** (j + 1) * math.comb(m - j, n) * math.comb(n, j), None, 1), (1, None, j))
        for j in range(1, n + 1)
    ]
    scale = _sign_over_factorials(0, n, m - n)
    stirling = _shared(parts, _f1_stirling, K, m)
    return _scaled(scale, _product(stirling, _power_column(K, _UNIT, terms)))


def _closed_f2_to_f4(K, n, m, shift, lead):
    # (-1)**k C(m, n) [lead*delta_{k,0} - sum_j (-1)**j C(m + shift*j, n) C(n, j) / j**k].
    terms = [
        (((-1) ** (j + 1) * math.comb(m + shift * j, n) * math.comb(n, j), None, 1), (-1, None, j))
        for j in range(1, n + 1)
    ]
    return _scaled((math.comb(m, n), None, 1), _power_column(K, (lead, None, 1), terms))


def _closed_f2(parts, K, m1, m2):
    return _closed_f2_to_f4(K, m2, m1 + m2, 1, (-1) ** m2)


def _closed_f3(parts, K, m1, m2):
    return _closed_f2_to_f4(K, m1, m1 + m2, 1, (-1) ** m1)


def _closed_f4(parts, K, m1, m2):
    return _closed_f2_to_f4(K, m1, m1 + m2, -1, 1)


def _f5_inner(K, n):
    terms = [
        (_mul(_sign_over_factorials(l + 1, l - 1, n - l), (1, None, 1 + l)), (1, None, 1 + l))
        for l in range(1, n + 1)
    ]
    return _power_column(K, (1 if n == 0 else 0, None, 1), terms)


def _f5_outer(K, d):
    terms = []
    for j in range(1, d // 2 + 1):
        # (-1)**(j+1) (2d - 2j - 1)!! / (2**j (d - 2j)! (j - 1)! (1 + j))
        w = _sign_over_factorials(j + 1, d - 2 * j, j - 1)
        w = _mul(w, (math.prod(range(2 * d - 2 * j - 1, 0, -2)), None, 2**j * (1 + j)))
        terms.append((w, (1, None, 1 + j)))
    return _power_column(K, _UNIT, terms)


def _closed_f5(parts, K, m1, m2):
    n, d = m1, m2
    # C(n + d, n) (2n - 1)!! / 2**(n + d), with (-1)!! = 1.
    pref = (math.comb(n + d, n) * math.prod(range(2 * n - 1, 0, -2)), None, 2 ** (n + d))
    inner, outer = _shared(parts, _f5_inner, K, n), _shared(parts, _f5_outer, K, d)
    return _scaled(pref, _product(inner, outer))


def _f6_t1(delta, K, n1):
    terms = [
        (_mul(_rising(delta, 1 - l, n1), _sign_over_factorials(l + 1, l, n1 - l)), (1, None, l))
        for l in range(1, n1 + 1)
    ]
    return _power_column(K, _UNIT, terms)


def _closed_f6(delta, parts, K, n1, n2):
    t2 = []  # t2 holds (-1)**k times the tail's k-th coefficient
    two_delta = _mul(delta, _TWO)
    for j in range(n2):
        inv = _inv(_rising(delta, 1 + j, 1))
        w = _mul(_rising(two_delta, 2 + n1 + j, n2), _sign_over_factorials(j, j, n2 - 1 - j))
        t2.append((_mul(w, inv), _mul(inv, _NEGATE)))
    t1 = _shared(parts, _f6_t1, delta, K, n1)
    t2 = _power_column(K, ((-1) ** n2, None, 1), t2)
    return _scaled(_prefactor(delta, n1, n2), _product(t1, t2))


def _closed_f6_alt(delta, parts, K, n1, n2):
    terms = []
    for j1 in range(1, n1 + 1):
        w = _mul(_rising(delta, 1 - j1, n1 + n2), _inv(_rising(delta, 1 + j1, n2)))
        terms.append((_mul(w, _sign_over_factorials(j1 + 1, j1, n1 - j1)), (1, None, j1)))
    two_delta = _mul(delta, _TWO)
    for j2 in range(n2):
        inv = _inv(_rising(delta, 1 + j2, 1))
        w = _mul(_rising(two_delta, 2 + j2, n1 + n2), _inv(_rising(delta, 2 + j2, n1)))
        w = _mul(w, _sign_over_factorials(j2, j2, n2 - 1 - j2))
        terms.append((_mul(w, inv), _mul(inv, _NEGATE)))
    lead = ((-1) ** n2, None, 1)
    return _scaled(_prefactor(delta, n1, n2), _power_column(K, lead, terms))


def _closed_f7(delta, parts, K, n1, n2):
    terms = []
    for j in range(1, n1 + 1):
        w = _mul(_rising(delta, n2 + 1 - j, n1), _sign_over_factorials(j + 1, j, n1 - j))
        terms.append((w, (-1, None, j)))
    return _scaled(_prefactor(delta, n1, n2), _power_column(K, _UNIT, terms))


def _closed_df7(parts, K, n1, n2):
    # F7's column differentiated in delta at delta = 0.  At the triple (0, 1, 1),
    # delta = 0 with der 1, each triple's der is its delta-derivative: the lead is
    # the prefactor's, and weight j that of the prefactor times F7's weight j.
    delta = (0, 1, 1)
    pref = _prefactor(delta, n1, n2)
    terms = []
    for j in range(1, n1 + 1):
        w = _mul(_rising(delta, n2 + 1 - j, n1), _sign_over_factorials(j + 1, j, n1 - j))
        _, der, den = _mul(pref, w)
        terms.append(((der, None, den), (-1, None, j)))
    return _scaled(_UNIT, _power_column(K, (pref[1] or 0, None, pref[2]), terms))


# A built-in example's delta rule: it takes no delta, needs one, or is taken
# only at delta = 0.
_TAKES_NONE, _NEEDS_ONE, _ONLY_ZERO = "takes none", "needs one", "only delta = 0"

# The built-in examples, one row each: the closed-form column function
# (parts, K, m1, m2) -> [value for k = 0..K], which takes the delta triple first
# where the rule needs one; the delta rule; and the engine spec as a function of
# the delta.  parts is the dict of one `expand_closed` call (see `series._shared`).
_EXAMPLES = {
    "F1": (_closed_f1, _TAKES_NONE, _f1_to_f4_spec("F1", -2, -1, -1, -1)),
    "F2": (_closed_f2, _TAKES_NONE, _f1_to_f4_spec("F2", 0, -1, -1, 1)),
    "F3": (_closed_f3, _TAKES_NONE, _f1_to_f4_spec("F3", 0, -1, 1, -1)),
    "F4": (_closed_f4, _TAKES_NONE, _f1_to_f4_spec("F4", 0, 1, 1, 1)),
    "F5": (_closed_f5, _TAKES_NONE, lambda d: HyperTermSpec(
        "F5",
        numer=[
            (_LP(1, 0), _LAW_SUM),
            (_LP(Fraction(1, 2), 0), _LAW_M1),
            (_LP(Fraction(3, 2), -1), _LAW_M2),
        ],
        denom=[(_LP(2, -1), _LAW_M1), (_LP(3, -2), _LAW_M2)],
    )),
    "F6": (_closed_f6, _NEEDS_ONE, _F6_SPEC),
    "F6_alt": (_closed_f6_alt, _NEEDS_ONE, _F6_SPEC),
    "F7": (_closed_f7, _NEEDS_ONE, _F7_SPEC),
    "dF7_ddelta": (_closed_df7, _ONLY_ZERO, lambda d: _F7_SPEC(Dual(0, 1))),
}

CLOSED_EXAMPLES = tuple(_EXAMPLES)


def _resolved(example, delta) -> tuple:
    """The column function (parts, K, m1, m2) -> column of a built-in example,
    bound to the delta triple where it takes one, and its engine spec.
    Rejects an unknown example, a missing delta where one is needed, a delta
    where none is taken, and a nonzero delta where only delta = 0 is.
    """
    # Membership in the tuple compares the name without hashing it.
    if example not in CLOSED_EXAMPLES:
        raise DomainError(f"unknown example {example!r}; known: {', '.join(CLOSED_EXAMPLES)}")
    column, rule, spec = _EXAMPLES[example]
    if delta is not None:
        delta = _coerce(delta)
        if rule == _TAKES_NONE:
            raise DomainError(f"example {example} takes no delta")
        if rule == _ONLY_ZERO and delta != 0:
            raise DomainError(f"{example} is taken at delta = 0; a nonzero delta is not supported")
    elif rule == _NEEDS_ONE:
        raise MissingParameter(f"example {example} needs the extra parameter delta")
    if rule == _NEEDS_ONE:
        return functools.partial(column, _delta_triple(delta)), spec(delta)
    return column, spec(None)


def closed_engine_spec(example: str, delta=None) -> HyperTermSpec:
    """The HyperTermSpec whose general-term expansion matches expand_closed(example)."""
    return _resolved(example, delta)[1]


def expand_closed(
    example: str, eps_order: int, degree_bound: int, extra: dict | None = None
) -> ExpansionTable:
    """Closed-form coefficient table for a built-in example (lattice keying).

    Each entry function returns the whole k-column of a lattice point, so
    its weights are evaluated once per point whatever eps_order K is, in
    integers; each column is then one integer row over one denominator (one
    lcm for a power sum), and each entry one Fraction, one gcd, or a Dual where
    a Dual delta reaches it (see the module docstring).  A part that depends on
    one index only is built once per table, in a dict dropped on return.  Every
    point is checked for a pole before any is computed.
    """
    _count("expand_closed", eps_order=eps_order, degree_bound=degree_bound)
    extra = {} if extra is None else extra
    _typed("expand_closed", Mapping, extra=extra)
    if set(extra) - {"delta"}:
        raise DomainError(f"expand_closed takes only the extra parameter delta, got {list(extra)}")
    column, spec = _resolved(example, extra.get("delta"))
    entries, parts = {}, {}
    for m1, m2 in _checked_points(spec, degree_bound):
        for k, value in enumerate(column(parts, eps_order, m1, m2)):
            entries[(k, m1, m2)] = value
    return ExpansionTable(entries, eps_order, degree_bound, "lattice")


# -- table rendering ----------------------------------------------------------


def emit_table(table: ExpansionTable, format: str = "csv") -> str:
    """Render a table as machine-first csv or a human-readable aligned layout."""
    _typed("emit_table", ExpansionTable, table=table)
    total = table.regrouping == "total_degree"
    if format == "csv":
        header = "k,m,n,coefficient" if total else "k,m1,m2,coefficient"
        lines = [header]
        for key in sorted(table.entries):
            k, a, b = key
            lines.append(f"{k},{a},{b},{table.entries[key]}")
        return "\n".join(lines)
    if format == "aligned":
        return _emit_aligned(table)
    raise DomainError(f"unknown table format {format!r}; expected csv or aligned")


def _emit_aligned(table: ExpansionTable) -> str:
    total = table.regrouping == "total_degree"
    row_label, col_label = ("m", "n") if total else ("m1", "m2")
    ks = sorted({key[0] for key in table.entries})
    blocks = []
    for k in ks:
        sub = {(a, b): v for (kk, a, b), v in table.entries.items() if kk == k}
        rows = sorted({a for a, _ in sub})
        cols = sorted({b for _, b in sub})
        cells = [[f"{row_label}\\{col_label}"] + [str(c) for c in cols]]
        for a in rows:
            cells.append(
                [str(a)] + [str(sub[(a, b)]) if (a, b) in sub else "" for b in cols]
            )
        widths = [
            max(len(row[i]) for row in cells if i < len(row))
            for i in range(len(cells[0]))
        ]
        lines = [f"k = {k}"]
        for row in cells:
            lines.append(
                "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)).rstrip()
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
