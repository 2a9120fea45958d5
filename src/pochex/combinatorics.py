"""Exact combinatorial quantities used throughout the package.

Covers signed Stirling numbers of the first kind, generalized Bernoulli
polynomials, plain/modified harmonic numbers, two flavours of nested unit
sums, rational-argument binomials, and double factorials.  Everything is a
Fraction; void sums are zero by convention.  Stirling numbers come from a
cache-free walk in O(n*k) integer operations and O(n + k) memory; the only
module-level cache is the capped per-order Bernoulli core, which
`gen_bernoulli_poly` and the closed dF7's rows read through `_bernoulli_core`.

The sums run on integers and build one Fraction at the end.  The harmonic
sums and the Bernoulli polynomials add integer pairs over one lcm
(`series._int_sum`).  The nested unit sums Z(m, k) and S(m, k) keep each
depth-j partial sum as an integer numerator over lcm(1..m)**j, so each step
is one integer multiply-add and the result is reduced by one gcd.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from .series import _coerce, _count, _int_sum

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _stirling_walk(n: int, k: int) -> tuple[list[int], list[int]]:
    """Column s(i, k) for i = 0..n and row s(n, 0..k), as ints, from one walk of
    s(i+1, j) = s(i, j-1) - i*s(i, j) that keeps only the current row, cut at k."""
    row = [1] + [0] * k
    column = [row[k]]
    for i in range(n):
        for j in range(min(i + 1, k), 0, -1):
            row[j] = row[j - 1] - i * row[j]
        row[0] *= -i
        column.append(row[k])
    return column, row


def stirling_s1(n: int, k: int) -> Fraction:
    """Signed Stirling number of the first kind s(n, k).

    Convention: [log(1+t)]**k = k! * sum(s(n, k) t**n / n!, n >= k), i.e.
    s(n+1, k) = s(n, k-1) - n*s(n, k) with s(0, 0) = 1.  Each call walks that
    recurrence afresh in O(n*k) integer operations; no table is kept.
    """
    _count("stirling_s1", n=n, k=k)
    return Fraction(_stirling_walk(n, k)[1][k]) if k <= n else _ZERO


# Cache: order a -> [B_j^(a)(0)/j! for j = 0..N], the x-free core of every
# B_n^(a)(x) with n <= N.  It holds at most _BERNOULLI_CACHE_CAP orders, the
# oldest evicted first.  Its readers are `gen_bernoulli_poly`, the closed dF7
# (`_bernoulli_core`) and verify's Bernoulli relations through
# `gen_bernoulli_poly`; the `bernoulli` P-method reads none.
_BERNOULLI_CACHE_CAP = 1024
_bernoulli_cache: dict[int, list[Fraction]] = {}
_bernoulli_lock = threading.Lock()


def _miller_power(f: list[Fraction], a: int, n: int, known=(_ONE,)) -> list[Fraction]:
    """Coefficients 0..n of f**a, for a power series f with f[0] == 1, as a new
    list that starts with `known`, a prefix of them (at least [1]).

    J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, section 4.7) in O(n**2):
    g_0 = 1 and g_j = (1/j) sum(((a+1)i - j) f_i g_{j-i}, i = 1..j), resumed
    after the known terms.  Each g_j is one `_int_sum`: integer numerators over
    the lcm of the terms' denominators, reduced by one gcd.
    """
    nonzero = [(i, c.numerator, c.denominator) for i, c in enumerate(f[1 : n + 1], 1) if c]
    g = list(known)
    for j in range(len(g), n + 1):
        terms = [
            (((a + 1) * i - j) * p * g[j - i].numerator, q * g[j - i].denominator * j)
            for i, p, q in nonzero
            if i <= j
        ]
        g.append(_int_sum(terms))
    return g


def _bernoulli_values(n: int, a: int, known=(_ONE,)) -> list[Fraction]:
    # g_j = B_j^(a)(0)/j! for j = 0..n: the coefficients of h**a, where
    # h = z/(e^z - 1), so h**a is the power -a of sum(z**j/(j+1)!).  The
    # known prefix of the g_j is not recomputed.
    base = [Fraction(1, math.factorial(j + 1)) for j in range(n + 1)]
    return _miller_power(base, -a, n, known)


def gen_bernoulli_poly(n: int, a: int, x) -> Fraction:
    """Generalized Bernoulli polynomial B_n^(a)(x).

    Defined by (z/(e^z - 1))**a * e^{xz} = sum(B_n^(a)(x) z**n / n!).  With
    g_j = B_j^(a)(0)/j! cached per order a, B_n^(a)(x) = n! sum(g_j x**(n-j)/(n-j)!)
    costs O(n) per call: the n + 1 terms are summed as integers, reduced by one gcd.
    """
    _count("gen_bernoulli_poly", n=n)
    _count("gen_bernoulli_poly", 1, a=a)
    x = _coerce(x, rational=True)
    # For x = p/q, one integer sum of g_j n!/(n-j)! p**(n-j) / q**(n-j).
    p, q = x.numerator, x.denominator
    return _int_sum(
        [
            (g.numerator * math.perm(n, j) * p ** (n - j), g.denominator * q ** (n - j))
            for j, g in enumerate(_bernoulli_core(n, a)[: n + 1])
        ]
    )


def _bernoulli_core(n: int, a: int) -> list[Fraction]:
    """The cached core [B_j^(a)(0)/j! for j = 0..N] of order a, with N >= n."""
    with _bernoulli_lock:
        core = _bernoulli_cache.get(a)
        if core is None or len(core) <= n:
            # A longer core resumes from the cached one into a new list.
            core = _bernoulli_values(max(n, 8), a, core or (_ONE,))
            _bernoulli_cache[a] = core
            if len(_bernoulli_cache) > _BERNOULLI_CACHE_CAP:
                del _bernoulli_cache[next(iter(_bernoulli_cache))]
    return core


def harmonic(m: int, k: int) -> Fraction:
    """Harmonic number of order k: sum(1/j**k, j = 1..m)."""
    _count("harmonic", m=m, k=k)
    return _int_sum([(1, j**k) for j in range(1, m + 1)])


def mod_harmonic(m: int, k: int) -> Fraction:
    """Binomial-alternating harmonic sum: sum((-1)**(j-1) C(m,j)/j**k, j=1..m).

    The empty case m = 0 is 1 for k = 0 and 0 otherwise.
    """
    _count("mod_harmonic", m=m, k=k)
    if m == 0:
        return _ONE if k == 0 else _ZERO
    return _int_sum([((-1) ** (j - 1) * math.comb(m, j), j**k) for j in range(1, m + 1)])


def nested_ones_Z(m: int, k: int) -> Fraction:
    """Strictly-nested unit sum: sum over m >= i1 > i2 > ... > ik >= 1 of 1/(i1*...*ik)."""
    _count("nested_ones_Z", m=m, k=k)
    if k == 0:
        return _ONE
    if k > m:
        return _ZERO
    # row[j] = Z(i, j) * L**j as i grows, with L = lcm(1..m): the step
    # Z(i, j) = Z(i-1, j) + Z(i-1, j-1)/i adds row[j-1] * (L // i) to row[j].
    lcm = math.lcm(*range(1, m + 1))
    row = [1] + [0] * k
    for i in range(1, m + 1):
        scale = lcm // i
        for j in range(min(i, k), 0, -1):
            row[j] += row[j - 1] * scale
    return Fraction(row[k], lcm**k)


def nested_ones_S(m: int, k: int) -> Fraction:
    """Non-strictly-nested unit sum: S(m, k) = sum(S(i, k-1)/i, i = 1..m), S(m, 0) = 1."""
    _count("nested_ones_S", m=m, k=k)
    if k == 0:
        return _ONE
    # prev[i] = S(i, depth) * L**depth with L = lcm(1..m): the step
    # S(i, depth) = S(i-1, depth) + S(i, depth-1)/i adds prev[i] * (L // i).
    lcm = math.lcm(*range(1, m + 1))
    scales = [lcm // i for i in range(1, m + 1)]
    prev = [1] * (m + 1)
    for _ in range(k):
        cur = [0] * (m + 1)
        for i, scale in enumerate(scales, 1):
            cur[i] = cur[i - 1] + prev[i] * scale
        prev = cur
    return Fraction(prev[m], lcm**k)


def binomial(top, k: int) -> Fraction:
    """Binomial coefficient C(top, k): `math.comb` for an integer top >= 0, and for
    any other top p/q the integer quotient prod(p - i*q, i < k) / (q**k k!)."""
    _count("binomial", k=k)
    top = _coerce(top, rational=True)
    p, q = top.numerator, top.denominator
    if q == 1 and p >= 0:
        return Fraction(math.comb(p, k))
    return Fraction(math.prod(range(p, p - k * q, -q)), q**k * math.factorial(k))


def double_factorial(n: int) -> Fraction:
    """n!! for n >= -1, with (-1)!! = 0!! = 1."""
    _count("double_factorial", -1, n=n)
    value = 1
    while n > 1:
        value *= n
        n -= 2
    return Fraction(value)
