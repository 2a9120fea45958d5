"""Double-series eps-expansion engine and its closed-form counterparts."""

import hashlib
import math
import os
import random
import re
import shutil
import subprocess
import sys
import types
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pochex.combinatorics
import pochex.hyper_expand
import pochex.pochhammer
import pochex.series
import pochex.verify
from pochex.combinatorics import binomial, gen_bernoulli_poly
from pochex.duals import Dual
from pochex.errors import DomainError, MissingParameter, PoleError
from pochex.hyper_expand import (
    CLOSED_EXAMPLES,
    ExpansionTable,
    HyperTermSpec,
    IndexLaw,
    closed_engine_spec,
    delta_dual_expand,
    emit_table,
    expand_closed,
    expand_general,
    regroup_total_degree,
)
from pochex.pochhammer import (
    LinearParam,
    PochMethod,
    _int_factor,
    _poch_step,
    _recip_step,
    _vanishing_shift,
    poch_deriv,
    poch_eps_series,
    pochhammer,
)
from pochex.series import EpsSeries, _entries, polynomial_series, series_invert


# -- index laws and specs -----------------------------------------------------


def test_index_law_evaluates_affine():
    law = IndexLaw(2, 1, 3)
    assert law(0, 0) == 2
    assert law(4, 1) == 9


def test_index_law_rejects_negative_or_nonint():
    with pytest.raises(DomainError):
        IndexLaw(-1, 0, 0)
    with pytest.raises(DomainError):
        IndexLaw(0, F(1, 2), 0)


def test_spec_coerces_factor_lists_to_tuples():
    spec = HyperTermSpec("t", numer=[(LinearParam(1, 1), IndexLaw(0, 1, 0))])
    assert isinstance(spec.numer, tuple)
    assert spec.denom == ()


@pytest.mark.parametrize(
    "side, factor, shown",
    [
        ("numer", (LinearParam(1, 1), (0, 1, 0)), "(0, 1, 0)"),
        ("denom", (LinearParam(1, 1), IndexLaw(0, 1, 0), 2), ", 2)"),
        ("numer", (3, IndexLaw(0, 1, 0)), "(3, "),
        ("denom", (LinearParam(1, 1), lambda m1, m2: m1), "<function"),
    ],
    ids=["law-not-an-IndexLaw", "3-tuple", "int-for-LinearParam", "callable-law"],
)
def test_spec_refuses_a_malformed_factor(side, factor, shown):
    good = (LinearParam(F(1, 2), 1), IndexLaw(0, 1, 1))
    pair = r"is not a \(LinearParam, IndexLaw\) pair"
    with pytest.raises(DomainError, match=rf"{side} factor 1 of bad {pair}") as exc:
        HyperTermSpec("bad", **{side: [good, factor]})
    assert shown in str(exc.value)


def test_table_get_outside_the_table_names_the_window():
    table = expand_closed("F1", 1, 2)
    assert table.get(1, 2, 0) == table.entries[(1, 2, 0)]
    with pytest.raises(DomainError) as exc:
        table.get(5, 0, 0)
    message = str(exc.value)
    assert "(5, 0, 0)" in message and "(k, m1, m2)" in message
    assert "eps_order 1" in message and "degree_bound 2" in message
    with pytest.raises(DomainError, match=r"no entry \(0, 3, 1\) in a table keyed \(k, m, n\)"):
        regroup_total_degree(table).get(0, 3, 1)


# -- the general engine ---------------------------------------------------------


def test_empty_spec_expands_to_exponential_lattice():
    table = expand_general(HyperTermSpec("empty"), 2, 3)
    for (k, m1, m2), value in table.entries.items():
        expected = F(1, math.factorial(m1) * math.factorial(m2)) if k == 0 else 0
        assert value == expected


def test_engine_covers_full_window():
    table = expand_general(HyperTermSpec("empty"), 2, 3)
    keys = set(table.entries)
    for m1 in range(4):
        for m2 in range(4 - m1):
            for k in range(3):
                assert (k, m1, m2) in keys
    assert (0, 2, 2) not in keys  # beyond the degree bound


def test_engine_rejects_bad_bounds():
    with pytest.raises(DomainError):
        expand_general(HyperTermSpec("empty"), -1, 2)
    with pytest.raises(DomainError):
        expand_general(HyperTermSpec("empty"), 2, -1)


def test_vanishing_denominator_needs_laurent_opt_in():
    spec = HyperTermSpec("pole", denom=[(LinearParam(0, 1), IndexLaw(1, 0, 0))])
    with pytest.raises(PoleError) as exc_info:
        expand_general(spec, 2, 2)
    assert exc_info.value.lattice_point == (0, 0)
    assert exc_info.value.factor == 0


def test_zero_slope_vanishing_denominator_is_always_a_pole():
    spec = HyperTermSpec("hard-pole", denom=[(LinearParam(0, 0), IndexLaw(1, 0, 0))])
    with pytest.raises(PoleError):
        expand_general(spec, 1, 1)


def _per_point_reference(spec, eps_order, degree_bound):
    """The point-by-point route: at each lattice point, the product of the
    numerator series times the inverse of the denominator product, scaled by
    1/(m1! m2!).  A denominator vanishing at eps = 0 gives
    ("PoleError", lattice point, factor) for the first such point and factor."""
    entries = {}
    for m1 in range(degree_bound + 1):
        for m2 in range(degree_bound + 1 - m1):
            for idx, (param, law) in enumerate(spec.denom):
                value = pochhammer(param.constant, law(m1, m2))
                if (value.val if isinstance(value, Dual) else value) == 0:
                    return ("PoleError", (m1, m2), idx)
            num = polynomial_series([1], eps_order)
            for param, law in spec.numer:
                num = num * poch_eps_series(param, law(m1, m2), eps_order)
            den = polynomial_series([1], eps_order)
            for param, law in spec.denom:
                den = den * poch_eps_series(param, law(m1, m2), eps_order)
            term = (num * series_invert(den)).scaled(
                F(1, math.factorial(m1) * math.factorial(m2))
            )
            for k in range(eps_order + 1):
                entries[(k, m1, m2)] = term.coefficient(k)
    return entries


def _fraction_poch_step(row, c, s, width):
    # The Fraction definition of _poch_step: row * (c + s*eps), growing a short row.
    nxt = [row[0] * c] + [row[i] * c + row[i - 1] * s for i in range(1, len(row))]
    if len(row) < width:
        nxt.append(row[-1] * s)
    return nxt


def _fraction_recip_step(row, c, s, width):
    # The Fraction definition of _recip_step: row / (c + s*eps), solved term by term.
    inv = 1 / c
    nxt = [row[0] * inv]
    for i in range(1, width):
        nxt.append((row[i] - s * nxt[i - 1]) * inv)
    return nxt


def _int_row(scalars):
    # The integer row of a list of Fractions and Duals, over one common denominator.
    parts = [(x.val, x.der) if isinstance(x, Dual) else (x, F(0)) for x in scalars]
    den = math.lcm(*(part.denominator for pair in parts for part in pair))
    mask = sum(1 << i for i, x in enumerate(scalars) if isinstance(x, Dual))
    der = [int(d * den) for _, d in parts] if mask else None
    return den, [int(v * den) for v, _ in parts], der, mask


@pytest.mark.parametrize(
    "step, fraction_step",
    [(_poch_step, _fraction_poch_step), (_recip_step, _fraction_recip_step)],
    ids=["poch", "recip"],
)
def test_integer_step_matches_its_fraction_definition(step, fraction_step):
    # Values and types: rows of Fractions, zeros and Duals, short polynomial rows
    # for the numerator step, and factors with zero, negative and Dual parts.
    rng = random.Random(20261019)

    def scalar(zero=0.2, dual=0.2):
        x = F(0) if rng.random() < zero else F(rng.randint(-9, 9), rng.randint(1, 5))
        return Dual(x, F(rng.randint(-4, 4), rng.randint(1, 3))) if rng.random() < dual else x

    for _ in range(1000):
        width = rng.randint(1, 6)
        length = width if step is _recip_step else rng.randint(1, width)
        row = [scalar(dual=rng.choice([0, 0.3])) for _ in range(length)]
        c, s, j = scalar(zero=0.1), scalar(dual=0.1), rng.randint(0, 3)
        if step is _recip_step and (c.val if isinstance(c, Dual) else c) + j == 0:
            continue
        got = _entries(step(_int_row(row), _int_factor(c, s), j, width))
        want = fraction_step(row, c + j, s, width)
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]


def _walk_entry_types(spec, eps_order, degree_bound):
    """The type of every entry of the engine's walk done in Fraction/Dual arithmetic
    with the Fraction definitions of the two steps.  An entry is a Dual exactly
    where that arithmetic touches a Dual; the per-point reference has other type
    rules (EpsSeries skips zero coefficients and stores an all-zero series as
    Fractions), so it is the oracle for values only."""
    width = eps_order + 1
    factors = [(p, law, _fraction_poch_step) for p, law in spec.numer]
    factors += [(p, law, _fraction_recip_step) for p, law in spec.denom]

    def move(row, old, new, m):
        for param, law, step in factors:
            for j in range(law(*old) if old else 0, law(*new)):
                row = step(row, param.constant + j, param.slope, width)
        return [x * F(1, m) for x in row]

    types = {}
    column = [move([F(1)] + [F(0)] * eps_order if spec.denom else [F(1)], None, (0, 0), 1)]
    for m1 in range(1, degree_bound + 1):
        column.append(move(column[-1], (m1 - 1, 0), (m1, 0), m1))
    for m1, term in enumerate(column):
        for m2 in range(degree_bound + 1 - m1):
            if m2:
                term = move(term, (m1, m2 - 1), (m1, m2), m2)
            for k in range(width):
                types[(k, m1, m2)] = type(term[k]) if k < len(term) else F
    return types


def _check_engine(spec, eps_order, degree_bound):
    # The engine against the per-point reference (values, or the same PoleError)
    # and against the Fraction walk (the type of every entry).
    engine = _entries_or_pole(lambda: expand_general(spec, eps_order, degree_bound))
    reference = _per_point_reference(spec, eps_order, degree_bound)
    assert engine == reference
    if not isinstance(reference, tuple):
        types = {key: type(v) for key, v in engine.items()}
        assert types == _walk_entry_types(spec, eps_order, degree_bound)
    return reference


# Constants cross zero (negative integers make numerator rows start with 0 and
# denominators vanish); slopes include 0; some constants carry a Dual part.
_CONSTANTS = st.integers(-4, 3) | st.builds(F, st.integers(-9, 9), st.integers(1, 4))
_SLOPES = st.just(F(0)) | st.builds(F, st.integers(-3, 3), st.integers(1, 3))
_LAWS = st.builds(IndexLaw, st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
_FACTORS = st.tuples(
    st.builds(
        LinearParam,
        _CONSTANTS | st.builds(Dual, _CONSTANTS, st.integers(-2, 2)),
        _SLOPES,
    ),
    _LAWS,
)


@settings(max_examples=150, deadline=None)
@example(numer=[], denom=[], eps_order=0, degree_bound=0)
@example(
    numer=[(LinearParam(-2, 0), IndexLaw(0, 1, 1)), (LinearParam(-1, F(1, 2)), IndexLaw(1, 0, 2))],
    denom=[(LinearParam(Dual(F(1, 2), 1), F(-1, 3)), IndexLaw(1, 1, 0))],
    eps_order=3,
    degree_bound=0,
)
@example(
    numer=[],
    denom=[(LinearParam(Dual(F(5, 2), -1), 0), IndexLaw(0, 2, 1))],
    eps_order=0,
    degree_bound=4,
)
@given(
    numer=st.lists(_FACTORS, max_size=3),
    denom=st.lists(_FACTORS, max_size=3),
    eps_order=st.integers(0, 4),
    degree_bound=st.integers(0, 5),
)
def test_engine_matches_per_point_reference(numer, denom, eps_order, degree_bound):
    _check_engine(HyperTermSpec("random", numer=numer, denom=denom), eps_order, degree_bound)


def test_engine_matches_per_point_reference_on_seeded_random_specs():
    # 500 specs drawn apart from hypothesis, so the same ones run every time.
    # Each draw kind must occur: a Dual constant, a zero slope, a nonpositive
    # integer constant (a numerator row led by 0, or a denominator pole), a
    # numerator-only spec and a spec with a pole on its lattice.
    rng = random.Random(20261018)
    seen = Counter()

    def factor():
        if rng.random() < 0.4:
            c = F(rng.randint(-4, 3))
        else:
            c = F(rng.randint(-9, 9), rng.randint(1, 4))
        seen["nonpositive integer"] += c <= 0 and c.denominator == 1
        if rng.random() < 0.25:
            c = Dual(c, F(rng.randint(-3, 3), rng.randint(1, 3)))
            seen["Dual constant"] += 1
        s = F(0) if rng.random() < 0.25 else F(rng.randint(-3, 3), rng.randint(1, 3))
        seen["zero slope"] += s == 0
        law = IndexLaw(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
        return LinearParam(c, s), law

    for _ in range(500):
        numer = [factor() for _ in range(rng.randint(0, 3))]
        denom = [factor() for _ in range(rng.randint(0, 2))]
        eps_order, degree_bound = rng.randint(0, 3), rng.randint(0, 4)
        spec = HyperTermSpec("seeded", numer=numer, denom=denom)
        seen["numerator only"] += bool(numer) and not denom
        seen["pole"] += isinstance(_check_engine(spec, eps_order, degree_bound), tuple)
    kinds = ("Dual constant", "zero slope", "nonpositive integer", "numerator only", "pole")
    assert all(seen[kind] >= 20 for kind in kinds), seen


def test_engine_pole_matches_per_point_reference():
    # Factor 1 first vanishes at length 3, i.e. on lattice point (0, 2).
    spec = HyperTermSpec(
        "pole",
        numer=[(LinearParam(F(1, 2), 1), IndexLaw(0, 1, 1))],
        denom=[(LinearParam(1, -1), IndexLaw(0, 1, 0)), (LinearParam(-2, 1), IndexLaw(1, 0, 1))],
    )
    reference = _per_point_reference(spec, 2, 4)
    assert reference == ("PoleError", (0, 2), 1)
    assert _entries_or_pole(lambda: expand_general(spec, 2, 4)) == reference


def _counter(monkeypatch, calls, owner, name):
    # Replace owner.name by a wrapper that counts its calls in calls[name].
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_engine_builds_each_factor_once_and_no_series(monkeypatch):
    # Deterministic work counts of the engine on F5 (K=6, D=20): the walk
    # applies each factor's c0 start factors, c1 factors on each of the D
    # moves down the m2 = 0 column and c2 factors on each of the D(D+1)/2
    # moves along the m2 rows, so sum_f (c0 + c1*D + c2*D(D+1)/2) linear-factor
    # steps, builds the entries of each of the 231 lattice points once, and
    # makes no series, products or inverses.
    calls = Counter()
    for name in ("_poch_step", "_recip_step", "_entries"):
        _counter(monkeypatch, calls, pochex.hyper_expand, name)
    for module in (pochex.hyper_expand, pochex.pochhammer, pochex.series):
        for name in ("poch_eps_series", "series_invert"):
            if hasattr(module, name):
                _counter(monkeypatch, calls, module, name)
    _counter(monkeypatch, calls, EpsSeries, "__mul__")
    expand_general(closed_engine_spec("F5"), 6, 20)
    assert calls["_poch_step"] == 460
    assert calls["_recip_step"] == 230
    assert calls["_entries"] == 231
    assert calls["poch_eps_series"] == 0
    assert calls["series_invert"] == 0
    assert calls["__mul__"] == 0


@pytest.mark.parametrize("example", CLOSED_EXAMPLES)
def test_closed_forms_evaluate_each_weight_once_per_point(monkeypatch, example):
    # Deterministic work counts of the closed forms at D=12 (91 lattice points):
    # each point evaluates its prefactor and its weights once, as integers, and
    # gets every k from them, so the counts at eps order 4 equal those at eps
    # order 0.  No closed form calls pochhammer, binomial or gen_bernoulli_poly,
    # or builds a Bernoulli core or a Miller term: dF7 is F7's column
    # differentiated at delta = 0.
    calls = Counter()
    for name, home in [
        ("binomial", pochex.combinatorics),
        ("gen_bernoulli_poly", pochex.combinatorics),
        ("_bernoulli_values", pochex.combinatorics),
        ("_miller_power", pochex.combinatorics),
        ("pochhammer", pochex.pochhammer),
    ]:
        for owner in (home, pochex.hyper_expand):
            if hasattr(owner, name):
                _counter(monkeypatch, calls, owner, name)
    extra = {"delta": F(1, 3)} if example in ("F6", "F6_alt", "F7") else None
    for eps_order in (0, 4):
        calls.clear()
        expand_closed(example, eps_order, 12, extra)
        assert calls == Counter(), eps_order


# How often each kind of column a closed form reads is built per table at K=4,
# D=12 (91 points, 13 values of each index): F1's power column and product once
# per point; F5's inner power column once per m1, its outer one once per m2 and
# their product once per point; F6's t1 once per n1, its t2 and product once per
# point; the one power column of the others once per point.
_COLUMN_BUILDS = {"F1": (91, 91), "F5": (13, 13, 91), "F6": (13, 91, 91)}


@pytest.mark.parametrize(
    "example, kinds",
    [("F1", 2), ("F2", 1), ("F3", 1), ("F4", 1), ("F5", 3)]
    + [("F6", 3), ("F6_alt", 1), ("F7", 1), ("dF7_ddelta", 1)],
)
def test_closed_forms_sum_each_coefficient_once(monkeypatch, example, kinds):
    # Every closed form builds its `kinds` kinds of integer row, each of
    # _power_column or _product, as often as _COLUMN_BUILDS says: a column that
    # depends on one index only is built once per table.  It turns one column
    # per point into entries.  A power column's one denominator is one
    # math.lcm; a convolution's is the product of two, and no coefficient takes
    # an lcm of its own.  The one other lcm is the Dual delta's triple, once
    # per call.  A Dual delta takes the same path as a rational one.
    builds = _COLUMN_BUILDS.get(example, (91,))
    assert len(builds) == kinds
    deltas = [F(1, 3), Dual(F(1, 3), 1)] if example in ("F6", "F6_alt", "F7") else [None]
    for delta in deltas:
        calls = Counter()
        with monkeypatch.context() as patched:
            for name in ("_power_column", "_product", "_entries"):
                _counter(patched, calls, pochex.hyper_expand, name)
            counted_math = types.SimpleNamespace(**vars(math))
            _counter(patched, calls, counted_math, "lcm")
            patched.setattr(pochex.hyper_expand, "math", counted_math)
            expand_closed(example, 4, 12, None if delta is None else {"delta": delta})
        assert calls["_power_column"] + calls["_product"] == sum(builds), delta
        assert calls["_entries"] == 91, delta
        assert calls["lcm"] == calls["_power_column"] + isinstance(delta, Dual), delta


# -- the closed forms' integer rows ---------------------------------------------
# The Fraction/Dual loops below are the definitions `_power_column`, `_product`
# and `_scaled` must reproduce: the same value and type for every entry, an
# entry being a Dual where a triple that reaches its row, or the prefactor, has
# a der.


def _scalar(triple):
    n, dn, d = triple
    return F(n, d) if dn is None else Dual(F(n, d), F(dn, d))


def _reference_power_column(K, lead, terms):
    # One Fraction/Dual multiply-add per term and k.
    column = [_scalar(lead)] + [F(0)] * K
    for w, r in terms:
        term = _scalar(w)
        for k in range(K + 1):
            column[k] = column[k] + term
            term = term * _scalar(r)
    dual = any(dn is not None for dn in (lead[1], *(x[1] for pair in terms for x in pair)))
    return column, dual


def _reference_convolve(a, b):
    (x, dual_x), (y, dual_y) = a, b
    column = [sum((x[i] * y[k - i] for i in range(k + 1)), F(0)) for k in range(len(x))]
    return column, dual_x or dual_y


def _reference_scaled(pref, reference):
    column, dual = reference
    entries = [_scalar(pref) * v for v in column]
    if dual or pref[1] is not None:
        return [v if isinstance(v, Dual) else Dual(v) for v in entries]
    return entries


def _typed_list(values):
    return [(type(v), v) for v in values]


_small_int = st.integers(-5, 5)
_triple = st.tuples(
    _small_int,
    st.none() | _small_int,
    st.integers(-6, 6).filter(bool),
)
_pairs = st.lists(st.tuples(_triple, _triple), max_size=4)


@settings(deadline=None)
@given(st.integers(0, 5), _triple, _pairs, _triple, _pairs, _triple)
@example(3, (1, None, 1), [((2, None, -3), (1, 4, -5))], (0, None, 2), [], (1, None, 1))
@example(2, (0, 1, -2), [], (1, None, 1), [((0, None, 1), (1, None, 2))], (3, None, -4))
@example(2, (1, None, 1), [], (1, None, 1), [], (-1, 2, 3))
def test_closed_rows_are_the_fraction_dual_sums(K, lead_a, terms_a, lead_b, terms_b, pref):
    # Negative dens, zero weights and ratios, and ders anywhere: each row, its
    # Cauchy product and their scaled entries equal the Fraction/Dual loops.
    hx = pochex.hyper_expand
    a, b = hx._power_column(K, lead_a, terms_a), hx._power_column(K, lead_b, terms_b)
    ref_a = _reference_power_column(K, lead_a, terms_a)
    ref_b = _reference_power_column(K, lead_b, terms_b)
    assert _typed_list(hx._scaled(pref, a)) == _typed_list(_reference_scaled(pref, ref_a))
    assert _typed_list(hx._scaled(pref, pochex.series._product(a, b))) == _typed_list(
        _reference_scaled(pref, _reference_convolve(ref_a, ref_b))
    )


@given(st.integers(0, 30), st.integers(-40, 40))
def test_closed_df7_rising_der_is_the_pochhammer_derivative(n, c):
    # Closed dF7 rests on this: at the triple (0, 1, 1), delta = 0 with der 1, the
    # der of the rising factorial (delta + c)_n over its den is d/d delta of it
    # at delta = 0, poch_deriv(c, n, 1).  For n >= 1 it is also the generalized
    # Bernoulli form (-1)**(n-1) n B_{n-1}^{(n+1)}(1 - c).
    _, der, den = pochex.hyper_expand._rising((0, 1, 1), c, n)
    value = F(der or 0, den)
    assert value == poch_deriv(c, n, 1)
    if n >= 1:
        assert value == (-1) ** (n - 1) * n * gen_bernoulli_poly(n - 1, n + 1, 1 - c)


def test_closed_tables_keep_their_digest():
    # Every entry of the nine closed tables at K=6, D=20, with its type, for
    # delta in {1/3, -2/5, Dual(1/3, 1)} where one is taken: 24,270 lines.  This
    # pins byte identity at a larger height than the K <= 4, D <= 12 engine
    # comparisons, without running through the engine.
    lines = []
    for example in CLOSED_EXAMPLES:
        takes = example in ("F6", "F6_alt", "F7")
        for delta in [F(1, 3), F(-2, 5), Dual(F(1, 3), 1)] if takes else [None]:
            table = expand_closed(example, 6, 20, None if delta is None else {"delta": delta})
            lines.append(f"{example} {delta!r}")
            lines += [f"{k},{type(v).__name__},{v!r}" for k, v in sorted(table.entries.items())]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (
        24270,
        "cc5860c234bee636bdfe9c71630d71a3638fd2bc47202500daf3813d4a69fa82",
    )


# `engine_digest.py` over three engine tables and the dF7 delta-parts, with entry
# types, then over one instance of each public record, then over a sweep of the
# library's calls (see the script).  requires-python says >=3.10.7, so every such
# Python found must print the same digests.
_ENGINE_DIGEST = "c116219f4b9e568d14ace1ca1acfae651100aa5a7d1bbf13b2d75f87d66332e6"
_RECORD_DIGEST = "33662b72c35fa7d55337a4e672b3f246ae4d4f3ef66fe38c4e3eb73f8c7e944c"
_LIBRARY_DIGEST = "b2f6b25370c843c27733ac3c8c05d9603f7b2b3f4ae48cb350dbbf8e356b6290"


def _starts(python):
    # An interpreter counts as present when it is found and runs `pass`.
    if shutil.which(python) is None:
        return False
    done = subprocess.run([python, "-c", "pass"], capture_output=True, timeout=60)
    return done.returncode == 0


def _interpreter(version):
    # The `python3.X` on PATH if it starts (a pyenv shim may not), else the first
    # $PYENV_ROOT/versions/3.X.*/bin/python3 that starts, oldest first; None if none.
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    installed = sorted(
        root.glob(f"versions/{version}.*/bin/python3"),
        key=lambda path: [int(n) for n in re.findall(r"\d+", path.parts[-3])],
    )
    return next(
        (python for python in [f"python{version}", *map(str, installed)] if _starts(python)),
        None,
    )


def test_engine_digest_is_the_same_on_every_interpreter():
    # A version with no interpreter that starts is skipped.
    script = Path(__file__).with_name("engine_digest.py")
    others = [_interpreter(version) for version in ("3.10", "3.12", "3.13")]
    for python in [sys.executable, *filter(None, others)]:
        done = subprocess.run(
            [python, str(script)], capture_output=True, text=True, timeout=120, check=True
        )
        assert done.stdout == f"{_ENGINE_DIGEST}\n{_RECORD_DIGEST}\n{_LIBRARY_DIGEST}\n", python


def test_bernoulli_core_is_built_once_per_order(monkeypatch):
    # No Bernoulli core outlives the call that builds it.  Closed dF7 at D=12
    # builds none, on each of two calls: it is F7's column differentiated at
    # delta = 0.  gen_bernoulli_poly builds one core of length n + 1; A18 one
    # per distinct a of its default grid (one per point, 10, before its points
    # shared them), of length _GENFUN_ORDER + 1.  The bernoulli method builds
    # none.
    calls, lengths = Counter(), []
    build = pochex.combinatorics._bernoulli_values

    def counted(n, a):
        calls["_bernoulli_values"] += 1
        lengths.append(n + 1)
        return build(n, a)

    for owner in (pochex.combinatorics, pochex.hyper_expand, pochex.verify):
        if hasattr(owner, "_bernoulli_values"):
            monkeypatch.setattr(owner, "_bernoulli_values", counted)
    for _ in range(2):
        calls.clear()
        expand_closed("dF7_ddelta", 4, 12)
        assert calls["_bernoulli_values"] == 0
    for n in (0, 1, 12, 30):
        calls.clear()
        lengths.clear()
        gen_bernoulli_poly(n, 13, F(2, 7))
        assert (calls["_bernoulli_values"], lengths) == (1, [n + 1])
    calls.clear()
    lengths.clear()
    assert pochex.verify.run_relation("A18").passed
    assert calls["_bernoulli_values"] == 5
    assert set(lengths) == {pochex.verify._GENFUN_ORDER + 1}
    calls.clear()
    for alpha in (F(2, 7), Dual(F(1, 3), 1)):
        for k in range(13):
            poch_deriv(alpha, 12, k, PochMethod.BERNOULLI)
    poch_deriv(F(-9, 4), 60, 3, PochMethod.BERNOULLI)
    assert calls == Counter()


def test_bernoulli_core_computes_each_miller_term_once(monkeypatch):
    # Within one call, gen_bernoulli_poly(12, a, x) computes the Miller terms
    # (-a, j), j = 1..12, of its order a, and no (order, term) twice; a second
    # call computes the same terms once more.
    terms = Counter()
    miller = pochex.combinatorics._miller_power

    def recorded(f, a, n):
        terms.update((a, j) for j in range(1, n + 1))
        return miller(f, a, n)

    monkeypatch.setattr(pochex.combinatorics, "_miller_power", recorded)
    for a in range(2, 14):
        for _ in range(2):
            terms.clear()
            gen_bernoulli_poly(12, a, F(2, 7))
            assert set(terms) == {(-a, j) for j in range(1, 13)}
            assert set(terms.values()) == {1}


def test_each_stirling_reader_takes_one_walk(monkeypatch):
    # The stirling_sum method reads one column of one walk: s(i, 3) for
    # i = 0..2000 and the row cut at width 4.  The coffey method reads row m
    # of one walk of width m + 1.  Closed F1 at K=4, D=12 reads row m + 1 of
    # one walk per total degree m = 0..12, cut at width K + 2, and shares it
    # among the points of that degree.
    # pochex.pochhammer is the function the package exports; take the module.
    shapes = []
    for module in (sys.modules["pochex.pochhammer"], pochex.hyper_expand):

        def recorded(n, k, walk=module._stirling_walk):
            column, row = walk(n, k)
            shapes.append((len(column), len(row)))
            return column, row

        monkeypatch.setattr(module, "_stirling_walk", recorded)
    poch_deriv(F(1, 3), 2000, 3)
    poch_deriv(F(1, 3), 60, 3, PochMethod.COFFEY)
    assert shapes == [(2001, 4), (61, 61)]
    shapes.clear()
    expand_closed("F1", 4, 12)
    assert sorted(shapes) == [(m + 2, 6) for m in range(13)]


# -- regrouping ------------------------------------------------------------------


def test_regroup_total_degree_is_lossless():
    table = expand_closed("F1", 1, 3)
    regrouped = regroup_total_degree(table)
    assert regrouped.regrouping == "total_degree"
    for (k, m1, m2), value in table.entries.items():
        assert regrouped.get(k, m1 + m2, m1) == value
    assert len(regrouped.entries) == len(table.entries)


def test_regroup_twice_rejected():
    table = regroup_total_degree(expand_closed("F1", 1, 2))
    with pytest.raises(DomainError):
        regroup_total_degree(table)


# -- built-in examples: frozen anchors ---------------------------------------------


def test_f1_frozen_entries():
    table = expand_closed("F1", 1, 2)
    assert table.get(0, 0, 0) == 1
    assert table.get(0, 1, 1) == 4
    assert table.get(1, 0, 1) == -2
    assert table.get(1, 1, 1) == -10
    assert table.get(1, 2, 0) == -3


def test_eps0_entries_are_squared_binomials():
    for example in ("F1", "F2", "F3", "F4"):
        table = expand_closed(example, 0, 5)
        for m1 in range(6):
            for m2 in range(6 - m1):
                assert table.get(0, m1, m2) == binomial(m1 + m2, m1) ** 2, (
                    example,
                    m1,
                    m2,
                )


def test_f5_regrouped_anchors():
    table = regroup_total_degree(expand_closed("F5", 1, 2))
    assert table.get(0, 0, 0) == 1
    assert table.get(0, 1, 0) == F(1, 2)
    assert table.get(0, 1, 1) == F(1, 4)
    assert table.get(0, 2, 2) == F(1, 8)
    assert table.get(1, 2, 2) == F(5, 48)


def test_symmetry_under_index_swap():
    order, bound = 2, 5
    f1 = expand_closed("F1", order, bound)
    f4 = expand_closed("F4", order, bound)
    f2 = expand_closed("F2", order, bound)
    f3 = expand_closed("F3", order, bound)
    for (k, m1, m2), value in f1.entries.items():
        assert f1.get(k, m2, m1) == value
    for (k, m1, m2), value in f4.entries.items():
        assert f4.get(k, m2, m1) == value
    for (k, m1, m2), value in f2.entries.items():
        assert f3.get(k, m2, m1) == value


def _closed_f4_reformulated(k, m1, m2):
    # Second route to the F4 coefficients (telescoped single j-sum).
    square = binomial(m1 + m2, m1) ** 2
    if k == 0:
        return square
    acc = F(0)
    for j in range(1, m1 + 1):
        acc += (
            (-1) ** j
            * pochhammer(m1 + 1 - j, j)
            * pochhammer(m2 + 1 - j, j)
            / (pochhammer(m1 + m2 + 1 - j, j) * math.factorial(j))
            / j**k
        )
    return (-1) ** (k + 1) * square * acc


def test_f4_reformulation_agrees():
    table = expand_closed("F4", 3, 6)
    for (k, m1, m2), value in table.entries.items():
        assert _closed_f4_reformulated(k, m1, m2) == value


# -- engine vs closed forms (small grid; the acceptance gate runs the large one) ----


@pytest.mark.parametrize("example", ["F1", "F2", "F3", "F4", "F5"])
def test_engine_matches_closed_delta_free(example):
    order, bound = 2, 4
    closed = expand_closed(example, order, bound)
    engine = expand_general(closed_engine_spec(example), order, bound)
    assert engine.entries == closed.entries


def _entries_or_pole(build):
    try:
        return build().entries
    except PoleError as exc:
        return ("PoleError", exc.lattice_point, exc.factor)


@pytest.mark.parametrize("example", ["F6", "F6_alt", "F7"])
@pytest.mark.parametrize(
    "delta",
    [F(0), F(1, 3)]
    + [F(d) for d in (-3, -2, -1, 1, 2, 3)]
    + [F(1, 2), F(-1, 2), Dual(F(1, 3), 1), Dual(-2, 1), Dual(0, 1)],
)
def test_engine_matches_closed_delta_families(example, delta):
    # Equal tables with equal entry types (a Dual delta gives Dual entries where
    # the term depends on delta), or the same PoleError (lattice point and
    # factor) on both routes.
    order, bound = 2, 4
    closed = _entries_or_pole(
        lambda: expand_closed(example, order, bound, extra={"delta": delta})
    )
    engine = _entries_or_pole(
        lambda: expand_general(closed_engine_spec(example, delta), order, bound)
    )
    assert engine == closed
    if not isinstance(closed, tuple):
        assert {key: type(v) for key, v in engine.items()} == {
            key: type(v) for key, v in closed.items()
        }
    # Only a negative-integer delta puts a pole on this lattice.
    value = delta.val if isinstance(delta, Dual) else delta
    assert isinstance(closed, tuple) == (value < 0 and value.denominator == 1)


_DRAWN_DELTA = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def _typed_entries_or_pole(build):
    entries = _entries_or_pole(build)
    if isinstance(entries, tuple):
        return entries
    return [(key, type(v), v) for key, v in sorted(entries.items())]


@settings(max_examples=120, deadline=None)
@given(
    example=st.sampled_from(CLOSED_EXAMPLES),
    delta=_DRAWN_DELTA | st.builds(Dual, _DRAWN_DELTA, _DRAWN_DELTA),
    eps_order=st.integers(0, 4),
    degree_bound=st.integers(0, 8),
)
@example(example="F6_alt", delta=F(-7, 12), eps_order=4, degree_bound=8)
@example(example="F6", delta=Dual(-3, F(5, 7)), eps_order=2, degree_bound=8)
@example(example="F7", delta=Dual(F(-1, 2), 0), eps_order=3, degree_bound=6)
def test_closed_forms_equal_the_engine_on_drawn_inputs(example, delta, eps_order, degree_bound):
    # A rational delta of either sign or a Dual one for F6, F6_alt and F7 (the
    # others take none): equal entries of equal types on both routes, or the
    # same PoleError (lattice point and factor).  dF7 is the delta-part of F7's
    # Dual engine table.
    delta = delta if example in ("F6", "F6_alt", "F7") else None
    extra = None if delta is None else {"delta": delta}
    closed = _typed_entries_or_pole(
        lambda: expand_closed(example, eps_order, degree_bound, extra)
    )
    engine_expand = delta_dual_expand if example == "dF7_ddelta" else expand_general
    engine = _typed_entries_or_pole(
        lambda: engine_expand(closed_engine_spec(example, delta), eps_order, degree_bound)
    )
    assert closed == engine


@pytest.mark.parametrize("delta", [Dual(F(1, 3), 1), Dual(2, F(-1, 2)), Dual(0, 1)])
def test_closed_dual_delta_keeps_the_engine_values_and_types(delta):
    # A Dual delta takes the closed forms' integer sums with Dual numerators;
    # at K=4, D=8 each of F6, F6_alt and F7 still equals the engine entry by
    # entry, in value and in type (3 deltas x 3 examples x 225 entries).
    for example in ("F6", "F6_alt", "F7"):
        closed = expand_closed(example, 4, 8, extra={"delta": delta}).entries
        engine = expand_general(closed_engine_spec(example, delta), 4, 8).entries
        assert len(closed) == 225
        assert [(key, type(v), v) for key, v in sorted(closed.items())] == [
            (key, type(v), v) for key, v in sorted(engine.items())
        ]
        assert any(isinstance(v, Dual) for v in closed.values())


def test_closed_pole_computes_no_point(monkeypatch):
    # At delta = -13 the first pole of F6 in m1-major order is (0, 13), factor
    # 2; every point is checked before any is computed, so the entry function
    # runs at none of the 13 pole-free points before it.
    calls = Counter()
    _counter(monkeypatch, calls, pochex.hyper_expand, "_closed_f6")
    examples = pochex.hyper_expand._EXAMPLES
    monkeypatch.setitem(examples, "F6", (pochex.hyper_expand._closed_f6, *examples["F6"][1:]))
    with pytest.raises(PoleError) as exc_info:
        expand_closed("F6", 2, 14, extra={"delta": -13})
    assert calls["_closed_f6"] == 0
    assert (exc_info.value.lattice_point, exc_info.value.factor) == ((0, 13), 2)
    assert str(exc_info.value) == (
        "denominator factor 2 of F6 vanishes at eps = 0 on lattice point (0, 13)"
    )


def _scanned_points(spec, degree_bound):
    # The per-point pole scan that one check per factor replaces: every lattice
    # point in m1-major order, every denominator factor in order, the first
    # factor that vanishes at eps = 0 raising PoleError.
    points = [(m1, m2) for m1 in range(degree_bound + 1) for m2 in range(degree_bound + 1 - m1)]
    for m1, m2 in points:
        for idx, (param, law) in enumerate(spec.denom):
            if _vanishing_shift(param.constant, law(m1, m2)) is not None:
                raise PoleError(
                    f"denominator factor {idx} of {spec.name or 'spec'} "
                    f"vanishes at eps = 0 on lattice point ({m1}, {m2})",
                    lattice_point=(m1, m2),
                    factor=idx,
                )
    return points


def _points_or_pole(build):
    # What a call returns, or its PoleError in full: message, point and factor.
    try:
        return build()
    except PoleError as exc:
        return ("PoleError", str(exc), exc.lattice_point, exc.factor)


def _table_points(table):
    return sorted({(m1, m2) for _, m1, m2 in table.entries})


def _check_pole_routes(spec, degree_bound, *builds):
    # `_checked_points` and each table build against the per-point scan.
    reference = _points_or_pole(lambda: _scanned_points(spec, degree_bound))
    assert _points_or_pole(lambda: pochex.hyper_expand._checked_points(spec, degree_bound)) == (
        reference
    )
    expected = reference if isinstance(reference, tuple) else sorted(reference)
    for build in builds:
        assert _points_or_pole(lambda: _table_points(build())) == expected
    return reference


# Nonpositive-integer constants, plain or as the value of a Dual, put poles on
# the lattice at every length past their shift.
_POLE_CONSTANTS = st.integers(-6, 2) | st.builds(F, st.integers(-9, 9), st.integers(1, 3))
_POLE_FACTORS = st.tuples(
    st.builds(
        LinearParam,
        _POLE_CONSTANTS | st.builds(Dual, _POLE_CONSTANTS, st.integers(-2, 2)),
        _SLOPES,
    ),
    _LAWS,
)


@settings(max_examples=200, deadline=None)
@example(
    numer=[],
    denom=[
        (LinearParam(1, 0), IndexLaw(0, 1, 0)),
        (LinearParam(Dual(-2, 1), 0), IndexLaw(0, 0, 2)),
    ],
    degree_bound=3,
)
@example(numer=[], denom=[(LinearParam(-3, 1), IndexLaw(1, 2, 0))], degree_bound=1)
@given(
    numer=st.lists(_POLE_FACTORS, max_size=2),
    denom=st.lists(_POLE_FACTORS, max_size=3),
    degree_bound=st.integers(0, 6),
)
def test_pole_check_equals_the_per_point_scan(numer, denom, degree_bound):
    # One check per denominator factor at its longest length clears the
    # lattice, or the m1-major scan names the same first pole: the same points,
    # or the same PoleError message, lattice point and factor, as the scan.
    spec = HyperTermSpec("drawn", numer=numer, denom=denom)
    _check_pole_routes(spec, degree_bound, lambda: expand_general(spec, 1, degree_bound))


@pytest.mark.parametrize("example", ["F6", "F6_alt", "F7"])
@pytest.mark.parametrize("delta", [F(-1), F(-2), F(-3), Dual(-2, 1)])
def test_closed_pole_check_equals_the_per_point_scan(example, delta):
    # The engine and the closed form against the per-point scan of the engine
    # spec, on lattices too small and large enough for the first pole.
    spec = closed_engine_spec(example, delta)
    poles = 0
    for degree_bound in range(7):
        reference = _check_pole_routes(
            spec,
            degree_bound,
            lambda: expand_general(spec, 1, degree_bound),
            lambda: expand_closed(example, 1, degree_bound, {"delta": delta}),
        )
        poles += isinstance(reference, tuple)
    assert 0 < poles < 7


def test_f6_alt_is_another_route_to_f6():
    for delta in (F(0), F(1, 3)):
        a = expand_closed("F6", 2, 3, extra={"delta": delta})
        b = expand_closed("F6_alt", 2, 3, extra={"delta": delta})
        assert a.entries == b.entries


def test_df7_closed_matches_dual_engine():
    order, bound = 2, 4
    closed = expand_closed("dF7_ddelta", order, bound)
    engine = delta_dual_expand(closed_engine_spec("dF7_ddelta"), order, bound)
    assert engine.entries == closed.entries


def test_df7_frozen_anchors():
    table = expand_closed("dF7_ddelta", 0, 2)
    assert table.get(0, 0, 0) == 0
    assert table.get(0, 1, 0) == 1
    assert table.get(0, 0, 1) == 1
    assert table.get(0, 1, 1) == 4


def test_dual_delta_at_a_pole_is_a_pole_error():
    # The Dual constant 1 + Dual(-1, 1) has value part 0, so it has no inverse.
    with pytest.raises(PoleError) as exc_info:
        delta_dual_expand(closed_engine_spec("F7", Dual(-1, 1)), 1, 2)
    assert exc_info.value.lattice_point == (0, 1)
    assert exc_info.value.factor == 2


def test_delta_free_spec_has_zero_delta_derivative():
    table = delta_dual_expand(closed_engine_spec("F1"), 1, 2)
    assert all(v == 0 for v in table.entries.values())


def test_delta_dual_expand_is_the_delta_part_of_the_engine_table():
    # 400 seeded specs with Dual constants and slopes, K, D <= 4: every entry is
    # the Fraction delta-part of expand_general's entry (0 for a Fraction entry),
    # or both routes raise the same PoleError.
    rng = random.Random(20261020)
    seen = Counter()

    def scalar(dual):
        if rng.random() < 0.3:
            x = F(rng.randint(-4, 3))
        else:
            x = F(rng.randint(-9, 9), rng.randint(1, 4))
        if rng.random() < dual:
            return Dual(x, F(rng.randint(-3, 3), rng.randint(1, 3)))
        return x

    def factor():
        c, s = scalar(0.35), scalar(0.2)
        seen["Dual constant"] += isinstance(c, Dual)
        seen["Dual slope"] += isinstance(s, Dual)
        law = IndexLaw(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
        return LinearParam(c, s), law

    for _ in range(400):
        numer = [factor() for _ in range(rng.randint(0, 3))]
        denom = [factor() for _ in range(rng.randint(0, 2))]
        spec = HyperTermSpec("seeded", numer=numer, denom=denom)
        eps_order, degree_bound = rng.randint(0, 4), rng.randint(0, 4)
        got = _points_or_pole(lambda: delta_dual_expand(spec, eps_order, degree_bound).entries)
        table = _points_or_pole(lambda: expand_general(spec, eps_order, degree_bound).entries)
        if isinstance(table, tuple):
            seen["pole"] += 1
            assert got == table
            continue
        # The definition delta_dual_expand had as a pass over the Dual table.
        want = {key: v.der if isinstance(v, Dual) else F(0) for key, v in table.items()}
        assert got == want
        assert all(type(v) is F for v in got.values())
        seen["nonzero delta-part"] += any(got.values())
    kinds = ("Dual constant", "Dual slope", "pole", "nonzero delta-part")
    assert all(seen[kind] >= 20 for kind in kinds), seen


def test_delta_dual_expand_takes_the_engine_steps_and_builds_no_entries(monkeypatch):
    # On dF7 (K=4, D=10) the delta-parts come from the same walk as the Dual
    # table: as many linear-factor steps as expand_general makes, and no
    # `_entries` call, so no value part and no Dual is built.  F7's spec has two
    # numerator factors of law m1 + m2 and one of law m1, and two denominator
    # factors of law m1 and one of law m2; the walk makes 10 moves in m1 and 55
    # in m2, so 2*65 + 10 = 140 numerator and 2*10 + 55 = 75 denominator steps.
    spec = closed_engine_spec("dF7_ddelta")
    engine, dual = Counter(), Counter()
    with monkeypatch.context() as patched:
        for name in ("_poch_step", "_recip_step"):
            _counter(patched, engine, pochex.hyper_expand, name)
        expand_general(spec, 4, 10)

    def refused(row):
        raise AssertionError("delta_dual_expand built a row's entries")

    monkeypatch.setattr(pochex.hyper_expand, "_entries", refused)
    for name in ("_poch_step", "_recip_step"):
        _counter(monkeypatch, dual, pochex.hyper_expand, name)
    delta_dual_expand(spec, 4, 10)
    assert dual == engine == Counter({"_poch_step": 140, "_recip_step": 75})


# -- parameter validation -------------------------------------------------------------


def test_delta_examples_require_delta():
    for example in ("F6", "F6_alt", "F7"):
        with pytest.raises(MissingParameter):
            expand_closed(example, 1, 1)
        if example != "F6_alt":
            with pytest.raises(MissingParameter):
                closed_engine_spec(example)


def test_unknown_example_rejected():
    # An unhashable name is refused like any other unknown one.
    for name in ("F9", []):
        message = f"unknown example {re.escape(repr(name))}; known: F1, F2, F3"
        with pytest.raises(DomainError, match=message):
            expand_closed(name, 1, 1)
        with pytest.raises(DomainError, match=message):
            closed_engine_spec(name)


@pytest.mark.parametrize("example", ["F1", "F2", "F3", "F4", "F5"])
def test_delta_free_examples_refuse_delta(example):
    with pytest.raises(DomainError, match=f"example {example} takes no delta"):
        expand_closed(example, 1, 1, extra={"delta": F(1, 3)})
    with pytest.raises(DomainError, match=f"example {example} takes no delta"):
        closed_engine_spec(example, F(1, 3))


def test_expand_closed_refuses_unknown_extra_parameters():
    with pytest.raises(DomainError, match="only the extra parameter delta"):
        expand_closed("F1", 1, 1, extra={"gamma": F(1, 3)})
    with pytest.raises(DomainError, match="only the extra parameter delta"):
        expand_closed("F6", 1, 1, extra={"delta": F(1, 3), "gamma": 1})


def test_df7_rejects_nonzero_delta():
    with pytest.raises(DomainError):
        expand_closed("dF7_ddelta", 1, 1, extra={"delta": F(1, 2)})
    with pytest.raises(DomainError):
        delta_dual_expand(closed_engine_spec("dF7_ddelta", F(1, 2)), 1, 1)
    assert expand_closed("dF7_ddelta", 0, 1, extra={"delta": 0}).get(0, 1, 0) == 1


def test_closed_examples_inventory():
    assert CLOSED_EXAMPLES == (
        "F1",
        "F2",
        "F3",
        "F4",
        "F5",
        "F6",
        "F6_alt",
        "F7",
        "dF7_ddelta",
    )


# -- rendering ---------------------------------------------------------------------------


def test_emit_csv_lattice_header_and_order():
    table = expand_closed("F1", 0, 1)
    text = emit_table(table)
    lines = text.splitlines()
    assert lines[0] == "k,m1,m2,coefficient"
    assert lines[1:] == ["0,0,0,1", "0,0,1,1", "0,1,0,1"]


def test_emit_csv_total_degree_header():
    table = regroup_total_degree(expand_closed("F5", 0, 1))
    text = emit_table(table, format="csv")
    lines = text.splitlines()
    assert lines[0] == "k,m,n,coefficient"
    assert lines[1:] == ["0,0,0,1", "0,1,0,1/2", "0,1,1,1/4"]


def test_emit_aligned_blocks():
    table = ExpansionTable(
        {(0, 0, 0): F(1), (0, 0, 1): F(1, 2), (0, 1, 0): F(22, 7), (1, 0, 0): F(-1)},
        eps_order=1,
        degree_bound=1,
    )
    text = emit_table(table, format="aligned")
    blocks = text.split("\n\n")
    assert len(blocks) == 2
    assert blocks[0].splitlines()[0] == "k = 0"
    assert blocks[1].splitlines()[0] == "k = 1"
    header = blocks[0].splitlines()[1]
    assert header.split() == ["m1\\m2", "0", "1"]
    # columns align: every cell is right-justified to its column width
    row0 = blocks[0].splitlines()[2]
    assert row0.split() == ["0", "1", "1/2"]


def test_emit_unknown_format_rejected():
    with pytest.raises(DomainError):
        emit_table(expand_closed("F1", 0, 0), format="json")
