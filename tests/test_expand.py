"""Double-series eps-expansion engine and its closed-form counterparts."""

import hashlib
import math
import random
import re
import sys
import types
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pochex.combinatorics
import pochex.hyper_expand
import pochex.pochhammer
import pochex.series
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
    poch_deriv,
    poch_eps_series,
    pochhammer,
)
from pochex.series import EpsSeries, _entries, series_invert


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
            num = EpsSeries.one(eps_order)
            for param, law in spec.numer:
                num = num * poch_eps_series(param, law(m1, m2), eps_order)
            den = EpsSeries.one(eps_order)
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
    # order 0.  No closed form calls pochhammer, binomial, double_factorial or
    # gen_bernoulli_poly; dF7 reads one Bernoulli core per distinct n = 1..12
    # into an integer polynomial row, whatever its n1 + [n2 > 0] evaluations
    # per point.
    calls = Counter()
    for name, home in [
        ("binomial", pochex.combinatorics),
        ("double_factorial", pochex.combinatorics),
        ("gen_bernoulli_poly", pochex.combinatorics),
        ("_bernoulli_core", pochex.combinatorics),
        ("pochhammer", pochex.pochhammer),
    ]:
        for owner in (home, pochex.hyper_expand):
            if hasattr(owner, name):
                _counter(monkeypatch, calls, owner, name)
    expected = Counter({"_bernoulli_core": 12} if example == "dF7_ddelta" else {})
    extra = {"delta": F(1, 3)} if example in ("F6", "F6_alt", "F7") else None
    for eps_order in (0, 4):
        calls.clear()
        expand_closed(example, eps_order, 12, extra)
        assert calls == expected, eps_order


@pytest.mark.parametrize(
    "example, columns",
    [("F1", 2), ("F2", 1), ("F3", 1), ("F4", 1), ("F5", 3)]
    + [("F6", 3), ("F6_alt", 1), ("F7", 1), ("dF7_ddelta", 1)],
)
def test_closed_forms_sum_each_coefficient_once(monkeypatch, example, columns):
    # Every closed form builds `columns` integer rows per lattice point at K=4,
    # D=12 (91 points), each of _power_column or _product, and turns one
    # column per point into entries.  A power column's one denominator is one
    # math.lcm; a convolution's is the product of two, and no coefficient takes
    # an lcm of its own.  The one other lcm is the Dual delta's triple, once
    # per call.  A Dual delta takes the same path as a rational one.
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
        assert calls["_power_column"] + calls["_product"] == columns * 91, delta
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


@given(st.integers(1, 30), st.integers(-40, 40))
def test_closed_df7_bernoulli_rows_are_the_polynomials(n, x):
    # One integer row per n, read from the cached core, and one Horner pass per
    # integer x give gen_bernoulli_poly(n - 1, n + 1, x).
    rows = {}
    num, den = pochex.hyper_expand._bernoulli_at(rows, n, x)
    assert den > 0 and F(num, den) == gen_bernoulli_poly(n - 1, n + 1, x)
    assert pochex.hyper_expand._bernoulli_at(rows, n, -x)[1] == den and list(rows) == [n]


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


def test_bernoulli_core_is_built_once_per_order(monkeypatch):
    # gen_bernoulli_poly keeps one x-free core per order: closed dF7 at D=12
    # asks for orders 2..13, one n each, whatever the arguments (156
    # (order, argument) pairs).  The values B_{m-k}^(m+1)(1 - alpha) of the
    # P(m, k, alpha) identity then reuse the core of order m + 1 for a new
    # alpha.  The bernoulli method itself reads no core.
    calls = Counter()
    monkeypatch.setattr(pochex.combinatorics, "_bernoulli_cache", {})
    _counter(monkeypatch, calls, pochex.combinatorics, "_bernoulli_values")
    expand_closed("dF7_ddelta", 4, 12)
    assert calls["_bernoulli_values"] == 12
    m = 12
    for alpha in (F(2, 7), F(-9, 4)):
        calls.clear()
        for k in range(1, m + 1):
            gen_bernoulli_poly(m - k, m + 1, 1 - alpha)
        assert calls["_bernoulli_values"] == 0, alpha
    calls.clear()
    gen_bernoulli_poly(m, m + 1, 1 - F(5, 3))
    assert calls["_bernoulli_values"] == 1
    for k in range(m + 1):
        gen_bernoulli_poly(m - k, m + 1, 1 - F(1, 3))
    assert calls["_bernoulli_values"] == 1
    calls.clear()
    _counter(monkeypatch, calls, pochex.combinatorics, "_bernoulli_core")
    for alpha in (F(2, 7), Dual(F(1, 3), 1)):
        for k in range(m + 1):
            poch_deriv(alpha, m, k, PochMethod.BERNOULLI)
    poch_deriv(F(-9, 4), 60, 3, PochMethod.BERNOULLI)
    assert calls == Counter()


def test_bernoulli_core_computes_each_miller_term_once(monkeypatch):
    # Closed dF7 at K=4, D=12 builds the cores of orders 2..13, order 13 up to
    # term 11.  B_12^(13)(1 - alpha), the value behind P(12, 0, alpha), then
    # needs term 12 of order 13: the core resumes from the cached terms, and
    # no (order, term) is computed twice.
    terms = Counter()
    miller = pochex.combinatorics._miller_power

    def recorded(f, a, n, known):
        terms.update((a, j) for j in range(len(known), n + 1))
        return miller(f, a, n, known)

    monkeypatch.setattr(pochex.combinatorics, "_bernoulli_cache", {})
    monkeypatch.setattr(pochex.combinatorics, "_miller_power", recorded)
    expand_closed("dF7_ddelta", 4, 12)
    assert {a for a, _ in terms} == set(range(-13, -1))
    assert max(j for a, j in terms if a == -13) == 11
    cached = pochex.combinatorics._bernoulli_cache[13]
    gen_bernoulli_poly(12, 13, 1 - F(2, 7))
    assert terms[(-13, 12)] == 1
    assert set(terms.values()) == {1}
    assert len(pochex.combinatorics._bernoulli_cache[13]) == 13 and len(cached) == 12


def test_each_stirling_reader_takes_one_walk(monkeypatch):
    # The stirling_sum method reads one column of one walk: s(i, 3) for
    # i = 0..2000 and the row cut at width 4.  The coffey method reads row m
    # of one walk of width m + 1.  Closed F1 at K=4, D=12 reads row m + 1 of
    # one walk per lattice point, cut at width K + 2.
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
    points = [(m1, m2) for m1 in range(13) for m2 in range(13 - m1)]
    assert len(shapes) == len(points) == 91
    assert sorted(shapes) == sorted((m1 + m2 + 2, 6) for m1, m2 in points)


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
