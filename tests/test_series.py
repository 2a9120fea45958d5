"""Exact truncated-series arithmetic."""

import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import pochex.series
from pochex.duals import Dual
from pochex.errors import DomainError, ParseError, ZeroSeries
from pochex.series import (
    EpsSeries,
    _entries,
    _int_row,
    _int_sum,
    parse_rational,
    polynomial_series,
    series_invert,
)
from pochex.verify import _compose, _log1p_power


def S(coeffs, min_exponent=0):
    return EpsSeries([F(c) for c in coeffs], min_exponent)


# -- rational text format -----------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [("0", F(0)), ("12", F(12)), ("-3/4", F(-3, 4)), ("6/4", F(3, 2)), ("-7", F(-7))],
)
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["", "1.5", "1/0", "--3", "3/-4", "a/b", "1 /2", "+3"])
def test_parse_rational_rejects(text):
    with pytest.raises(ParseError):
        parse_rational(text)


def test_parse_rational_reads_4300_digits_a_part():
    assert parse_rational("-" + "7" * 4300 + "/" + "3" * 4300) == F(-7, 3)


@pytest.mark.parametrize(
    "text", ["7" * 4301, "1/" + "3" * 4301, "-" + "7" * 4301 + "/2"], ids=["p", "q", "-p"]
)
def test_parse_rational_refuses_a_longer_part(text):
    with pytest.raises(ParseError, match="a 4301-digit part exceeds the 4300-digit limit"):
        parse_rational(text)


def test_parse_rational_tolerates_surrounding_whitespace():
    assert parse_rational(" -3/4\n") == F(-3, 4)


def test_format_round_trip():
    for value in (F(0), F(5), F(-3, 4), F(22, 7), F(-123456789, 1024)):
        assert parse_rational(str(value)) == value


@given(st.fractions())
def test_parse_rational_inverts_str(value):
    assert parse_rational(str(value)) == value


# -- the integer-sum kernel ------------------------------------------------------


_nonzero = st.integers(-(10**40), 10**40).filter(bool)


@given(st.lists(st.tuples(st.integers(-(10**40), 10**40), _nonzero), max_size=12))
@example([])
@example([(1, -2), (-3, 4), (5, -6)])
@example([(0, 7), (3, 7), (-3, 7)])
def test_int_sum_is_the_fraction_sum(pairs):
    # The sum of Fraction(n, d) whatever the signs of the denominators, as a
    # Fraction (the empty sum too).
    total = _int_sum(pairs)
    assert type(total) is F and total == sum((F(n, d) for n, d in pairs), F(0))


# -- construction and invariants ----------------------------------------------


def test_all_zero_series_has_min_exponent_zero():
    z = S([0, 0, 0], min_exponent=-2)
    assert z.leading_exponent() is None
    assert z.min_exponent == 0
    assert z.max_exponent == 0


def test_empty_window_is_a_domain_error():
    with pytest.raises(DomainError) as exc:
        EpsSeries([])
    assert str(exc.value) == "a series needs at least one coefficient in its window"


def test_laurent_leading_zeros_are_stripped():
    s = S([0, 1, 2], min_exponent=-1)
    assert s.min_exponent == 0
    assert s.coefficients == (F(1), F(2))


def test_coefficient_window():
    s = S([1, 2], min_exponent=-1)
    assert s.coefficient(-1) == 1
    assert s.coefficient(-5) == 0  # provably zero below the window
    with pytest.raises(DomainError):
        s.coefficient(1)  # unknown above the truncation order


def test_semantic_equality():
    assert S([1, 2]) == S([1, 2])
    assert S([1, 2]) != S([1, 2, 0])  # different truncation orders
    assert S([0, 1], min_exponent=-1) == S([1])


# -- arithmetic ----------------------------------------------------------------


def test_mul_difference_of_squares():
    a = S([1, 1, 0])
    b = S([1, -1, 0])
    assert a * b == S([1, 0, -1])


def test_mul_identity():
    assert S([1, 1, 0]) * S([1, 0, 0]) == S([1, 1, 0])


def test_mul_shifted_arguments():
    assert S([2, 1, 0]) * S([1, 1, 0]) == S([2, 3, 1])


def test_mul_window_uses_true_leading_exponents():
    # a = eps (window [0,3]), b = 1 + eps (window [0,3]).  The product's eps^4
    # needs a's unknown eps^4 term, so the result stops at 3 — but b's unknowns
    # only enter shifted by a's leading exponent 1, which is what lets two
    # series with matching leading zeros keep full relative precision:
    a = S([0, 1, 0, 0])
    b = S([1, 1, 0, 0])
    assert (a * b) == S([0, 1, 1, 0])
    assert (a * b).max_exponent == 3
    c = S([0, 1, 1, 0])  # eps + eps^2, window [0,3]
    assert (a * c).max_exponent == 4
    assert a * c == S([1, 1, 0], min_exponent=2)


def test_add_takes_min_truncation():
    total = S([1, 1]) + S([1, 0, 5])
    assert total.max_exponent == 1
    assert total == S([2, 1])


def test_invert_geometric():
    assert series_invert(S([1, -1, 0])) == S([1, 1, 1])


def test_invert_constant():
    assert series_invert(S([2])) == S([F(1, 2)])


def test_invert_laurent_long_division():
    # 1/(eps + eps^2), input carried to truncation order 3.
    s = S([0, 1, 1, 0])
    inv = series_invert(s)
    assert inv.min_exponent == -1
    assert inv == S([1, -1, 1], min_exponent=-1)


def test_invert_zero_raises():
    with pytest.raises(ZeroSeries):
        series_invert(S([0, 0]))


def test_invert_round_trip_restores_window():
    s = S([0, 0, 3, 1, 5, 0, 2], min_exponent=-1)
    back = series_invert(series_invert(s))
    assert back == s


def test_mul_by_inverse_is_one():
    rng = random.Random(7)
    for _ in range(25):
        coeffs = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(6)]
        if all(c == 0 for c in coeffs):
            coeffs[0] = F(1)
        s = EpsSeries(coeffs, min_exponent=rng.choice([-2, -1, 0, 1]))
        inv = series_invert(s)
        product = s * inv
        assert product.coefficient(0) == 1
        for e in range(1, product.max_exponent + 1):
            assert product.coefficient(e) == 0


def test_div():
    num = S([1, 0, 0])
    den = S([1, 1, 0])
    assert num * series_invert(den) == S([1, -1, 1])


# -- verify's reference series: composition and powers of log(1+z) -------------


def test_compose_monomial():
    # The outer series is an integer row over a denominator: here w^2.
    inner = S([0, 2, 0, 0])  # 2z
    assert _compose(1, [0, 0, 1, 0], inner) == S([0, 0, 4, 0])


def test_compose_euler_transform_style():
    inner = S([0, 1, 1, 1])  # z/(1-z); outer 1/(1-w)
    assert _compose(1, [1, 1, 1, 1], inner) == S([1, 1, 2, 4])


def test_compose_exp_log():
    inner = _log1p_power(1, 3)  # outer exp(w)
    assert _compose(6, [6, 6, 3, 1], inner) == S([1, 1, 0, 0])


def test_elementary_log1p():
    assert _log1p_power(1, 4) == S([0, 1, F(-1, 2), F(1, 3), F(-1, 4)])
    assert _log1p_power(0, 4) == S([1, 0, 0, 0, 0])
    # Each product keeps every coefficient its operands determine.
    assert _log1p_power(2, 4) == S([0, 0, 1, -1, F(11, 12), F(-5, 6)])


def test_polynomial_series_pads_and_truncates():
    assert polynomial_series([1, 2, 3], 4) == S([1, 2, 3, 0, 0])
    assert polynomial_series([1, 2, 3], 1) == S([1, 2])


# -- window rules, as properties ----------------------------------------------
# A result may claim only coefficients its operands determine, so extending an
# operand past its window (the unknown coefficients) must not change any
# coefficient the result claims.

_scalars = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_series = st.builds(
    EpsSeries, st.lists(_scalars, min_size=1, max_size=6), st.integers(-3, 3)
)
_tails = st.lists(_scalars, max_size=3)


def _extended(a, tail):
    return EpsSeries(list(a.coefficients) + tail, a.min_exponent)


def _lead(a):
    lead = a.leading_exponent()
    return a.min_exponent if lead is None else lead


def _agree_on_window(result, other):
    assert other.max_exponent >= result.max_exponent
    for e in range(min(result.min_exponent, other.min_exponent) - 1, result.max_exponent + 1):
        assert result.coefficient(e) == other.coefficient(e), e


@given(_series, st.integers(-6, 6))
@example(S([1, 2, 3], -1), -2)
def test_truncation_agrees_with_the_series_on_its_window(a, new_max):
    cut = a.truncated(new_max)
    assert cut.max_exponent == min(new_max, a.max_exponent)
    for e in range(min(a.min_exponent, cut.min_exponent) - 1, cut.max_exponent + 1):
        assert cut.coefficient(e) == a.coefficient(e)


@given(_series, _series, _tails, _tails)
@example(S([1, 5], -2), S([-1, -5], -2), [F(1)], [F(2)])
def test_sum_window_rule(a, b, tail_a, tail_b):
    total = a + b
    assert total.max_exponent == min(a.max_exponent, b.max_exponent)
    _agree_on_window(total, _extended(a, tail_a) + _extended(b, tail_b))


@given(_series, _series, _tails, _tails)
def test_product_window_rule(a, b, tail_a, tail_b):
    product = a * b
    pa, pb = _lead(a), _lead(b)
    assert product.max_exponent == min(a.max_exponent + pb, b.max_exponent + pa)
    _agree_on_window(product, _extended(a, tail_a) * _extended(b, tail_b))


@given(_series)
def test_invert_twice_is_the_identity(a):
    if a.leading_exponent() is None:
        return
    p = a.leading_exponent()
    inverse = series_invert(a)
    assert (inverse.min_exponent, inverse.max_exponent) == (-p, a.max_exponent - 2 * p)
    assert series_invert(inverse) == a


# -- the integer product and inverse kernels ------------------------------------
# The Fraction/Dual loops below are the definitions the kernels must reproduce:
# the same window, the same values and the same type for every entry.


def _reference_product(a, b):
    # One multiply-add per pair of nonzero coefficients inside the window.
    pa, pb = _lead(a), _lead(b)
    low = pa + pb
    high = min(a.max_exponent + pb, b.max_exponent + pa)
    out = [F(0)] * (high - low + 1)
    for i, ca in enumerate(a.coefficients):
        if ca == 0:
            continue
        for j, cb in enumerate(b.coefficients):
            e = a.min_exponent + i + b.min_exponent + j
            if cb == 0 or e > high:
                continue
            out[e - low] = out[e - low] + ca * cb
    return EpsSeries(out, low)


def _reference_inverse(a):
    # v_0 = 1/u_0 and v_n = -sum(u_i v_(n-i) over nonzero u_i, i = 1..n) / u_0.
    p = a.leading_exponent()
    u = a.coefficients[p - a.min_exponent :]
    v = [1 / u[0]]
    for n in range(1, len(u)):
        acc = F(0)
        for i in range(1, n + 1):
            if u[i] != 0:
                acc = acc + u[i] * v[n - i]
        v.append(-acc / u[0])
    return EpsSeries(v, -p)


def _typed(series):
    # The window and every entry with its type: a Fraction's repr names it.
    return series.min_exponent, series.max_exponent, repr(series.coefficients)


_small = st.fractions(min_value=-4, max_value=4, max_denominator=4)
_coefficient = st.one_of(
    st.just(F(0)), _small, st.builds(Dual, _small, _small), st.just(Dual(0, 0))
)
_mixed = st.builds(EpsSeries, st.lists(_coefficient, min_size=1, max_size=8), st.integers(-3, 3))


@given(st.lists(_coefficient, min_size=1, max_size=13))
@example([Dual(0, 0), F(1, 2), Dual(F(1, 3), 0), Dual(0, F(-1, 4))])
def test_a_row_reads_back_every_entry_and_its_type(coeffs):
    # `_entries` gives back what `_int_row` put over one denominator, by value and
    # type, except that a Dual(0, 0) is a zero of the row: Fraction(0).
    row = _int_row(coeffs)
    assert (row[2] is None) == (row[3] == 0)
    want = [F(0) if isinstance(c, Dual) and not c else c for c in coeffs]
    assert [(type(x), x) for x in _entries(row)] == [(type(x), x) for x in want]


@given(_mixed, _mixed)
@example(S([0, 0], -2), EpsSeries([Dual(1, 2), 3]))
@example(EpsSeries([Dual(0, 1), 1], -1), EpsSeries([Dual(0, 1), 2]))
@example(EpsSeries([Dual(0, 0), 1, Dual(1, 0)]), S([1, 0, 0, 5], -1))
@example(EpsSeries([1, Dual(2, 1)], 2), EpsSeries([Dual(0, 0), 0, 1], -3))
def test_product_is_the_fraction_dual_product(a, b):
    assert _typed(a * b) == _typed(_reference_product(a, b))


@given(_mixed)
@example(EpsSeries([Dual(2, 1), 1, 3]))
@example(EpsSeries([0, F(1, 3), Dual(0, 0), 2, Dual(1, 0), 4], -2))
@example(EpsSeries([3, 0, Dual(0, 1), 1]))
@example(EpsSeries([Dual(0, 1), 1]))
def test_inverse_is_the_fraction_dual_inverse(a):
    if a.leading_exponent() is None:
        with pytest.raises(ZeroSeries):
            series_invert(a)
        return
    lead = a.coefficient(a.leading_exponent())
    if isinstance(lead, Dual) and lead.val == 0:
        with pytest.raises(DomainError, match="series_invert needs a lead"):
            series_invert(a)
        return
    assert _typed(series_invert(a)) == _typed(_reference_inverse(a))


def test_invert_refuses_a_dual_lead_with_a_zero_value_part():
    with pytest.raises(
        DomainError,
        match=re.escape(
            "series_invert needs a lead with a nonzero value part; "
            "the coefficient of eps^-1 is Dual(0, 1)"
        ),
    ):
        series_invert(EpsSeries([Dual(0, 1), 1], -1))


def test_products_and_inverses_do_no_fraction_arithmetic(monkeypatch):
    # Order 12: each kernel builds one Fraction per coefficient and makes no
    # Fraction multiply or add; the reference loops, under the same count, do.
    # A product, of Fractions or of Duals, builds its entries by one `_entries`
    # call; an inverse has a denominator per entry and builds its own.
    a = EpsSeries([F(j + 1, j + 2) for j in range(13)])
    b = EpsSeries([F(2 * j - 5, 3 + j) for j in range(13)])
    dual = EpsSeries([Dual(F(j, 3), 1) if j % 3 else F(j + 1, 5) for j in range(13)])
    calls, rows = [], []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        def counted(x, y, _original=getattr(F, name)):
            calls.append(1)
            return _original(x, y)

        monkeypatch.setattr(F, name, counted)
    monkeypatch.setattr(pochex.series, "_entries", lambda row: rows.append(1) or _entries(row))
    product, inverse = a * b, series_invert(a)
    assert len(calls) == 0 and len(rows) == 1
    assert isinstance((a * dual).coefficients[1], Dual) and len(rows) == 2
    _reference_product(a, b)
    assert len(calls) > 0
    monkeypatch.undo()
    assert _typed(product) == _typed(_reference_product(a, b))
    assert _typed(inverse) == _typed(_reference_inverse(a))
