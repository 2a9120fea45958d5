"""Acceptance gate: one criterion per test, one printed PASS/FAIL line each.

Every comparison is exact — no tolerances anywhere.  The frozen reference
table below was transcribed by hand and is the ground truth the library must
reproduce bit for bit.
"""

import random
import time
from fractions import Fraction as F

from pochex.hyper_expand import (
    closed_engine_spec,
    delta_dual_expand,
    expand_closed,
    expand_general,
    regroup_total_degree,
)
from pochex.combinatorics import binomial
from pochex.errors import PoleError, RepeatedRoot
from pochex.partial_fractions import PochProductQuotient, decompose_multi
from pochex.pochhammer import (
    LinearParam,
    PochMethod,
    RecipMethod,
    poch_deriv,
    poch_eps_series,
    recip_poch_deriv,
    recip_poch_laurent,
)
from pochex.series import EpsSeries, series_invert
from pochex.verify import verify_all

# Frozen reference: coefficient of eps^k x^(m-n) y^n in the built-in F5
# expansion, keyed (k, m, n), for k = 0..3 and n <= m <= 5 (84 entries).
_GOLDEN_ROWS = {
    (0, 0): ["1"],
    (0, 1): ["1/2", "1/4"],
    (0, 2): ["5/16", "1/4", "1/8"],
    (0, 3): ["7/32", "15/64", "3/16", "5/64"],
    (0, 4): ["21/128", "7/32", "15/64", "5/32", "7/128"],
    (0, 5): ["33/256", "105/512", "35/128", "125/512", "35/256", "21/512"],
    (1, 0): ["0"],
    (1, 1): ["0", "1/8"],
    (1, 2): ["1/32", "1/8", "5/48"],
    (1, 3): ["3/64", "9/64", "5/32", "65/768"],
    (1, 4): ["41/768", "5/32", "7/32", "65/384", "539/7680"],
    (1, 5): ["85/1536", "65/384", "55/192", "1775/6144", "539/3072", "609/10240"],
    (2, 0): ["0"],
    (2, 1): ["0", "1/16"],
    (2, 2): ["1/64", "1/16", "19/288"],
    (2, 3): ["3/128", "21/256", "19/192", "575/9216"],
    (2, 4): ["127/4608", "13/128", "119/768", "575/4608", "26593/460800"],
    (2, 5): [
        "275/9216",
        "2195/18432",
        "1025/4608",
        "17225/73728",
        "26593/184320",
        "32683/614400",
    ],
    (3, 0): ["0"],
    (3, 1): ["0", "1/32"],
    (3, 2): ["1/128", "1/32", "65/1728"],
    (3, 3): ["3/256", "3/64", "65/1152", "4325/110592"],
    (3, 4): ["389/27648", "1/16", "227/2304", "4325/55296", "1075991/27648000"],
    (3, 5): [
        "865/55296",
        "4265/55296",
        "2105/13824",
        "142475/884736",
        "1075991/11059200",
        "155869/4096000",
    ],
}

GOLDEN_F5 = {
    (k, m, n): F(text)
    for (k, m), row in _GOLDEN_ROWS.items()
    for n, text in enumerate(row)
}


def _report(number, label, ok, started):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({label}): {status} ({time.perf_counter() - started:.2f}s)")


def test_criterion_1_frozen_reference_table():
    started = time.perf_counter()
    table = regroup_total_degree(expand_closed("F5", 3, 5))
    ok = len(GOLDEN_F5) == 84 and table.entries == GOLDEN_F5
    _report(1, "frozen 84-entry reference table", ok, started)
    assert ok


def test_criterion_2_closed_forms_match_engine():
    started = time.perf_counter()
    ok = True
    for example in ("F1", "F2", "F3", "F4", "F5"):
        closed = expand_closed(example, 4, 8)
        engine = expand_general(closed_engine_spec(example), 4, 8)
        ok = ok and closed.entries == engine.entries
    for example in ("F6", "F6_alt", "F7"):
        for delta in (F(0), F(1, 3)):
            closed = expand_closed(example, 4, 8, extra={"delta": delta})
            engine = expand_general(closed_engine_spec(example, delta), 4, 8)
            ok = ok and closed.entries == engine.entries
    _report(2, "closed forms match the general engine", ok, started)
    assert ok


def test_criterion_3_eps0_coefficients_are_squared_binomials():
    started = time.perf_counter()
    ok = True
    for example in ("F1", "F2", "F3", "F4"):
        table = expand_closed(example, 0, 10)
        for (k, m1, m2), value in table.entries.items():
            ok = ok and value == binomial(m1 + m2, m1) ** 2
    _report(3, "eps^0 plane of F1..F4", ok, started)
    assert ok


def test_criterion_4_index_swap_symmetries():
    started = time.perf_counter()
    order, bound = 4, 8
    f1 = expand_closed("F1", order, bound)
    f4 = expand_closed("F4", order, bound)
    f2 = expand_closed("F2", order, bound)
    f3 = expand_closed("F3", order, bound)
    ok = True
    for (k, m1, m2), value in f1.entries.items():
        ok = ok and f1.get(k, m2, m1) == value
    for (k, m1, m2), value in f4.entries.items():
        ok = ok and f4.get(k, m2, m1) == value
    for (k, m1, m2), value in f2.entries.items():
        ok = ok and f3.get(k, m2, m1) == value
    _report(4, "index-swap symmetries of F1..F4", ok, started)
    assert ok


def test_criterion_5_cross_method_agreement():
    started = time.perf_counter()
    ok = True
    alpha_grid = [F(0), F(1), F(2), F(5), F(-1), F(-3), F(1, 2), F(-5, 2), F(7, 3)]
    for alpha in alpha_grid:
        for m in range(13):
            for k in range(m + 1):
                values = {
                    poch_deriv(alpha, m, k, method) for method in PochMethod
                }
                ok = ok and len(values) == 1
    beta_grid = [F(1), F(2), F(1, 2), F(7, 3)]
    for beta in beta_grid:
        for m in range(11):
            for k in range(7):
                values = {
                    recip_poch_deriv(beta, m, k, method) for method in RecipMethod
                }
                ok = ok and len(values) == 1
    _report(5, "all derivative methods agree pointwise", ok, started)
    assert ok


def test_criterion_6_self_verification_suite():
    started = time.perf_counter()
    summaries = verify_all()
    ok = all(summary.passed for summary in summaries)
    _report(6, "identity suite at series order 12", ok, started)
    assert ok


def test_criterion_7_laurent_window_against_inversion():
    started = time.perf_counter()
    oracle = series_invert(poch_eps_series(LinearParam(-1, 1), 3, 8))
    series = recip_poch_laurent(1, F(1), 3, 6)
    ok = all(series.coefficient(e) == oracle.coefficient(e) for e in range(-1, 7))
    _report(7, "Laurent expansion matches direct inversion", ok, started)
    assert ok


def test_criterion_8_delta_derivative_by_dual_numbers():
    started = time.perf_counter()
    closed = expand_closed("dF7_ddelta", 3, 6)
    engine = delta_dual_expand(closed_engine_spec("dF7_ddelta"), 3, 6)
    ok = closed.entries == engine.entries
    _report(8, "delta derivative closed form vs dual-number engine", ok, started)
    assert ok


def test_criterion_9_partial_fractions_recombine():
    started = time.perf_counter()
    rng = random.Random(416)
    # Working two orders above the comparison point keeps both routes exact
    # through order 10 even when a numerator zero cancels a denominator pole
    # at eps = 0 (the distinct-pole requirement caps that pole at depth one).
    order, compare_to = 12, 10
    ok = True
    built = 0
    while built < 20:
        nonzero = lambda: F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
        denom = [
            (
                LinearParam(F(rng.randint(-4, 6), rng.randint(1, 3)), nonzero()),
                rng.randint(1, 3),
            )
            for _ in range(rng.randint(1, 3))
        ]
        budget = sum(n for _, n in denom)
        numer = []
        for _ in range(rng.randint(0, 2)):
            m = rng.randint(0, budget)
            budget -= m
            numer.append(
                (LinearParam(F(rng.randint(-4, 6), rng.randint(1, 3)), nonzero()), m)
            )
        try:
            quotient = PochProductQuotient(numer=numer, denom=denom)
            form = decompose_multi(quotient)
        except (RepeatedRoot, PoleError):
            continue  # reroll degenerate draws
        num_series = EpsSeries([quotient.scalar] + [F(0)] * order, 0)
        for param, m in quotient.numer:
            num_series = num_series * poch_eps_series(param, m, order)
        den_series = EpsSeries([F(1)] + [F(0)] * order, 0)
        for param, n in quotient.denom:
            den_series = den_series * poch_eps_series(param, n, order)
        direct = num_series.truncated(order) * series_invert(den_series.truncated(order))
        recombined = EpsSeries([form.constant] + [F(0)] * order, 0)
        for term in form.terms:
            recombined = recombined + EpsSeries(
                [term.coefficient] + [F(0)] * order, 0
            ) * series_invert(
                EpsSeries([term.pole_constant, term.pole_slope] + [F(0)] * (order - 1), 0)
            )
        got = recombined.scaled(form.scalar).truncated(compare_to)
        ok = ok and got == direct.truncated(compare_to)
        built += 1
    _report(9, "random quotients recombine from their decompositions", ok, started)
    assert ok
