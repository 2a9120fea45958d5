"""Output checks for one pass, run in the parent after timing.

Every check uses a route that does not share the code path being timed:

* fixed tables against reference digests (see make_digests.py, which
  confirms them against closed-vs-engine agreement and the frozen F5 table);
* random engine specs at sampled lattice points against a Cauchy product of
  `poch_deriv(..., STIRLING_SUM)` and `recip_poch_deriv(..., CLOSED_SUM)`
  coefficients scaled by slope**k, which never touches `poch_eps_series` or
  `EpsSeries`;
* point queries against a second derivative method, series inversion
  (`--laurent`, `quotient`), recombination of the decomposition (`pf`) and
  the engine (`expand --closed`); invalid requests must exit 1 with an error
  line on stderr and an empty stdout.

`check(op, output)` returns None when the output is right, else a failure
class: the name of a documented known defect, or "unexpected: ...".
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

from pochex.hyper_expand import (
    closed_engine_spec,
    delta_dual_expand,
    emit_table,
    expand_general,
    regroup_total_degree,
)
from pochex.partial_fractions import PochProductQuotient, decompose_multi
from pochex.pochhammer import (
    LinearParam,
    PochMethod,
    RecipMethod,
    poch_deriv,
    poch_eps_series,
    recip_poch_deriv,
)
from pochex.series import EpsSeries, series_invert

from workloads import digest, op_key

DIGESTS = json.loads((Path(__file__).with_name("digests.json")).read_text(encoding="utf-8"))

# Failures the parent commit is known to show.  They count as failed ops; any
# other failure makes the run incorrect.
KNOWN_DEFECTS = {
    "closed_delta_pole_zero_division": "expand --closed F6/F6_alt at a delta that puts a "
    "pole on the lattice escapes cli.main as a raw ZeroDivisionError",
    "closed_delta_pole_accepted": "expand --closed F7 at such a delta prints a table and "
    "exits 0, where the engine raises PoleError",
    "nargs2_negative_fraction": "quotient --num/--den cannot take a negative non-integer "
    "(argparse reads `-1/2` as an option) and exits 1 with a usage error",
}

_ERROR_LINE = re.compile(r"^pochex( [a-z]+)?: error: ", re.MULTILINE)


def entries(op: dict) -> int:
    """Exact values a successful op yields (table entries, or printed results)."""
    kind = op["kind"]
    if kind in ("expand_general", "expand_closed", "delta_dual"):
        return (op["K"] + 1) * (op["D"] + 1) * (op["D"] + 2) // 2
    if kind == "verify_all":
        return 0
    cls, c = op["cls"], op.get("check", {})
    if cls in ("poch", "recip", "quotient", "quotient_negfrac"):
        return 1
    if cls == "laurent":
        return c["order"] + 2
    if cls == "pf":
        return 1 + sum(n for *_, n in c["denom"])
    if cls in ("expand_spec", "expand_closed"):
        return (c["K"] + 1) * (c["D"] + 1) * (c["D"] + 2) // 2
    if cls == "tables":
        lo, hi = (int(x) for x in op["argv"][2].split(".."))
        max_m = int(op["argv"][4])
        return (hi - lo + 1) * (max_m + 1) * (max_m + 2) // 2
    return 0


# -- independent reference routes ----------------------------------------------


def _mul_trunc(a: list, b: list, order: int) -> list:
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(order + 1)]


def cauchy_term(spec: dict, m1: int, m2: int, order: int) -> list:
    """Coefficients eps**0..order of the spec's term at (m1, m2), by Cauchy product."""
    acc = [Fraction(1)] + [Fraction(0)] * order
    for section, method in (("numer", PochMethod.STIRLING_SUM), ("denom", RecipMethod.CLOSED_SUM)):
        for c, s, (c0, c1, c2) in spec[section]:
            c, s = Fraction(c), Fraction(s)
            length = c0 + c1 * m1 + c2 * m2
            deriv = poch_deriv if section == "numer" else recip_poch_deriv
            factor = [s**k * deriv(c, length, k, method) for k in range(order + 1)]
            acc = _mul_trunc(acc, factor, order)
    scale = Fraction(1, math.factorial(m1) * math.factorial(m2))
    return [scale * x for x in acc]


def _pf_recombines(quotient: PochProductQuotient, form, order=12, compare_to=10) -> bool:
    """Acceptance criterion 9: the decomposition recombines to the quotient."""
    zeros = [Fraction(0)] * order
    num = EpsSeries([quotient.scalar] + zeros)
    for param, m in quotient.numer:
        num = num * poch_eps_series(param, m, order)
    den = EpsSeries([Fraction(1)] + zeros)
    for param, n in quotient.denom:
        den = den * poch_eps_series(param, n, order)
    direct = (num.truncated(order) * series_invert(den.truncated(order))).truncated(compare_to)
    recombined = EpsSeries([form.constant] + zeros)
    for term in form.terms:
        pole = EpsSeries([term.pole_constant, term.pole_slope] + zeros[1:])
        recombined = recombined + EpsSeries([term.coefficient] + zeros) * series_invert(pole)
    return recombined.scaled(form.scalar).truncated(compare_to) == direct


def _expected_stdout(op: dict) -> str:
    cls, c = op["cls"], op["check"]
    if cls == "poch":
        other = "recurrence" if c["method"] != "recurrence" else "stirling_sum"
        return f"{poch_deriv(Fraction(c['alpha']), c['m'], c['k'], PochMethod(other))}\n"
    if cls == "recip":
        other = "recurrence" if c["method"] != "recurrence" else "closed_sum"
        return f"{recip_poch_deriv(Fraction(c['beta']), c['m'], c['k'], RecipMethod(other))}\n"
    if cls == "laurent":
        n, b, m, order = c["n"], Fraction(c["b"]), c["m"], c["order"]
        series = series_invert(poch_eps_series(LinearParam(-n, b), m, order + 2))
        return "".join(f"{e},{series.coefficient(e)}\n" for e in range(-1, order + 1))
    if cls in ("quotient", "quotient_negfrac"):
        at, k = Fraction(c["at"]), c["k"]
        a, b = Fraction(c["a"]), Fraction(c["b"])
        num = poch_eps_series(LinearParam(Fraction(c["A"]) + a * at, a), c["m"], k)
        den = poch_eps_series(LinearParam(Fraction(c["B"]) + b * at, b), c["n"], k)
        return f"{(num * series_invert(den)).coefficient(k)}\n"
    if cls == "expand_closed":
        example, K, D = c["example"], c["K"], c["D"]
        if example == "dF7_ddelta":
            table = delta_dual_expand(closed_engine_spec(example), K, D)
        else:
            delta = None if c["delta"] is None else Fraction(c["delta"])
            table = expand_general(closed_engine_spec(example, delta), K, D)
        if c["regroup"] == "total":
            table = regroup_total_degree(table)
        return emit_table(table, c["format"]) + "\n"
    raise ValueError(cls)


def _check_cli(op: dict, out: dict):
    cls = op["cls"]
    if "exception" in out:
        if cls == "invalid" and op["error_class"] == "delta_pole" and "--closed" in op["argv"] \
                and out["exception"] == "ZeroDivisionError":
            return "closed_delta_pole_zero_division"
        return f"unexpected: {out['exception']}: {out['message']}"
    code, stdout, stderr = out["exit"], out["stdout"], out["stderr"]
    if cls == "invalid":
        if code == 1 and stdout == "" and _ERROR_LINE.search(stderr):
            return None
        if op["error_class"] == "delta_pole" and "--closed" in op["argv"] and code == 0:
            return "closed_delta_pole_accepted"
        return f"unexpected: invalid request exited {code}"
    if code != 0 or stderr:
        if cls == "quotient_negfrac" and code == 1 and "expected 2 arguments" in stderr:
            return "nargs2_negative_fraction"
        return f"unexpected: exit {code}: {stderr.strip()[-200:]}"
    c = op.get("check", {})
    if cls == "tables":
        ok = digest(stdout) == DIGESTS[op_key(op)]
    elif cls == "pf":
        factors = lambda fs: [(LinearParam(Fraction(a), Fraction(b)), n) for a, b, n in fs]
        quotient = PochProductQuotient(factors(c["numer"]), factors(c["denom"]))
        form = decompose_multi(quotient)
        ok = stdout == f"{form}\n" and _pf_recombines(quotient, form)
    elif cls == "expand_spec":
        K, D = c["K"], c["D"]
        terms = {
            (m1, m2): cauchy_term(c["spec"], m1, m2, K)
            for m1 in range(D + 1)
            for m2 in range(D + 1 - m1)
        }
        want = ["k,m1,m2,coefficient"] + [
            f"{k},{m1},{m2},{terms[m1, m2][k]}" for k in range(K + 1) for m1, m2 in sorted(terms)
        ]
        ok = stdout == "\n".join(want) + "\n"
    else:
        ok = stdout == _expected_stdout(op)
    return None if ok else f"unexpected: wrong output for {' '.join(op['argv'])}"


def check(op: dict, out: dict):
    if op["kind"] == "cli":
        return _check_cli(op, out)
    if "exception" in out:
        return f"unexpected: {out['exception']}: {out['message']}"
    if op["kind"] == "verify_all":
        ids = [identity for identity, _, _ in out["summary"]]
        failed = [identity for identity, _, passed in out["summary"] if not passed]
        if failed or ids != DIGESTS["verify_all"]:
            return f"unexpected: verify_all failed {failed} or ran {len(ids)} relations"
        return None
    if out["entries"] != entries(op):
        return f"unexpected: {out['entries']} entries, want {entries(op)}"
    if "spec" in op:
        for point, got in out["samples"].items():
            m1, m2 = (int(x) for x in point.split(","))
            want = [str(v) for v in cauchy_term(op["spec"], m1, m2, op["K"])]
            if got != want:
                return f"unexpected: {op['spec']['name']} differs at lattice point {point}"
        return None
    if out["digest"] != DIGESTS[op_key(op)]:
        return f"unexpected: digest of {op_key(op)} changed"
    return None
