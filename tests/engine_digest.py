"""Print three sha256 lines, over the engine's output, over the public records and
over a sweep of the library's calls, for comparing Python versions.

The first digest covers the csv tables of `expand_general` on the engine specs
of F1 (K=6, D=18), F5 (K=6, D=30) and F6 at delta = 1/3 (K=6, D=18), and the
type name and repr of every entry of `delta_dual_expand` on dF7 (K=4, D=10), in
key order.  The second covers one instance of each public record: its repr, its
`==` with a copy rebuilt from its fields, whether it hashes as the tuple of its
fields (or the type of error that hashing raises), its pickle round trip and a
class pattern that binds every field.  The third covers each call of `sweep()`,
the verify calls last, with its arguments and its result's type name and repr
(an `EpsSeries` also with the type of each coefficient), or its `PochexError`'s
type and message.  Standard library only; it imports pochex from the checkout's
src/:

    python3 tests/engine_digest.py

With `--lines` it prints, in place of the three digests, each hashed line of the
sweep, `name(args) -> outcome`, so that two checkouts' outcomes can be diffed
when the third digest moves.
"""

import hashlib
import pickle
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pochex.duals import Dual  # noqa: E402
from pochex.errors import PochexError  # noqa: E402
from pochex.hyper_expand import (  # noqa: E402
    closed_engine_spec,
    delta_dual_expand,
    emit_table,
    expand_closed,
    expand_general,
)
from pochex.partial_fractions import (  # noqa: E402
    PochProductQuotient,
    decompose_multi,
    pf_derivative,
    quotient_deriv,
)
from pochex.pochhammer import (  # noqa: E402
    LinearParam,
    PochMethod,
    RecipMethod,
    poch_deriv,
    poch_eps_series,
    pochhammer,
    recip_poch_deriv,
    recip_poch_laurent,
)
from pochex.series import EpsSeries, polynomial_series, series_invert  # noqa: E402
from pochex.specfile import parse_spec_text  # noqa: E402
from pochex.verify import (  # noqa: E402
    CheckSummary,
    GenFunId,
    GenFunResult,
    IdentityId,
    IdentityResult,
    run_relation,
    verify_all,
    verify_ids,
)

TABLES = (("F1", None, 6, 18), ("F5", None, 6, 30), ("F6", Fraction(1, 3), 6, 18))

SPEC = """\
[function]
name = mine
[numerator]
poch = 1 -2 : 0 1 1
[denominator]
poch = 1/2 -1 : 1 1 0
[options]
eps_order = 2
regroup = total
"""


def digest() -> str:
    h = hashlib.sha256()
    for name, delta, eps_order, degree_bound in TABLES:
        table = expand_general(closed_engine_spec(name, delta), eps_order, degree_bound)
        h.update(emit_table(table, "csv").encode())
        h.update(b"\n")
    entries = delta_dual_expand(closed_engine_spec("dF7_ddelta"), 4, 10).entries
    for key in sorted(entries):
        h.update(f"{key} {type(entries[key]).__name__} {entries[key]!r}\n".encode())
    return h.hexdigest()


def records() -> list:
    """One instance of each public record."""
    spec, options = parse_spec_text(SPEC)
    (param, law), = spec.numer
    quotient = PochProductQuotient([(LinearParam(3, 0), 1)], [(LinearParam(1, 1), 2)])
    form = decompose_multi(quotient)
    identity = IdentityResult(IdentityId.A9, {"m": 2}, Fraction(1), Fraction(2, 3))
    genfun = GenFunResult(GenFunId.a7, {"k": 0}, 12, 2)
    return [
        param, law, spec, expand_closed("F1", 1, 2), form.terms[0], form, options,
        identity, genfun, CheckSummary("A9", 2, (identity, genfun)),
    ]


def matched(record) -> tuple:
    """The fields of `record` as bound by a class pattern with one subpattern per field."""
    cls, count = type(record), len(type(record).__match_args__)
    match record:
        case cls(a, b) if count == 2:
            return a, b
        case cls(a, b, c) if count == 3:
            return a, b, c
        case cls(a, b, c, d) if count == 4:
            return a, b, c, d
        case cls(a, b, c, d, e) if count == 5:
            return a, b, c, d, e
    raise AssertionError(f"no pattern binds {record!r}")


def record_digest() -> str:
    h = hashlib.sha256()
    for record in records():
        cls = type(record)
        fields = tuple(getattr(record, name) for name in cls.__match_args__)
        try:
            hashed = hash(record) == hash(fields)
        except TypeError as exc:
            hashed = type(exc).__name__
        clone = pickle.loads(pickle.dumps(record))
        same = type(clone) is cls and clone == record and repr(clone) == repr(record)
        rebuilt = cls(*fields)
        line = (repr(record), cls.__match_args__, rebuilt == record, rebuilt != record,
                hashed, same, matched(record) == fields)
        h.update(f"{line!r}\n".encode())
    return h.hexdigest()


F, LP = Fraction, LinearParam
SCALARS = (F(0), F(1, 3), F(-5, 2), F(7, 4), -1, -3, Dual(F(1, 3), 1), Dual(-2, F(1, 2)))
SLOPES = (F(1), F(-1, 2), F(0), Dual(1, 1))
QUOTIENTS = (
    ([(LP(1, 1), 2)], [(LP(2, 1), 1), (LP(F(1, 2), -1), 3)]),
    ([(LP(3, 0), 1)], [(LP(1, 1), 2)]),
    ([], [(LP(F(1, 3), 2), 3)]),
    ([(LP(1, -1), 2)], [(LP(1, 2), 1), (LP(F(-3, 2), 1), 2)]),
    ([(LP(Dual(F(1, 3), 1), 1), 1)], [(LP(1, 1), 2)]),
    ([(LP(1, Dual(1, 1)), 1)], [(LP(1, 1), 2)]),
    ([], [(LP(1, 1), 2), (LP(2, 1), 1)]),
    ([(LP(1, 1), 3)], [(LP(1, 2), 2)]),
    ([], [(LP(Dual(1, 1), 1), 2)]),
    ([], [(LP(-1, 0), 2)]),
)
# Coefficient runs of the series calls: rationals, with and without a zero lead,
# nonzero Duals (one with a zero value part), a Dual(0, 0) inside and in the lead,
# and all zeros.  Each is used at min exponents -1, 0 and 2.
ROWS = (
    (F(1, 3), F(-2), F(5, 4), F(1)),
    (F(0), F(3, 2), F(-1, 5)),
    (Dual(F(1, 2), 1), F(0), Dual(-1, F(1, 3))),
    (Dual(0, 1), F(2), F(1, 7)),
    (F(2), Dual(0, 0), F(-1, 2), Dual(F(1, 4), -2)),
    (Dual(0, 0), F(1), F(0)),
    (F(0), F(0)),
)


# A13's points given as ints, integral Fractions and rationals, repeated.
GRID = [{"m": 3, "k": 1, "alpha": 2}, {"m": F(4), "k": 2, "alpha": F(1, 3)}] * 2


def shown(result) -> str:
    text = f"{type(result).__name__} {result!r}"
    if isinstance(result, EpsSeries):
        text += " " + " ".join(type(c).__name__ for c in result.coefficients)
    return text


def outcome(call, *args) -> str:
    """`call(*args)` as its result, or as the PochexError it raises."""
    try:
        return shown(call(*args))
    except PochexError as exc:
        return f"{type(exc).__name__}: {exc}"


def sweep():
    """Yield (name, arguments, outcome) for each public call of the sweep.  The
    series calls name their operands by index: series i is the `EpsSeries` line
    whose arguments start with i."""
    for alpha in SCALARS:
        for m in range(9):
            yield "pochhammer", (alpha, m), outcome(pochhammer, alpha, m)
            for k in range(m + 2):
                for method in PochMethod:
                    yield "poch_deriv", (alpha, m, k, method.value), outcome(
                        poch_deriv, alpha, m, k, method
                    )
                for method in RecipMethod:
                    yield "recip_poch_deriv", (alpha, m, k, method.value), outcome(
                        recip_poch_deriv, alpha, m, k, method
                    )
    for constant in (F(1, 3), -2, 1, Dual(F(1, 3), 1)):
        for slope in SLOPES:
            for m in range(7):
                for order in (-1, 0, 2, 4):
                    param = LP(constant, slope)
                    yield "poch_eps_series", (param, m, order), outcome(
                        poch_eps_series, param, m, order
                    )
    for n in range(4):
        for b in (*SLOPES, F(2, 3)):
            for m in range(6):
                for order in range(4):
                    yield "recip_poch_laurent", (n, b, m, order), outcome(
                        recip_poch_laurent, n, b, m, order
                    )
    for index, (numer, denom) in enumerate(QUOTIENTS):
        try:
            form = decompose_multi(PochProductQuotient(numer, denom))
        except PochexError as exc:
            yield "decompose_multi", (index,), f"{type(exc).__name__}: {exc}"
            continue
        yield "decompose_multi", (index,), shown(form)
        yield "str", (index,), str(form)
        for k in range(4):
            for at_eps in (0, F(1, 5), -1, F(1, 2), Dual(0, 1)):
                yield "pf_derivative", (index, k, at_eps), outcome(
                    pf_derivative, form, k, at_eps
                )
    for num in (LP(1, 1), LP(F(1, 3), -2), LP(Dual(F(1, 2), 1), 1)):
        for den in (LP(2, 1), LP(F(1, 2), -1), LP(3, 0), LP(-1, 0)):
            for m in range(4):
                for n in range(4):
                    for k in (0, 2):
                        for at_eps in (0, F(1, 7)):
                            yield "quotient_deriv", (num, m, den, n, k, at_eps), outcome(
                                quotient_deriv, num, m, den, n, k, at_eps
                            )
    for name in ("F6", "F7"):
        spec = closed_engine_spec(name, Dual(F(1, 3), 1))
        entries = expand_general(spec, 3, 6).entries
        for key in sorted(entries):
            yield "expand_general", (name, key), shown(entries[key])
    windows = [(row, low) for row in ROWS for low in (-1, 0, 2)]
    series = [EpsSeries(row, low) for row, low in windows]
    for index, (row, low) in enumerate(windows):
        yield "EpsSeries", (index, row, low), shown(series[index])
    for i, a in enumerate(series):
        for j, b in enumerate(series):
            yield "mul", (i, j), outcome(a.__mul__, b)
            yield "add", (i, j), outcome(a.__add__, b)
            yield "eq", (i, j), outcome(a.__eq__, b)
        yield "neg", (i,), outcome(a.__neg__)
        yield "series_invert", (i,), outcome(series_invert, a)
        for factor in (0, F(-3, 2), Dual(1, 1), Dual(0, 0)):
            yield "scaled", (i, factor), outcome(a.scaled, factor)
        for offset in (-2, 0, 3):
            yield "shifted", (i, offset), outcome(a.shifted, offset)
        for new_max in (-2, 0, 1, 4):
            yield "truncated", (i, new_max), outcome(a.truncated, new_max)
    for row in ROWS:
        for order in (0, 2, 5):
            yield "polynomial_series", (row, order), outcome(polynomial_series, row, order)
    yield "verify_all", (), outcome(
        lambda: [(summary.identity, summary.points, summary.passed) for summary in verify_all()]
    )
    for tokens in (["A9", "a4", "A27", "A25", "A9", "nueva1", "iii5"], ["A9", "zz"]):
        yield "verify_ids", (tokens,), outcome(verify_ids, tokens)
    for grid in (GRID, GRID + [{"m": 1, "k": 2, "alpha": 0}]):
        yield "run_relation", ("A13", grid), outcome(run_relation, "A13", grid)


def library_lines():
    """The hashed line of each call of `sweep()`: `name(args) -> outcome`."""
    for name, args, result in sweep():
        yield f"{name}{args!r} -> {result}\n"


def library_digest() -> str:
    h = hashlib.sha256()
    for line in library_lines():
        h.update(line.encode())
    return h.hexdigest()


if __name__ == "__main__":
    if sys.argv[1:] == ["--lines"]:
        sys.stdout.writelines(library_lines())
    else:
        print(digest())
        print(record_digest())
        print(library_digest())
