"""Print two sha256 lines, over the engine's output and over the public records,
for comparing Python versions.

The first digest covers the csv tables of `expand_general` on the engine specs
of F1 (K=6, D=18), F5 (K=6, D=30) and F6 at delta = 1/3 (K=6, D=18), and the
type name and repr of every entry of `delta_dual_expand` on dF7 (K=4, D=10), in
key order.  The second covers one instance of each public record: its repr, its
`==` with a copy rebuilt from its fields, whether it hashes as the tuple of its
fields (or the type of error that hashing raises), its pickle round trip and a
class pattern that binds every field.  Standard library only; it imports pochex
from the checkout's src/:

    python3 tests/engine_digest.py
"""

import hashlib
import pickle
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pochex.hyper_expand import (  # noqa: E402
    closed_engine_spec,
    delta_dual_expand,
    emit_table,
    expand_closed,
    expand_general,
)
from pochex.partial_fractions import PochProductQuotient, decompose_multi  # noqa: E402
from pochex.pochhammer import LinearParam  # noqa: E402
from pochex.specfile import parse_spec_text  # noqa: E402
from pochex.verify import (  # noqa: E402
    CheckSummary,
    GenFunId,
    GenFunResult,
    IdentityId,
    IdentityResult,
)

TABLES = (("F1", None, 6, 18), ("F5", None, 6, 30), ("F6", Fraction(1, 3), 6, 18))

SPEC = """\
[function]
name = mine
[numerator]
poch = 1 -2 : 0 1 1
[denominator]
poch = 1/2 -1 : 1 1 0
[params]
delta = 1/3
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
    genfun = GenFunResult(GenFunId.a7, {"k": 0}, 12, False, 2)
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


if __name__ == "__main__":
    print(digest())
    print(record_digest())
