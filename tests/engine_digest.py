"""Print one sha256 over the engine's output, for comparing Python versions.

The digest covers the csv tables of `expand_general` on the engine specs of
F1 (K=6, D=18), F5 (K=6, D=30) and F6 at delta = 1/3 (K=6, D=18), and the type
name and repr of every entry of `delta_dual_expand` on dF7 (K=4, D=10), in key
order.  Standard library only; it imports pochex from the checkout's src/:

    python3 tests/engine_digest.py
"""

import hashlib
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pochex.hyper_expand import (  # noqa: E402
    closed_engine_spec,
    delta_dual_expand,
    emit_table,
    expand_general,
)

TABLES = (("F1", None, 6, 18), ("F5", None, 6, 30), ("F6", Fraction(1, 3), 6, 18))


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


if __name__ == "__main__":
    print(digest())
